"""Exact row reduction, rank, and kernels over the three coefficient fields,
and the matrix product oracle that checks matrices of composite maps."""

import pytest

import oracles
from unramified import linalg
from unramified.fields import QQ, prime_field


def M(field, rows):
    return [[field.from_int(v) for v in row] for row in rows]


def test_rank_and_rref():
    rows = M(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rref, pivots = linalg.row_reduce(rows, 3, QQ)
    assert pivots == [0, 1]
    assert linalg.rank(rows, 3, QQ) == 2


@pytest.mark.parametrize("field", [QQ, prime_field(5)], ids=str)
def test_row_reduce_leaves_its_input_alone(field):
    """The reduction updates its working rows in place; the caller's rows
    and their lists stay as they were."""
    rows = M(field, [[0, 2, 1, 3], [1, 1, 0, 2], [2, 0, 4, 1]])
    snapshot = [list(row) for row in rows]
    lists = [id(row) for row in rows]
    linalg.row_reduce(rows, 4, field)
    assert rows == snapshot
    assert [id(row) for row in rows] == lists


def test_kernel_basis():
    rows = M(QQ, [[1, 0, -1], [0, 1, 2]])
    basis = linalg.kernel_basis(rows, 3, QQ)
    assert len(basis) == 1
    vec = basis[0]
    assert [str(v) for v in vec] == ["1", "-2", "1"]
    for row in rows:
        total = QQ.zero()
        for a, b in zip(row, vec):
            total = total + a * b
        assert total.is_zero()


def test_kernel_over_prime_field():
    F3 = prime_field(3)
    rows = M(F3, [[1, 2], [2, 4]])
    basis = linalg.kernel_basis(rows, 2, F3)
    assert len(basis) == 1


def test_empty_edge_cases():
    assert linalg.rank([], 3, QQ) == 0
    assert len(linalg.kernel_basis([], 2, QQ)) == 2
    assert linalg.kernel_basis([], 0, QQ) == []


def test_matmul():
    a = M(QQ, [[1, 2], [3, 4]])
    b = M(QQ, [[0, 1], [1, 0]])
    product = oracles.matmul(a, b, QQ.zero())
    assert [[str(v) for v in row] for row in product] == [["2", "1"], ["4", "3"]]


@pytest.mark.parametrize("a,b", [
    ([[1]], []),
    ([[1, 2]], [[1]]),
    ([[1], [1, 2]], [[1]]),
])
def test_matmul_rejects_disagreeing_inner_dimensions(a, b):
    with pytest.raises(ValueError, match="inner dimensions disagree"):
        oracles.matmul(M(QQ, a), M(QQ, b), QQ.zero())
