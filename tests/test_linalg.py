"""Exact row reduction, rank, and kernels over the three coefficient fields,
and the matrix product oracle that checks matrices of composite maps."""

import random
from fractions import Fraction

import pytest

import oracles
from unramified import linalg
from unramified.fields import QQ, FieldElement, prime_field, rational_functions


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


KERNEL_FIELDS = [prime_field(2), prime_field(3), prime_field(7), QQ, rational_functions(5)]


def _random_entry(rng, field):
    """A nonzero element: a residue, a small ratio over QQ, or over F_5(x) a
    ratio of polynomials of degree at most 2."""
    while True:
        if field.kind == "FpX":
            num = tuple(rng.randrange(field.p) for _ in range(rng.randrange(1, 4)))
            den = tuple(rng.randrange(field.p) for _ in range(rng.randrange(1, 4)))
            value = field.from_ratio(num, den) if any(den) else field.zero()
        elif field.kind == "Fp":
            value = field.from_int(rng.randrange(field.p))
        else:
            value = oracles.scalar(field, rng.randrange(-4, 5), rng.randrange(1, 4))
        if not value.is_zero():
            return value


def _sparse_matrices(rng, field):
    """(rows, ncols): seeded sparse matrices of up to 7 x 7, then an empty
    matrix with and without columns, a matrix with an all-zero column, and
    a full-rank one (a unit upper triangle, so no vector is left over)."""
    zero = field.zero()
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        density = rng.choice((0.15, 0.3, 0.6))
        yield [[_random_entry(rng, field) if rng.random() < density else zero
                for _ in range(ncols)] for _ in range(nrows)], ncols
    yield [], 0
    yield [], 3
    yield [[_random_entry(rng, field), zero, _random_entry(rng, field)],
           [zero, zero, _random_entry(rng, field)]], 3
    yield [[field.one() if i == j else _random_entry(rng, field) if j > i else zero
            for j in range(5)] for i in range(5)], 5


def _rref_kernel(rows, ncols, field):
    """e_f - sum rref[r][f] e_{c_r} for each free column f, as dicts in
    index order, from the dense row reduction."""
    rref, pivots = linalg.row_reduce(rows, ncols, field)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = {c: -rref[r][f] for r, c in enumerate(pivots) if c < f and not rref[r][f].is_zero()}
        vec[f] = field.one()
        out.append(dict(sorted(vec.items())))
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_sparse_kernel_is_the_reduced_echelon_kernel(field):
    """Each kernel vector of the sparse columns is the one that dense row
    reduction reads off the reduced row echelon form, key order included;
    its entries are elements, and over QQ their payloads are Fractions.
    The dense kernel basis is the same vectors."""
    rng = random.Random(31 + field.p)
    shapes = set()
    for rows, ncols in _sparse_matrices(rng, field):
        columns = [{i: field.raw(row[j]) for i, row in enumerate(rows) if not row[j].is_zero()}
                   for j in range(ncols)]
        kernel = linalg.sparse_kernel(columns, field)
        want = _rref_kernel(rows, ncols, field)
        assert kernel == want
        assert [list(vec) for vec in kernel] == [list(vec) for vec in want]
        for vec in kernel:
            assert all(isinstance(v, FieldElement) and v.field == field for v in vec.values())
            if field == QQ:
                assert all(type(v.payload) is Fraction for v in vec.values())
        dense = [[vec.get(j, field.zero()) for j in range(ncols)] for vec in kernel]
        assert linalg.kernel_basis(rows, ncols, field) == dense
        shapes.add((len(rows), ncols, len(kernel)))
    # the empty and full-rank cases were among them
    assert (5, 5, 0) in shapes and (0, 3, 3) in shapes and (0, 0, 0) in shapes
