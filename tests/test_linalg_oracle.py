"""Row reduction, rank and kernels on hypothesis-generated small matrices,
checked against sympy's DomainMatrix.rref over QQ and GF(p), and against the
defining identities over every field, F_p(x) included.  sympy is an oracle
only; the package does not depend on it."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import oracles  # noqa: E402
from unramified import linalg  # noqa: E402
from unramified.fields import (  # noqa: E402
    QQ,
    FieldElement,
    prime_field,
    rational_functions,
)

PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _entries(field):
    """Small entries, zero often, so that rank deficiency is common."""
    if field.kind == "QQ":
        return st.builds(lambda n, d: oracles.scalar(field, n, d),
                         st.integers(-3, 3), st.integers(1, 3))
    if field.kind == "Fp":
        return st.builds(field.from_int, st.integers(0, field.p - 1))
    coeffs = st.lists(st.integers(0, field.p - 1), max_size=3)
    return st.builds(lambda n, d: field.from_ratio(tuple(n), tuple(d)),
                     coeffs, coeffs.filter(any))


@st.composite
def matrices(draw, fields):
    """(field, rows, ncols) with up to 6 rows and 6 columns."""
    field = draw(st.sampled_from(fields))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    entry = _entries(field)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return field, rows, ncols


ORACLE_FIELDS = [QQ] + [prime_field(p) for p in PRIMES]
ALL_FIELDS = ORACLE_FIELDS + [rational_functions(2), rational_functions(3)]


def _sympy_rref(field, rows, ncols):
    """sympy's RREF rows and pivots, its entries as Fraction or int mod p."""
    if field.kind == "QQ":
        K = sympy.QQ
        data = [[K(v.payload.numerator, v.payload.denominator) for v in r] for r in rows]
    else:
        K = sympy.GF(field.p)
        data = [[K(v.payload) for v in r] for r in rows]
    rref, pivots = DomainMatrix(data, (len(rows), ncols), K).rref()
    if field.kind == "QQ":
        out = [[Fraction(int(x.numerator), int(x.denominator)) for x in r]
               for r in rref.to_list()]
    else:
        out = [[int(K.to_int(x)) % field.p for x in r] for r in rref.to_list()]
    return out[:len(pivots)], list(pivots)


def _dot(row, vec, field):
    total = field.zero()
    for a, b in zip(row, vec):
        total = total + a * b
    return total


@SETTINGS
@given(matrices(ORACLE_FIELDS))
def test_row_reduce_matches_sympy(case):
    field, rows, ncols = case
    rref, pivots = linalg.row_reduce(rows, ncols, field)
    want_rows, want_pivots = _sympy_rref(field, rows, ncols)
    assert pivots == want_pivots
    assert [[v.payload for v in r] for r in rref] == want_rows
    assert linalg.rank(rows, ncols, field) == len(want_pivots)


@SETTINGS
@given(matrices(ALL_FIELDS))
def test_reduced_echelon_form_and_kernel_identities(case):
    field, rows, ncols = case
    snapshot = [list(r) for r in rows]
    rref, pivots = linalg.row_reduce(rows, ncols, field)
    assert len(rref) == len(pivots)
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(rref, pivots)):
        assert all(v.is_zero() for v in row[:c])
        assert row[c] == field.one()
        assert all(other[c].is_zero() for j, other in enumerate(rref) if j != i)
    kernel = oracles.kernel_basis(rows, ncols, field)
    assert len(kernel) == ncols - len(pivots)
    for vec in kernel:
        assert len(vec) == ncols
        assert all(_dot(row, vec, field).is_zero() for row in rows)
    assert rows == snapshot
    for out in (rref, kernel):
        assert all(isinstance(v, FieldElement) and v.field == field
                   for r in out for v in r)
