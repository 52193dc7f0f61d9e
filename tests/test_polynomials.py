"""Polynomial arithmetic, weighted gradings, partial derivatives, and the
Euler operator."""

import itertools
import random

import pytest

import oracles
from unramified.fields import QQ, prime_field
from unramified.polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    cast,
    euler_apply,
    format_polynomial,
    mono_div,
    mono_lcm,
    mono_mul,
    monomials_of_weighted_degree,
    partial_derivative,
    substitute,
    weighted_degree,
)

R = PolyRing(QQ, ("X", "Y"))
X, Y = R.variable("X"), R.variable("Y")


def random_polynomial(rng: random.Random, ring: PolyRing, max_exp: int = 3,
                      max_terms: int = 4) -> Polynomial:
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(1, max_exp + 1) if rng.random() < 0.6 else 0
                     for _ in range(ring.nvars))
        coeff = ring.field.from_int(rng.randrange(-5, 6))
        if not coeff.is_zero():
            terms.append((mono, coeff))
    return oracles.polynomial(ring, terms)


def test_monomial_helpers():
    a = (2, 1)
    b = (0, 2)
    assert mono_mul(a, b) == (2, 3)
    assert mono_lcm(a, b) == (2, 2)
    assert mono_div(a, (1, 0)) == (1, 1)
    assert mono_div(b, a) is None


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(QQ, ("X", "X"))
    with pytest.raises(ValueError):
        PolyRing(QQ, ("X",), (0,))
    from unramified.fields import rational_functions
    with pytest.raises(ValueError):
        PolyRing(rational_functions(2), ("x", "Y"))


def test_monomial_builder():
    assert R.monomial({"X": 2, 1: 1}, 3) == 3 * X ** 2 * Y
    for bad in ({2: 1}, {-1: 1}, {"X": -1}):
        with pytest.raises(ValueError):
            R.monomial(bad)


def test_product_difference_of_squares():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2


def test_frobenius_squaring():
    R2 = PolyRing(prime_field(2), ("X", "Y"))
    X2, Y2 = R2.variable("X"), R2.variable("Y")
    assert (X2 + Y2) ** 2 == X2 ** 2 + Y2 ** 2


def test_f_coefficient():
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    assert F.terms[(2, 2)] == QQ.one()


def test_partial_derivatives_factor():
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    assert partial_derivative(F, "X") == X * (2 * Y ** 2 + 5 * X ** 3)
    assert partial_derivative(F, "Y") == Y * (2 * X ** 2 + 5 * Y ** 3)
    assert partial_derivative(Y ** 3, "X").is_zero()
    with pytest.raises(ValueError):
        partial_derivative(F, "W")


def test_weighted_degrees():
    assert weighted_degree(X ** 2 * Y ** 2) == 4
    W = PolyRing(QQ, ("X", "Y"), (2, 1))
    XW, YW = W.variable("X"), W.variable("Y")
    assert weighted_degree(XW + YW ** 2) == 2
    V = PolyRing(QQ, ("X", "Y"), (1, 2))
    XV, YV = V.variable("X"), V.variable("Y")
    assert weighted_degree(XV + YV) is None
    assert weighted_degree(V.zero()) == 0


def test_euler_monomial():
    G = X ** 2 * Y ** 3
    assert euler_apply(G) == G.scale(5)


def test_euler_recovers_the_square_term():
    # F - (1/n) * euler(F) isolates (1 - 4/n) X^2 Y^2 for F = X^2Y^2 + X^n + Y^n
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    fifth = oracles.scalar(QQ, 1, 5)
    assert F - euler_apply(F).scale(fifth) == (X ** 2 * Y ** 2).scale(fifth)


def test_euler_characteristic_kills_degree():
    Rp = PolyRing(prime_field(5), ("X",))
    Xp = Rp.variable("X")
    assert euler_apply(Xp ** 5).is_zero()


def test_euler_homogeneous_identity_randomized():
    rng = random.Random(7)
    for _ in range(60):
        field = rng.choice([QQ, prime_field(2), prime_field(5)])
        nvars = rng.randrange(1, 4)
        weights = tuple(rng.randrange(1, 4) for _ in range(nvars))
        ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)), weights)
        degree = rng.randrange(1, 10)
        monos = monomials_of_weighted_degree(ring, degree)
        if not monos:
            continue
        terms = {m: field.from_int(rng.randrange(1, 5))
                 for m in rng.sample(monos, k=min(3, len(monos)))}
        g = Polynomial(ring, {m: c for m, c in terms.items() if not c.is_zero()})
        assert euler_apply(g) == g.scale(degree)


def test_euler_is_a_derivation():
    rng = random.Random(11)
    for _ in range(40):
        g = random_polynomial(rng, R)
        h = random_polynomial(rng, R)
        assert euler_apply(g * h) == euler_apply(g) * h + g * euler_apply(h)
        assert euler_apply(g + h) == euler_apply(g) + euler_apply(h)


def test_partials_commute():
    rng = random.Random(13)
    for _ in range(40):
        g = random_polynomial(rng, R)
        xy = partial_derivative(partial_derivative(g, "X"), "Y")
        yx = partial_derivative(partial_derivative(g, "Y"), "X")
        assert xy == yx


def test_canonical_shuffled_sum():
    rng = random.Random(17)
    for _ in range(30):
        g = random_polynomial(rng, R)
        items = list(g.terms.items())
        rng.shuffle(items)
        rebuilt = R.zero()
        for m, c in items:
            rebuilt = rebuilt + Polynomial(R, {m: c})
        assert rebuilt == g
        assert rebuilt.terms == g.terms


def test_cast_rejects_colliding_variables():
    with pytest.raises(ValueError):
        cast(X * Y, PolyRing(QQ, ("Z",)), {"X": "Z", "Y": "Z"})
    target = PolyRing(QQ, ("Y", "Z"))
    Y1, Z = target.variable("Y"), target.variable("Z")
    assert cast(X * Y ** 2, target, {"X": "Z"}) == Z * Y1 ** 2


def test_substitute():
    target = PolyRing(QQ, ("U",))
    U = target.variable("U")
    image = substitute(X ** 2 + Y, {"X": U, "Y": U ** 3}, target)
    assert image == U ** 2 + U ** 3
    with pytest.raises(ValueError):
        substitute(X + Y, {"X": U}, target)


def test_monomials_of_weighted_degree():
    ring = PolyRing(QQ, ("X", "Y"), (2, 3))
    monos = monomials_of_weighted_degree(ring, 6)
    as_polys = {format_polynomial(Polynomial(ring, {m: QQ.one()})) for m in monos}
    assert as_polys == {"X^3", "Y^2"}
    assert monomials_of_weighted_degree(ring, 1) == []
    assert monomials_of_weighted_degree(ring, 0) == [(0, 0)]


@pytest.mark.parametrize("weights", [(1, 2, 3), (2, 3), (1, 1, 1), ()])
def test_monomials_of_weighted_degree_equal_a_filtered_product(weights):
    ring = PolyRing(QQ, tuple(f"X{i}" for i in range(len(weights))), weights)
    for degree in range(-1, 13):
        expected = sorted(
            (m for m in itertools.product(range(max(degree, 0) + 1), repeat=len(weights))
             if ring.weighted_degree(m) == degree),
            key=ring.monomial_key)
        assert monomials_of_weighted_degree(ring, degree) == expected, degree


def test_module_vectors():
    v = oracles.vector(R, [X, Y ** 2])
    w = oracles.vector(R, [R.zero(), -(Y ** 2)])
    assert (v + w).component(0) == X
    assert (v + w).component(1).is_zero()
    assert v.poly_mul(Y).component(0) == X * Y
    ((comp, mono), coeff) = v.leading()
    assert comp == 0  # earlier components dominate in position-over-term
    with pytest.raises(ValueError):
        ModuleVector.unit(R, 2, 5)


def test_ring_mismatch():
    other = PolyRing(QQ, ("X", "Z"))
    with pytest.raises(ValueError):
        X + other.variable("Z")
