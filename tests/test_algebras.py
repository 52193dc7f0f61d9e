"""Quotient algebras: stabilized local models against the independent
truncation oracle, tensor products, maps, and nilpotency."""

import itertools
from fractions import Fraction

import pytest

import oracles
from unramified import linalg
from unramified.algebras import (
    MODE_GRADED,
    AlgebraMap,
    Presentation,
    artinian_local_model,
    compose,
    has_nonzero_nilpotent,
    identity_map,
    is_injective,
    is_local_with_nilpotent_generators,
    make_map,
    make_quotient,
    nilpotency_index,
    quotient_by,
    tensor_many,
    tensor_quotient,
)
from unramified.errors import BudgetExceededError, NotMPrimaryError
from unramified.fields import QQ, prime_field
from unramified.groebner import buchberger, step_budget
from unramified.polynomials import PolyRing, Polynomial, format_polynomial

R = PolyRing(QQ, ("X", "Y"))
X, Y = R.variable("X"), R.variable("Y")
RZ = PolyRing(QQ, ("Z",))
Z = RZ.variable("Z")


def test_make_quotient_dimensions():
    dual = make_quotient(Presentation(RZ, (Z ** 2,)))
    assert dual.dimension == 2
    assert [format_polynomial(Polynomial(RZ, {m: QQ.one()}))
            for m in dual.basis_monomials()] == ["1", "Z"]
    for t in (1, 2, 5):
        a = make_quotient(Presentation(RZ, (Z ** t,)))
        assert a.dimension == t
    free = make_quotient(Presentation(PolyRing(QQ, ("X",)), ()))
    assert free.dimension is None
    assert not free.is_finite


def test_graded_mode_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        Presentation(R, (X ** 2 - Y,), MODE_GRADED)


def test_artinian_monomial_ideal():
    model = artinian_local_model(R, [X ** 2, Y ** 3])
    assert model.dimension == 6
    assert model.stabilization_exponent == 4


def test_artinian_b5_matches_truncation_oracle(b5):
    B, _ = b5
    xf1 = {(1, 2): Fraction(2), (4, 0): Fraction(5)}
    yf2 = {(2, 1): Fraction(2), (0, 4): Fraction(5)}
    dim, exponent = oracles.stabilized_local_dimension([xf1, yf2], 2)
    assert B.dimension == dim
    assert B.stabilization_exponent == exponent


def test_artinian_model_truncates_by_unweighted_degree():
    """m^N is generated by the monomials of total degree N, whatever the
    weights, so a weighted ring gives the unweighted dimension and N."""
    W = PolyRing(QQ, ("X", "Y"), (2, 3))
    U, V = W.variable("X"), W.variable("Y")
    for plain, weighted in (
            ([X ** 2, Y ** 3], [U ** 2, V ** 3]),
            ([X * (2 * Y ** 2 + 5 * X ** 3), Y * (2 * X ** 2 + 5 * Y ** 3)],
             [U * (2 * V ** 2 + 5 * U ** 3), V * (2 * U ** 2 + 5 * V ** 3)])):
        expected = artinian_local_model(R, plain)
        model = artinian_local_model(W, weighted)
        assert model.dimension == expected.dimension
        assert model.stabilization_exponent == expected.stabilization_exponent


def test_artinian_requires_m_primary():
    with pytest.raises(NotMPrimaryError, match="truncation limit m\\^64"):
        artinian_local_model(R, [X])


def test_artinian_stability_beyond_the_first_repeat(b5):
    # recomputing with larger truncations must not change the answer
    B, _ = b5
    n = B.stabilization_exponent
    from unramified.algebras import _power_generators
    for extra in (1, 2):
        relations = [X * (2 * Y ** 2 + 5 * X ** 3), Y * (2 * X ** 2 + 5 * Y ** 3)]
        relations += _power_generators(R, n + extra)
        bigger = make_quotient(Presentation(R, tuple(relations)))
        assert bigger.dimension == B.dimension
        assert bigger.staircase.monomials == B.staircase.monomials


def test_element_arithmetic_in_b5(b5):
    B, f = b5
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    assert not f.is_zero()
    assert B.reduce(F) == f
    assert B.is_zero_element(F * F)
    assert B.is_zero_element(X * Y ** 3)
    assert B.reduce(F * F).is_zero()


def test_tensor_products(b5, dual_numbers):
    RW = PolyRing(QQ, ("W",))
    other = make_quotient(Presentation(RW, (RW.variable("W") ** 2,)))
    pres, _ = tensor_many([dual_numbers, other])
    T = make_quotient(pres)
    assert T.dimension == 4
    assert T.ring.names == ("Z#1", "W#2")

    B, _ = b5
    pres2, _ = tensor_many([B, B])
    T2 = make_quotient(pres2)
    assert T2.dimension == B.dimension ** 2

    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    pres3, _ = tensor_many([dual_numbers, ground])
    T3 = make_quotient(pres3)
    assert T3.dimension == dual_numbers.dimension

    with pytest.raises(ValueError):
        tensor_many([dual_numbers, make_quotient(
            Presentation(PolyRing(prime_field(2), ("W",)), ()))])


def _built(algebra) -> bool:
    return "groebner" in vars(algebra)


def test_a_plain_quotient_builds_its_basis_when_first_read():
    for relations in [(X ** 2 - Y, X * Y - 1), (X ** 3, Y ** 2, X * Y), ()]:
        quotient = make_quotient(Presentation(R, relations))
        assert not _built(quotient)
        assert quotient.groebner.generators == buchberger(relations or [R.zero()]).generators


def test_a_tensor_product_builds_the_union_when_first_read():
    """No factor's basis is read before the product's, which then equals
    the basis of the tensor presentation built from scratch."""
    RW = PolyRing(QQ, ("W",))
    W = RW.variable("W")
    ground = PolyRing(QQ, ())
    for make in [lambda: [make_quotient(Presentation(R, (X ** 2 - Y, Y ** 3))),
                          make_quotient(Presentation(RW, (W ** 2,)))],
                 lambda: [make_quotient(Presentation(RZ, (Z ** 3,)))] * 3,
                 lambda: [make_quotient(Presentation(RW, (W ** 2,))),
                          make_quotient(Presentation(ground, ()))],
                 lambda: [make_quotient(Presentation(RW, (W ** 2,))),
                          make_quotient(Presentation(RZ, (Z, Z - 1)))]]:
        factors = make()
        product, _ = tensor_quotient(factors)
        assert not any(_built(a) for a in factors + [product])
        expected = make_quotient(tensor_many(factors)[0])
        assert product.groebner.generators == expected.groebner.generators
        assert product.dimension == expected.dimension


def test_a_plain_quotient_spends_from_the_budget_in_force_at_first_read():
    """Made inside one `step_budget` block and read inside another, the
    basis is charged to the second."""
    presentation = Presentation(R, (X ** 2 - Y, X * Y - 1))
    with step_budget(10 ** 6) as made:
        quotient = make_quotient(presentation)
    assert made.remaining == 10 ** 6
    with step_budget(10 ** 6) as read:
        assert quotient.dimension == 3
    assert read.remaining < 10 ** 6
    with step_budget(0):
        quotient = make_quotient(presentation)
    with step_budget(0), pytest.raises(BudgetExceededError):
        quotient.groebner


def test_quotient_by(dual_numbers):
    collapsed = quotient_by(dual_numbers, [Z])
    assert collapsed.dimension == 1
    unchanged = quotient_by(dual_numbers, [RZ.zero()])
    assert unchanged.dimension == dual_numbers.dimension


def test_make_map_checks_every_relation(dual_numbers):
    F2 = prime_field(2)
    ring1 = PolyRing(F2, ("Y",))
    ring2 = PolyRing(F2, ("Y",))
    a1 = make_quotient(Presentation(ring1, (ring1.variable("Y") ** 2,)))
    a2 = make_quotient(Presentation(ring2, (ring2.variable("Y") ** 4,)))
    step = make_map(a1, a2, {"Y": ring2.variable("Y") ** 2})
    assert step.apply(ring1.variable("Y")) == ring2.variable("Y") ** 2
    assert step.apply(ring1.variable("Y") ** 2).is_zero()

    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    with pytest.raises(ValueError, match="not a ring map"):
        make_map(dual_numbers, ground, {"Z": ground.ring.one()})
    # images are named by source variable; a bare list is refused
    with pytest.raises(ValueError, match="cover exactly the source variables"):
        make_map(dual_numbers, dual_numbers, [Z])

    ident = identity_map(dual_numbers)
    assert ident.apply(Z) == Z


def test_maps_between_two_fields_are_refused(dual_numbers):
    ring = PolyRing(prime_field(2), ("Z",))
    other = make_quotient(Presentation(ring, (ring.variable("Z") ** 2,)))
    for build in (make_map, AlgebraMap):
        with pytest.raises(ValueError, match="different coefficient fields"):
            build(dual_numbers, other, {"Z": ring.variable("Z")})
        with pytest.raises(ValueError, match="different coefficient fields"):
            build(other, dual_numbers, {"Z": Z})


def test_linear_matrix_and_injectivity(dual_numbers):
    ident = identity_map(dual_numbers)
    matrix = oracles.linear_matrix(ident)
    assert linalg.rank(matrix, 2, QQ) == 2
    assert is_injective(ident)

    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    crush = make_map(dual_numbers, ground, {"Z": ground.ring.zero()})
    assert linalg.rank(oracles.linear_matrix(crush), 2, QQ) == 1
    assert not is_injective(crush)


def test_matrix_of_composite_is_product(dual_numbers):
    pres, renames = tensor_many([dual_numbers, dual_numbers])
    T = make_quotient(pres)
    inner = make_map(dual_numbers, T, {"Z": T.ring.variable("Z#1")})
    outer = identity_map(T)
    comp = compose(outer, inner)
    left = oracles.linear_matrix(comp)
    right = oracles.matmul(oracles.linear_matrix(outer), oracles.linear_matrix(inner),
                           QQ.zero())
    assert left == right


def test_nilpotency(b5, dual_numbers):
    B, f = b5
    assert nilpotency_index(dual_numbers, Z) == 2
    assert nilpotency_index(B, f) == 2
    assert nilpotency_index(dual_numbers, RZ.one()) is None
    assert nilpotency_index(dual_numbers, RZ.zero()) == 1


def test_locality_predicates(b5, dual_numbers):
    B, _ = b5
    assert is_local_with_nilpotent_generators(B)
    assert has_nonzero_nilpotent(B)
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    assert is_local_with_nilpotent_generators(ground)
    assert not has_nonzero_nilpotent(ground)
    # Z^2 = 1 has non-nilpotent generator away from characteristic 2
    split = make_quotient(Presentation(RZ, (Z ** 2 - 1,)))
    assert not is_local_with_nilpotent_generators(split)
    with pytest.raises(ValueError):
        has_nonzero_nilpotent(split)


def test_maximal_ideal_power_vanishes():
    # m^dim = 0 on small local algebras: every product of dim-many positive
    # degree basis monomials reduces to zero
    for relations in ([Z ** 2], [Z ** 3]):
        a = make_quotient(Presentation(RZ, tuple(relations)))
        gens = [Polynomial(RZ, {m: QQ.one()}) for m in a.basis_monomials() if m != (0,)]
        for combo in itertools.combinations_with_replacement(gens, a.dimension):
            product = RZ.one()
            for g in combo:
                product = product * g
            assert a.is_zero_element(product)
