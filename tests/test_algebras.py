"""Quotient algebras: stabilized local models against the independent
truncation oracle, tensor products, maps, and nilpotency."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from unramified import algebras, groebner, linalg
from unramified.algebras import (
    MODE_GRADED,
    MODE_PLAIN,
    AlgebraMap,
    Presentation,
    artinian_local_model,
    compose,
    has_nonzero_nilpotent,
    is_injective,
    make_map,
    make_quotient,
    nilpotency_index,
    quotient_by,
    tensor_many,
    tensor_quotient,
)
from unramified.constructions import standard_local_corpus
from unramified.errors import BudgetExceededError, NotMPrimaryError
from unramified.fields import QQ, RATIONAL_FUNCTIONS, prime_field
from unramified.groebner import buchberger, step_budget
from unramified.parsing import parse_presentation
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
    # local mode asks the parser for a model; the model itself is plain
    assert model.presentation.mode == MODE_PLAIN
    assert quotient_by(model, [X]).presentation.mode == MODE_PLAIN


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


def test_the_local_model_of_the_ground_field():
    """No variables, no relations: the local model is the field itself, and
    its basis builds like that of the plain quotient."""
    model = artinian_local_model(PolyRing(QQ, ()), [])
    assert (model.dimension, model.stabilization_exponent) == (1, 1)
    assert model.basis_monomials() == ((),)


def test_artinian_requires_m_primary():
    with pytest.raises(NotMPrimaryError, match="truncation limit m\\^64"):
        artinian_local_model(R, [X])


def _b_generators(ring, n: int) -> list:
    """X F1 and Y F2, the partial derivatives of F = X^2 Y^2 + X^n + Y^n:
    the relations of B(n)."""
    U, V = (ring.variable(name) for name in ring.names)
    return [U * (2 * V ** 2 + n * U ** (n - 2)), V * (2 * U ** 2 + n * V ** (n - 2))]


def _check_local_model(ring, generators):
    """The local model agrees on (dim, N) with the explicit ascending search
    and with the linear-algebra truncation oracle; its lazily built basis is
    that of the generators and m^N, and its carried locality is the walked
    nilpotency test.  Returns the model."""
    model = artinian_local_model(ring, generators)
    found = (model.dimension, model.stabilization_exponent)
    assert found == oracles.ascending_local_model(ring, generators)
    if ring.field.kind != RATIONAL_FUNCTIONS:
        payloads = [{m: c.payload for m, c in g.terms.items()} for g in generators]
        assert found == oracles.stabilized_local_dimension(
            payloads, ring.nvars, p=ring.field.characteristic)
    assert not _built(model)
    expected = buchberger(list(generators) + oracles.maximal_ideal_power(ring, found[1]))
    assert model.groebner.generators == expected.generators
    walked = model.dimension > 0 and all(
        nilpotency_index(model, ring.variable(name)) is not None for name in ring.names)
    assert model.local_with_nilpotent_generators is walked is True
    return model


def test_local_model_of_b_n_matches_both_oracles():
    for n in range(5, 13):
        model = _check_local_model(R, _b_generators(R, n))
        assert (model.dimension, model.stabilization_exponent) == (2 * n + 1, n + 1)


def test_local_model_of_every_standard_corpus_entry():
    """Each entry of the standard corpus is local with nilpotent generators,
    so its plain quotient is the power-series quotient of its relations."""
    for name, algebra in standard_local_corpus(20, seed=0):
        if algebra.ring.nvars:
            model = _check_local_model(algebra.ring, algebra.presentation.relations)
            assert model.dimension == algebra.dimension, name


def _corpus_shaped(rng, ring, exps) -> list:
    """X_i^a_i plus one or two terms of degree a_i + 1 or a_i + 2 with unit
    coefficients, one relation per variable: the initial forms are the
    regular sequence X_i^a_i, so dim = prod a_i and N = 1 + sum (a_i - 1)."""
    field = ring.field
    units = [field.from_int(c) for c in (1, 2, 3, -1, -2, -3)]
    units = [c for c in units if not c.is_zero()]
    relations = []
    for i, a in enumerate(exps):
        higher = [m for d in (a + 1, a + 2)
                  for m in oracles.monomials_up_to(ring.nvars, d) if sum(m) == d]
        f = ring.monomial({i: a}, rng.choice(units))
        for m in rng.sample(higher, rng.randrange(1, 3)):
            f = f + ring.monomial(dict(enumerate(m)), rng.choice(units))
        relations.append(f)
    return relations


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_local_model_of_corpus_shaped_entries(p):
    rng = random.Random(p)
    field = QQ if p == 0 else prime_field(p)
    for exps in [(5,), (2, 2), (2, 3), (3, 3), (4, 3), (2, 2, 2), (3, 2, 2)]:
        ring = PolyRing(field, ("X", "Y", "Z")[:len(exps)])
        for _ in range(2):
            model = _check_local_model(ring, _corpus_shaped(rng, ring, exps))
            assert model.dimension == math.prod(exps)
            assert model.stabilization_exponent == 1 + sum(a - 1 for a in exps)


def test_local_model_of_weighted_rings():
    """The weights change the ring's order but not m^N, which is spanned
    by the monomials of unweighted total degree N."""
    for weights in [(2, 3), (3, 1)]:
        ring = PolyRing(QQ, ("X", "Y"), weights)
        _check_local_model(ring, _b_generators(ring, 6))
    rng = random.Random(1)
    ring = PolyRing(QQ, ("X", "Y", "Z"), (1, 2, 3))
    for exps in [(2, 3, 2), (3, 3, 3)]:
        _check_local_model(ring, _corpus_shaped(rng, ring, exps))


def test_local_model_over_rational_functions_and_of_ideals_not_m_primary():
    """Over F_2(x) the coefficients are elements, not raw payloads.  Ideals
    that are not m-primary in three variables raise once the standard
    basis modulo m^65 is done."""
    fx = parse_presentation(
        "field FpX 2\nring X:2 Y:1 Z:1\nrel X^4 + X*Y\nrel X^2*Y*Z + Y^3 + Y*Z\n"
        "rel (x + 1)*X^2*Y^2*Z + Z^3 + Y*Z\nmode local\n")
    model = _check_local_model(fx.ring, fx.relations)
    assert (model.dimension, model.stabilization_exponent) == (24, 13)
    for text in ("field QQ\nring X:1 Y:2 Z:1\nrel -X^3*Y^3 - X^2*Y*Z^4 + X^4\n"
                 "rel -3*X*Y^3*Z^2 + 3*Y*Z^3 + Z^4\nrel X^2*Y*Z^2 + 3*X*Y*Z^3 + X*Y*Z\n",
                 "field Fp 3\nring X:1 Y:1 Z:1\nrel 2*Y^4*Z^2 + X^2 + Y*Z\n"
                 "rel X^2*Y^3*Z^2 + Z^3\nrel 2*X^2*Y^3 + X*Y*Z^3 + 2*X^3*Y\n"):
        presentation = parse_presentation(text + "mode local\n")
        with pytest.raises(NotMPrimaryError):
            artinian_local_model(presentation.ring, presentation.relations)


def test_the_local_model_runs_no_buchberger(monkeypatch):
    """One standard basis gives the dimension, m-power and locality; the
    reduced basis is built only when read.  A non-m-primary ideal raises
    after that one standard basis."""
    runs, bases = [], []
    real_buchberger = groebner.buchberger
    real_local = groebner.local_leading_monomials

    def counting_buchberger(*args, **kwargs):
        runs.append(args)
        return real_buchberger(*args, **kwargs)

    def counting_local(generators, truncation):
        bases.append(generators)
        return real_local(generators, truncation)

    monkeypatch.setattr(groebner, "buchberger", counting_buchberger)
    monkeypatch.setattr(algebras, "buchberger", counting_buchberger)
    monkeypatch.setattr(groebner, "local_leading_monomials", counting_local)
    model = artinian_local_model(R, _b_generators(R, 5))
    assert not _built(model)
    assert (model.dimension, model.stabilization_exponent) == (11, 6)
    assert model.local_with_nilpotent_generators
    assert has_nonzero_nilpotent(model)
    assert not _built(model) and runs == [] and len(bases) == 1
    model.groebner
    assert len(runs) == 1

    with pytest.raises(NotMPrimaryError, match="truncation limit m\\^64"):
        artinian_local_model(R, [X])
    assert len(bases) == 2 and len(runs) == 1


def test_the_local_model_walks_its_degrees_once(monkeypatch):
    """One walk over the degrees, under the local basis's leads, gives the
    Hilbert function and so both the dimension and N; a second, lead-free
    walk lists the generators of m^N.  Both walk unit weights, whatever
    the ring's, and each stops at degree N."""
    walks = []
    real = algebras._rising_monomials

    def spying(weights, leads):
        walk = [weights, list(leads), 0]
        walks.append(walk)
        for pair in real(weights, leads):
            walk[2] += 1
            yield pair

    monkeypatch.setattr(algebras, "_rising_monomials", spying)
    W = PolyRing(QQ, ("X", "Y"), (2, 3))
    model = artinian_local_model(W, _b_generators(W, 5))
    assert (model.dimension, model.stabilization_exponent) == (11, 6)
    leads = groebner.local_leading_monomials(_b_generators(W, 5), algebras.DEFAULT_POWER_CAP + 1)
    assert walks == [[(1, 1), leads, 7], [(1, 1), [], 7]]
    assert len(model.presentation.relations) == 2 + 7


def test_the_local_model_spends_from_the_budget_in_force():
    with step_budget(1), pytest.raises(BudgetExceededError):
        artinian_local_model(R, _b_generators(R, 5))
    with step_budget(10 ** 6) as budget:
        model = artinian_local_model(R, _b_generators(R, 5))
    assert budget.remaining < 10 ** 6 and not _built(model)


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


def test_repr_of_an_unbuilt_algebra_computes_nothing():
    """repr shows the dimension only once it is known: reading it would
    build the basis, spend budget, and could raise inside repr."""
    factor = make_quotient(Presentation(RZ, (Z ** 3,)))
    product, _ = tensor_quotient([factor, factor])
    with step_budget(0):
        assert repr(product).endswith("by 2 relations, dim ?>")
    assert "groebner" not in vars(product) and "dimension" not in vars(product)
    assert product.dimension == 9
    assert repr(product).endswith("dim 9>")


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

    ident = oracles.identity_map(dual_numbers)
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
    ident = oracles.identity_map(dual_numbers)
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
    outer = oracles.identity_map(T)
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
    assert B.local_with_nilpotent_generators
    assert has_nonzero_nilpotent(B)
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    assert ground.local_with_nilpotent_generators
    assert not has_nonzero_nilpotent(ground)
    # Z^2 = 1 has non-nilpotent generator away from characteristic 2
    split = make_quotient(Presentation(RZ, (Z ** 2 - 1,)))
    assert not split.local_with_nilpotent_generators
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
