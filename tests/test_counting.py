"""Dimensions are counted from the leading monomials, never by listing the
staircase: the count against the enumeration on random monomial ideals and
modules and its edge cases; an ideal against the same generators as a
submodule of P^1; injectivity by the rank of the image rows
against the dense matrix of `oracles.linear_matrix`; and the powers of g
taken in B_t against the powers expanded in the polynomial ring."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from unramified import linalg
from unramified.algebras import (
    Presentation,
    compose,
    is_injective,
    make_map,
    make_quotient,
    tensor_many,
)
from unramified.constructions import B_tensor_power, killing_step
from unramified.fields import QQ, prime_field
from unramified.groebner import buchberger, dimension, staircase, staircase_of_degree
from unramified.polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    format_polynomial,
)

NAMES = ("X", "Y", "Z", "W")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def monomial_bases(draw):
    """The Groebner basis of a random monomial ideal (rank None) or
    submodule (rank 1 to 3) in 0 to 4 variables.  With `finite` drawn true
    every component gets a pure power of every variable; otherwise some may
    lack one, or lack any generator."""
    nvars = draw(st.integers(0, 4))
    ring = PolyRing(QQ, NAMES[:nvars])
    rank = draw(st.one_of(st.none(), st.integers(1, 3)))
    finite = draw(st.booleans())
    one = QQ.one()
    gens = []
    for comp in range(rank or 1):
        monos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=6))
        if finite:
            for var in range(nvars):
                monos.append(tuple(draw(st.integers(1, 4)) if v == var else 0
                                   for v in range(nvars)))
        for m in monos:
            if rank is None:
                gens.append(Polynomial(ring, {m: one}))
            else:
                gens.append(ModuleVector(ring, rank, {(comp, m): one}))
    if not gens:
        gens.append(ring.zero() if rank is None else ModuleVector(ring, rank, {}))
    return buchberger(gens)


@SETTINGS
@given(monomial_bases())
def test_count_equals_enumeration(gb):
    assert dimension(gb) == staircase(gb).dimension


@SETTINGS
@given(monomial_bases())
def test_staircase_is_the_union_of_its_degree_slices(gb):
    """The full staircase and the slices come from one walk over different
    degree windows; a module's components take the weights of the variables
    of the same index, so only modules of rank at most nvars have slices."""
    assume(gb.rank is None or gb.rank <= gb.ring.nvars)
    ring = gb.ring
    stairs = staircase(gb)
    if not stairs.finite:
        assert dimension(gb) is None
        return
    if gb.rank is None:
        degree, key = ring.weighted_degree, ring.monomial_key
    else:
        def degree(entry):
            return ring.weighted_degree(entry[1]) + ring.weights[entry[0]]

        def key(entry):
            return ring.module_key(*entry)
    top = max(map(degree, stairs.monomials), default=0)
    slices = [e for d in range(top + 3) for e in staircase_of_degree(gb, d)]
    assert tuple(sorted(slices, key=key)) == stairs.monomials
    assert len(slices) == dimension(gb)


@pytest.fixture(scope="module")
def ladder():
    """killing_step on k[Z]/(Z^k), r = Z, for k = 2..4: (R, step) pairs."""
    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    out = []
    for k in (2, 3, 4):
        R = make_quotient(Presentation(ring, (Z ** k,)))
        out.append((R, killing_step(R, Z)))
    return out


def test_count_of_the_leads_of_R_prime_at_k4(ladder):
    _, step = ladder[-1]
    gb = step.algebra.groebner
    assert dimension(gb) == staircase(gb).dimension == 11 ** 3


def test_count_of_a_ring_without_variables():
    """The ground field: the zero ideal of k has no basis rows and the one
    standard monomial 1."""
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    assert len(ground.groebner) == 0
    assert dimension(ground.groebner) == 1
    assert ground.dimension == 1 and ground.is_finite
    assert ground.basis_monomials() == ((),)


def test_count_of_a_module_component_without_lead():
    ring = PolyRing(QQ, ("X",))
    one = QQ.one()
    gb = buchberger([ModuleVector(ring, 2, {(0, (3,)): one})])
    assert dimension(gb) is None
    gb = buchberger([ModuleVector(ring, 2, {(0, (3,)): one}),
                     ModuleVector(ring, 2, {(1, (2,)): one})])
    assert dimension(gb) == 5


def test_a_slice_needs_a_variable_for_every_component():
    """Component i of a module is weighted by variable i, so the slices of a
    module of rank above the number of variables are refused by name; the
    count and the staircase take the same basis."""
    ring = PolyRing(QQ, ("X",))
    one = QQ.one()
    gb = buchberger([ModuleVector(ring, 2, {(0, (2,)): one}),
                     ModuleVector(ring, 2, {(1, (3,)): one})])
    assert dimension(gb) == staircase(gb).dimension == 5
    with pytest.raises(ValueError, match="a module of rank 2 over 1 variables"):
        staircase_of_degree(gb, 1)


def test_count_with_a_lead_equal_to_one():
    for nvars in (0, 1, 3):
        ring = PolyRing(QQ, NAMES[:nvars])
        assert dimension(buchberger([ring.one()])) == 0
    one = QQ.one()
    gb = buchberger([ModuleVector(ring, 2, {(0, ring.monomial_one): one})]
                    + [ModuleVector(ring, 2, {(1, tuple(2 if v == var else 0
                                                        for v in range(3))): one})
                       for var in range(3)])
    assert dimension(gb) == 8


def test_a_module_over_a_ring_without_variables():
    """k^2/(e_0) is k: the component without a lead has the one standard
    monomial 1, as the zero ideal of k does."""
    ring = PolyRing(QQ, ())
    gb = buchberger([ModuleVector.unit(ring, 2, 0)])
    assert dimension(gb) == 1
    assert staircase(gb).monomials == ((1, ()),)


@st.composite
def weighted_ideals(draw):
    """(ring, generators) of a random ideal of F_5[X, ...] in 1 to 3
    weighted variables.  A drawn coin adds a pure power of every variable,
    so both finite and infinite quotients occur."""
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    field = prime_field(5)
    ring = PolyRing(field, NAMES[:nvars], weights)
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = st.lists(st.tuples(exponents, st.integers(1, 4).map(field.from_int)),
                     min_size=1, max_size=3)
    gens = [oracles.polynomial(ring, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    if draw(st.booleans()):
        gens += [ring.variable(name) ** draw(st.integers(1, 4)) for name in ring.names]
    return ring, gens


@SETTINGS
@given(weighted_ideals())
def test_an_ideal_and_its_rank_one_module_agree(case):
    """The ideal and the same generators as vectors of P^1 have one basis,
    one dimension and one staircase, entry m against (0, m); the module's
    degree-d slice is the ideal's slice at d - w_0, the weight of the
    component's variable."""
    ring, gens = case
    ideal = buchberger(gens)
    module = buchberger([oracles.vector(ring, [g]) for g in gens])
    assert [v.component(0) for v in module] == list(ideal)
    assert dimension(module) == dimension(ideal)
    ideal_stairs = staircase(ideal)
    module_stairs = staircase(module)
    assert ideal_stairs.finite == module_stairs.finite
    if ideal_stairs.finite:
        assert module_stairs.monomials == tuple((0, m) for m in ideal_stairs.monomials)
    w0 = ring.weights[0]
    for degree in range(10):
        assert (staircase_of_degree(module, degree + w0)
                == [(0, m) for m in staircase_of_degree(ideal, degree)])


def _dense_injective(phi) -> bool:
    ncols = phi.source.dimension
    return linalg.rank(oracles.linear_matrix(phi), ncols, phi.source.field) == ncols


def test_injectivity_matches_the_dense_rank_on_the_ladder(ladder):
    for _, step in ladder:
        assert is_injective(step.embedding)
        assert _dense_injective(step.embedding)


def test_injectivity_matches_the_dense_rank_on_small_maps(dual_numbers):
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    crush = make_map(dual_numbers, ground, {"Z": ground.ring.zero()})
    pres, _ = tensor_many([dual_numbers, dual_numbers])
    T = make_quotient(pres)
    inner = make_map(dual_numbers, T, {"Z": T.ring.variable("Z#1")})
    square = make_map(dual_numbers, T, {"Z": T.ring.variable("Z#1") * T.ring.variable("Z#2")})
    vanish = make_map(dual_numbers, T, {"Z": T.ring.zero()})
    maps = [oracles.identity_map(dual_numbers), crush, inner, oracles.identity_map(T),
            compose(oracles.identity_map(T), inner), square, vanish]
    verdicts = [is_injective(phi) for phi in maps]
    assert verdicts == [_dense_injective(phi) for phi in maps]
    assert verdicts == [True, False, True, True, True, True, False]


@pytest.mark.parametrize("t", [2, 3])
def test_powers_reduced_in_B_t_equal_the_expanded_powers(b5, t):
    B, _ = b5
    tensor = B_tensor_power(B, t)
    Bt = tensor.algebra
    g = Bt.ring.zero()
    for gi in tensor.factor_elements:
        g = g + gi
    assert Bt.reduce(g ** t).is_zero()
    assert tensor.report.passed
    witness = tensor.report.claims[-1].witness["g_power"]
    assert witness == format_polynomial(Bt.reduce(g ** (t - 1)))
