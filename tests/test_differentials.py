"""Differential modules: presentation rows, zero tests, induced maps, the
graded kernel of the universal derivation, and its Leibniz/representative
properties."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from unramified import differentials, groebner, linalg
from unramified.algebras import (
    MODE_GRADED,
    Presentation,
    artinian_local_model,
    make_map,
    make_quotient,
)
from unramified.constructions import check_theorem_local_case, standard_local_corpus
from unramified.differentials import (
    _derivations,
    _walked_kernels,
    derivation_kernel_in_degree,
    is_omega_zero,
    is_zero_induced_map,
    kaehler,
    raw_differential,
    veronese_containment_check,
)
from unramified.fields import QQ, prime_field, rational_functions
from unramified.groebner import (
    buchberger,
    raw_normal_form,
    rising_slices,
    staircase_of_degree,
    step_budget,
)
from unramified.parsing import build_algebra, parse_presentation
from unramified.polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    format_polynomial,
    monomials_of_weighted_degree,
    partial_derivative,
)

R = PolyRing(QQ, ("X", "Y"))
X, Y = R.variable("X"), R.variable("Y")
RZ = PolyRing(QQ, ("Z",))
Z = RZ.variable("Z")


def test_free_algebra_module_is_free():
    free = make_quotient(Presentation(PolyRing(QQ, ("X",)), ()))
    module = kaehler(free)
    assert not module.is_zero()
    dX = module.d_image(free.ring.variable("X"))
    assert dX == ModuleVector.unit(free.ring, 1, 0)
    assert module.d_image(free.ring.from_int(7)).is_zero()


def test_dual_numbers_module(dual_numbers):
    # R dZ / (2z dZ, z^2 dZ): one-dimensional, dz nonzero, z dz = 0
    module = kaehler(dual_numbers)
    assert not module.is_d_zero(Z)
    z_dz = raw_differential(Z).poly_mul(Z)
    assert module.reduce(z_dz).is_zero()
    assert module.dimension() == 1
    assert not is_omega_zero(dual_numbers)
    # an element of another ring, with as many variables and with more
    for foreign in (PolyRing(QQ, ("W",)).variable("W"), X):
        with pytest.raises(ValueError):
            module.d_image(foreign)


def test_b5_presentation_rows(b5):
    B, _ = b5
    module = kaehler(B)
    ring = B.ring
    # every Jacobian row of a defining relation must be a relation vector
    for g in B.presentation.relations:
        row = {}
        for i, name in enumerate(ring.names):
            d = partial_derivative(g, name)
            for m, c in d.terms.items():
                row[(i, m)] = c
        if row:
            assert ModuleVector(ring, 2, row) in module.relation_vectors
    # in particular the row of X*F1 is (F1 + X dF1/dX, X dF1/dY)
    X, Y = ring.variable("X"), ring.variable("Y")
    F1 = 2 * Y ** 2 + 5 * X ** 3
    expected = oracles.vector(
        ring, [F1 + X * partial_derivative(F1, "X"), X * partial_derivative(F1, "Y")])
    assert expected in module.relation_vectors


def test_b5_df_zero(b5):
    B, _ = b5
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    module = kaehler(B)
    assert module.is_d_zero(F)
    assert not module.is_zero()


def test_charp_quotient_keeps_free_generator():
    # over F_p the relation Y^(p^n) contributes the zero Jacobian row, so the
    # module is free of rank one over the quotient
    for p, n in ((2, 1), (2, 2), (3, 1)):
        field = prime_field(p)
        ring = PolyRing(field, ("Y",))
        a = make_quotient(Presentation(ring, (ring.variable("Y") ** (p ** n),)))
        module = kaehler(a)
        assert not module.is_zero()
        assert module.dimension() == p ** n


def test_collapsed_line_is_unramified():
    collapsed = make_quotient(Presentation(RZ, (Z,)))
    assert is_omega_zero(collapsed)
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    assert is_omega_zero(ground)


def test_module_of_the_ground_field_has_rank_zero():
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    module = kaehler(ground)
    assert module.rank == 0 and module.relation_vectors == ()
    assert len(module.groebner) == 0
    assert module.dimension() == 0
    assert module.d_image(ground.ring.from_int(3)).is_zero()


def test_twisted_relations():
    L = rational_functions(2)
    ring = PolyRing(L, ("U", "Z"))
    U, Zt = ring.variable("U"), ring.variable("Z")
    x = ring.from_scalar(L.generator())
    a = make_quotient(Presentation(ring, (U ** 2 - x - Zt, Zt ** 2)))
    module = kaehler(a)
    assert module.is_d_zero(Zt)
    assert not module.is_zero()
    assert not module.d_image(U).is_zero()


def test_induced_maps():
    field = prime_field(2)
    ring1 = PolyRing(field, ("Y",))
    ring2 = PolyRing(field, ("Y",))
    a1 = make_quotient(Presentation(ring1, (ring1.variable("Y") ** 2,)))
    a2 = make_quotient(Presentation(ring2, (ring2.variable("Y") ** 4,)))
    step = make_map(a1, a2, {"Y": ring2.variable("Y") ** 2})
    assert kaehler(a2).d_image(step.apply(ring1.variable("Y"))).is_zero()
    assert is_zero_induced_map(step)

    free = make_quotient(Presentation(PolyRing(QQ, ("X",)), ()))
    assert not is_zero_induced_map(oracles.identity_map(free))


def test_derivation_kernel_character_zero():
    graded = make_quotient(Presentation(R, (X ** 2 - Y ** 2,), MODE_GRADED))
    for degree in range(1, 5):
        assert derivation_kernel_in_degree(graded, degree) == []


def test_derivation_kernel_prime_field():
    for p in (2, 3):
        field = prime_field(p)
        ring = PolyRing(field, ("X",))
        free = make_quotient(Presentation(ring, (), MODE_GRADED))
        kern = derivation_kernel_in_degree(free, p)
        assert [format_polynomial(k) for k in kern] == [f"X^{p}"]
        assert derivation_kernel_in_degree(free, p + 1) == []


def test_derivation_kernel_requires_graded(dual_numbers):
    with pytest.raises(ValueError):
        derivation_kernel_in_degree(dual_numbers, 1)


def test_veronese_containment():
    F3 = prime_field(3)
    ring = PolyRing(F3, ("X",))
    free = make_quotient(Presentation(ring, (), MODE_GRADED))
    report = veronese_containment_check(free, 9)
    assert report.passed
    assert report.kernel_dimensions == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 1,
                                        7: 0, 8: 0, 9: 1}

    F2 = prime_field(2)
    ring2 = PolyRing(F2, ("X", "Y"))
    cross = make_quotient(Presentation(
        ring2, (ring2.variable("X") * ring2.variable("Y"),), MODE_GRADED))
    report2 = veronese_containment_check(cross, 6)
    assert report2.passed
    assert report2.kernel_dimensions == {1: 0, 2: 2, 3: 0, 4: 2, 5: 0, 6: 2}

    graded = make_quotient(Presentation(R, (X ** 2 - Y ** 2,), MODE_GRADED))
    with pytest.raises(ValueError):
        veronese_containment_check(graded, 4)


@pytest.mark.parametrize("max_degree", [0, -3])
def test_veronese_rejects_a_check_of_no_degree(max_degree):
    """A pass over no degree would be vacuous, so it is refused."""
    ring = PolyRing(prime_field(2), ("X",))
    free = make_quotient(Presentation(ring, (), MODE_GRADED))
    with pytest.raises(ValueError, match="max_degree must be positive"):
        veronese_containment_check(free, max_degree)


def _random_poly(rng, ring, max_exp=3, max_terms=4):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(1, max_exp + 1) if rng.random() < 0.6 else 0
                     for _ in range(ring.nvars))
        c = ring.field.from_int(rng.randrange(-4, 5))
        if not c.is_zero():
            terms.append((mono, c))
    return oracles.polynomial(ring, terms)


def test_leibniz_rule(b5):
    B, _ = b5
    module = kaehler(B)
    rng = random.Random(5)
    for _ in range(25):
        f = _random_poly(rng, B.ring)
        g = _random_poly(rng, B.ring)
        left = raw_differential(f * g)
        right = (raw_differential(g).poly_mul(f)
                 + raw_differential(f).poly_mul(g))
        assert module.reduce(left) == module.reduce(right)


def test_representative_independence(b5):
    B, _ = b5
    module = kaehler(B)
    rng = random.Random(9)
    relations = list(B.presentation.relations)
    for _ in range(25):
        f = _random_poly(rng, B.ring)
        h = rng.choice(relations) * _random_poly(rng, B.ring, max_exp=2, max_terms=2)
        assert module.d_image(f) == module.d_image(f + h)


def test_degree_times_kernel_element_vanishes():
    # a homogeneous f with df = 0 must satisfy deg(f) * f = 0 in the algebra
    for p in (2, 3):
        field = prime_field(p)
        ring = PolyRing(field, ("X", "Y"))
        algebra = make_quotient(Presentation(
            ring, (ring.variable("X") * ring.variable("Y"),), MODE_GRADED))
        for degree in range(1, 2 * p + 1):
            for f in derivation_kernel_in_degree(algebra, degree):
                assert algebra.is_zero_element(f.scale(degree))


def _assert_walk_equals_single_degrees(algebra, max_degree):
    walked = list(_walked_kernels(algebra, max_degree))
    assert walked == [derivation_kernel_in_degree(algebra, d)
                      for d in range(1, max_degree + 1)]


def test_degree_times_kernel_element_vanishes_randomized():
    rng = random.Random(31)
    for _ in range(12):
        p = rng.choice((2, 3))
        field = prime_field(p)
        nvars = rng.randrange(1, 3)
        ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)),
                        tuple(rng.randrange(1, 3) for _ in range(nvars)))
        relations = []
        for _ in range(rng.randrange(0, 3)):
            degree = rng.randrange(1, 5)
            monos = monomials_of_weighted_degree(ring, degree)
            if not monos:
                continue
            terms = {m: field.from_int(rng.randrange(1, p))
                     for m in rng.sample(monos, k=min(2, len(monos)))}
            rel = Polynomial(ring, terms)
            if not rel.is_zero():
                relations.append(rel)
        algebra = make_quotient(Presentation(ring, tuple(relations), MODE_GRADED))
        _assert_walk_equals_single_degrees(algebra, 6)
        for degree in range(1, 7):
            for f in derivation_kernel_in_degree(algebra, degree):
                assert algebra.is_zero_element(f.scale(degree))


def test_base_change_sanity():
    # the collapsed line is the field itself, so it is unramified over it
    collapsed = make_quotient(Presentation(RZ, (Z,)))
    assert is_omega_zero(collapsed)


def test_finite_omega_dimension_cross_check(b5, dual_numbers):
    # module staircase count vs dense linear algebra over the algebra basis
    for algebra in (dual_numbers,):
        module = kaehler(algebra)
        dim_module = module.dimension()
        # dense model: coordinates of mono * row over basis x components
        basis = algebra.basis_monomials()
        rows = []
        field = algebra.field
        for vec in module.relation_vectors:
            for mu in basis:
                shifted = vec.poly_mul(Polynomial(algebra.ring, {mu: field.one()}))
                dense = [field.zero()] * (len(basis) * module.rank)
                for comp in range(module.rank):
                    reduced = algebra.reduce(shifted.component(comp))
                    for m, c in reduced.terms.items():
                        dense[basis.index(m) + comp * len(basis)] = c
                rows.append(dense)
        rank = linalg.rank(rows, len(basis) * module.rank, field)
        assert dim_module == len(basis) * module.rank - rank
        assert module.is_zero() == (dim_module == 0)


# The forms of the `graded` benchmark, unscaled: (field, ring, relations,
# highest degree checked there).
GRADED_FORMS = {
    "plane cubic": ("Fp 3", "X:1 Y:1 Z:1",
                    ("X*Y^2 + Y^3 + X*Y*Z + 2*Y^2*Z + X*Z^2 + Z^3",), 24),
    "weighted curve": ("Fp 5", "X:1 Y:2 Z:3",
                       ("Z^2 + 4*Y^3 + 2*X^6 + 3*X^2*Y^2 + X*Y*Z",), 24),
    "two quadrics": ("Fp 2", "X:1 Y:1 Z:1 W:1",
                     ("X^2 + Y*Z + Z*W + X*W", "Y^2 + X*Z + Y*W + W^2"), 16),
}


def _graded_form(name):
    field, ring, relations, max_degree = GRADED_FORMS[name]
    text = "\n".join([f"field {field}", f"ring {ring}",
                      *(f"rel {r}" for r in relations), "mode graded"])
    return build_algebra(parse_presentation(text + "\n")), max_degree


@pytest.mark.parametrize("name", list(GRADED_FORMS))
def test_walked_kernels_equal_single_degrees_on_graded_forms(name):
    _assert_walk_equals_single_degrees(*_graded_form(name))


def _rational_function_form():
    field = rational_functions(5)
    ring = PolyRing(field, ("U", "V"), (1, 2))
    U, V = ring.variable("U"), ring.variable("V")
    relation = U ** 4 + (U ** 2 * V).scale(field.generator()) + V ** 2
    return make_quotient(Presentation(ring, (relation,), MODE_GRADED)), 7


def test_walked_kernels_equal_single_degrees_over_rational_functions():
    _assert_walk_equals_single_degrees(*_rational_function_form())


def test_walked_kernels_over_the_rationals(monkeypatch):
    """The walk runs over QQ, though the Veronese verdict refuses p = 0: its
    recorded images, the normal forms it reduces, are raw Fractions, and
    every kernel is empty, as the Euler derivation gives deg(f) f = 0 for
    df = 0.  The derivations to the residue field, sparse kernel vectors
    over QQ, hold elements whose payloads are Fractions, the raw 1
    included."""
    ring = PolyRing(QQ, ("X", "Y", "Z"))
    X_, Y_, Z_ = map(ring.variable, ring.names)
    cubic = make_quotient(Presentation(
        ring, (X_ * Y_ ** 2 + Y_ ** 3 + X_ * Y_ * Z_ + 2 * Y_ ** 2 * Z_ + X_ * Z_ ** 2 + Z_ ** 3,),
        MODE_GRADED))
    _assert_walk_equals_single_degrees(cubic, 6)
    images = []

    def recording(terms, gb, **standard):
        images.append(raw_normal_form(terms, gb, **standard))
        return images[-1]

    monkeypatch.setattr(differentials, "raw_normal_form", recording)
    assert list(_walked_kernels(cubic, 4)) == [[]] * 4
    monkeypatch.undo()
    assert images and all(type(c) is Fraction for image in images for c in image.values())
    # the module's component i adds the weight 1 of variable i
    assert any(sum(m) + 1 == 4 for image in images for _, m in image)
    with pytest.raises(ValueError, match="positive characteristic"):
        veronese_containment_check(cubic, 6)
    cusp = make_quotient(Presentation(R, (Y ** 2 - X ** 3, X * Y)))
    derivations = _derivations(cusp)
    assert len(derivations) == 2
    assert all(type(c.payload) is Fraction for lam in derivations for c in lam.values())


def test_walked_kernels_without_variables():
    """The algebra is the field: every positive degree is empty."""
    field_only = make_quotient(Presentation(PolyRing(prime_field(2), ()), (), MODE_GRADED))
    _assert_walk_equals_single_degrees(field_only, 4)
    report = veronese_containment_check(field_only, 4)
    assert report.passed and report.kernel_dimensions == {1: 0, 2: 0, 3: 0, 4: 0}


def test_walked_kernels_through_empty_degrees():
    """Weights 2 and 3 leave degree 1 empty, and k[X, Y]/(X^2, Y^2) has
    nothing above the degree 5 of XY: the walk reads past empty degrees
    and ends in them."""
    ring = PolyRing(prime_field(3), ("X", "Y"), (2, 3))
    X_, Y_ = ring.variable("X"), ring.variable("Y")
    sparse = make_quotient(Presentation(ring, (), MODE_GRADED))
    assert derivation_kernel_in_degree(sparse, 1) == []
    _assert_walk_equals_single_degrees(sparse, 12)
    short = make_quotient(Presentation(ring, (X_ ** 2, Y_ ** 2), MODE_GRADED))
    assert [derivation_kernel_in_degree(short, d) for d in range(6, 9)] == [[]] * 3
    _assert_walk_equals_single_degrees(short, 9)


# Reduction steps on each form: `veronese_containment_check` when every
# image was reduced from scratch, the same check by the Leibniz rule, and
# `derivation_kernel_in_degree` at the highest degree alone.  The weighted
# curve needs a window of three degrees.
STEPS = {"plane cubic": (17167, 2820, 2820), "weighted curve": (411, 45, 62),
         "two quadrics": (2494, 59, 451)}


@pytest.mark.parametrize("name", list(STEPS))
def test_walk_spends_fewer_reduction_steps(name):
    """The walk spends exactly its recorded steps: the standard terms that
    skip the normal-form loop are never reduced by it either."""
    algebra, max_degree = _graded_form(name)
    algebra.groebner, kaehler(algebra)  # built outside the counted block
    with step_budget(10 ** 6) as budget:
        assert veronese_containment_check(algebra, max_degree).passed
    assert 10 ** 6 - budget.remaining == STEPS[name][1]


@pytest.mark.parametrize("name", list(STEPS))
def test_single_degree_is_reduced_from_scratch(name):
    """The highest degree alone spends what it spent before the walk
    existed: a single degree reads no table."""
    algebra, max_degree = _graded_form(name)
    algebra.groebner, kaehler(algebra)
    with step_budget(10 ** 6) as budget:
        derivation_kernel_in_degree(algebra, max_degree)
    assert 10 ** 6 - budget.remaining == STEPS[name][2]


# ---------------------------------------------------------------------------
# Normal forms told which terms are standard
# ---------------------------------------------------------------------------

def _spent_normal_form(terms, gb, **standard):
    """raw_normal_form and the steps it spent, checking that the input is
    left as it was."""
    before = dict(terms)
    with step_budget(10 ** 6) as budget:
        out = raw_normal_form(terms, gb, **standard)
    assert terms == before
    return out, 10 ** 6 - budget.remaining


def _random_raw(rng, field):
    """A nonzero raw coefficient (see `FieldDescriptor.raw`)."""
    while True:
        c, den = field.from_int(rng.randrange(-9, 10)), field.from_int(rng.randrange(1, 10))
        if den.is_zero():
            continue
        c = c * den.inverse()
        if field.kind == "FpX":
            c = c * field.generator() + field.from_int(rng.randrange(5))
        if not c.is_zero():
            return field.raw(c)


def _rational_cubic():
    text = "\n".join(["field QQ", "ring X:1 Y:1 Z:1",
                      f"rel {GRADED_FORMS['plane cubic'][2][0]}", "mode graded"])
    return build_algebra(parse_presentation(text + "\n")), 8


STANDARD_FORMS = {**{name: lambda name=name: _graded_form(name) for name in GRADED_FORMS},
                  "plane cubic over QQ": _rational_cubic,
                  "weighted curve over F_5(x)": _rational_function_form}


@pytest.mark.parametrize("seed, name", list(enumerate(STANDARD_FORMS, 71)))
def test_standard_terms_leave_the_normal_form_and_its_steps_alone(seed, name):
    """Seeded oracle: on term dicts of one degree slice of the free module,
    the Kaehler module's normal form told the slice's staircase index gives
    the same dict and spends the same steps as the plain normal form; an
    input of standard terms alone comes back as it is, for no step."""
    algebra, max_degree = STANDARD_FORMS[name]()
    ring, field = algebra.ring, algebra.field
    gb = kaehler(algebra).groebner
    rng = random.Random(seed)
    spent = 0
    for degree in rng.sample(range(1, max_degree + 1), min(6, max_degree)):
        free = [(c, m) for c, w in enumerate(ring.weights) if degree >= w
                for m in monomials_of_weighted_degree(ring, degree - w)]
        index = {entry: i for i, entry in enumerate(staircase_of_degree(gb, degree))}
        assert set(index) <= set(free)
        standard_only = {key: _random_raw(rng, field) for key in index}
        assert _spent_normal_form(standard_only, gb, standard=index) == (standard_only, 0)
        assert _spent_normal_form(standard_only, gb) == (standard_only, 0)
        cases = [{}] + [{key: _random_raw(rng, field)
                         for key in rng.sample(free, rng.randrange(1, min(len(free), 12) + 1))}
                        for _ in range(8)]
        for terms in cases:
            plain, steps = _spent_normal_form(terms, gb)
            assert _spent_normal_form(terms, gb, standard=index) == (plain, steps)
            assert set(plain) <= set(index)
            spent += steps
    assert spent


@pytest.mark.parametrize("field", [QQ, prime_field(5), rational_functions(5)],
                         ids=str)
def test_a_standard_term_cancelled_and_made_again(field):
    """Modulo X^2 + XY + Y^2, reducing X^3 adds -X^2Y - XY^2, which cancels
    the input's standard XY^2, and reducing the new X^2Y adds XY^2 + Y^3,
    which makes XY^2 again: X^3 + XY^2 = XY^2 + Y^3 in the quotient, in
    two steps, whether or not the loop is told XY^2 and Y^3 are
    standard."""
    ring = PolyRing(field, ("X", "Y"))
    X_, Y_ = ring.variable("X"), ring.variable("Y")
    gb = buchberger([X_ ** 2 + X_ * Y_ + Y_ ** 2])
    one = field.raw(field.one())
    terms = {(0, (3, 0)): one, (0, (1, 2)): one}
    expected = {(0, (1, 2)): one, (0, (0, 3)): one}
    assert _spent_normal_form(terms, gb) == (expected, 2)
    index = {(0, m): i for i, m in enumerate(staircase_of_degree(gb, 3))}
    assert set(index) == {(0, (1, 2)), (0, (0, 3))}
    assert _spent_normal_form(terms, gb, standard=index) == (expected, 2)


# ---------------------------------------------------------------------------
# Degree slices listed from the degrees below
# ---------------------------------------------------------------------------

def _zero_algebra():
    ring = PolyRing(prime_field(3), ("X", "Y"))
    return make_quotient(Presentation(ring, (ring.one(),), MODE_GRADED)), 4


def _weights_two_and_three():
    ring = PolyRing(prime_field(3), ("X", "Y"), (2, 3))
    X_, Y_ = ring.variable("X"), ring.variable("Y")
    return make_quotient(Presentation(ring, (X_ ** 3 - Y_ ** 2,), MODE_GRADED)), 13


def _without_variables():
    return make_quotient(Presentation(PolyRing(prime_field(2), ()), (), MODE_GRADED)), 3


SLICE_FORMS = {**STANDARD_FORMS, "weights 2 and 3": _weights_two_and_three,
               "zero algebra": _zero_algebra, "no variables": _without_variables}


@pytest.mark.parametrize("name", list(SLICE_FORMS))
def test_the_walk_lists_the_reference_slices(name, monkeypatch):
    """Oracle: every domain slice (standard monomials of the algebra) and
    codomain slice (standard entries of the Kaehler module) that the walk
    lists equals `oracles.reference_slice`, key order included, each listed
    once per degree from 0 up; and each monomial's origin (j, k) names the
    monomial of degree d - w_j that x_j multiplies to it."""
    algebra, max_degree = SLICE_FORMS[name]()
    listed = {}

    def recording(gb):
        seen = listed.setdefault(id(gb), (gb, []))[1]
        for entries, origins in rising_slices(gb):
            seen.append((entries, origins))
            yield entries, origins

    monkeypatch.setattr(differentials, "rising_slices", recording)
    walked = list(_walked_kernels(algebra, max_degree))
    monkeypatch.undo()
    assert walked == [derivation_kernel_in_degree(algebra, d) for d in range(1, max_degree + 1)]
    gbs = (algebra.groebner, kaehler(algebra).groebner)
    assert sorted(listed) == sorted(map(id, gbs))
    weights = algebra.ring.weights
    for gb in gbs:
        slices = listed[id(gb)][1]
        assert [entries for entries, _ in slices] == [
            oracles.reference_slice(gb, d) for d in range(max_degree + 1)]
        for d, (entries, origins) in enumerate(slices):
            if gb.rank is not None:
                assert origins is None
                continue
            assert len(origins) == len(entries)
            for mono, origin in zip(entries, origins):
                if origin is None:
                    assert d == 0
                    continue
                j, k = origin
                below = slices[d - weights[j]][0][k]
                assert mono == below[:j] + (below[j] + 1,) + below[j + 1:]
                assert not any(below[j + 1:])


@pytest.mark.parametrize("slices", [rising_slices, lambda gb: staircase_of_degree(gb, 1),
                                    lambda gb: staircase_of_degree(gb, -1)],
                         ids=["rising_slices", "staircase_of_degree", "staircase_of_negative_degree"])
def test_slices_refuse_a_module_of_too_high_rank(slices):
    ring = PolyRing(QQ, ("X",))
    module = buchberger([ModuleVector(ring, 2, {})])
    with pytest.raises(ValueError, match="no variable to weight every component"):
        slices(module)


def test_the_walk_is_lazy_and_lists_no_slice_from_scratch(monkeypatch):
    """The walk draws each degree's slices only when that degree is asked
    for, so its first kernel comes at once however high the walk may go;
    and a whole walk never runs `staircase_of_degree`, which a single
    degree still uses."""
    algebra, max_degree = _graded_form("plane cubic")
    drawn = Counter()

    def counted(gb):
        for pair in rising_slices(gb):
            drawn[id(gb)] += 1
            assert drawn[id(gb)] <= max_degree + 1, "the walk drew slices it was not asked for"
            yield pair

    monkeypatch.setattr(differentials, "rising_slices", counted)
    assert next(_walked_kernels(algebra, 10 ** 9)) == []
    assert sorted(drawn.values()) == [2, 2]  # degrees 0 and 1 of each basis
    monkeypatch.undo()

    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(groebner, "staircase_of_degree")
    counting(differentials, "staircase_of_degree")
    assert veronese_containment_check(algebra, max_degree).passed
    assert calls == Counter()
    derivation_kernel_in_degree(algebra, 2)
    assert calls["staircase_of_degree"] == 2


# ---------------------------------------------------------------------------
# Omega != 0 by a derivation to the residue field
# ---------------------------------------------------------------------------

def _residue_derivation_exists(algebra) -> bool:
    """Oracle for the derivation test of `is_omega_zero`: no presentation
    relation has a constant term, and the linear parts of the relations
    have rank below the number of variables, by the plain elimination of
    `oracles.fraction_rank` on the coefficients' payloads."""
    ring = algebra.ring
    relations = algebra.presentation.relations
    if any(ring.monomial_one in g.terms for g in relations):
        return False
    units = [tuple(int(i == j) for i in range(ring.nvars)) for j in range(ring.nvars)]
    rows = [[g.terms[u].payload if u in g.terms else 0 for u in units] for g in relations]
    return oracles.fraction_rank(rows, ring.field.characteristic) < ring.nvars


def _random_presentation(rng: random.Random, field, local: bool):
    """A seeded algebra in one to three variables.  Each variable X_i has a
    relation X_i^a + h_i: every term of h_i above degree a for a local
    model, which makes the ideal primary to the maximal ideal, and below
    degree a, constant terms included, for a plain quotient, which stays
    finite but need not be local.  Up to three more relations mix terms of
    degrees 1 and 2."""
    nvars = rng.randrange(1, 4)
    ring = PolyRing(field, ("X", "Y", "Z")[:nvars])

    def term(degree: int) -> Polynomial:
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        c = field.from_int(rng.randrange(1, field.characteristic or 7))
        return Polynomial(ring, {tuple(exps): c})

    relations = []
    for i, name in enumerate(ring.names):
        a = rng.randrange(2, 4)
        degrees = range(a + 1, a + 3) if local else range(0 if rng.random() < 0.3 else 1, a)
        h = sum((term(rng.choice(degrees)) for _ in range(rng.randrange(0, 3))), ring.zero())
        relations.append(ring.variable(name) ** a + h)
    for _ in range(rng.randrange(0, 4)):
        extra = sum((term(rng.randrange(1, 3)) for _ in range(rng.randrange(1, 3))),
                    ring.zero())
        if not extra.is_zero():
            relations.append(extra)
    if local:
        return artinian_local_model(ring, relations)
    return make_quotient(Presentation(ring, tuple(relations)))


def _assert_the_derivation_agrees_with_the_module(algebras) -> Counter:
    """A residue derivation implies a nonzero differential module, and
    `is_omega_zero` answers as the module does.  Counts the algebras with
    and without a derivation, so that a caller can see both kinds drawn."""
    seen = Counter()
    for algebra in algebras:
        derivation = _residue_derivation_exists(algebra)
        seen[derivation] += 1
        omega_zero = kaehler(algebra).is_zero()
        if derivation:
            assert not omega_zero
        assert is_omega_zero(algebra) == omega_zero
    return seen


def test_the_residue_derivation_agrees_with_the_module_on_the_corpus():
    seen = _assert_the_derivation_agrees_with_the_module(
        algebra for _, algebra in standard_local_corpus(200, seed=0))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("field", [QQ, prime_field(2), prime_field(3), prime_field(5),
                                   prime_field(7)], ids=str)
@pytest.mark.parametrize("local", [True, False], ids=["local", "plain"])
def test_the_residue_derivation_agrees_with_the_module_on_random_presentations(field, local):
    rng = random.Random(f"residue derivation {field} {local}")
    seen = _assert_the_derivation_agrees_with_the_module(
        _random_presentation(rng, field, local) for _ in range(20))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("relation", ["X^2 - 1", "X^2 - X", None],
                         ids=["constant term", "full rank", "no variables"])
def test_the_module_decides_without_a_residue_derivation(relation, kaehler_builds):
    """Over QQ, k[X]/(X^2 - 1) has a relation with a constant term,
    k[X]/(X^2 - X) has linear parts of full rank, and the ground field has
    no variables; none has a residue derivation, each is a product of
    copies of QQ with Omega = 0, and the module answers."""
    text = "field QQ\nring\n" if relation is None else f"field QQ\nring X:1\nrel {relation}\n"
    algebra = build_algebra(parse_presentation(text))
    assert not _residue_derivation_exists(algebra)
    assert is_omega_zero(algebra)
    assert kaehler_builds == [algebra]


FRONTIER = ("field QQ\nring X:1 Y:1 Z:1\nrel X^3 - 2*X*Z^3 + Y^5\n"
            "rel Y^3 + X^2*Y*Z + 3*X*Y^2*Z\nrel Z^2 + 2*X*Y^2 - Y*Z^2\nmode local\n")


def test_the_local_case_builds_a_module_only_where_omega_is_zero(kaehler_builds):
    """`check_theorem_local_case` builds no differential module for an entry
    with a generator outside m^2, such as the dual numbers or the
    three-variable local algebra of dimension 18 whose relations have no
    linear part, and exactly one for the collapsed line, whose Omega is
    zero."""
    corpus = dict(standard_local_corpus(0))
    frontier = build_algebra(parse_presentation(FRONTIER))
    assert frontier.dimension == 18
    for entry in (("dual numbers", corpus["dual numbers"]), ("frontier", frontier)):
        report = check_theorem_local_case([entry])
        assert report.passed and [c.label for c in report.claims] == [
            f"{entry[0]}: non-reduced ramifies"]
    assert kaehler_builds == []
    collapsed = corpus["collapsed line"]
    report = check_theorem_local_case([("collapsed line", collapsed)])
    assert report.passed and [c.label for c in report.claims] == [
        "collapsed line: unramified is a field"]
    assert kaehler_builds == [collapsed]
