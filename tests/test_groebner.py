"""The Buchberger engine: frozen known bases, membership against the
independent linear-algebra oracle, normal-form laws, staircases, and
determinism."""

import random
from fractions import Fraction

import pytest

import oracles
from unramified.algebras import Presentation, make_quotient, quotient_by
from unramified.differentials import kaehler
from unramified.errors import BudgetExceededError
from unramified.fields import (
    QQ,
    RATIONAL_FUNCTIONS,
    FieldElement,
    prime_field,
    rational_functions,
)
from unramified.groebner import (
    GroebnerBasis,
    buchberger,
    dimension,
    normal_form,
    raw_normal_form,
    staircase,
    staircase_of_degree,
    step_budget,
)
from unramified.parsing import build_algebra, parse_presentation
from unramified.polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    format_polynomial,
)

R = PolyRing(QQ, ("X", "Y"))
X, Y = R.variable("X"), R.variable("Y")


def poly_to_dense(p: Polynomial) -> dict:
    return {mono: Fraction(c.payload) for mono, c in p.terms.items()}


def test_already_reduced():
    gb = buchberger([X, Y])
    assert [format_polynomial(g) for g in gb.generators] == ["Y", "X"]
    assert oracles.satisfies_buchberger_criterion(gb)


def test_b5_plain_staircase_finite():
    F1 = 2 * Y ** 2 + 5 * X ** 3
    F2 = 2 * X ** 2 + 5 * Y ** 3
    gb = buchberger([X * F1, Y * F2])
    chart = staircase(gb)
    assert chart.finite
    # the affine scheme has points away from the origin as well, so the plain
    # quotient is strictly bigger than the 11-dimensional local model
    assert chart.dimension == 16


def test_normal_form_basics():
    gb = buchberger([X, Y])
    assert normal_form(gb.generators[0], gb).is_zero()
    assert normal_form(R.one(), gb) == R.one()


def test_normal_form_is_canonical():
    rng = random.Random(23)
    gb = buchberger([X ** 2 - Y, Y ** 3])
    for _ in range(60):
        f = _random_poly(rng, R)
        g = _random_poly(rng, R)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf  # idempotent
        assert normal_form(f + g, gb) == normal_form(normal_form(f, gb) + normal_form(g, gb), gb)
        assert normal_form(f * g, gb) == normal_form(normal_form(f, gb) * normal_form(g, gb), gb)


def _random_poly(rng, ring, max_exp=3, max_terms=4):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(1, max_exp + 1) if rng.random() < 0.6 else 0
                     for _ in range(ring.nvars))
        c = ring.field.from_int(rng.randrange(-4, 5))
        if not c.is_zero():
            terms.append((mono, c))
    return oracles.polynomial(ring, terms)


def test_membership_known():
    assert not normal_form(X, buchberger([X ** 2])).is_zero()
    assert normal_form(X ** 3 + X * Y, buchberger([X])).is_zero()
    v = oracles.vector(R, [R.zero(), R.zero()])
    assert normal_form(v, buchberger([oracles.vector(R, [X, Y])])).is_zero()


def test_membership_agrees_with_oracle():
    rng = random.Random(41)
    names = ("X", "Y", "Z")
    cases = 0
    for trial in range(24):
        nvars = rng.randrange(1, 4)
        ring = PolyRing(QQ, names[:nvars])
        gens = [_random_poly(rng, ring, max_exp=4, max_terms=3) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert oracles.satisfies_buchberger_criterion(gb)
        dense_gens = [poly_to_dense(g) for g in gens]
        # a guaranteed member with small cofactors, and an arbitrary element
        member = ring.zero()
        for g in gens:
            member = member + g * _random_poly(rng, ring, max_exp=1, max_terms=2)
        candidates = [member, _random_poly(rng, ring, max_exp=3, max_terms=3)]
        for f in candidates:
            engine = normal_form(f, gb).is_zero()
            oracle = oracles.membership_oracle(poly_to_dense(f), dense_gens, nvars, bound=6)
            assert engine == oracle, (
                f"trial {trial}: engine {engine} vs oracle {oracle} for {f}")
            cases += 1
    assert cases >= 40


def test_staircase_known():
    gb = buchberger([X ** 2, X * Y, Y ** 2])
    chart = staircase(gb)
    assert chart.dimension == 3
    texts = [format_polynomial(Polynomial(R, {m: QQ.one()})) for m in chart.monomials]
    assert texts == ["1", "Y", "X"]

    assert staircase(buchberger([X ** 2])).dimension is None
    assert dimension(buchberger([X ** 2])) is None


def test_staircase_of_degree_infinite_quotient():
    gb = buchberger([X * Y])
    degree2 = staircase_of_degree(gb, 2)
    texts = [format_polynomial(Polynomial(R, {m: QQ.one()})) for m in degree2]
    assert texts == ["Y^2", "X^2"]


def test_unit_ideal():
    gb = buchberger([X, X + 1])
    assert dimension(gb) == 0
    assert staircase(gb).monomials == ()


def _unit_and_finite(unit: int) -> GroebnerBasis:
    """A rank-2 module whose component `unit` has the lead 1 and whose other
    component has the finite staircase 1, Y, X."""
    finite = 1 - unit
    rows = [oracles.vector(R, [R.one() if i == unit else R.zero() for i in range(2)])]
    for m in (X ** 2, X * Y, Y ** 2):
        rows.append(oracles.vector(R, [m if i == finite else R.zero() for i in range(2)]))
    return buchberger(rows)


@pytest.mark.parametrize("gb, expected", [
    (buchberger([X, X + 1]), ()),
    (_unit_and_finite(0), ((1, (0, 0)), (1, (0, 1)), (1, (1, 0)))),
    (_unit_and_finite(1), ((0, (0, 0)), (0, (0, 1)), (0, (1, 0)))),
], ids=["unit ideal", "unit first component", "unit last component"])
def test_a_staircase_beside_the_lead_one(gb, expected):
    """A lead 1 leaves its component nothing, whether that component is
    walked first or last, and the others keep their staircase in the
    module order; the degree slices agree, and a negative degree has
    none."""
    stairs = staircase(gb)
    assert stairs.monomials == expected
    assert dimension(gb) == len(expected)
    slices = [oracles.reference_slice(gb, d) for d in range(6)]
    key = R.monomial_key if gb.rank is None else (lambda t: R.module_key(*t))
    assert tuple(sorted((e for s in slices for e in s), key=key)) == expected
    assert [staircase_of_degree(gb, d) for d in range(6)] == slices
    assert staircase_of_degree(gb, -1) == []


def test_module_groebner_membership():
    rows = [oracles.vector(R, [X, Y]),
            oracles.vector(R, [R.zero(), X ** 2])]
    gb = buchberger(rows)
    assert gb.rank == 2
    assert normal_form(rows[0].poly_mul(Y ** 3), gb).is_zero()
    assert not normal_form(ModuleVector.unit(R, 2, 0), gb).is_zero()
    assert oracles.satisfies_buchberger_criterion(gb)


def test_determinism_bit_identical():
    gens = [X ** 3 - 2 * X * Y, X ** 2 * Y + X - 2 * Y ** 2]
    first = [format_polynomial(g) for g in buchberger(gens).generators]
    second = [format_polynomial(g) for g in buchberger(list(gens)).generators]
    assert first == second


def test_budget_exceeded():
    # with the pair criteria this ideal takes exactly one reduction step
    gens = [X ** 3 - 2 * X * Y, X ** 2 * Y + X - 2 * Y ** 2]
    with pytest.raises(BudgetExceededError, match="reduction-step budget 0 exceeded"):
        with step_budget(0):
            buchberger(gens)
    with step_budget(1):
        gb = buchberger(gens)
    assert [format_polynomial(g) for g in gb.generators] == ["Y^2 - 1/2*X", "X*Y", "X^2"]


def _steps(gens) -> int:
    """Reduction steps of one Buchberger run, read off the budget."""
    with step_budget(10 ** 6) as budget:
        buchberger(gens)
    return budget.limit - budget.remaining


def test_step_budget_binds_every_run_in_the_block():
    first = [X ** 3 - 2 * X * Y, X ** 2 * Y + X - 2 * Y ** 2]
    second = [X ** 2 - Y, X * Y - 1, Y ** 3 + X]
    a, b = _steps(first), _steps(second)
    assert a > 0 and b > 0
    with step_budget(a + b) as budget:
        buchberger(first)
        buchberger(second)
    assert budget.remaining == 0
    with pytest.raises(BudgetExceededError, match=f"budget {a + b - 1} exceeded"):
        with step_budget(a + b - 1):
            buchberger(first)
            buchberger(second)


def test_normal_forms_spend_from_the_block():
    gb = buchberger([X ** 2 - Y, Y ** 2])
    with pytest.raises(BudgetExceededError):
        with step_budget(0):
            normal_form(X ** 3, gb)
    assert normal_form(X ** 3, gb) == X * Y  # outside a block: a fresh default


def test_nested_step_budget_restores_the_outer_one():
    gens = [X ** 3 - 2 * X * Y, X ** 2 * Y + X - 2 * Y ** 2]
    cost = _steps(gens)
    with step_budget(cost) as outer:
        with pytest.raises(BudgetExceededError):
            with step_budget(0):
                buchberger(gens)
        assert outer.remaining == cost
        with step_budget(cost):
            buchberger(gens)
        assert outer.remaining == cost
        buchberger(gens)
        assert outer.remaining == 0
        with pytest.raises(BudgetExceededError):
            buchberger(gens)
    buchberger(gens)  # outside every block again


def test_katsura3_spends_the_recorded_steps():
    """Katsura-3 tail-reduces several rows in the final interreduction; its
    basis and step count (92, read before the interreduction shared one
    bucket set across rows) stay fixed."""
    ring = PolyRing(QQ, ("A", "B", "C", "D"))
    A, B, C, D = (ring.variable(v) for v in ring.names)
    gens = [A + 2 * B + 2 * C + 2 * D - 1, A ** 2 + 2 * B ** 2 + 2 * C ** 2 + 2 * D ** 2 - A,
            2 * A * B + 2 * B * C + 2 * C * D - B, B ** 2 + 2 * A * C + 2 * B * D - C]
    with step_budget(10 ** 6) as budget:
        gb = buchberger(gens)
    assert 10 ** 6 - budget.remaining == 92
    assert len(gb) == 7 and oracles.satisfies_buchberger_criterion(gb)
    leads = [g.leading()[0] for g in gb]
    for g, lead in zip(gb, leads):
        for m in g.terms:  # reduced: no lead divides a term but its own
            dividing = [k for k in leads if all(a <= b for a, b in zip(k, m))]
            assert dividing == ([lead] if m == lead else [])


def test_mixed_input_rejected():
    with pytest.raises(ValueError):
        buchberger([X, oracles.vector(R, [X, Y])])


@pytest.mark.parametrize("field, module", [(QQ, False), (prime_field(5), True)],
                         ids=["QQ ideal", "F_5 module"])
def test_generators_are_made_only_when_read(field, module):
    """The engine computes on the rows' raw coefficients: normal forms,
    dimensions and staircases leave `generators` unmade, and reading it
    gives monic elements."""
    ring = PolyRing(field, ("X", "Y"))
    x, y = ring.variable("X"), ring.variable("Y")
    gens = [3 * x ** 2 - y, 2 * y ** 2 - x]
    if module:
        gens = [oracles.vector(ring, [g, 2 * x]) for g in gens] + [
            oracles.vector(ring, [ring.zero(), 3 * y ** 2])]
    gb = buchberger(gens)
    probe = oracles.vector(ring, [x ** 3, y]) if module else x ** 3 + y
    normal_form(probe, gb)
    raw_normal_form({(0, (3, 0)): ring.field.raw(ring.field.from_int(2))}, gb)
    dimension(gb)
    staircase(gb)
    assert "generators" not in vars(gb)
    assert len(gb.generators) == len(gb) > 1
    for g in gb.generators:
        lead = max(g.terms, key=(lambda t: ring.module_key(*t)) if module else ring.monomial_key)
        assert g.terms[lead] == field.one()


@pytest.mark.parametrize("field", [QQ, prime_field(5), rational_functions(3)],
                         ids=["QQ", "F_5", "F_3(x)"])
def test_a_quotient_starts_from_copies_of_the_parent_rows(field):
    """`quotient_by` seeds Buchberger with new rows that reuse the parent
    basis's leads, keys and degrees: the parent's `generators` stay unmade,
    its rows keep their terms (interreduction replaces the terms of the
    rows it keeps), and the quotient's basis is the one Buchberger gives on
    all its relations."""
    ring = PolyRing(field, ("X", "Y"))
    x, y = ring.variable("X"), ring.variable("Y")
    c = field.from_int(2) + (field.generator() if field.kind == RATIONAL_FUNCTIONS else field.zero())
    parent = make_quotient(Presentation(ring, (x ** 3 - (y ** 2).scale(c), x * y ** 2 + y ** 3)))
    gb = parent.groebner

    def snapshot(rows):
        return [(row, row.lt, row.key, row.degree, dict(row.terms)) for row in rows]

    before = snapshot(gb._rows)
    # Y^2 - cY keeps the lead X^3 of the parent and reduces its tail
    quotient = quotient_by(parent, [y ** 2 - y.scale(c)])
    reference = buchberger(quotient.presentation.relations)
    assert [(r.lt, r.terms) for r in quotient.groebner._rows] == [
        (r.lt, r.terms) for r in reference._rows]
    assert "generators" not in vars(gb)
    assert snapshot(gb._rows) == before
    assert not any(r in gb._rows for r in quotient.groebner._rows)
    x3 = (0, (3, 0))
    assert (next(r for r in quotient.groebner._rows if r.lt == x3).terms
            != next(r for r in gb._rows if r.lt == x3).terms)


def test_criterion_detects_non_basis():
    # the S-pair of X^2 - Y and XY - 1 leaves the residue X - Y^2 unreduced
    raw = buchberger([X ** 2 - Y])._rows + buchberger([X * Y - 1])._rows
    fake = GroebnerBasis(R, None, raw)
    assert not oracles.satisfies_buchberger_criterion(fake)


KERNEL_FIELDS = [QQ, prime_field(2), prime_field(7), rational_functions(5)]


def _random_scalar(rng, field):
    if field.kind == RATIONAL_FUNCTIONS:
        return field.from_ratio((rng.randrange(field.p), rng.randrange(2)))
    if field == QQ:
        return oracles.scalar(field, rng.randrange(-4, 5), rng.randrange(1, 4))
    return field.from_int(rng.randrange(field.p))


def _random_element(rng, ring, max_exp, max_terms):
    terms = [(tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars)),
              _random_scalar(rng, ring.field)) for _ in range(max_terms)]
    return oracles.polynomial(ring, terms)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_normal_form_equals_the_reference_loop(field):
    """Ideals and rank-2 modules in a weighted ring: every normal form
    equals the plain element loop of `oracles` and spends as many steps."""
    rng = random.Random(field.p + 17)
    ring = PolyRing(field, ("A", "B"), (1, 2))
    steps_total = 0
    for trial in range(4):
        gens = [_random_element(rng, ring, 3, 3) for _ in range(3)]
        vecs = [oracles.vector(ring, [_random_element(rng, ring, 2, 2),
                                      _random_element(rng, ring, 2, 2)]) for _ in range(3)]
        for gb, make in ((buchberger(gens), lambda: _random_element(rng, ring, 5, 6)),
                         (buchberger(vecs), lambda: oracles.vector(
                             ring, [_random_element(rng, ring, 2, 3) for _ in range(2)]))):
            for _ in range(4):
                f = make()
                expected, steps = oracles.reference_normal_form(f, gb)
                with step_budget(10 ** 6) as budget:
                    assert normal_form(f, gb) == expected, f"trial {trial}: {f}"
                assert 10 ** 6 - budget.remaining == steps
                steps_total += steps
    assert steps_total > 0


def test_normal_form_wraps_only_its_output_terms(monkeypatch):
    """Over F_p the loop runs on int residues: it makes a field element for
    each output term and for nothing else."""
    field = prime_field(7)
    ring = PolyRing(field, ("A", "B"))
    A, B = ring.variable("A"), ring.variable("B")
    gb = buchberger([A ** 3 - 2 * A * B + 3, B ** 2 + A - 1])
    f = (A + 2 * B + 3) ** 6
    created = []
    original = FieldElement.__init__

    def counted(self, *args):
        created.append(1)
        original(self, *args)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    nf = normal_form(f, gb)
    assert len(created) <= len(nf.terms)
    monkeypatch.undo()
    with step_budget(10 ** 6) as budget:
        assert normal_form(f, gb) == oracles.reference_normal_form(f, gb)[0]
    assert budget.remaining < 10 ** 6 - 10


WEIGHTED_CURVE = """field Fp 5
ring A:1 B:2 C:3
rel C^2 + 4*B^3 + 2*A^6 + 3*A^2*B^2 + A*B*C
mode graded
"""


def _slice_cases():
    weighted = build_algebra(parse_presentation(WEIGHTED_CURVE))
    square = build_algebra(parse_presentation("field QQ\nring X:1 Y:1\nrel X^2 - Y^2\n"
                                              "mode graded\n"))
    ring = PolyRing(QQ, ("X", "Y", "Z"), (2, 1, 3))
    Xw, Yw, Zw = (ring.variable(v) for v in ring.names)
    empty = PolyRing(QQ, ())
    return {
        "weighted curve": weighted.groebner,
        "weighted curve, Kaehler module": kaehler(weighted).groebner,
        "square difference, Kaehler module": kaehler(square).groebner,
        "weighted ideal, infinite": buchberger([Xw * Yw - Zw * Yw, Yw ** 4]),
        "weighted module": buchberger([oracles.vector(ring, [Xw, Yw ** 2, ring.zero()]),
                                       oracles.vector(ring, [ring.zero(), Zw, Xw * Yw])]),
        "finite quotient": buchberger([X ** 2, X * Y, Y ** 3]),
        "unit ideal": buchberger([X, X + 1]),
        "zero ideal": buchberger([R.zero()]),
        "unit module component": buchberger([oracles.vector(R, [R.one(), X])]),
        "no variables": buchberger([empty.zero()]),
        "no variables, unit ideal": buchberger([empty.one()]),
    }


@pytest.mark.parametrize("name", sorted(_slice_cases()))
def test_staircase_of_degree_equals_list_and_filter(name):
    """The pruned walk against listing every monomial of the degree and
    filtering; degrees from 0 up include, for modules, the degrees below a
    component's weight."""
    gb = _slice_cases()[name]
    for degree in range(-1, 13):
        assert staircase_of_degree(gb, degree) == oracles.reference_slice(gb, degree), degree
