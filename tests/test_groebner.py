"""The Buchberger engine: frozen known bases, membership against the
independent linear-algebra oracle, normal-form laws, staircases, and
determinism."""

import random
from fractions import Fraction

import pytest

import oracles
from unramified.errors import BudgetExceededError
from unramified.fields import QQ
from unramified.groebner import (
    GroebnerBasis,
    buchberger,
    dimension,
    ideal_member,
    module_member,
    normal_form,
    satisfies_buchberger_criterion,
    staircase,
    staircase_of_degree,
    step_budget,
)
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
    assert satisfies_buchberger_criterion(gb)


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
    assert not ideal_member(X, [X ** 2])
    assert ideal_member(X ** 3 + X * Y, [X])
    v = oracles.vector(R, [R.zero(), R.zero()])
    assert module_member(v, [oracles.vector(R, [X, Y])])


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
        assert satisfies_buchberger_criterion(gb)
        dense_gens = [poly_to_dense(g) for g in gens]
        # a guaranteed member with small cofactors, and an arbitrary element
        member = ring.zero()
        for g in gens:
            member = member + g * _random_poly(rng, ring, max_exp=1, max_terms=2)
        candidates = [member, _random_poly(rng, ring, max_exp=3, max_terms=3)]
        for f in candidates:
            engine = ideal_member(f, gb)
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


def test_module_groebner_membership():
    rows = [oracles.vector(R, [X, Y]),
            oracles.vector(R, [R.zero(), X ** 2])]
    gb = buchberger(rows)
    assert gb.rank == 2
    assert module_member(rows[0].poly_mul(Y ** 3), gb)
    assert not module_member(ModuleVector.unit(R, 2, 0), gb)
    assert satisfies_buchberger_criterion(gb)


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
    assert len(gb) == 7 and satisfies_buchberger_criterion(gb)
    leads = [g.leading()[0] for g in gb]
    for g, lead in zip(gb, leads):
        for m in g.terms:  # reduced: no lead divides a term but its own
            dividing = [k for k in leads if all(a <= b for a, b in zip(k, m))]
            assert dividing == ([lead] if m == lead else [])


def test_mixed_input_rejected():
    with pytest.raises(ValueError):
        buchberger([X, oracles.vector(R, [X, Y])])


def test_criterion_detects_non_basis():
    # the S-pair of X^2 - Y and XY - 1 leaves the residue X - Y^2 unreduced
    raw = buchberger([X ** 2 - Y])._rows + buchberger([X * Y - 1])._rows
    fake = GroebnerBasis(R, None, raw)
    assert not satisfies_buchberger_criterion(fake)
