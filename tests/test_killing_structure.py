"""The killing step decides its claims from R and B alone: dim R' from Jordan
types, the embedding from the presentation, "dr dies" from a certificate.
R' builds its Groebner basis only on first use.  The explicit construction,
the quotient of R (x) B_t by r (x) 1 - 1 (x) g, stays the oracle."""

import pathlib
import random
from collections import Counter

import pytest

import oracles
from unramified import algebras, constructions, differentials
from unramified.algebras import (
    Presentation,
    artinian_local_model,
    jordan_type,
    make_quotient,
    nilpotency_index,
    quotient_by,
    renaming_map,
    tensor_quotient,
)
from unramified.cli import main
from unramified.constructions import (
    KILLING_N,
    STATUS_CAP,
    STATUS_OK,
    B_tensor_power,
    _tensor_sum_type,
    gabber_B,
    gabber_sequence,
    kill_all_differentials,
    killing_step,
)
from unramified.differentials import DZeroCertificate, _outside_m_squared, kaehler
from unramified.errors import BudgetExceededError
from unramified.fields import QQ, prime_field
from unramified.groebner import buchberger, dimension, step_budget
from unramified.parsing import build_algebra, parse_presentation
from unramified.polynomials import PolyRing, cast, format_polynomial

SAMPLES = pathlib.Path(__file__).parent.parent / "samples"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _truncated(names, exponents):
    ring = PolyRing(QQ, names)
    return make_quotient(Presentation(
        ring, tuple(ring.variable(v) ** e for v, e in zip(names, exponents))))


def _built(algebra) -> bool:
    """Whether the algebra's Groebner basis has been built."""
    return "groebner" in vars(algebra)


def _count_buchberger_runs(monkeypatch) -> Counter:
    """Buchberger runs by the number of variables of their ring, counted at
    the two bindings that build bases, those of `algebras` and
    `differentials`."""
    runs = Counter()

    def counting(generators, **kwargs):
        runs[generators[0].ring.nvars] += 1
        return buchberger(generators, **kwargs)

    monkeypatch.setattr(algebras, "buchberger", counting)
    monkeypatch.setattr(differentials, "buchberger", counting)
    return runs


def _explicit_basis(R, r):
    """The reduced basis of R' as the explicit construction computes it:
    the union of the bases of R and B_t, extended by r (x) 1 - 1 (x) g."""
    r = R.reduce(r)
    B, _ = gabber_B(KILLING_N)
    tensor = B_tensor_power(B, nilpotency_index(R, r))
    big, renames = tensor_quotient([R, tensor.algebra])
    relation = cast(r, big.ring, renames[0])
    for gi in tensor.factor_elements:
        relation = relation - cast(gi, big.ring, renames[1])
    return buchberger([relation], start=big.groebner)


def _instances(instance, b5, dual_numbers, monkeypatch) -> list:
    """(R, r, KillingStepResult) of every killing step the instance takes."""
    if instance.startswith("ladder"):
        R = _truncated(("Z",), (int(instance[-1]),))
        r = R.ring.variable("Z")
        return [(R, r, killing_step(R, r))]
    if instance == "b5_f":
        return [(*b5, killing_step(*b5))]
    if instance == "dual_z":
        r = dual_numbers.ring.variable("Z")
        return [(dual_numbers, r, killing_step(dual_numbers, r))]
    steps = []
    real = constructions.killing_step

    def recording(R, r, **kwargs):
        steps.append((R, r, real(R, r, **kwargs)))
        return steps[-1][2]

    monkeypatch.setattr(constructions, "killing_step", recording)
    start = build_algebra(parse_presentation((SAMPLES / "z5.alg").read_text()))
    assert gabber_sequence(1, start=start).report.passed
    return steps


@pytest.mark.parametrize("instance", ["ladder2", "ladder3", "ladder4", "ladder5",
                                      "b5_f", "dual_z", "z5_chain"])
def test_proved_dimension_equals_the_explicit_count(instance, b5, dual_numbers,
                                                    monkeypatch):
    """The step returns R' with its basis unbuilt; the dimension it proved
    equals the standard-monomial count of the explicit R', and the basis
    built on first use is the explicit one."""
    steps = _instances(instance, b5, dual_numbers, monkeypatch)
    assert steps
    for R, r, step in steps:
        Rp = step.algebra
        assert not _built(Rp)
        assert step.report.passed
        explicit = _explicit_basis(R, r)
        assert Rp.dimension == dimension(explicit)
        assert not _built(Rp)
        assert Rp.groebner.generators == explicit.generators


def test_lazy_and_eager_bases_agree(b5):
    """A quotient builds the same reduced basis on first use as an algebra
    given it at once, and an assigned dimension stands in for the count."""
    B, f = b5
    lazy = quotient_by(B, [f])
    assert not _built(lazy)
    eager = make_quotient(lazy.presentation)
    assert lazy.dimension == eager.dimension == 10
    assert _built(lazy)
    assert lazy.groebner.generators == eager.groebner.generators
    proved = quotient_by(B, [f])
    proved.dimension = 10
    assert proved.dimension == 10 and proved.is_finite and not _built(proved)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_clebsch_gordan_type_equals_the_quotient_type(t, b5):
    """The type of g on B_t from that of f on B by the Clebsch-Gordan rule
    equals the type read off dim B_t / g^j B_t."""
    B, f = b5
    assert jordan_type(B, f) == {1: 9, 2: 1}
    tensor = B_tensor_power(B, t)
    g = tensor.algebra.ring.zero()
    for gi in tensor.factor_elements:
        g = g + gi
    cg = _tensor_sum_type(jordan_type(B, f), t - 1)
    assert jordan_type(tensor.algebra, g) == cg
    assert max(cg) == t
    assert sum(size * count for size, count in cg.items()) == tensor.algebra.dimension


def test_jordan_type_guards(dual_numbers):
    Z = dual_numbers.ring.variable("Z")
    assert jordan_type(dual_numbers, Z) == {2: 1}
    assert jordan_type(dual_numbers, Z * 0) == {1: 2}
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_type(dual_numbers, dual_numbers.ring.one() + Z)


def test_nilpotency_index_is_the_largest_jordan_block(b5):
    """Both read the one walk through the powers of an element."""
    B, f = b5
    X, Y = B.ring.variable("X"), B.ring.variable("Y")
    for e in (X, Y, X + Y, X * Y ** 2, f):
        assert nilpotency_index(B, e) == max(jordan_type(B, e))
    assert nilpotency_index(B, B.ring.one() + X) is None


def test_k7_is_counted_without_a_basis():
    """dim R' = 11^6 on k[Z]/(Z^7), with every claim decided and R' unbuilt."""
    R = _truncated(("Z",), (7,))
    step = killing_step(R, R.ring.variable("Z"), cap=2 * 10 ** 6)
    assert step.algebra.dimension == 1771561
    assert step.report.passed
    assert not _built(step.algebra)


def test_z6_chain_ends_ok_without_a_basis():
    """The composite claim of a one-generator chain is the step's certificate
    on the image as it is: `verify gabber` ends ok at 11^5 and the final
    algebra never builds its basis."""
    start = build_algebra(parse_presentation("field QQ\nring Z:1\nrel Z^6\nmode plain\n"))
    result = gabber_sequence(1, start=start, cap=200000)
    assert result.report.status == STATUS_OK and result.report.passed
    assert result.algebras[-1].dimension == 161051
    assert not _built(result.algebras[-1])


def test_the_ladder_step_leaves_the_product_basis_unbuilt(monkeypatch):
    """On k[Z]/(Z^4) the step reads the basis of B_t but not that of
    R (x) B_t; reading R' builds both, and R' is the explicit one."""
    products = []
    real = constructions.tensor_quotient

    def recording(factors):
        products.append(real(factors))
        return products[-1]

    monkeypatch.setattr(constructions, "tensor_quotient", recording)
    R = _truncated(("Z",), (4,))
    step = killing_step(R, R.ring.variable("Z"))
    assert step.report.passed
    (Bt, _), (big, renames) = products
    assert set(renames[0]) == {"Z"}
    assert _built(Bt) and not _built(big) and not _built(step.algebra)
    assert step.algebra.groebner.generators == _explicit_basis(
        R, R.ring.variable("Z")).generators
    assert _built(big)


def test_the_ladder_rung_runs_buchberger_only_on_small_rings(monkeypatch):
    """killing_step on k[Z]/(Z^5), the last `ladder` rung, builds the bases
    of R and of its quotients by Z's powers (1 variable), of B and B/(f)
    (2 variables) and of B_5 (8 variables), and none on the 9 of R'."""
    runs = _count_buchberger_runs(monkeypatch)
    R = _truncated(("Z",), (5,))
    assert killing_step(R, R.ring.variable("Z")).report.passed
    assert runs == {1: 5, 2: 2, 8: 1}


def test_killing_step_refuses_positive_characteristic_first():
    """Before R's basis or r's powers: the Clebsch-Gordan rule holds in
    characteristic zero only."""
    ring = PolyRing(prime_field(7), ("Z",))
    R = make_quotient(Presentation(ring, (ring.variable("Z") ** 3,)))
    with pytest.raises(ValueError, match="killing step needs characteristic zero"):
        killing_step(R, ring.variable("Z"))
    assert not _built(R)


def test_embedding_needs_every_relation_in_the_target(dual_numbers):
    """The renaming map is well defined only when every renamed relation of
    the source is a presentation relation of the target."""
    Z = dual_numbers.ring.variable("Z")
    step = killing_step(dual_numbers, Z)
    assert step.embedding.images == {"Z": step.algebra.ring.variable(step.rename["Z"])}
    loose = make_quotient(Presentation(dual_numbers.ring, (Z ** 3,)))
    with pytest.raises(ValueError, match="is not a relation of the target"):
        renaming_map(dual_numbers, loose, {"Z": "Z"})
    with pytest.raises(ValueError, match="exactly the source variables"):
        renaming_map(dual_numbers, dual_numbers, {})


def test_a_lazy_basis_spends_from_the_ambient_budget(tmp_path, capsys):
    """R' builds its basis under the step budget in force at first use, so
    `--budget` binds it: on the (X^2, Y^2) chain, which reduces in the first
    R' to kill X, a budget that would cover the command without that build
    stops it with exit 3."""
    R = _truncated(("Z",), (3,))
    step = killing_step(R, R.ring.variable("Z"))
    with step_budget(10 ** 9) as budget:
        step.algebra.groebner
    lazy = 10 ** 9 - budget.remaining
    assert lazy > 0
    step = killing_step(R, R.ring.variable("Z"))
    with step_budget(lazy - 1), pytest.raises(BudgetExceededError):
        step.algebra.groebner

    text = "field QQ\nring X:1 Y:1\nrel X^2\nrel Y^2\nmode plain\n"
    start = tmp_path / "xy.alg"
    start.write_text(text)
    with step_budget(10 ** 9) as budget:
        algebra = build_algebra(parse_presentation(text))
        assert gabber_sequence(1, start=algebra).report.passed
    total = 10 ** 9 - budget.remaining
    first = killing_step(algebra, algebra.ring.variable("Y"))
    with step_budget(10 ** 9) as budget:
        first.algebra.groebner
    lazy = 10 ** 9 - budget.remaining
    assert 0 < lazy < total
    argv = ["verify", "gabber", "--steps", "1", "--start", str(start)]
    assert main(argv + ["--budget", str(total)]) == 0
    capsys.readouterr()
    assert main(argv + ["--budget", str(total - lazy)]) == 3
    assert "budget" in capsys.readouterr().err


def test_x2_y3_chain_builds_no_kaehler_module(kaehler_builds):
    """Each generator of the (X^2, Y^3) chain is outside m^2 of its stage,
    so the skip test needs no differential module, and the composite claim
    holds by certificates."""
    result = kill_all_differentials(_truncated(("X", "Y"), (2, 3)))
    assert result.killed == ["Y", "X"]
    assert result.algebra.dimension == 1331
    assert result.report.passed
    assert kaehler_builds == []


def _spy_stage_types(monkeypatch) -> list:
    """(algebra, r as text, type) of every Jordan type a killing step asks
    for, in order."""
    types = []
    real = constructions._stage_type

    def spy(algebra, r):
        types.append((algebra, format_polynomial(r), real(algebra, r)))
        return types[-1][2]

    monkeypatch.setattr(constructions, "_stage_type", spy)
    return types


# exponents of k[X, Y]/(X^a, Y^b) -> (dimension, Jordan type of X#1) on the
# stage after Y is killed, both read from that stage's explicit basis; the
# structural count of the type over quotients of R reproduces them
MIDDLE_STAGES = {(2, 3): (242, {2: 121}), (2, 2): (22, {2: 11}),
                 (3, 3): (363, {3: 121})}


@pytest.mark.parametrize("exponents, final", [((2, 3), 1331), ((2, 2), 121),
                                              ((3, 3), 14641)])
def test_a_chain_is_carried_by_one_renaming(exponents, final, monkeypatch):
    """Kill-all over two generators carries the chain as one renaming: no
    map is composed or applied, the composite sends each generator to its
    renamed variable in the final algebra, and that algebra never builds
    its basis.  The type of X#1 on the middle stage is read on quotients of
    R, so that stage never builds its basis either; the type is the
    recorded one, and the explicit walk on the stage agrees."""
    def refuse(*args):
        raise AssertionError("the chain reduced an image")

    monkeypatch.setattr(constructions, "compose", refuse)
    monkeypatch.setattr(algebras.AlgebraMap, "apply", refuse)
    types = _spy_stage_types(monkeypatch)
    R = _truncated(("X", "Y"), exponents)
    result = kill_all_differentials(R)
    assert result.report.passed and result.killed == ["Y", "X"]
    assert result.algebra.dimension == final
    (start, y, _), (middle, x, x_found) = types
    assert (start, y, x) == (R, "Y", "X#1")
    dim, x_type = MIDDLE_STAGES[exponents]
    assert (middle.dimension, x_found) == (dim, x_type)
    assert not _built(middle)
    assert jordan_type(middle, middle.ring.variable("X#1")) == x_type
    ring = result.algebra.ring
    assert result.embedding.source is R and result.embedding.target is result.algebra
    assert result.embedding.images == {"X": ring.variable("X#1#1"),
                                       "Y": ring.variable("Y#1#1")}
    assert not _built(result.algebra)


def _random_monomial(rng, xs, low, high):
    m = xs[0].ring.one()
    for _ in range(rng.randint(low, high)):
        m = m * rng.choice(xs)
    return m


def _random_killing_input(rng):
    """(R, r): R local over QQ in 1 to 3 variables, by pure powers X_i^a
    with a in 2..4 and up to two binomials in m^2, of dimension at most 40,
    and r nonzero in m.  B_t has dimension 11^(t-1), so r is drawn until
    its nilpotency index t is at most 4, and R' stays small enough to build
    explicitly."""
    while True:
        ring = PolyRing(QQ, ("X", "Y", "W")[:rng.randint(1, 3)])
        xs = [ring.variable(v) for v in ring.names]
        relations = [x ** rng.randint(2, 4) for x in xs]
        for _ in range(rng.randint(0, 2)):
            binomial = (rng.randint(1, 3) * _random_monomial(rng, xs, 2, 3)
                        - rng.randint(1, 3) * _random_monomial(rng, xs, 2, 3))
            if not binomial.is_zero():
                relations.append(binomial)
        R = make_quotient(Presentation(ring, tuple(relations)))
        if R.dimension <= 40:
            break
    while True:
        r = ring.zero()
        for _ in range(rng.randint(1, 3)):
            r = r + rng.randint(-3, 3) * _random_monomial(rng, xs, 1, 2)
        if not R.is_zero_element(r) and nilpotency_index(R, r) <= 4:
            return R, r


def _types_of_copies(step) -> tuple:
    """The type of the copy of each variable of R on R', read structurally
    and then by the explicit walk on R', which builds its basis."""
    Rp = step.algebra
    copies = [Rp.ring.variable(new) for new in step.rename.values()]
    structural = [constructions._stage_type(Rp, y) for y in copies]
    assert not _built(Rp)
    return structural, [jordan_type(Rp, y) for y in copies]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_depth_one_formula_matches_the_explicit_walk(seed):
    """On 20 seeded killing steps per seed, R' carries its decomposition
    as the sum of the (R/r^b R)^(n_b): the step's renaming and summands
    that are R (b = t) or R/r^b R for distinct b < t, whose dimensions sum
    to dim R'.  The type of every copied variable on R', read on those
    summands, equals the explicit walk on R', and the proved dimension is
    the count of R''s reduced basis."""
    rng = random.Random(seed)
    for _ in range(20):
        R, r = _random_killing_input(rng)
        step = killing_step(R, r)
        assert step.report.passed
        rename, summands = step.algebra.killing_origin
        assert rename == step.rename
        t = step.report.params["t"]
        quotients = {R.presentation.relations + (r ** b,): b for b in range(1, t)}
        exponents = [t if Q is R else quotients[Q.presentation.relations]
                     for _, Q in summands]
        assert len(set(exponents)) == len(exponents)
        structural, explicit = _types_of_copies(step)
        assert structural == explicit, (R.presentation.relations, r)
        assert sum(n * Q.dimension for n, Q in summands) == step.algebra.dimension
        assert dimension(step.algebra.groebner) == step.algebra.dimension


def test_the_copies_of_a_step_share_its_quotients(monkeypatch):
    """On k[X, Y, W]/(X^2, Y^2, W^2) killed at X + Y + W (t = 4), reading
    the types of X#1, Y#1 and W#1 on R' builds each summand R/r^b R of R'
    once, not once per copied variable: 15 Buchberger runs on the 3
    variables, each type's own quotients by powers included."""
    R = _truncated(("X", "Y", "W"), (2, 2, 2))
    X, Y, W = (R.ring.variable(v) for v in R.ring.names)
    step = killing_step(R, X + Y + W)
    assert step.report.params["t"] == 4
    runs = _count_buchberger_runs(monkeypatch)
    for name in step.rename.values():
        constructions._stage_type(step.algebra, step.algebra.ring.variable(name))
    assert runs == {3: 15}


def test_killing_r_plus_a_relation_is_killing_r():
    """r is taken as given: r + X^3 on k[X, Y]/(X^3, Y^2 - XY) gives the
    same dimension, types and reduced basis of R' as r, and is reported as
    given."""
    ring = PolyRing(QQ, ("X", "Y"))
    X, Y = ring.variable("X"), ring.variable("Y")
    R = make_quotient(Presentation(ring, (X ** 3, Y ** 2 - X * Y)))
    r = X + Y
    plain, padded = killing_step(R, r), killing_step(R, r + X ** 3)
    assert plain.report.passed and padded.report.passed
    assert padded.report.params["r"] == format_polynomial(r + X ** 3) != format_polynomial(r)
    assert padded.algebra.dimension == plain.algebra.dimension
    assert _types_of_copies(padded) == _types_of_copies(plain)
    assert padded.algebra.groebner.generators == plain.algebra.groebner.generators


def test_killing_step_walks_the_powers_of_r_once(monkeypatch):
    """t is the largest Jordan block of r, read off the one walk through r's
    powers that the type needs, so the step never asks for the nilpotency
    index; a non-nilpotent r is still refused."""
    R = _truncated(("Z",), (4,))
    Z = R.ring.variable("Z")
    assert R.local_with_nilpotent_generators  # the locality test asks once, here

    def refuse(*args):
        raise AssertionError("the step asked for the nilpotency index")

    monkeypatch.setattr(algebras, "nilpotency_index", refuse)
    monkeypatch.setattr(constructions, "nilpotency_index", refuse, raising=False)
    step = killing_step(R, Z)
    assert step.report.params["t"] == 4 and step.report.passed
    assert step.algebra.dimension == 11 ** 3
    with pytest.raises(ValueError, match="not nilpotent"):
        killing_step(R, R.ring.one() + Z)


@pytest.mark.parametrize("shape", ["x2_y3", "x2_y_minus_x2", "b5_w", "dual"])
def test_outside_m_squared_agrees_with_the_module(shape, dual_numbers):
    """Every generator outside m^2 has a nonzero differential in the Kaehler
    module: the linear-part test never keeps a generator the module would
    skip."""
    ring = PolyRing(QQ, ("X", "Y", "W"))
    X, Y, W = (ring.variable(v) for v in ring.names)
    if shape == "x2_y3":
        algebra = _truncated(("X", "Y"), (2, 3))
    elif shape == "x2_y_minus_x2":
        algebra = make_quotient(Presentation(ring, (X ** 2, Y - X ** 2, W ** 2)))
    elif shape == "b5_w":
        algebra = _b5_with_f(ring)
    else:
        algebra = dual_numbers
    outside = []
    for name in algebra.ring.names:
        e = algebra.ring.variable(name)
        if _outside_m_squared(algebra, e):
            outside.append(name)
            assert not kaehler(algebra).is_d_zero(e)
    expected = {"x2_y3": ["X", "Y"], "x2_y_minus_x2": ["X", "W"], "b5_w": ["X", "Y"],
                "dual": ["Z"]}
    assert outside == expected[shape]


def _linear_row(f) -> list:
    """The payloads of the coefficients of X_1, ..., X_s in f."""
    row = [0] * f.ring.nvars
    for m, c in f.terms.items():
        if sum(m) == 1:
            row[m.index(1)] = c.payload
    return row


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_outside_m_squared_agrees_with_two_ranks(p):
    """On 25 seeded local algebras per field (1 to 3 variables, pure powers
    X_i^a with a in 2..3 and up to two relations with random linear parts
    and terms in m^2), the derivation test says True for a generator x
    exactly when adding the linear part of x raises the rank of the
    relations' linear parts, an independent Gaussian elimination; and when
    it says True, dx != 0 in the Kaehler module.  Both outcomes occur."""
    field = QQ if p == 0 else prime_field(p)
    rng = random.Random(2900 + p)
    outcomes = Counter()
    for _ in range(25):
        ring = PolyRing(field, ("X", "Y", "W")[:rng.randint(1, 3)])
        xs = [ring.variable(v) for v in ring.names]
        relations = [x ** rng.randint(2, 3) for x in xs]
        for _ in range(rng.randint(0, 2)):
            g = _random_monomial(rng, xs, 2, 3)
            for x in xs:
                g = g + rng.randint(-2, 2) * x
            relations.append(g)
        A = make_quotient(Presentation(ring, tuple(relations)))
        assert A.local_with_nilpotent_generators
        rows = [_linear_row(g) for g in relations]
        base = oracles.fraction_rank(rows, p)
        for x in xs:
            expected = oracles.fraction_rank(rows + [_linear_row(x)], p) > base
            assert _outside_m_squared(A, x) == expected, (relations, x)
            if expected:
                assert not kaehler(A).is_d_zero(x)
            outcomes[expected] += 1
    assert outcomes[True] and outcomes[False]


def _b5_with_f(ring):
    """B(5) with a third generator W = f, and dW = df = 0."""
    X, Y, W = (ring.variable(v) for v in ring.names)
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    return artinian_local_model(ring, [X * (2 * Y ** 2 + 5 * X ** 3),
                                       Y * (2 * X ** 2 + 5 * Y ** 3), W - F])


def test_a_held_certificate_skips_without_a_module(kaehler_builds):
    """W = f has dW = 0 by dW = d(W - F) + X F1 dX + Y F2 dY; with that
    certificate in hand kill-all skips W without a differential module, and
    decides as the module does."""
    ring = PolyRing(QQ, ("X", "Y", "W"))
    X, Y, W = (ring.variable(v) for v in ring.names)
    B = _b5_with_f(ring)
    one = ring.one()
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    certificate = DZeroCertificate(W, ((one, W - F, None),
                                       (one, X * (2 * Y ** 2 + 5 * X ** 3), "X"),
                                       (one, Y * (2 * X ** 2 + 5 * Y ** 3), "Y")))
    held = kill_all_differentials(B, cap=50, known=[certificate])
    assert kaehler_builds == []
    assert held.killed == ["W"]
    assert held.certificates == {"W": certificate}
    plain = kill_all_differentials(B, cap=50)
    assert kaehler_builds == [B]
    assert plain.report.to_json() == held.report.to_json()
    assert held.report.status == STATUS_CAP


def test_a_held_certificate_is_checked_once_in_R(monkeypatch, kaehler_builds):
    """A held certificate is matched once, against R's own generators and in
    R's ring, before any step; killing a generator first does not move
    that check into a later stage.  On k[W, Z]/(Z^2, W - Z^2) Z is killed
    first, and then W, whose certificate dW = d(W - Z^2) + d(Z^2) is in
    hand, is skipped without a differential module."""
    ring = PolyRing(QQ, ("W", "Z"))
    W, Z = ring.variable("W"), ring.variable("Z")
    R = make_quotient(Presentation(ring, (Z ** 2, W - Z ** 2)))
    one = ring.one()
    certificate = DZeroCertificate(W, ((one, W - Z ** 2, None), (one, Z ** 2, None)))
    checked = []
    real = constructions.certifies_d_zero

    def spy(algebra, c, f):
        checked.append((algebra, c))
        return real(algebra, c, f)

    monkeypatch.setattr(constructions, "certifies_d_zero", spy)
    result = kill_all_differentials(R, known=[certificate])
    assert result.killed == ["Z", "W"]
    assert result.report.passed and kaehler_builds == []
    step_certificate = result.certificates["Z"]
    assert [(a, c) for a, c in checked if c is not step_certificate] == [(R, certificate)]


def test_the_chain_forwards_its_certificates(dual_numbers, monkeypatch):
    """Each stage of a chain starts with the certificates the previous one
    ended with, in its own ring."""
    calls = []
    real = constructions.kill_all_differentials

    def recording(R, **kwargs):
        calls.append((R, list(kwargs.get("known", ()))))
        return real(R, **kwargs)

    monkeypatch.setattr(constructions, "kill_all_differentials", recording)
    gabber_sequence(2, start=dual_numbers)
    (R0, known0), (R1, known1) = calls
    assert known0 == []
    (certificate,) = known1
    assert certificate.element == R1.ring.variable("Z#1")
    assert differentials.certifies_d_zero(R1, certificate, certificate.element)


@pytest.mark.parametrize("planted", [{1: 11, 2: 5}, {1: 8, 3: 1}, {1: 2, 2: 5}])
def test_planted_wrong_jordan_type_fails_the_dimension_claim(planted, dual_numbers,
                                                             monkeypatch):
    """A type of g that does not fill B_t, or whose largest block is not t,
    fails "R' finite dimensional" and with it the step."""
    monkeypatch.setattr(constructions, "_tensor_sum_type", lambda *args: dict(planted))
    step = killing_step(dual_numbers, dual_numbers.ring.variable("Z"))
    claims = {c.label: c.passed for c in step.report.claims}
    assert claims == {"R' finite dimensional": False, "embedding injective": True,
                      "dr dies": True}
    assert not step.report.passed
    assert "local_with_nilpotent_generators" not in vars(step.algebra)
    # R' hands on no structure, so a next step walks its types explicitly
    assert step.algebra.killing_origin is None
    walked = []
    monkeypatch.setattr(constructions, "jordan_type",
                        lambda algebra, f: walked.append(algebra) or {2: 1})
    constructions._stage_type(step.algebra, step.algebra.ring.variable(step.rename["Z"]))
    assert walked == [step.algebra]


def test_the_paper_chain_finishes_under_a_cap_it_fits(monkeypatch, capsys):
    """`verify gabber --steps 1` from B(5) at a cap above its last stage
    exits 0 at dimension 25 058 161 862, byte for byte as its golden.  On
    the way, X#1 has the recorded Jordan type on the stage of dimension
    539 483, the value an explicit walk of that stage found, here read on
    quotients of B.  Buchberger runs by ring: 38 on B's 2 variables (B once
    per `gabber_B`, its quotients by the powers of Y and f, the B/(Y^b) for
    b below the nilpotency index 6 of Y, and the quotients of those and of
    B itself, which is B/(Y^6), by the powers of X), one per step on the 10
    of B_6, and none on the 12 of the stage of dimension 539 483, which
    never builds its basis."""
    types = _spy_stage_types(monkeypatch)
    runs = _count_buchberger_runs(monkeypatch)
    assert main(["verify", "gabber", "--steps", "1", "--cap", "30000000000",
                 "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "gabber_steps1_cap3e10.json").read_text()
    (_, y, _), (middle, x, x_type) = types
    assert (y, x, middle.dimension) == ("Y", "X#1", 539483)
    assert x_type == {1: 9145, 2: 42669, 3: 46, 4: 100859, 5: 8284, 6: 1}
    assert not _built(middle)
    assert runs == {2: 38, 10: 2}
