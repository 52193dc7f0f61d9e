"""The named constructions and their verification reports."""

import json
import pathlib

import pytest

import oracles
from unramified import algebras, constructions
from unramified.algebras import (
    Presentation,
    artinian_local_model,
    is_injective,
    make_quotient,
    nilpotency_index,
)
from unramified.cli import main
from unramified.constructions import (
    B_tensor_power,
    STATUS_CAP,
    STATUS_OK,
    charp_tower,
    check_theorem_local_case,
    euler_identity_check,
    gabber_B,
    gabber_sequence,
    kill_all_differentials,
    killing_step,
    standard_local_corpus,
    twisted_example,
    verify_preparatory,
)
from unramified.differentials import is_omega_zero
from unramified.fields import QQ, prime_field
from unramified.parsing import build_algebra, parse_presentation
from unramified.polynomials import PolyRing, format_polynomial


def test_gabber_B_guards():
    with pytest.raises(ValueError):
        gabber_B(4)
    with pytest.raises(ValueError):
        gabber_B(5, prime_field(7))  # needs the explicit flag
    with pytest.raises(ValueError):
        gabber_B(5, prime_field(5), allow_positive_characteristic=True)  # p | 2n(n-4)


def test_gabber_B_f_value(b5):
    B, f = b5
    ring = B.ring
    X, Y = ring.variable("X"), ring.variable("Y")
    scale = QQ.one() - oracles.scalar(QQ, 4, 5)
    assert f == B.reduce((X * Y) ** 2).scale(scale)


def test_gabber_B_char_p_exploration():
    B, f = gabber_B(5, prime_field(7), allow_positive_characteristic=True)
    assert B.is_finite


@pytest.mark.parametrize("n", [5, 6, 7])
def test_preparatory_all_claims(n):
    report = verify_preparatory(n)
    assert report.passed
    assert {c.label for c in report.claims} == {
        "dimension finite", "f nonzero", "f squared zero", "df zero",
        "x y^3 zero", "cofactor identity", "Y^2 in (F1, F2)"}


def test_tensor_power(b5):
    B, _ = b5
    result = B_tensor_power(B, 2)
    assert result.report.passed
    assert result.algebra.dimension == 11
    assert len(result.factor_elements) == 1

    result3 = B_tensor_power(B, 3)
    assert result3.report.passed
    assert result3.algebra.dimension == 121

    with pytest.raises(ValueError):
        B_tensor_power(B, 1)


def test_killing_step_b5(b5):
    B, f = b5
    ring = B.ring
    result = killing_step(B, ring.variable("X") ** 2 * ring.variable("Y") ** 2)
    assert result.report.passed
    assert result.algebra.dimension >= B.dimension


def test_killing_step_dual_numbers(b5, dual_numbers):
    Z = dual_numbers.ring.variable("Z")
    result = killing_step(dual_numbers, Z)
    assert result.report.passed
    # t = 2 identifies z with f, so the extension collapses onto a copy of B
    B, _ = b5
    assert result.algebra.dimension == B.dimension
    from unramified.differentials import is_zero_induced_map
    assert is_zero_induced_map(result.embedding)


def test_killing_step_guards(dual_numbers):
    Z = dual_numbers.ring.variable("Z")
    with pytest.raises(ValueError):
        killing_step(dual_numbers, dual_numbers.ring.zero())
    with pytest.raises(ValueError):
        killing_step(dual_numbers, dual_numbers.ring.one())
    with pytest.raises(ValueError):
        killing_step(dual_numbers, Z * 0)


def test_kill_all_differentials(dual_numbers):
    result = kill_all_differentials(dual_numbers)
    assert result.report.status == STATUS_OK
    assert result.report.passed
    assert result.killed == ["Z"]

    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    trivial = kill_all_differentials(ground)
    assert trivial.report.passed
    assert trivial.embedding is None


def _truncated(names, exponents):
    ring = PolyRing(QQ, names)
    return make_quotient(Presentation(
        ring, tuple(ring.variable(v) ** e for v, e in zip(names, exponents))))


def test_kill_all_kills_the_generators():
    """Only the ring generators are killed, in ascending monomial order: their
    differentials generate the module (the maximal ideal's basis is larger)."""
    result = kill_all_differentials(_truncated(("X", "Y"), (2, 2)))
    assert result.killed == ["Y", "X"]
    assert result.algebra.dimension == 121
    assert result.report.params["generators"] == 2
    assert result.report.status == STATUS_OK
    assert result.report.passed


def test_kill_all_skips_a_generator_whose_differential_is_zero():
    # in k[X, Y]/(X^2, Y - X^2) the generator Y is zero: it is skipped and
    # only X takes a killing step
    ring = PolyRing(QQ, ("X", "Y"))
    X, Y = ring.variable("X"), ring.variable("Y")
    result = kill_all_differentials(make_quotient(Presentation(ring, (X ** 2, Y - X ** 2))))
    assert result.killed == ["Y", "X"]
    assert [c.label for c in result.report.claims if c.label.startswith("kill ")] == [
        "kill X: R' finite dimensional", "kill X: embedding injective", "kill X: dr dies"]
    assert result.algebra.dimension == 11
    assert result.report.passed

    # B(5) with a third generator W = f: W is nonzero but dW = df = 0, so it
    # is skipped and the chain goes on to Y, where the cap stops it
    ring = PolyRing(QQ, ("X", "Y", "W"))
    X, Y, W = (ring.variable(v) for v in ring.names)
    F = X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    B = artinian_local_model(ring, [X * (2 * Y ** 2 + 5 * X ** 3),
                                    Y * (2 * X ** 2 + 5 * Y ** 3), W - F])
    assert not B.is_zero_element(W)
    result = kill_all_differentials(B, cap=50)
    assert result.killed == ["W"]
    assert result.report.status == STATUS_CAP
    assert result.report.claims[-1].witness["stopped_at"] == "Y"


def test_kill_all_z4_fits_the_default_cap():
    result = kill_all_differentials(_truncated(("Z",), (4,)))
    assert result.report.status == STATUS_OK
    assert result.algebra.dimension == 1331
    assert result.killed == ["Z"]
    assert all(c.passed for c in result.report.claims)


def test_kill_all_cap_status(b5):
    B, _ = b5
    result = kill_all_differentials(B, cap=50)
    assert result.report.status == STATUS_CAP
    assert result.report.passed  # claims gathered so far all hold


def test_gabber_sequence(dual_numbers):
    result = gabber_sequence(1, start=dual_numbers)
    assert result.report.passed
    assert result.report.status == STATUS_OK
    assert len(result.algebras) == 2

    with pytest.raises(ValueError):
        gabber_sequence(0)

    capped = gabber_sequence(1, cap=50)
    assert capped.report.status == STATUS_CAP
    assert [c.label for c in capped.report.claims][-1] == "stage 0: cap honored"


def test_locality_is_tested_once_per_algebra(monkeypatch):
    """Only the start of the chain tests its generators for nilpotency, and
    once, however many stages and kill-all runs ask whether it is local:
    every later stage carries the locality its killing step proved."""
    real = algebras.nilpotency_index
    tested = []

    def counted(algebra, f):
        tested.append((algebra, format_polynomial(f)))
        return real(algebra, f)

    monkeypatch.setattr(algebras, "nilpotency_index", counted)
    ring = PolyRing(QQ, ("Z",))
    start = make_quotient(Presentation(ring, (ring.variable("Z") ** 2,)))
    gabber_sequence(2, start=start)
    assert tested == [(start, "Z")]


def test_a_chain_over_positive_characteristic_is_refused_first():
    """Over F_7 the chain and kill-all refuse with the killing step's
    message before building a basis, counting a dimension or walking a
    power; a start of dimension 1 is refused too."""
    message = "the killing step needs characteristic zero"
    for text in ("field Fp 7\nring Z:1\nrel Z^3\n", "field Fp 7\n"):
        for run in (lambda R: gabber_sequence(1, start=R), kill_all_differentials):
            R = build_algebra(parse_presentation(text))
            with pytest.raises(ValueError, match=message):
                run(R)
            assert not {"groebner", "dimension",
                        "local_with_nilpotent_generators"} & set(vars(R))


def test_chain_start_must_be_finite_and_not_zero():
    """An infinite start is refused before any claim.  The zero algebra has
    no maximal ideal, so it is not local and the chain refuses it too."""
    ring = PolyRing(QQ, ("X", "Y"))
    X, Y = ring.variable("X"), ring.variable("Y")
    cross = make_quotient(Presentation(ring, (X * Y,)))
    with pytest.raises(ValueError, match="must be finite dimensional"):
        gabber_sequence(1, start=cross)

    zero = make_quotient(Presentation(ring, (X ** 2, X * Y - 1)))
    assert zero.dimension == 0
    assert not zero.local_with_nilpotent_generators
    with pytest.raises(ValueError, match="local algebra"):
        gabber_sequence(1, start=zero)


def test_planted_B_t_failure_fails_the_embedding_claim(monkeypatch, dual_numbers):
    """"embedding injective" is decided by the report of B_t: with
    g^(t-1) = 0 planted there, it fails, and with it the step.  R' is then
    not known to be nonzero, so it carries no locality; a chain built on
    such steps walks its stages' powers, reports the failure and does not
    raise."""
    real = constructions.B_tensor_power

    def planted(*args, **kwargs):
        tensor = real(*args, **kwargs)
        for claim in tensor.report.claims:
            if claim.label == "g^(t-1) nonzero":
                claim.passed = False
        return tensor

    monkeypatch.setattr(constructions, "B_tensor_power", planted)
    step = killing_step(dual_numbers, dual_numbers.ring.variable("Z"))
    claims = {c.label: c.passed for c in step.report.claims}
    assert claims == {"R' finite dimensional": True, "embedding injective": False,
                      "dr dies": True}
    assert not step.report.passed
    assert "local_with_nilpotent_generators" not in vars(step.algebra)
    result = gabber_sequence(2, start=dual_numbers)
    claims = {c.label: c.passed for c in result.report.claims}
    assert claims["stage 0: kill Z: embedding injective"] is False
    assert claims["stage 1 local"] is True
    assert not result.report.passed


@pytest.mark.parametrize("instance", ["ladder2", "ladder3", "ladder4", "ladder5",
                                      "b5_f", "dual_z", "z5_chain"])
def test_killing_claims_agree_with_the_direct_tests(instance, b5, dual_numbers, monkeypatch):
    """The step reads injectivity off the B_t report and locality off R; the
    exact rank of the embedding and the nilpotency of every generator of R',
    walked here rather than read from the locality R' carries, must
    agree."""
    steps = []
    if instance.startswith("ladder"):
        ring = PolyRing(QQ, ("Z",))
        Z = ring.variable("Z")
        R = make_quotient(Presentation(ring, (Z ** int(instance[-1]),)))
        steps.append(killing_step(R, Z))
    elif instance == "b5_f":
        steps.append(killing_step(*b5))
    elif instance == "dual_z":
        steps.append(killing_step(dual_numbers, dual_numbers.ring.variable("Z")))
    else:
        real = constructions.killing_step

        def recording(*args, **kwargs):
            steps.append(real(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(constructions, "killing_step", recording)
        start = build_algebra(parse_presentation((SAMPLES / "z5.alg").read_text()))
        assert gabber_sequence(1, start=start).report.passed
    assert steps
    for step in steps:
        claims = {c.label: c.passed for c in step.report.claims}
        assert claims["embedding injective"] == is_injective(step.embedding)
        Rp, ring = step.algebra, step.algebra.ring
        walked = Rp.dimension > 0 and all(
            nilpotency_index(Rp, ring.variable(name)) is not None for name in ring.names)
        assert claims["R' finite dimensional"] == walked
        assert step.report.passed


GOLDEN = pathlib.Path(__file__).parent / "golden"
SAMPLES = pathlib.Path(__file__).parent.parent / "samples"


@pytest.mark.parametrize("name,k", [
    ("killing_b5_f.json", None),
    ("killing_dual_z.json", 2),
    ("killing_z3_z.json", 3),
    ("killing_z4_z.json", 4),
])
def test_killing_golden_reports(name, k, b5):
    """killing_step reports, recorded before Groebner bases were reused, stay
    byte-identical: B(5) with r = f, and k[Z]/(Z^k) with r = Z."""
    if k is None:
        R, r = b5
    else:
        ring = PolyRing(QQ, ("Z",))
        r = ring.variable("Z")
        R = make_quotient(Presentation(ring, (r ** k,)))
    assert killing_step(R, r).report.to_json() + "\n" == (GOLDEN / name).read_text()


def test_kill_all_labels_name_the_killed_element():
    result = kill_all_differentials(_truncated(("Z",), (3,)))
    assert result.killed == ["Z"]
    assert result.algebra.dimension == 121
    labels = [c.label for c in result.report.claims]
    assert len(labels) == len(set(labels))
    assert "kill Z: dr dies" in labels
    assert labels[-1] == "composite kills differentials"
    assert result.report.passed


def test_planted_sub_claim_failure_fails_the_sequence(monkeypatch, dual_numbers):
    """A failed claim of any killing step fails kill-all, the sequence and
    `verify gabber`, even when no cap is hit."""
    real = constructions.killing_step

    def planted(*args, **kwargs):
        step = real(*args, **kwargs)
        for claim in step.report.claims:
            if claim.label == "dr dies":
                claim.passed = False
        return step

    monkeypatch.setattr(constructions, "killing_step", planted)
    assert not kill_all_differentials(dual_numbers).report.passed
    result = gabber_sequence(1, start=dual_numbers)
    assert result.report.status == STATUS_OK
    assert not result.report.passed
    claims = {c.label: c.passed for c in result.report.claims}
    assert claims["stage 0: kill Z: dr dies"] is False
    assert claims["stage 0: kill Z: embedding injective"] is True
    argv = ["verify", "gabber", "--steps", "1", "--start", str(SAMPLES / "dual_numbers.alg")]
    assert main(argv + ["--json"]) == 1


@pytest.mark.parametrize("p,n_max", [(2, 3), (3, 2)])
def test_charp_tower(p, n_max):
    result = charp_tower(p, n_max)
    assert result.report.passed
    assert [a.dimension for a in result.algebras] == [p ** n for n in range(1, n_max + 1)]


def test_charp_tower_dimension():
    result = charp_tower(5, 1)
    assert result.algebras[0].dimension == 5


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2)])
def test_twisted_example(p, n):
    result = twisted_example(p, n)
    assert result.report.passed
    labels = {c.label for c in result.report.claims}
    assert "twist is multiplicative" in labels
    assert "transition kills dU" in labels


def test_twisted_omega_never_zero():
    for p, n in ((2, 1), (2, 2), (3, 1)):
        result = twisted_example(p, n, trials=5)
        assert not is_omega_zero(result.algebras[0])


def test_local_case_harness(b5, dual_numbers):
    ground = make_quotient(Presentation(PolyRing(QQ, ()), ()))
    B, _ = b5
    report = check_theorem_local_case([
        ("ground", ground), ("dual numbers", dual_numbers), ("B(5)", B)])
    assert report.passed

    free = make_quotient(Presentation(PolyRing(QQ, ("X",)), ()))
    with pytest.raises(ValueError):
        check_theorem_local_case([("free", free)])


def test_local_case_builds_no_basis_of_a_local_entry():
    """A local model carries its dimension and locality, and the Kaehler
    module reads only the presentation, so the harness builds no reduced
    basis of the entry."""
    model = build_algebra(parse_presentation((SAMPLES / "b5.alg").read_text()))
    assert check_theorem_local_case([("B(5)", model)]).passed
    assert "groebner" not in vars(model)


def test_local_corpus_size_and_determinism():
    corpus = standard_local_corpus(20, seed=0)
    assert len(corpus) >= 27  # 20 random + the named examples
    names_first = [name for name, _ in corpus]
    names_second = [name for name, _ in standard_local_corpus(20, seed=0)]
    assert names_first == names_second
    report = check_theorem_local_case(corpus)
    assert report.passed


def test_euler_identity_check():
    for field in (QQ, prime_field(2), prime_field(5)):
        report = euler_identity_check(field, trials=40, seed=3)
        assert report.passed


@pytest.mark.parametrize("trials", [0, -1])
def test_checks_of_no_trials_are_refused(trials):
    """A seeded check of no samples would pass on no evidence."""
    with pytest.raises(ValueError, match="trials must be at least 1"):
        euler_identity_check(QQ, trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        twisted_example(2, 1, trials=trials)


def test_report_json_shape(dual_numbers):
    report = kill_all_differentials(dual_numbers).report
    payload = report.to_json_dict()
    assert set(payload) == {"construction", "params", "claims", "pass",
                            "status", "elapsed_ms"}
    assert payload["elapsed_ms"] is None
    # a report carries no time of its own; the command that measured one
    # passes it in
    assert report.to_json_dict(12.5)["elapsed_ms"] == 12.5
    json.dumps(payload)  # witnesses must be serializable


def test_reports_are_reproducible(dual_numbers):
    first = kill_all_differentials(dual_numbers).report.to_json()
    second = kill_all_differentials(dual_numbers).report.to_json()
    assert first == second
