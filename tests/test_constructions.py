"""The named constructions and their verification reports."""

import json
import pathlib

import pytest

from unramified import constructions
from unramified.algebras import Presentation, make_quotient
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
from unramified.errors import CapExceededError
from unramified.fields import QQ, prime_field
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
    scale = QQ.one() - QQ.from_fraction(4, 5)
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
    result = B_tensor_power(B, 5, 2)
    assert result.report.passed
    assert result.algebra.dimension == 11
    assert len(result.factor_elements) == 1

    result3 = B_tensor_power(B, 5, 3)
    assert result3.report.passed
    assert result3.algebra.dimension == 121

    with pytest.raises(ValueError):
        B_tensor_power(B, 5, 1)
    with pytest.raises(CapExceededError):
        B_tensor_power(B, 5, 3, cap=100)


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
    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    result = kill_all_differentials(make_quotient(Presentation(ring, (Z ** 3,))))
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


def test_report_json_shape(dual_numbers):
    report = kill_all_differentials(dual_numbers).report
    payload = report.to_json_dict()
    assert set(payload) == {"construction", "params", "claims", "pass",
                            "status", "elapsed_ms"}
    assert payload["elapsed_ms"] is None
    timed = report.to_json_dict(include_timing=True)
    assert isinstance(timed["elapsed_ms"], float)
    json.dumps(payload)  # witnesses must be serializable


def test_reports_are_reproducible(dual_numbers):
    first = kill_all_differentials(dual_numbers).report.to_json()
    second = kill_all_differentials(dual_numbers).report.to_json()
    assert first == second
