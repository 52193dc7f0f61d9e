"""The "dr dies" and composite claims are read off explicit identities in the
free module (`DZeroCertificate`); the Groebner basis of the differential
module stays the independent oracle they must agree with."""

import json

import pytest

import oracles
from unramified import constructions, differentials
from unramified.algebras import Presentation, make_quotient
from unramified.cli import main
from unramified.constructions import (
    STATUS_CAP,
    STATUS_OK,
    gabber_sequence,
    kill_all_differentials,
    killing_step,
)
from unramified.differentials import (
    DZeroCertificate,
    certifies_d_zero,
    is_zero_induced_map,
    kaehler,
)
from unramified.errors import CapExceededError
from unramified.fields import QQ
from unramified.polynomials import PolyRing


def _truncated(k: int):
    """k[Z]/(Z^k) and its generator Z."""
    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    return make_quotient(Presentation(ring, (Z ** k,))), Z


def _claims(report) -> dict:
    return {c.label: c.passed for c in report.claims}


def _record_steps(monkeypatch) -> list:
    """Collect every KillingStepResult that kill-all builds."""
    steps = []
    real = constructions.killing_step

    def recording(*args, **kwargs):
        steps.append(real(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(constructions, "killing_step", recording)
    return steps


def _record_kaehler(monkeypatch) -> list:
    """Collect every algebra whose differential module is asked for."""
    seen = []

    def recording(algebra):
        seen.append(algebra)
        return kaehler(algebra)

    monkeypatch.setattr(differentials, "kaehler", recording)
    monkeypatch.setattr(constructions, "kaehler", recording)
    return seen


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ladder_certificates_agree_with_the_module_basis(k):
    R, Z = _truncated(k)
    step = killing_step(R, Z)
    assert step.algebra.dimension == 11 ** (k - 1)
    assert certifies_d_zero(step.algebra, step.certificate, step.embedding.apply(Z))
    assert kaehler(step.algebra).is_d_zero(step.certificate.element)
    assert kaehler(step.algebra).is_d_zero(step.embedding.apply(Z))
    assert _claims(step.report)["dr dies"]
    # every cofactor is 1
    assert all(c == step.algebra.ring.one() for c, _, _ in step.certificate.terms)


@pytest.mark.parametrize("instance", ["B(5), r=f", "dual numbers, r=z"])
def test_verify_killing_instances_agree_with_the_module_basis(instance, b5, dual_numbers):
    R, r = b5 if instance == "B(5), r=f" else (dual_numbers, dual_numbers.ring.variable("Z"))
    step = killing_step(R, r)
    assert certifies_d_zero(step.algebra, step.certificate, step.embedding.apply(r))
    assert kaehler(step.algebra).is_d_zero(step.embedding.apply(r))
    assert _claims(step.report)["dr dies"]
    if R is dual_numbers:
        # the zero-map claim of `verify killing`
        assert is_zero_induced_map(step.embedding, {"Z": step.certificate})
        assert is_zero_induced_map(step.embedding)


@pytest.mark.parametrize("steps", [1, 2])
def test_dual_number_chains_agree_with_the_module_basis(steps, dual_numbers, monkeypatch):
    built = _record_steps(monkeypatch)
    result = gabber_sequence(steps, start=dual_numbers)
    assert built
    for step in built:
        assert certifies_d_zero(step.algebra, step.certificate, step.certificate.element)
        assert kaehler(step.algebra).is_d_zero(step.certificate.element)
        assert _claims(step.report)["dr dies"]
    claims = _claims(result.report)
    for i, embedding in enumerate(result.embeddings):
        assert claims[f"stage {i}: composite kills differentials"]
        assert is_zero_induced_map(embedding)
    assert result.report.status == (STATUS_OK if steps == 1 else STATUS_CAP)
    assert result.report.passed


def test_z5_chain_agrees_with_the_module_basis():
    R, _ = _truncated(5)
    result = kill_all_differentials(R)
    assert result.report.status == STATUS_OK
    assert result.algebra.dimension == 14641
    assert _claims(result.report)["composite kills differentials"]
    assert is_zero_induced_map(result.embedding)
    assert result.report.passed


def test_no_module_basis_of_a_built_algebra(monkeypatch):
    """The killing step and the composite claim over one generator need no
    differential module, and the skip test needs none on the input either:
    Z is outside m^2, so dZ != 0."""
    seen = _record_kaehler(monkeypatch)
    R, Z = _truncated(3)
    killing_step(R, Z)
    assert seen == []
    result = kill_all_differentials(R)
    assert result.report.passed
    assert seen == []


def test_certificates_are_renamed_forward_through_the_chain():
    """With two generators the first certificate lives in the middle stage
    and is checked in the final one after renaming."""
    ring = PolyRing(QQ, ("X", "Y"))
    R = make_quotient(Presentation(ring, (ring.variable("X") ** 2, ring.variable("Y") ** 2)))
    result = kill_all_differentials(R)
    assert result.killed == ["Y", "X"]
    assert _claims(result.report)["composite kills differentials"]
    assert is_zero_induced_map(result.embedding)


def _planted(step, terms) -> DZeroCertificate:
    return DZeroCertificate(step.certificate.element, tuple(terms))


def test_planted_wrong_cofactor_fails_the_claim(monkeypatch, dual_numbers):
    Z = dual_numbers.ring.variable("Z")
    step = killing_step(dual_numbers, Z)
    ring = step.algebra.ring
    (c, relation, name), *rest = step.certificate.terms
    wrong = _planted(step, [(c * 2, relation, name)] + rest)
    assert not certifies_d_zero(step.algebra, wrong, wrong.element)

    real = constructions._killing_certificate

    def wrong_cofactor(*args):
        cert = real(*args)
        (c, relation, name), *rest = cert.terms
        return DZeroCertificate(cert.element, ((c + ring.one(), relation, name), *rest))

    monkeypatch.setattr(constructions, "_killing_certificate", wrong_cofactor)
    report = killing_step(dual_numbers, Z).report
    assert _claims(report) == {"R' finite dimensional": True, "embedding injective": True,
                               "dr dies": False}
    assert not report.passed


def test_planted_summand_outside_the_presentation_fails_the_claim(dual_numbers):
    """The sum stays exact, but two terms use a polynomial that is not a
    presentation relation: no membership is shown."""
    step = killing_step(dual_numbers, dual_numbers.ring.variable("Z"))
    ring = step.algebra.ring
    h = ring.variable(ring.names[-1])
    assert h not in step.algebra.presentation.relations
    *rest, (c, relation, name) = step.certificate.terms
    assert name is not None
    planted = rest + [(c, relation + h, name), (-c, h, name)]
    element = step.certificate.element
    assert certifies_d_zero(step.algebra, step.certificate, element)
    assert not certifies_d_zero(step.algebra, _planted(step, planted), element)


def test_planted_element_that_is_not_the_image_falls_back_to_the_module(
        dual_numbers, monkeypatch):
    """A certificate that checks, but for another element, must not pass the
    generator: the differential module decides, and dZ is not zero in the
    dual numbers."""
    Z = dual_numbers.ring.variable("Z")
    square = Z ** 2
    stray = DZeroCertificate(square, ((dual_numbers.ring.one(), square, None),))
    assert certifies_d_zero(dual_numbers, stray, square)
    assert not certifies_d_zero(dual_numbers, stray, Z)
    seen = _record_kaehler(monkeypatch)
    assert not is_zero_induced_map(oracles.identity_map(dual_numbers), {"Z": stray})
    assert seen == [dual_numbers]

    # the composite claim of kill-all with the same planted certificate
    real = constructions.killing_step

    def stray_certificate(*args, **kwargs):
        step = real(*args, **kwargs)
        element = step.certificate.element
        step.certificate = DZeroCertificate(element * 0, step.certificate.terms[:0])
        return step

    monkeypatch.setattr(constructions, "killing_step", stray_certificate)
    seen.clear()
    result = kill_all_differentials(dual_numbers)
    assert seen[-1] is result.algebra  # the fallback built the final module
    assert _claims(result.report)["composite kills differentials"]


@pytest.mark.parametrize("R_r", ["ladder2", "ladder3", "ladder4", "ladder5", "b5_f", "dual_z"])
def test_nakayama_bound_caps_the_step(R_r, b5, dual_numbers):
    """The cap is checked against the exact dimension of R', from Jordan
    types, which replaced the Nakayama bound dim(R/rR) * dim(B)^(t-1): a cap
    of dim R' passes, and one below it stops the step and names dim R'."""
    if R_r.startswith("ladder"):
        R, r = _truncated(int(R_r[-1]))
    elif R_r == "b5_f":
        R, r = b5
    else:
        R, r = dual_numbers, dual_numbers.ring.variable("Z")
    dim = killing_step(R, r).algebra.dimension
    assert killing_step(R, r, cap=dim).algebra.dimension == dim
    with pytest.raises(CapExceededError,
                       match=f"killing step dimension {dim} exceeds the cap {dim - 1}$"):
        killing_step(R, r, cap=dim - 1)


def test_z6_exceeds_the_default_cap(tmp_path, capsys):
    """k[Z]/(Z^5) fits the default cap (golden `gabber_z5_steps1.json`);
    k[Z]/(Z^6), bound 11^5 = 161051, does not."""
    start = tmp_path / "z6.alg"
    start.write_text("field QQ\nring Z:1\nrel Z^6\nmode plain\n")
    assert main(["verify", "gabber", "--steps", "1", "--start", str(start), "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["claims"][-1]["witness"]["reason"] == (
        "killing step dimension 161051 exceeds the cap 20000")
