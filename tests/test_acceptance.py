"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic in the engine is exact, so every comparison below is plain
equality; there are no numeric tolerances anywhere.  Runtime bounds are
asserted where the criterion states one.
"""

import json
import random
import time
from fractions import Fraction

import oracles
from unramified.algebras import (
    MODE_GRADED,
    Presentation,
    make_quotient,
)
from unramified.constructions import (
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
from unramified.differentials import (
    derivation_kernel_in_degree,
    is_zero_induced_map,
    veronese_containment_check,
)
from unramified.fields import QQ, prime_field
from unramified.groebner import buchberger, normal_form
from unramified.polynomials import PolyRing, Polynomial, format_polynomial


def _passed(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_preparatory_suite():
    for n in (5, 6, 7):
        started = time.perf_counter()
        report = verify_preparatory(n, QQ)
        elapsed = time.perf_counter() - started
        assert report.passed, report.to_json()
        labels = {c.label for c in report.claims}
        assert {"dimension finite", "f nonzero", "f squared zero", "df zero",
                "x y^3 zero", "Y^2 in (F1, F2)", "cofactor identity"} <= labels
        assert elapsed < 60.0
    _passed(1, "preparatory claims hold for n in {5, 6, 7} over QQ")


def test_criterion_02_stabilization_matches_oracle():
    B, _ = gabber_B(5, QQ)
    xf1 = {(1, 2): Fraction(2), (4, 0): Fraction(5)}
    yf2 = {(2, 1): Fraction(2), (0, 4): Fraction(5)}
    oracle_dim, oracle_exponent = oracles.stabilized_local_dimension([xf1, yf2], 2)
    assert B.dimension == oracle_dim
    assert B.stabilization_exponent == oracle_exponent
    _passed(2, f"stabilized dimension {B.dimension} matches the truncation oracle exactly")


def test_criterion_03_killing_step():
    B, f = gabber_B(5, QQ)
    step = killing_step(B, f)
    claims = {c.label: c.passed for c in step.report.claims}
    assert claims["embedding injective"]
    assert claims["dr dies"]
    assert claims["R' finite dimensional"]

    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    dual = make_quotient(Presentation(ring, (Z ** 2,)))
    step2 = killing_step(dual, Z)
    claims2 = {c.label: c.passed for c in step2.report.claims}
    assert claims2["embedding injective"]
    assert claims2["dr dies"]
    assert claims2["R' finite dimensional"]
    assert is_zero_induced_map(step2.embedding)
    _passed(3, "killing step verified for B(5) with r = f and for the dual numbers")


def test_criterion_04_charp_towers():
    started = time.perf_counter()
    for p in (2, 3, 5):
        result = charp_tower(p, 3)
        assert result.report.passed, result.report.to_json()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(4, f"towers for p in {{2, 3, 5}}, n <= 3 verified in {elapsed:.2f}s")


def test_criterion_05_twisted_example():
    for p in (2, 3):
        for n in (1, 2):
            result = twisted_example(p, n, trials=50, seed=0)
            assert result.report.passed, result.report.to_json()
            claims = {c.label: c.passed for c in result.report.claims}
            assert claims["z nonzero nilpotent"]
            assert claims["dz zero"]
            assert claims["twist is multiplicative"]
            assert claims["transition kills dU"]
    _passed(5, "twisted structure verified for p in {2, 3}, n in {1, 2}")


def test_criterion_06_euler_identity():
    for field in (QQ, prime_field(2), prime_field(5)):
        report = euler_identity_check(field, trials=100, seed=0)
        assert report.passed, report.to_json()
        witness = report.claims[0].witness
        assert witness["failures"] == 0
    _passed(6, "Euler identity exact on 100 seeded samples per field kind")


def _graded_corpus_qq():
    R2 = PolyRing(QQ, ("X", "Y"))
    X, Y = R2.variable("X"), R2.variable("Y")
    W = PolyRing(QQ, ("A", "B"), (2, 3))
    A, Bv = W.variable("A"), W.variable("B")
    R3 = PolyRing(QQ, ("X", "Y", "Z"))
    X3, Y3, Z3 = (R3.variable(v) for v in ("X", "Y", "Z"))
    R1 = PolyRing(QQ, ("X",))
    return [
        make_quotient(Presentation(R2, (X ** 2 - Y ** 2,), MODE_GRADED)),
        make_quotient(Presentation(W, (A ** 3 - Bv ** 2,), MODE_GRADED)),
        make_quotient(Presentation(R3, (X3 * Y3 - Z3 ** 2,), MODE_GRADED)),
        make_quotient(Presentation(R1, (), MODE_GRADED)),
        make_quotient(Presentation(R2, (X ** 2, X * Y), MODE_GRADED)),
    ]


def test_criterion_07_graded_kernels():
    corpus = _graded_corpus_qq()
    assert len(corpus) >= 5
    for algebra in corpus:
        for degree in range(1, 7):
            assert derivation_kernel_in_degree(algebra, degree) == []

    for p in (2, 3):
        field = prime_field(p)
        ring = PolyRing(field, ("X",))
        free = make_quotient(Presentation(ring, (), MODE_GRADED))
        for degree in range(1, 2 * p + 1):
            kernel = derivation_kernel_in_degree(free, degree)
            if degree % p == 0:
                assert kernel != []
            else:
                assert kernel == []
        cross_ring = PolyRing(field, ("X", "Y"))
        weighted = PolyRing(field, ("A", "B"), (2, 3))
        fp_corpus = [
            free,
            make_quotient(Presentation(
                cross_ring, (cross_ring.variable("X") * cross_ring.variable("Y"),),
                MODE_GRADED)),
            make_quotient(Presentation(
                weighted, (weighted.variable("A") ** 3 - weighted.variable("B") ** 2,),
                MODE_GRADED)),
        ]
        for algebra in fp_corpus:
            assert veronese_containment_check(algebra, 6).passed
    _passed(7, "derivation kernels vanish over QQ and respect p-divisibility over F_p")


def test_criterion_08_local_case_harness():
    corpus = standard_local_corpus(20, seed=0)
    random_entries = [name for name, _ in corpus if name.startswith("random")]
    assert len(random_entries) >= 20
    report = check_theorem_local_case(corpus)
    assert report.passed, report.to_json()
    _passed(8, f"no counterexample among {len(corpus)} local algebras")


def test_criterion_09_groebner_engine():
    rng = random.Random(2024)
    names = ("X", "Y", "Z")
    ideals_checked = 0
    while ideals_checked < 20:
        nvars = rng.randrange(1, 4)
        ring = PolyRing(QQ, names[:nvars])
        gens = []
        for _ in range(rng.randrange(1, 4)):
            terms = []
            for _ in range(rng.randrange(1, 4)):
                mono = tuple(rng.randrange(1, 5) if rng.random() < 0.7 else 0
                             for _ in range(nvars))
                c = ring.field.from_int(rng.randrange(-4, 5))
                if not c.is_zero():
                    terms.append((mono, c))
            g = oracles.polynomial(ring, terms)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        gb = buchberger(gens)
        assert oracles.satisfies_buchberger_criterion(gb)

        dense = [{mono: Fraction(c.payload) for mono, c in g.terms.items()}
                 for g in gens]
        member = ring.zero()
        for g in gens:
            extra = oracles.polynomial(ring, [
                (tuple(rng.randrange(1, 2) if rng.random() < 0.5 else 0
                       for _ in range(nvars)),
                 ring.field.from_int(rng.randrange(-2, 3)))])
            member = member + g * extra
        probe = oracles.polynomial(ring, [
            (tuple(rng.randrange(1, 4) if rng.random() < 0.6 else 0
                   for _ in range(nvars)),
             ring.field.from_int(rng.randrange(-3, 4)))])
        for candidate in (member, probe):
            dense_f = {mono: Fraction(c.payload) for mono, c in candidate.terms.items()}
            assert normal_form(candidate, gb).is_zero() == oracles.membership_oracle(
                dense_f, dense, nvars, bound=6)
        ideals_checked += 1

    R2 = PolyRing(QQ, ("X", "Y"))
    X, Y = R2.variable("X"), R2.variable("Y")
    gb = buchberger([X ** 2 - Y, Y ** 3])
    for _ in range(200):
        terms = []
        for _ in range(rng.randrange(0, 5)):
            mono = tuple(rng.randrange(1, 5) if rng.random() < 0.7 else 0
                         for _ in range(2))
            c = QQ.from_int(rng.randrange(-5, 6))
            if not c.is_zero():
                terms.append((mono, c))
        f = oracles.polynomial(R2, terms)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
    _passed(9, "S-pair criterion, oracle agreement on 20 ideals, idempotence on 200 elements")


def _report_bundle() -> str:
    """Canonical JSON of every report the earlier criteria produce; built
    from scratch so a second call recomputes everything."""
    bundle = {}
    for n in (5, 6, 7):
        bundle[f"preparatory_{n}"] = verify_preparatory(n, QQ).to_json_dict()
    B, f = gabber_B(5, QQ)
    bundle["killing_b5"] = killing_step(B, f).report.to_json_dict()
    ring = PolyRing(QQ, ("Z",))
    dual = make_quotient(Presentation(ring, (ring.variable("Z") ** 2,)))
    bundle["killing_dual"] = killing_step(dual, ring.variable("Z")).report.to_json_dict()
    bundle["kill_all_dual"] = kill_all_differentials(dual).report.to_json_dict()
    bundle["sequence_capped"] = gabber_sequence(1, cap=50).report.to_json_dict()
    for p in (2, 3, 5):
        bundle[f"charp_{p}"] = charp_tower(p, 3).report.to_json_dict()
    for p in (2, 3):
        for n in (1, 2):
            bundle[f"twisted_{p}_{n}"] = twisted_example(
                p, n, trials=50, seed=0).report.to_json_dict()
    bundle["local_case"] = check_theorem_local_case(
        standard_local_corpus(20, seed=0)).to_json_dict()
    for label, field in (("QQ", QQ), ("F2", prime_field(2)), ("F5", prime_field(5))):
        bundle[f"euler_{label}"] = euler_identity_check(
            field, trials=100, seed=0).to_json_dict()
    fp_ring = PolyRing(prime_field(2), ("X", "Y"))
    cross = make_quotient(Presentation(
        fp_ring, (fp_ring.variable("X") * fp_ring.variable("Y"),), MODE_GRADED))
    veronese = veronese_containment_check(cross, 6)
    bundle["veronese"] = {"dims": {str(k): v for k, v in veronese.kernel_dimensions.items()},
                          "pass": veronese.passed}
    bundle["stabilized_dimension"] = B.dimension
    bundle["basis_b5"] = [format_polynomial(Polynomial(B.ring, {m: QQ.one()}))
                          for m in B.basis_monomials()]
    return json.dumps(bundle, indent=2, sort_keys=True)


def test_criterion_10_determinism():
    first = _report_bundle()
    second = _report_bundle()
    assert first == second
    _passed(10, f"repeated runs agree byte for byte over {len(first)} JSON bytes")
