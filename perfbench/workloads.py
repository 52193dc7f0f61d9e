"""Seeded workload inputs, the verdicts run on them, and their known answers.

A workload is a list of cases.  Each case carries the `.alg` text the
program receives and the answer theory predicts for it.  Generators use only
the standard library and `random.Random(seed)`, so one seed always gives the
same text; the program sees nothing but that text.

The cost of each case is meant to depend on the seed as little as possible,
because the benchmark compares runs made with different seeds:

* `ladder` varies only the name of the ring variable.
* `corpus` draws 390 random Artinian local entries from a fixed table of
  shapes (field, mode, exponents), so their summed cost averages out, and
  adds two fixed anchors.  The heavier anchor is the frontier:
  every random entry is several times cheaper, so it is the slowest verdict
  for every seed.
* `graded` scales the variables of fixed forms by seeded units, which keeps
  every Groebner basis and every matrix the same shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("ladder", "corpus", "graded")


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generators (standard library only)
# ---------------------------------------------------------------------------

LADDER_RUNGS = (2, 3, 4, 5)
# The k = 5 rung projects 5 * 11^4 = 73205 before the real R' of dimension
# 14641 is built, which trips the library's default cap of 20000.
LADDER_CAP = 10 ** 5
LADDER_VARIABLES = ("Z", "T", "U", "V", "W")
# First 16 hex digits of the sha256 of each rung's canonical report,
# `to_json()` with timing off, recorded at the seed commit.
LADDER_DIGESTS = {
    "Z": ("5a4f5cc361a228a0", "25ad3ee466187d9a", "e4e67d6c0d39d687", "6b9c0584fa4c162c"),
    "T": ("755ab114f0b0f314", "81d7c88ee1b7be4e", "ad1f1399f3a41da6", "44565d1288a6bfc0"),
    "U": ("44f8d1b70b0bd942", "aa6014300e0999e8", "bd671a24ebd87bf1", "5f3762335829e462"),
    "V": ("b9c92257b9f4d8d8", "b4f8134bf78eb4b5", "cbcdc714ff62d51f", "c2c17f6634561652"),
    "W": ("d133a370f7dd250a", "07e304c58049447b", "5a1cc5a86afdc7a6", "438f7462268d0f38"),
}


def ladder_cases(seed: int) -> list:
    """killing_step on k[v]/(v^k) with r = v over the rationals, k = 2..5.
    The known answer is dim R' = 11^(k-1) with all three claims passing."""
    v = random.Random(seed).choice(LADDER_VARIABLES)
    return [Case(f"k={k}", f"field QQ\nring {v}:1\nrel {v}^{k}\nmode plain\n",
                 {"dimension": 11 ** (k - 1), "claims": 3, "digest": pinned})
            for k, pinned in zip(LADDER_RUNGS, LADDER_DIGESTS[v])]


def _field_line(p: int) -> str:
    return "field QQ" if p == 0 else f"field Fp {p}"


def _format(terms: list, names: tuple) -> str:
    """Text of sum c * X^e over (c, exponent tuple) pairs; c is a nonzero int."""
    parts = []
    for c, exps in terms:
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, exps) if e)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts).replace("+ -", "- ")


def _monomials(n: int, degree: int) -> list:
    """Exponent tuples of n variables with the given total degree, in a
    fixed order."""
    if n == 0:
        return [()] if degree == 0 else []
    return [(e,) + rest for e in range(degree + 1)
            for rest in _monomials(n - 1, degree - e)]


def _unit(rng: random.Random, p: int) -> int:
    """A coefficient that is nonzero in the field, so no term cancels."""
    return rng.choice((1, 2, 3, -1, -2, -3)) if p == 0 else rng.randrange(1, p)


CORPUS_NAMES = ("X", "Y", "Z")
CORPUS_REPEATS = 30
# One row per slot: (mode, characteristic, exponents).  Every slot appears
# CORPUS_REPEATS times with fresh random terms.  A local slot has one
# relation X_i^a_i + h_i per variable with every term of h_i of degree above
# a_i; the initial forms X_i^a_i are a regular sequence, so the ideal is
# primary to the maximal ideal and dim = prod a_i in every characteristic.
# A plain slot has the pure powers X_i^a_i plus up to two extra relations
# inside the maximal ideal, so it is local with nilpotent generators.
CORPUS_SLOTS = (
    ("plain", 0, (3,)),
    ("plain", 2, (2, 3)),
    ("plain", 3, (2, 2, 2)),
    ("plain", 5, (4, 2)),
    ("plain", 0, (2, 3, 2)),
    ("local", 0, (5,)),
    ("local", 2, (2, 2)),
    ("local", 7, (2, 2)),
    ("local", 3, (2, 3)),
    ("local", 0, (2, 2)),
    ("local", 7, (3, 3)),
    ("local", 0, (3, 2)),
    ("local", 5, (4, 3)),
)
# Fixed entries: B(5) from the paper, and the frontier, a three-variable
# local algebra of dimension 18 whose Kaehler module is built from the 28
# generators of m^6 on top of its relations.  Their texts do not depend on
# the seed, so their canonical reports are pinned like the ladder's.
CORPUS_ANCHORS = (
    Case("B(5)", "field QQ\nring X:1 Y:1\nrel X*(2*Y^2 + 5*X^3)\n"
                 "rel Y*(2*X^2 + 5*Y^3)\nmode local\n",
         {"dimension": 11, "digest": "e1751dd830ff5365"}),
    Case("frontier", "field QQ\nring X:1 Y:1 Z:1\nrel X^3 - 2*X*Z^3 + Y^5\n"
                     "rel Y^3 + X^2*Y*Z + 3*X*Y^2*Z\nrel Z^2 + 2*X*Y^2 - Y*Z^2\n"
                     "mode local\n",
         {"dimension": 18, "digest": "e383f96026333eff"}),
)


def _corpus_entry(rng: random.Random, mode: str, p: int, exps: tuple) -> tuple:
    """(text, expected) of one random entry of the given shape."""
    n = len(exps)
    names = CORPUS_NAMES[:n]
    relations = []
    if mode == "local":
        for i, a in enumerate(exps):
            lead = tuple(a if j == i else 0 for j in range(n))
            higher = _monomials(n, a + 1) + _monomials(n, a + 2)
            tail = rng.sample(higher, rng.randrange(1, 3))
            relations.append([(_unit(rng, p), lead)]
                             + [(_unit(rng, p), m) for m in tail])
        expected = {"dimension": 1}
        for a in exps:
            expected["dimension"] *= a
    else:
        for i, a in enumerate(exps):
            relations.append([(1, tuple(a if j == i else 0 for j in range(n)))])
        inside_m = [m for d in (1, 2, 3) for m in _monomials(n, d)]
        for _ in range(rng.randrange(0, 3)):
            picked = rng.sample(inside_m, rng.randrange(1, 4))
            relations.append([(_unit(rng, p), m) for m in picked])
        expected = {}
    lines = [_field_line(p), "ring " + " ".join(f"{x}:1" for x in names)]
    lines += ["rel " + _format(rel, names) for rel in relations]
    lines.append(f"mode {mode}")
    return "\n".join(lines) + "\n", expected


def corpus_cases(seed: int) -> list:
    """Seeded Artinian local presentations over QQ and F_p (p in 2, 3, 5, 7)
    in one to three variables, about half plain and half local.  The known
    answer is that every claim of check_theorem_local_case passes, and for
    local entries that dim = prod a_i."""
    rng = random.Random(seed)
    cases = list(CORPUS_ANCHORS)
    for r in range(CORPUS_REPEATS):
        for s, (mode, p, exps) in enumerate(CORPUS_SLOTS):
            text, expected = _corpus_entry(rng, mode, p, exps)
            cases.append(Case(f"random {r}.{s}", text, expected))
    return cases


# (name, characteristic, weights, max degree, relations, digest).  Each
# relation is a list of (coefficient, exponents); the seed multiplies
# variable i by a unit c_i, so the supports, and with them every Groebner
# basis and slice matrix shape, stay fixed.  Scaling variables by units is a
# graded automorphism and the report names no variable, so the canonical
# report is the same for every seed: its digest, recorded at the seed
# commit, is pinned.
GRADED_FORMS = (
    ("plane cubic", 3, (1, 1, 1), 24,
     ([(1, (1, 2, 0)), (1, (0, 3, 0)), (1, (1, 1, 1)), (2, (0, 2, 1)),
       (1, (1, 0, 2)), (1, (0, 0, 3))],), "17bcb8f51e4950df"),
    ("weighted curve", 5, (1, 2, 3), 24,
     ([(1, (0, 0, 2)), (4, (0, 3, 0)), (2, (6, 0, 0)), (3, (2, 2, 0)),
       (1, (1, 1, 1))],), "9d76b8b6bdcd8338"),
    ("two quadrics", 2, (1, 1, 1, 1), 16,
     ([(1, (2, 0, 0, 0)), (1, (0, 1, 1, 0)), (1, (0, 0, 1, 1)), (1, (1, 0, 0, 1))],
      [(1, (0, 2, 0, 0)), (1, (1, 0, 1, 0)), (1, (0, 1, 0, 1)), (1, (0, 0, 0, 2))]),
     "18b193e270fe5940"),
)
GRADED_NAMES = (("X", "Y", "Z", "W"), ("A", "B", "C", "D"), ("U", "V", "S", "T"))


def graded_cases(seed: int) -> list:
    """veronese_containment_check on homogeneous presentations over F_p.  The
    known answer is the verdict `passed`: by the Euler identity a form of
    degree prime to p with zero differential is zero.  The report must also
    match its pinned digest."""
    rng = random.Random(seed)
    cases = []
    for name, p, weights, max_degree, relations, pinned in GRADED_FORMS:
        n = len(weights)
        names = rng.choice(GRADED_NAMES)[:n]
        scale = [rng.randrange(1, p) for _ in range(n)]
        lines = [_field_line(p),
                 "ring " + " ".join(f"{x}:{w}" for x, w in zip(names, weights))]
        for rel in relations:
            scaled = []
            for c, exps in rel:
                for s, e in zip(scale, exps):
                    c = c * s ** e % p
                scaled.append((c, exps))
            lines.append("rel " + _format(scaled, names))
        lines.append("mode graded")
        cases.append(Case(name, "\n".join(lines) + "\n",
                          {"characteristic": p, "max_degree": max_degree,
                           "digest": pinned}))
    return cases


GENERATORS = {"ladder": ladder_cases, "corpus": corpus_cases, "graded": graded_cases}


def make_cases(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# Verdicts (these import the program)
# ---------------------------------------------------------------------------

def digest(canonical_json: str) -> str:
    return hashlib.sha256(canonical_json.encode()).hexdigest()[:16]


def verdict(workload: str, case: Case) -> tuple:
    """Run one verdict through the public API, from text to report.  Returns
    (problem, canonical JSON): problem is None when the report matches the
    known answer, else a short reason.  Exceptions propagate to the caller,
    which counts them as failures."""
    from unramified.parsing import build_algebra, parse_presentation

    algebra = build_algebra(parse_presentation(case.text))
    if workload == "ladder":
        from unramified.constructions import killing_step

        r = algebra.ring.variable(algebra.ring.names[0])
        result = killing_step(algebra, r, cap=LADDER_CAP)
        report = result.report
        canonical = report.to_json()
        if result.algebra.dimension != case.expected["dimension"]:
            return f"dim R' = {result.algebra.dimension}", canonical
        if len(report.claims) != case.expected["claims"]:
            return f"{len(report.claims)} claims", canonical
        return (None if report.passed and report.status == "ok"
                else f"status {report.status}, pass {report.passed}"), canonical
    if workload == "corpus":
        from unramified.constructions import check_theorem_local_case

        report = check_theorem_local_case([(case.name, algebra)])
        canonical = report.to_json()
        want = case.expected.get("dimension")
        if want is not None and algebra.dimension != want:
            return f"dimension {algebra.dimension}, expected {want}", canonical
        if not report.claims:
            return "no claims", canonical
        return (None if report.passed and report.status == "ok"
                else f"status {report.status}, pass {report.passed}"), canonical
    from unramified.differentials import veronese_containment_check

    report = veronese_containment_check(algebra, case.expected["max_degree"])
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True)
    if report.characteristic != case.expected["characteristic"]:
        return f"characteristic {report.characteristic}", canonical
    return (None if report.passed else "containment failed"), canonical
