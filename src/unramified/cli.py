"""Command-line front end.

Exit codes: 0 all claims pass, 1 a claim failed, 2 usage or parse error,
3 budget or dimension cap exceeded.  `--json` prints a canonical report
(sorted keys, timing omitted unless `--timing` is given), so repeated runs
are byte-identical; human-readable text goes to stdout otherwise and
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, differentials, groebner
from .algebras import make_map
from .constructions import (
    DIMENSION_CAP,
    STATUS_CAP,
    VerificationReport,
    charp_tower,
    check_theorem_local_case,
    euler_identity_check,
    gabber_sequence,
    kill_all_differentials,
    killing_step,
    standard_local_corpus,
    twisted_example,
    verify_preparatory,
)
from .differentials import (
    derivation_kernel_in_degree,
    is_zero_induced_map,
    kaehler,
    veronese_containment_check,
)
from .errors import BudgetExceededError, CapExceededError, NotMPrimaryError, ParseError
from .fields import QQ
from .groebner import DEFAULT_BUDGET
from .parsing import (
    build_algebra,
    format_presentation,
    parse_field_spec,
    parse_map_file,
    parse_polynomial,
    parse_presentation,
)
from .polynomials import PolyRing, Polynomial, format_polynomial, format_vector

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_report(report: VerificationReport, args) -> int:
    if args.json:
        print(report.to_json(include_timing=args.timing))
    else:
        print(f"{report.construction}  params={report.params}")
        for claim in report.claims:
            mark = "PASS" if claim.passed else "FAIL"
            extra = f"  {claim.witness}" if claim.witness is not None else ""
            print(f"  [{mark}] {claim.label}{extra}")
        print(f"status: {report.status}  overall: {'pass' if report.passed else 'FAIL'}")
    if not report.passed:
        return EXIT_CLAIM_FAILED
    if report.status == STATUS_CAP:
        return EXIT_BUDGET
    return EXIT_PASS


def _emit_payload(payload: dict, args, passed: bool = True) -> int:
    if args.json:
        print(_canonical_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_PASS if passed else EXIT_CLAIM_FAILED


def _load_algebra(args):
    text = Path(args.file).read_text()
    presentation = parse_presentation(text)
    return build_algebra(presentation, budget=args.budget)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_omega(args) -> int:
    algebra = _load_algebra(args)
    module = kaehler(algebra, args.base)
    payload = {
        "command": "omega",
        "base": args.base,
        "generators": list(algebra.ring.names),
        "relation_vectors": len(module.relation_vectors),
        "omega_dimension": module.dimension(),
        "is_omega_zero": module.is_zero(),
    }
    return _emit_payload(payload, args)


def _cmd_d_zero(args) -> int:
    algebra = _load_algebra(args)
    element = parse_polynomial(args.element, algebra.ring)
    module = kaehler(algebra, args.base)
    image = module.d_image(element)
    payload = {
        "command": "d-zero",
        "element": format_polynomial(algebra.reduce(element)),
        "differential": format_vector(image),
        "is_zero": image.is_zero(),
    }
    return _emit_payload(payload, args)


def _cmd_kernel_degree(args) -> int:
    algebra = _load_algebra(args)
    basis = derivation_kernel_in_degree(algebra, args.deg)
    payload = {
        "command": "kernel-degree",
        "degree": args.deg,
        "kernel_dimension": len(basis),
        "kernel_basis": [format_polynomial(p) for p in basis],
    }
    return _emit_payload(payload, args)


def _cmd_veronese(args) -> int:
    algebra = _load_algebra(args)
    report = veronese_containment_check(algebra, args.max_deg)
    payload = {
        "command": "veronese",
        "characteristic": report.characteristic,
        "max_degree": report.max_degree,
        "kernel_dimensions": {str(k): v for k, v in report.kernel_dimensions.items()},
        "pass": report.passed,
    }
    return _emit_payload(payload, args, passed=report.passed)


def _cmd_dim(args) -> int:
    algebra = _load_algebra(args)
    payload = {
        "command": "dim",
        "dimension": algebra.dimension,
        "stabilized_power": algebra.stabilization_exponent,
        "basis": ([format_polynomial(Polynomial(algebra.ring, {m: algebra.field.one()}))
                   for m in algebra.basis_monomials()]
                  if algebra.is_finite and algebra.dimension <= 64 else None),
    }
    return _emit_payload(payload, args)


def _cmd_parse_check(args) -> int:
    text = Path(args.file).read_text()
    presentation = parse_presentation(text)
    dump = format_presentation(presentation)
    if parse_presentation(dump) != presentation:
        print("round trip failed", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    if args.dump:
        sys.stdout.write(dump)
    else:
        payload = {
            "command": "parse-check",
            "field": str(presentation.ring.field),
            "variables": list(presentation.ring.names),
            "relations": len(presentation.relations),
            "mode": presentation.mode,
            "round_trip": True,
        }
        return _emit_payload(payload, args)
    return EXIT_PASS


def _cmd_map_omega(args) -> int:
    spec = parse_map_file(Path(args.map).read_text())
    source = build_algebra(spec.source, budget=args.budget)
    target = build_algebra(spec.target, budget=args.budget)
    images = {name: parse_polynomial(expr, target.ring)
              for name, expr in spec.images.items()}
    phi = make_map(source, target, images)
    report = VerificationReport("map_omega", {"map": str(args.map)})
    report.add("induced map zero",
               "every generator differential maps to zero in the target",
               is_zero_induced_map(phi))
    return _emit_report(report, args)


def _cmd_verify(args) -> int:
    name = args.what
    if name == "preparatory":
        field = parse_field_spec(args.field)
        report = verify_preparatory(
            args.n, field, budget=args.budget,
            allow_positive_characteristic=args.allow_char_p)
    elif name == "killing":
        report = _verify_killing(args)
    elif name == "gabber":
        start = None
        if args.start:
            start = build_algebra(parse_presentation(Path(args.start).read_text()),
                                  budget=args.budget)
        result = gabber_sequence(args.steps, start=start, cap=args.cap,
                                 budget=args.budget)
        report = result.report
    elif name == "charp-tower":
        report = charp_tower(args.p, args.n_max, budget=args.budget).report
    elif name == "twisted":
        report = twisted_example(args.p, args.n, trials=args.trials,
                                 seed=args.seed, budget=args.budget).report
    elif name == "local-case":
        corpus = standard_local_corpus(args.count, args.seed, budget=args.budget)
        report = check_theorem_local_case(corpus, budget=args.budget)
    elif name == "euler":
        field = parse_field_spec(args.field)
        report = euler_identity_check(field, trials=args.trials, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown verification {name!r}")
    return _emit_report(report, args)


def _verify_killing(args) -> VerificationReport:
    """The two standard killing-step instances: B(5) with r = f, and the dual
    numbers with r = z (including the full zero-induced-map check)."""
    report = VerificationReport("killing", {"field": "QQ"})
    B, f = constructions.gabber_B(5, QQ, budget=args.budget)
    step = killing_step(B, f, cap=args.cap, budget=args.budget)
    report.fold("B(5), r=f", step.report.claims)
    from .algebras import Presentation, make_quotient
    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    dual = make_quotient(Presentation(ring, (Z ** 2,)), budget=args.budget)
    step2 = killing_step(dual, Z, cap=args.cap, budget=args.budget)
    report.fold("dual numbers, r=z", step2.report.claims)
    report.add("dual numbers, r=z: zero induced map",
               "the embedding kills the whole differential module of the source",
               is_zero_induced_map(step2.embedding),
               {"target_dimension": step2.algebra.dimension})
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unramified",
        description="Exact checks on differential modules of presented algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("--file", required=True, help="presentation file")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.add_argument("--timing", action="store_true",
                       help="include measured elapsed_ms in JSON output")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="reduction step budget")
        p.add_argument("--cap", type=int, default=DIMENSION_CAP,
                       help="dimension cap for iterated constructions")

    p = sub.add_parser("omega", help="summary of the differential module")
    common(p)
    p.add_argument("--base", choices=("field", "degree0"), default="field")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("d-zero", help="is the differential of an element zero")
    p.add_argument("element", help="polynomial expression")
    common(p)
    p.add_argument("--base", choices=("field", "degree0"), default="field")
    p.set_defaults(func=_cmd_d_zero)

    p = sub.add_parser("kernel-degree",
                       help="kernel of the universal derivation in one degree")
    common(p)
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(func=_cmd_kernel_degree)

    p = sub.add_parser("veronese",
                       help="check the kernel lives in degrees divisible by p")
    common(p)
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(func=_cmd_veronese)

    p = sub.add_parser("dim", help="dimension and basis of a presented algebra")
    common(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("parse-check", help="parse a presentation and round-trip it")
    common(p)
    p.add_argument("--dump", action="store_true", help="print the canonical dump")
    p.set_defaults(func=_cmd_parse_check)

    p = sub.add_parser("map-omega", help="zero test for an induced map on differentials")
    p.add_argument("--map", required=True, help="map file")
    common(p, needs_file=False)
    p.set_defaults(func=_cmd_map_omega)

    p = sub.add_parser("verify", help="run a named verification")
    p.add_argument("what", choices=("preparatory", "killing", "gabber",
                                    "charp-tower", "twisted", "local-case", "euler"))
    common(p, needs_file=False)
    p.add_argument("--n", type=int, default=5, help="exponent parameter")
    p.add_argument("--field", default="QQ", help="QQ, Fp:p or FpX:p")
    p.add_argument("--allow-char-p", action="store_true",
                   help="allow positive characteristic where the construction "
                        "is stated over characteristic zero")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--start", help="presentation file seeding the chain")
    p.add_argument("--p", type=int, default=2, help="prime for towers")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, CapExceededError, NotMPrimaryError) as exc:
        print(f"computation stopped: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
