"""Command-line front end.

Exit codes: 0 all claims pass, 1 a claim failed, 2 usage or parse error,
3 budget or dimension cap exceeded.  `--budget` is one `step_budget` for
the whole command, normal forms included.  `--json` prints a canonical
report (sorted keys, `elapsed_ms` null unless `verify` or `map-omega` gets
`--timing`), so repeated runs are byte-identical; human-readable text goes
to stdout otherwise and diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

from .algebras import make_map
from .constructions import (
    DIMENSION_CAP,
    STATUS_CAP,
    VerificationReport,
    canonical_json,
    charp_tower,
    check_theorem_local_case,
    euler_identity_check,
    gabber_sequence,
    standard_local_corpus,
    twisted_example,
    verify_killing,
    verify_preparatory,
)
from .differentials import (
    derivation_kernel_in_degree,
    is_zero_induced_map,
    kaehler,
    veronese_containment_check,
)
from .errors import BudgetExceededError, CapExceededError, NotMPrimaryError, ParseError
from .groebner import DEFAULT_BUDGET, step_budget
from .parsing import (
    build_algebra,
    format_presentation,
    parse_field_spec,
    parse_map_file,
    parse_polynomial,
    parse_presentation,
)
from .polynomials import Polynomial, format_polynomial, format_vector

EXIT_PASS = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _cmd_report(build, args) -> int:
    """Build a report from the arguments and print it.  `--timing` measures
    the whole build, parsing and the start algebra included."""
    started = time.perf_counter()
    report = build(args)
    elapsed_ms = (time.perf_counter() - started) * 1000.0 if args.timing else None
    if args.json:
        print(report.to_json(elapsed_ms))
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
        print(canonical_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_PASS if passed else EXIT_CLAIM_FAILED


def _load_algebra(path: str):
    return build_algebra(parse_presentation(Path(path).read_text()))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_omega(args) -> int:
    algebra = _load_algebra(args.file)
    module = kaehler(algebra)
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
    algebra = _load_algebra(args.file)
    element = parse_polynomial(args.element, algebra.ring)
    module = kaehler(algebra)
    image = module.d_image(element)
    payload = {
        "command": "d-zero",
        "element": format_polynomial(algebra.reduce(element)),
        "differential": format_vector(image),
        "is_zero": image.is_zero(),
    }
    return _emit_payload(payload, args)


def _cmd_kernel_degree(args) -> int:
    algebra = _load_algebra(args.file)
    basis = derivation_kernel_in_degree(algebra, args.deg)
    payload = {
        "command": "kernel-degree",
        "degree": args.deg,
        "kernel_dimension": len(basis),
        "kernel_basis": [format_polynomial(p) for p in basis],
    }
    return _emit_payload(payload, args)


def _cmd_veronese(args) -> int:
    algebra = _load_algebra(args.file)
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
    algebra = _load_algebra(args.file)
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


def _map_omega(args) -> VerificationReport:
    spec = parse_map_file(Path(args.map).read_text())
    phi = make_map(build_algebra(spec.source), build_algebra(spec.target), spec.images)
    report = VerificationReport("map_omega", {"map": str(args.map)})
    report.add("induced map zero",
               "every generator differential maps to zero in the target",
               is_zero_induced_map(phi))
    return report


def _verify_preparatory(args) -> VerificationReport:
    return verify_preparatory(args.n, parse_field_spec(args.field),
                              allow_positive_characteristic=args.allow_char_p)


def _verify_gabber(args) -> VerificationReport:
    start = _load_algebra(args.start) if args.start else None
    return gabber_sequence(args.steps, start=start, cap=args.cap).report


def _verify_charp_tower(args) -> VerificationReport:
    return charp_tower(args.p, args.n_max).report


def _verify_twisted(args) -> VerificationReport:
    return twisted_example(args.p, args.n, trials=args.trials, seed=args.seed).report


def _verify_local_case(args) -> VerificationReport:
    return check_theorem_local_case(standard_local_corpus(args.count, args.seed))


def _verify_euler(args) -> VerificationReport:
    return euler_identity_check(parse_field_spec(args.field),
                                trials=args.trials, seed=args.seed)


def _verify_killing(args) -> VerificationReport:
    return verify_killing(cap=args.cap)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an int no smaller than `low`, else a usage error.
    The text is ASCII digits with an optional leading minus sign, as in the
    text formats; `int()` alone would also read other scripts' digits."""
    def parse(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(text)
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unramified",
        description="Exact checks on differential modules of presented algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, file=True, timing=False):
        """Shared flags; each verb is offered only the flags it reads."""
        if file:
            p.add_argument("--file", required=True, help="presentation file")
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET,
                       help="reduction steps the whole command may spend")
        if timing:
            p.add_argument("--timing", action="store_true",
                           help="include measured elapsed_ms in JSON output")

    def base_alias(p):
        p.add_argument("--base", choices=("field", "degree0"), default="field",
                       help="alias kept for compatibility: weights are positive, so "
                            "the degree-zero subring is the coefficient field and "
                            "both values give one module; omega echoes the value")

    p = sub.add_parser("omega", help="summary of the differential module")
    common(p)
    base_alias(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("d-zero", help="is the differential of an element zero")
    p.add_argument("element", help="polynomial expression")
    common(p)
    base_alias(p)
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
    p.add_argument("--file", required=True, help="presentation file")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--dump", action="store_true", help="print the canonical dump")
    p.set_defaults(func=_cmd_parse_check)

    p = sub.add_parser("map-omega", help="zero test for an induced map on differentials")
    p.add_argument("--map", required=True, help="map file")
    common(p, file=False, timing=True)
    p.set_defaults(func=partial(_cmd_report, _map_omega))

    p = sub.add_parser("verify", help="run a named verification")
    flags = {
        "--n": dict(type=int, default=5, help="exponent parameter"),
        "--field": dict(default="QQ", help="QQ, Fp:p or FpX:p"),
        "--allow-char-p": dict(action="store_true",
                               help="allow positive characteristic where the "
                                    "construction is stated over characteristic zero"),
        "--cap": dict(type=_int_at_least(0), default=DIMENSION_CAP,
                      help="dimension cap for iterated constructions"),
        "--steps": dict(type=int, default=1),
        "--start": dict(help="presentation file seeding the chain"),
        "--p": dict(type=int, default=2, help="prime for towers"),
        "--n-max": dict(type=int, default=3),
        "--trials": dict(type=_int_at_least(1), default=50),
        "--count": dict(type=_int_at_least(1), default=20),
        "--seed": dict(type=int, default=0),
    }
    verbs = p.add_subparsers(dest="what", required=True)
    # each verb is offered only the flags it reads
    for name, run, own in (
            ("preparatory", _verify_preparatory, ("--n", "--field", "--allow-char-p")),
            ("killing", _verify_killing, ("--cap",)),
            ("gabber", _verify_gabber, ("--steps", "--start", "--cap")),
            ("charp-tower", _verify_charp_tower, ("--p", "--n-max")),
            ("twisted", _verify_twisted, ("--p", "--n", "--trials", "--seed")),
            ("local-case", _verify_local_case, ("--count", "--seed")),
            ("euler", _verify_euler, ("--field", "--trials", "--seed"))):
        q = verbs.add_parser(name)
        common(q, file=False, timing=True)
        for flag in own:
            q.add_argument(flag, **flags[flag])
        q.set_defaults(func=partial(_cmd_report, run))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # parse-check takes no --budget: it does no Groebner work, and a
        # budget of 0 holds it to that
        with step_budget(getattr(args, "budget", 0)):
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
