"""One workload in one single-threaded process.

Started by run.py with `src` on PYTHONPATH.  It imports the program,
generates the seeded inputs and parses each once, prints `ready`, and then,
unless only set-up is asked for, runs passes over the inputs and prints one
JSON object on its last line.

    python3 perfbench/worker.py --workload ladder --seed 0 --mode measure --seconds 36
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import spans
from workloads import WORKLOADS, digest, make_cases, verdict

MIN_PASSES = 3           # every median is over at least three passes
MIN_TRACED_PASSES = 2    # two traced passes: span counts must repeat exactly
SHOWN_PROBLEMS = 5


# The speed of a shared machine swings by a third and more for stretches of
# seconds to minutes, on any pure-Python code.  A timer interrupts each
# measured pass every TICK_S and times a fixed integer loop; each verdict's
# time, less the ticks inside it, is scaled by NOMINAL_LOOP_S over the mean
# loop time of the ticks within WINDOW_S of it.
TICK_S = 0.1
WINDOW_S = 1.0
LOOP_ITERATIONS = 50_000
NOMINAL_LOOP_S = 0.0044   # median loop time under load on the 2-vCPU tuning machine


class Speedometer:
    """Loop timings (start, seconds) taken by a SIGALRM handler."""

    def __init__(self):
        self.ticks: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i % 7
        self.ticks.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self, intervals: list) -> list:
        """Per (start, end) interval: its time less the ticks inside it,
        scaled to the nominal machine speed."""
        starts = [t for t, _ in self.ticks]
        out = []
        for a, b in intervals:
            inside = self.ticks[bisect.bisect_left(starts, a):bisect.bisect_left(starts, b)]
            near = self.ticks[bisect.bisect_left(starts, a - WINDOW_S):
                              bisect.bisect_right(starts, b + WINDOW_S)]
            near = near or self.ticks[-1:]
            loop_s = sum(d for _, d in near) / len(near) if near else NOMINAL_LOOP_S
            out.append((b - a - sum(d for _, d in inside)) * NOMINAL_LOOP_S / loop_s)
        return out


class Pass:
    """The verdicts of one pass over every case, in order."""

    def __init__(self):
        self.seconds = 0.0
        self.intervals: list = []
        self.digests: list = []
        self.problems: list = []


def run_pass(workload: str, cases: list, call=verdict) -> Pass:
    result = Pass()
    started = time.perf_counter()
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            problem, canonical = call(workload, case)
        except Exception as exc:  # a raising verdict is a failed verdict
            if not result.problems:
                traceback.print_exc(file=sys.stderr)
            problem, canonical = f"{type(exc).__name__}: {exc}", ""
        result.intervals.append((t0, time.perf_counter()))
        result.digests.append(digest(canonical))
        if problem is not None:
            result.problems.append((i, problem))
    result.seconds = time.perf_counter() - started
    return result


def tally(passes: list, cases: list) -> dict:
    """Attempted and failed verdicts over all passes.  A verdict fails on a
    wrong answer, an exception, or a canonical report that differs from the
    first pass or from its pinned digest."""
    reference = passes[0].digests
    attempted = failed = 0
    problems: list = []
    for p in passes:
        bad = dict(p.problems)
        for i, (case, got, first) in enumerate(zip(cases, p.digests, reference)):
            pinned = case.expected.get("digest")
            if i not in bad and got != first:
                bad[i] = "report differs from the first pass"
            if i not in bad and pinned is not None and got != pinned:
                bad[i] = "report differs from its pinned digest"
        attempted += len(cases)
        failed += len(bad)
        problems += [f"{cases[i].name}: {why}" for i, why in sorted(bad.items())]
    return {"attempted": attempted, "failed": failed,
            "problems": problems[:SHOWN_PROBLEMS],
            "digest": digest("".join(reference))}


def measure(workload: str, cases: list, seconds: float) -> dict:
    """Untraced passes until the next would end past `seconds`.  Verdict
    times are scaled to the nominal machine speed; raw_pass_s is unscaled."""
    passes: list = []
    scaled: list = []
    loops: list = []
    peak_kb = 0
    started = time.perf_counter()
    while True:
        with Speedometer() as speed:
            passes.append(run_pass(workload, cases))
        scaled.append(speed.scale(passes[-1].intervals))
        loops += [d for _, d in speed.ticks]
        if len(passes) == 1:
            # peak through set-up and one pass, so it does not depend on how
            # many passes fit: the kaehler cache keeps every pass's algebras
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].seconds > seconds:
            break
    return dict(tally(passes, cases),
                raw_pass_s=[p.seconds for p in passes],
                loop_s=statistics.median(loops) if loops else NOMINAL_LOOP_S,
                pass_s=[sum(v) for v in scaled],
                pass_p50_s=[statistics.median(v) for v in scaled],
                pass_max_s=[max(v) for v in scaled],
                peak_rss_kb=peak_kb)


def trace(workload: str, cases: list, seconds: float) -> dict:
    """A warm-up pass, untraced and traced passes in turn until `seconds`,
    then one profiled pass.  Returns the per-layer metrics and the spans."""
    tracer = spans.Tracer()
    traced_call = tracer.root(verdict, "verdict")
    # the first pass of a process runs cold; keep it out of the pairs
    warmup = run_pass(workload, cases)
    untraced: list = []
    traced: list = []
    per_pass: list = []
    started = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, cases))
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced.append(run_pass(workload, cases, traced_call))
        finally:
            tracer.uninstall()
        per_pass.append(spans.summarize(tracer.spans[first_span:]))
        elapsed = time.perf_counter() - started
        if (len(traced) >= MIN_TRACED_PASSES
                and elapsed + untraced[-1].seconds + traced[-1].seconds > seconds):
            break
    # one profiled pass: it is slow, and its exact counts repeat across runs
    profiled, counts, selfs = spans.profile_pass(lambda: run_pass(workload, cases))

    metrics, unrepeated = layer_metrics(per_pass, counts, selfs, set(tracer.missing))
    # each traced pass runs right after an untraced one, so their difference
    # is taken at the same machine speed
    metrics["trace.overhead_s"] = statistics.median(
        t.seconds - u.seconds for u, t in zip(untraced, traced))
    all_passes = [warmup] + untraced + traced + [profiled]
    return dict(tally(all_passes, cases), metrics=metrics, unrepeated=unrepeated,
                missing=sorted(m for m in ALL_METRICS if m not in metrics),
                spans=tracer.spans,
                untraced_pass_s=[p.seconds for p in untraced],
                traced_pass_s=[p.seconds for p in traced])


# metric -> (span name, field of spans.summarize)
SPAN_METRICS = {
    "groebner.buchberger.calls": ("groebner.buchberger", "calls"),
    "groebner.buchberger.self_s": ("groebner.buchberger", "self_s"),
    "groebner.normal_form.calls": ("groebner.normal_form", "calls"),
    "groebner.normal_form.self_s": ("groebner.normal_form", "self_s"),
    "groebner.staircase.calls": ("groebner.staircase", "calls"),
    "groebner.staircase.self_s": ("groebner.staircase", "self_s"),
    "groebner.staircase.entries": ("groebner.staircase", "extra"),
    "groebner.staircase_of_degree.self_s": ("groebner.staircase_of_degree", "self_s"),
    "linalg.row_reduce.calls": ("linalg.row_reduce", "calls"),
    "linalg.row_reduce.self_s": ("linalg.row_reduce", "self_s"),
    "linalg.cells": ("linalg.row_reduce", "extra"),
    "algebras.make_quotient.self_s": ("algebras.make_quotient", "self_s"),
    "algebras.tensor_many.self_s": ("algebras.tensor_many", "self_s"),
    "algebras.quotient_by.total_s": ("algebras.quotient_by", "total_s"),
    "algebras.artinian_local_model.total_s": ("algebras.artinian_local_model", "total_s"),
    "algebras.artinian_local_model.calls": ("algebras.artinian_local_model", "calls"),
    "algebras.nilpotency_index.total_s": ("algebras.nilpotency_index", "total_s"),
    "algebras.is_injective.total_s": ("algebras.is_injective", "total_s"),
    "differentials.KaehlerModule.built": ("differentials.KaehlerModule", "calls"),
    "differentials.KaehlerModule.total_s": ("differentials.KaehlerModule", "total_s"),
    "differentials.KaehlerModule.relation_vectors": ("differentials.KaehlerModule", "extra"),
    "differentials.kaehler.cache_hits": ("differentials.kaehler", "extra"),
    "differentials.derivation_kernel_in_degree.total_s":
        ("differentials.derivation_kernel_in_degree", "total_s"),
    "constructions.killing_step.self_s": ("constructions.killing_step", "self_s"),
    "constructions.B_tensor_power.total_s": ("constructions.B_tensor_power", "total_s"),
    "constructions.gabber_B.calls": ("constructions.gabber_B", "calls"),
    "constructions.check_theorem_local_case.total_s":
        ("constructions.check_theorem_local_case", "total_s"),
    "parsing.parse_presentation.calls": ("parsing.parse_presentation", "calls"),
    "parsing.parse_presentation.total_s": ("parsing.parse_presentation", "total_s"),
}
PROFILE_METRICS = ("groebner.reduction_steps", "groebner.spairs",
                   "polynomials.mono_div.calls", "polynomials.monomial_key.calls",
                   "fields.elements_created", "polynomials.self_s", "fields.self_s",
                   "fields.fractions_self_s")
ALL_METRICS = tuple(SPAN_METRICS) + PROFILE_METRICS + (
    "groebner.spair_zero_frac", "trace.overhead_s")


def layer_metrics(per_pass: list, counts: dict, selfs: dict, missing: set) -> tuple:
    """Per-layer metrics for one pass: for spans the median over traced
    passes of times and the common value of counts, then the profiled counts
    and self times.  A metric whose span or counter no longer exists in the
    program is left out, never reported as 0.  Returns (metrics, counts that
    did not repeat exactly)."""
    metrics: dict = {}
    unrepeated: list = []
    for metric, (span_name, key) in SPAN_METRICS.items():
        if metric in missing or span_name in missing:
            continue
        values = [s.get(span_name, {}).get(key, 0) for s in per_pass]
        if key in ("self_s", "total_s"):
            metrics[metric] = statistics.median(values)
        else:
            metrics[metric] = values[0]
            if not all(v == values[0] for v in values):
                unrepeated.append(metric)
    metrics.update((m, v) for m, v in counts.items() if m in PROFILE_METRICS)
    metrics.update(selfs)
    wrapped = counts.get("groebner.spairs_wrapped")
    if wrapped is not None:
        if counts.get("groebner.spairs") != wrapped:
            unrepeated.append("groebner.spairs")
        if wrapped:
            metrics["groebner.spair_zero_frac"] = counts["groebner.spairs_zero"] / wrapped
    return metrics, unrepeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    import unramified.constructions  # noqa: F401  (import is part of set-up)
    from unramified.parsing import parse_presentation

    cases = make_cases(args.workload, args.seed)
    for case in cases:
        parse_presentation(case.text)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        out = measure(args.workload, cases, args.seconds)
    else:
        out = trace(args.workload, cases, args.seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
