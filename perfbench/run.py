"""Benchmark of the unramified engine, run from the root of a checkout.

    python3 perfbench/run.py [--workload ladder|corpus|graded|all] [--seed N]
                             [--seconds S] [--trace 0|1]

The command of BENCHMARK.json is run as `--workload <name> --seed <n>
--seconds <run_seconds> --trace <0|1>`; the default of --seconds is
RUN_SECONDS, the same value as `run_seconds`.

Each workload runs in its own single-threaded worker process, one after
another.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run, the span file and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, digest  # noqa: E402

# How long one workload measures; the `run_seconds` of BENCHMARK.json.
RUN_SECONDS = 36
# Set-up-only processes started before and after the measuring one, so the
# median of set-up times spans the run instead of one moment of it.
SETUP_SAMPLES_EACH_SIDE = 6
READY_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verdict_p50_s": "s",
                    "verdict_max_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, mode: str, seconds: float) -> tuple:
    """Run one worker process.  Returns (seconds from start until it was
    ready for its first verdict, its result or None for set-up only)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if readable else ""
        ready_s = time.perf_counter() - started
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not get ready")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(out.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    def setup_samples():
        return [_worker(workload, seed, "setup", seconds)[0]
                for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    setups = setup_samples()
    ready_s, out = _worker(workload, seed, "measure", seconds)
    setups += [ready_s] + setup_samples()
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(out["pass_s"]),
        "verdict_p50_s": statistics.median(out["pass_p50_s"]),
        "verdict_max_s": statistics.median(out["pass_max_s"]),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    failed_frac = out["failed"] / out["attempted"]
    print(f"{workload} seed {seed}: "
          f"setup_s {values['setup_s']:.4f} s ({len(setups)} processes); "
          f"pass_s {values['pass_s']:.4f} s ({len(out['pass_s'])} passes; "
          f"{statistics.median(out['raw_pass_s']):.4f} s unscaled, "
          f"reference loop {1000 * out['loop_s']:.3f} ms); "
          f"verdict_p50_s {values['verdict_p50_s']:.6f} s "
          f"({out['attempted']} verdicts); "
          f"verdict_max_s {values['verdict_max_s']:.4f} s; "
          f"peak_rss_mb {values['peak_rss_mb']:.1f} MB; "
          f"failed_frac {failed_frac:.4f} of verdicts ({out['failed']}/{out['attempted']}); "
          f"report digest {out['digest'][:16]}")
    for problem in out["problems"]:
        print(f"  failed: {problem}", file=sys.stderr)
    return out["attempted"], out["failed"], True, metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    _, out = _worker(workload, seed, "trace", seconds)
    os.makedirs(ROOT / OUT_DIR, exist_ok=True)
    span_file = f"{OUT_DIR}/spans-{workload}-seed{seed}.json"
    with open(ROOT / span_file, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "parent", "name", "start_s", "end_s",
                              "root", "count"],
                   "spans": out["spans"]}, fh)
    untraced = statistics.median(out["untraced_pass_s"])
    overhead = out["metrics"]["trace.overhead_s"]
    counts = {k: v for k, v in out["metrics"].items() if _layer_unit(k) == "count"}
    print(f"{workload} seed {seed} traced: {len(out['spans'])} spans in {span_file}; "
          f"tracing overhead {overhead:.4f} s on an untraced pass of {untraced:.4f} s "
          f"({100 * overhead / untraced:.1f} %); count digest "
          f"{digest(json.dumps(counts, sort_keys=True))} (equal runs give equal digests)")
    for name, value in sorted(out["metrics"].items()):
        print(f"  {name} = {value} {_layer_unit(name)}")
    for name in out["missing"]:
        print(f"  {name} is missing from the program", file=sys.stderr)
    for name in out["unrepeated"]:
        print(f"  {name} did not repeat exactly across passes", file=sys.stderr)
    for problem in out["problems"]:
        print(f"  failed: {problem}", file=sys.stderr)
    metrics = {k: _metric(v, _layer_unit(k)) for k, v in out["metrics"].items()}
    return out["attempted"], out["failed"], not out["unrepeated"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unramified" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'unramified'} is missing",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    run = per_layer if args.trace else end_to_end
    attempted = failed = 0
    repeatable = True
    metrics: dict = {}
    try:
        for workload in workloads:
            a, f, r, m = run(workload, args.seed, args.seconds)
            attempted += a
            failed += f
            repeatable = repeatable and r
            prefix = "" if len(workloads) == 1 else workload + "."
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and repeatable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
