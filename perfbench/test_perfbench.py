"""Fast self-test of the benchmark itself (a few seconds):

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402
from workloads import Case, corpus_cases, graded_cases, ladder_cases  # noqa: E402


def _failed_frac(workload, cases):
    out = worker.tally([worker.run_pass(workload, cases)], cases)
    return out["failed"] / out["attempted"]


def test_planted_wrong_answer_fails():
    rung = ladder_cases(0)[0]
    assert _failed_frac("ladder", [rung]) == 0
    for wrong in ({"dimension": 12}, {"digest": "0" * 16}):
        planted = Case(rung.name, rung.text, dict(rung.expected, **wrong))
        assert _failed_frac("ladder", [rung, planted]) == 0.5


def test_raising_verdict_fails():
    dual = Case("dual numbers", "field QQ\nring X:1\nrel X^2\nmode local\n", {"dimension": 2})
    bad_text = Case("unparsable", "field QQ\nring X:1\nrel X^^2\nmode local\n")
    assert _failed_frac("corpus", [dual, bad_text]) == 0.5


def test_report_drift_fails():
    first, second = worker.Pass(), worker.Pass()
    first.digests, second.digests = ["a", "b"], ["a", "c"]
    cases = [Case("one", ""), Case("two", "")]
    assert worker.tally([first, second], cases)["failed"] == 1


def test_seed_changes_corpus_inputs():
    texts = [c.text for c in corpus_cases(0)]
    assert texts == [c.text for c in corpus_cases(0)]
    assert texts != [c.text for c in corpus_cases(1)]
    assert [c.text for c in graded_cases(0)] != [c.text for c in graded_cases(3)]


def test_corpus_terms_never_cancel():
    """Every generated term survives parsing, so no relation collapses mod p
    (an input such as `rel X^5 + X^5` over F_2 would be 0)."""
    from unramified.parsing import parse_presentation

    for seed in (0, 1):
        for case in corpus_cases(seed) + graded_cases(seed):
            rels = [line[4:] for line in case.text.splitlines() if line.startswith("rel ")]
            parsed = parse_presentation(case.text).relations
            for text, rel in zip(rels, parsed):
                written = text.count(" + ") + text.count(" - ") + 1
                if "(" not in text:
                    assert len(rel.terms) == written, (case.name, text)


def test_missing_counter_is_absent_not_zero():
    per_pass = [{"groebner.buchberger": {"calls": 3, "total_s": 1.0, "self_s": 1.0,
                                         "extra": 0}}] * 2
    metrics, unrepeated = worker.layer_metrics(
        per_pass, {"groebner.spairs": 5}, {"fields.self_s": 0.5}, {"linalg.row_reduce"})
    assert metrics["groebner.buchberger.calls"] == 3
    assert "linalg.row_reduce.calls" not in metrics
    assert "polynomials.mono_div.calls" not in metrics
    assert not unrepeated


def test_speed_scaling_removes_ticks_and_machine_speed():
    speed = worker.Speedometer()
    slow = 2 * worker.NOMINAL_LOOP_S
    speed.ticks = [(0.5, slow), (0.6, slow), (5.0, worker.NOMINAL_LOOP_S)]
    inside, alone = speed.scale([(0.0, 1.0), (4.9, 4.95)])
    assert abs(inside - (1.0 - 2 * slow) / 2) < 1e-12
    assert abs(alone - 0.05) < 1e-12
