"""Tiny-size runs of every workload, their output checks biting, and the run-validity rules."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_atpg_check_catches_a_wrong_detected_set():
    from compute import AtpgWorkload

    workload = AtpgWorkload(seed=0, tiny=True)
    workload.setup()
    summary = workload.summarize(workload.operation())
    assert workload.check([summary]) == []
    workload.first.report.first_detection.popitem()
    assert workload.check([summary, dict(summary, digest="other")]) == [
        "repetitions produced different tests",
        "parallel-pattern regrade detects a different set",
    ]


def test_scan_check_catches_unverified_and_divergent_runs():
    from compute import ScanWorkload

    workload = ScanWorkload(seed=0, tiny=True)
    workload.setup()
    summary = workload.summarize(workload.operation())
    assert workload.check([summary]) == []
    bad = dict(summary, verified=False, digest="other")
    assert workload.check([summary, bad]) == [
        "scan flow skipped sequential verification",
        "repetitions produced different scan results",
    ]


def test_grade_check_catches_a_wrong_first_detection():
    from compute import GradeWorkload

    workload = GradeWorkload(seed=0, tiny=True)
    workload.setup()
    summary = workload.summarize(workload.operation())
    assert workload.check([summary]) == []
    fault = next(iter(workload.first.first_detection))
    workload.first.first_detection[fault] += 1
    assert workload.check([summary]) == ["parallel-pattern first detections differ"]


def test_service_check_catches_gaps_wrong_cache_outcome_and_payload():
    from service_mix import Request, ServiceWorkload, stripped

    workload = ServiceWorkload(seed=0, tiny=True)
    payload = {"stats": {"coverage": 1.0}, "duration_s": 0.5}
    workload.copies = [stripped(payload)]
    events = [
        {"event": "accepted", "seq": 0},
        {"event": "cell", "seq": 1, "key": "k", "payload": dict(payload, duration_s=0.7)},
        {"event": "done", "seq": 2, "hits": 1, "misses": 0, "failed": 0},
    ]
    good = Request(0.0, "interactive", {}, True, 0, events=events)
    assert workload.problems(good) == []
    gapped = Request(0.0, "interactive", {}, True, 0, events=[events[0], dict(events[2], seq=3)])
    assert workload.problems(gapped) == [
        "event seq is not gapless", "expected one cell event, got 0"
    ]
    as_miss = Request(0.0, "bulk", {}, False, events=events)
    assert workload.problems(as_miss) and "expected miss" in workload.problems(as_miss)[0]
    changed = dict(events[1], payload={"stats": {"coverage": 0.5}})
    wrong = Request(0.0, "interactive", {}, True, 0, events=[events[0], changed, events[2]])
    assert workload.problems(wrong) == ["hit payload differs from the set-up copy"]


def _step(rate, lateness):
    from service_mix import Request, StepResult

    requests = [Request(float(i), "interactive", {}, True, late=late) for i, late in enumerate(lateness)]
    for request in requests:
        request.done = request.due + 0.01
    return StepResult(rate, float(len(requests)), requests)


def test_a_late_generator_on_any_step_invalidates_the_run():
    from service_mix import late_problems

    on_time = _step(24.0, [0.001] * 30)
    late_ladder = _step(192.0, [0.001] * 10 + [0.2] * 20)
    assert late_problems([on_time]) == []
    assert late_problems([on_time, late_ladder]) == [
        "load generator ran 200.0 ms late at 192 jobs/s (limit 25.0 ms)"
    ]


def test_lane_utilisation_clips_spans_to_the_step():
    from service_mix import LANES, lane_utilisation
    from tracing import Span

    step = _step(1.0, [0.0] * 5)  # due 0..4, done by 4.01
    spans = [
        Span("service.execute", -1.0, 1.0),  # half inside
        Span("service.execute", 2.0, 3.0),
        Span("service.scheduler", 0.0, 4.0),  # not a lane's execution
    ]
    assert lane_utilisation(step, spans) == pytest.approx(2.0 / (LANES * 4.01))


class _Counting:
    """A batch workload whose operation is a short sleep."""

    setup_repeats = 3
    yardstick = "python"

    def __init__(self):
        self.setups = 0

    def setup(self):
        self.setups += 1

    def operation(self):
        __import__("time").sleep(0.002)

    def summarize(self, result):
        return {"fault_coverage": 1.0, "test_patterns": 1}

    def check(self, summaries):
        return []


def test_set_up_count_does_not_depend_on_the_repetition_count():
    import run
    from reference import Sampler

    for seconds in (0.01, 0.1):
        workload = _Counting()
        times = []
        sampler = Sampler("python")
        run.setup_round(workload, times, sampler)
        out = run.run_batch(workload, seconds, False, times, sampler)
        assert len(out["reps"]) >= run.MIN_REPS
        # Set-up runs only in its rounds, never between repetitions.
        assert workload.setups == len(times) == workload.setup_repeats
