"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that the benchmark counts what it claims: a corrupted
certificate, a changed answer or a cached repeat is a failed answer, exact
counts repeat between two traced runs and count the work scanned,
enumerate-par asks the sharded questions of enumerate, and a directory
without the package gives no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from hypermatch import storage, thresholds  # noqa: E402
from hypermatch.hypercore import VertexWeighting  # noqa: E402
from speed import REFERENCE_S, Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402

EXACT_COUNTS = (
    "simplex.pivots",
    "simplex.columns",
    "thresholds.masks",
    "thresholds.lp_calls",
    "storage.grid_points",
    "samuels.mc_samples",
)


def _certify_answer():
    """A certify instance with several edges, so corruptions have something to break."""
    answers = workloads.build("certify", workloads.DEFAULT_SEED, 1)
    return next(a for a in answers if a.label.endswith("/k3n8p5/0"))


def _failed(answer, result, error=None) -> int:
    run_ = worker.Run([answer], tracer=None)
    run_.check(answer, result, error)
    return run_.failed


def test_a_correct_certificate_passes():
    answer = _certify_answer()
    assert _failed(answer, answer.call()) == 0


def test_a_changed_repeat_counts_as_failed():
    answer = _certify_answer()
    report = answer.call()
    run_ = worker.Run([answer], tracer=None)
    run_.check(answer, report, None)
    other = dataclasses.replace(report, cover_certificate=tuple(reversed(report.cover_certificate)))
    run_.check(answer, other, None)
    assert run_.failed == 1


def test_a_corrupted_cover_certificate_counts_as_failed():
    answer = _certify_answer()
    report = answer.call()
    h = answer.spec
    # Same size, so the duality chain still holds; only the certificate is wrong.
    wrong = tuple(v for v in range(h.n) if v not in report.cover_certificate)[: len(report.cover_certificate)]
    corrupted = dataclasses.replace(report, cover_certificate=wrong)
    assert _failed(answer, corrupted) == 1


def test_a_corrupted_fractional_cover_counts_as_failed():
    answer = _certify_answer()
    report = answer.call()
    weights = list(report.fractional_cover.weights)
    moved = next(i for i, w in enumerate(weights) if w > 0)
    weights[moved] -= Fraction(1, 2) if weights[moved] >= Fraction(1, 2) else weights[moved]
    corrupted = dataclasses.replace(report, fractional_cover=VertexWeighting(weights))
    assert _failed(answer, corrupted) == 1


def test_an_answer_that_raised_counts_as_failed():
    answer = _certify_answer()
    assert _failed(answer, None, "Traceback\nValueError: boom") == 1


def test_another_maximiser_than_golden_counts_as_failed():
    grid = next(a for a in workloads.build("enumerate", 0, 1) if a.label == "grid/(10,2,3,4)")
    report = grid.call()
    # Any three nodes holding 1 are optimal here, so the reversed maximiser
    # passes every independent check; only the digest tells.
    x = report.allocation.x.weights[::-1]
    other = storage.AllocationReport(
        phi=report.phi,
        success_probability=report.success_probability,
        allocation=storage.Allocation(VertexWeighting(x), report.allocation.r, report.allocation.budget),
    )
    assert x != report.allocation.x.weights
    assert checks.problems(grid, other) == []
    assert _failed(grid, other) == 1


def test_a_repeat_served_from_a_cache_counts_as_failed():
    answer = next(a for a in workloads.build("enumerate", 0, 1) if a.label == "candidates/(10,2,3)")
    assert answer.quick
    report = answer.call()
    for second, failed in ((answer.call(), 0), (report, 1)):
        run_ = worker.Run([answer], tracer=None)
        run_.check(answer, report, None)
        run_.check(answer, second, None)
        assert run_.failed == failed


def test_enumerate_par_asks_the_sharded_questions_of_enumerate():
    one = workloads.schedule(workloads.build("enumerate", 5, 20))
    par = workloads.schedule(workloads.build("enumerate-par", 5, 20))
    sharded = [a.label for a in one if a.kind in ("threshold", "compare", "grid", "sandwich")]
    assert [a.label for a in par] == sharded


def test_quick_answers_are_repeated_a_third_of_a_run_apart():
    answers = workloads.build("enumerate", 5, 20)
    calls = workloads.schedule(answers)
    quick = [a.label for a in answers if a.quick]
    assert len(calls) == len(answers) + (workloads.REPEATS - 1) * len(quick)
    positions = [i for i, a in enumerate(calls) if a.label == quick[0]]
    assert len(positions) == workloads.REPEATS and positions[1] - positions[0] > len(calls) // 4
    slow = [a.label for a in calls if not a.quick]
    assert slow[: len(workloads.PINNED_THRESHOLDS)] == [
        workloads.threshold_label(*p[:5]) for p in workloads.PINNED_THRESHOLDS
    ]


def test_certify_and_sparsify_ask_each_answer_once():
    for workload in ("certify", "sparsify"):
        labels = [a.label for a in workloads.schedule(workloads.build(workload, 5, 20))]
        assert len(labels) == len(set(labels)), workload
    labels = [a.label for a in workloads.schedule(workloads.build("sparsify", 5, 20))]
    long_call = labels.index("rounds/4")
    assert labels[0] == "rounds/1" and 0 < long_call < len(labels) - 1
    assert labels[long_call - 1].startswith("build/") and labels[long_call + 1].startswith("build/")


def test_a_time_is_scaled_by_the_samples_taken_in_it():
    sampler = Sampler()
    # Samples every 10 ms from t = 0; the machine runs at half the
    # reference speed from t = 1 on, and each sample took 1 ms of wall time.
    for i in range(300):
        t = i / 100
        sampler.at.append(t)
        sampler.cpu.append(REFERENCE_S * (2 if t >= 1 else 1))
        sampler.cost.append(0.001)
    assert sampler.scaled(0.2, 0.7) == pytest.approx(0.5 - 50 * 0.001)
    assert sampler.scaled(1.5, 2.5) == pytest.approx((1.0 - 100 * 0.001) / 2)
    # Too short to hold MIN_SAMPLES: the median of the samples nearest it
    # decides, here those at 0.98 to 1.02 s, three of them at half speed.
    assert sampler.scaled(0.9955, 0.9965) == pytest.approx(0.001 / 2)
    assert sampler.scaled(0.5055, 0.5065) == pytest.approx(0.001)


def test_certify_instances_do_not_depend_on_the_run_length():
    short = {a.label: a.spec.edges for a in workloads.build("certify", 3, 1)}
    long = {a.label: a.spec.edges for a in workloads.build("certify", 3, 6)}
    assert short and all(long[label] == edges for label, edges in short.items())


def test_traced_counts_are_the_masks_scanned_and_the_grid_points_visited():
    tracer = Tracer()
    tracer.install()
    try:
        storage.optimize_grid(4, 2, 1, 4)
        thresholds.brute_force_threshold(thresholds.ThresholdQuery(2, 4, 0, 2, "integral"))
    finally:
        tracer.uninstall()
    assert tracer.grid_points == 35  # compositions of 4 into 4 parts: C(7, 3)
    assert tracer.masks == 1 << 6  # every edge set of C(4, 2) = 6 edges


def test_tail_has_ten_answers_beyond_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def _traced(workload: str, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "0", str(seconds), "trace", repr(time.perf_counter())]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, seconds", [("certify", 2), ("sparsify", 3), ("enumerate", 1)])
def test_exact_counts_repeat_between_two_traced_runs(workload, seconds):
    first, second = _traced(workload, seconds), _traced(workload, seconds)
    for run_ in (first, second):
        assert run_["failed"] == 0 and run_["run_checks"] == []
    for name in EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    if workload == "enumerate":
        assert first["layers"]["thresholds.queries"] == workloads.EXPECTED_QUERIES
        assert first["layers"]["thresholds.memo_hits"] == workloads.EXPECTED_MEMO_HITS
        assert all(first["layers"][name] > 0 for name in EXACT_COUNTS if not name.startswith("simplex.c"))


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
