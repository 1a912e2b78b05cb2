"""One fresh interpreter running one workload; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT

MODE is ``probe`` (import and build the inputs, then stop), ``run``
(untraced, for the end-to-end metrics) or ``trace`` (spans around every
layer call, for the per-layer metrics).  SPAWNED_AT is the parent's
``time.perf_counter()`` just before it started this process, so the set-up
time covers interpreter start, imports and the input build.  Every time
reported is scaled to the reference speed by a ``speed.Sampler`` running
through the whole process, and the measured wall time is reported beside
it.  Prints one JSON object on stdout.  Every run is a fresh interpreter
because the threshold memo is module-global.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from speed import MIN_SAMPLES, REFERENCE_S, Sampler

if __name__ == "__main__":
    # Started before the imports below, so that the set-up time is scaled by
    # samples taken while it passes.
    _sampler = Sampler()
    _sampler.start()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from hypermatch import thresholds  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Phase times, summed like wall_s over the answers of the phase and reported
# beside the end-to-end metrics.
PHASES = {
    "threshold": "threshold_s",
    "compare": "threshold_s",
    "grid": "grid_s",
    "sandwich": "grid_s",
    "candidates": "grid_s",
    "qmin": "samuels_s",
    "boundary": "samuels_s",
    "mc": "samuels_s",
    "rounds": "round_one_s",
    "build": "build_s",
}


def expected_threshold_calls(workload: str) -> tuple[int, int]:
    """(calls, memo hits) every run of the workload must make."""
    if workload in ("enumerate", "enumerate-par"):
        return workloads.EXPECTED_QUERIES, workloads.EXPECTED_MEMO_HITS
    return 0, 0


def _objects(result) -> list:
    """The parts of a result a cache would hand back again.

    Small ints, bools, strings and None may be shared by the interpreter
    itself, so only other objects are compared by identity.
    """
    parts = list(result) if isinstance(result, list) else []
    return [obj for obj in [result, *parts] if not isinstance(obj, (int, str, type(None)))]


class Run:
    """Asks for each scheduled answer in turn and checks it untimed.

    Results are checked as soon as they return and then dropped, so the
    heap, and the garbage collector's work, does not grow with the run.
    The exception is the first result of a repeated answer, kept until the
    answer's second call: a second call that returns any of its objects
    again was served from a cache and counts as failed.
    """

    def __init__(self, answers, tracer: Tracer | None):
        self.ids = {answer.label: i for i, answer in enumerate(answers)}
        self.tracer = tracer
        self.golden = checks.load_golden()
        # (start, end) of every call of each answer, by perf_counter.
        self.times: dict[str, list[tuple[float, float]]] = {answer.label: [] for answer in answers}
        self.digests: dict[str, str] = {}
        self.first: dict[str, Any] = {}
        self.asked = {answer.label: 0 for answer in answers}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ask(self, answer) -> None:
        if self.tracer is not None:
            self.tracer.answer = self.ids[answer.label]
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result, error = answer.call(), None
        except Exception:  # the loop must go on; the failure is counted
            result, error = None, traceback.format_exc(limit=3)
        self.times[answer.label].append((t0, time.perf_counter()))
        if self.tracer is not None:
            self.tracer.active = False
        self.check(answer, result, error)

    def cached(self, answer, result) -> bool:
        """Whether a repeat returned an object of the answer's first call."""
        if not answer.quick:
            return False
        asked = self.asked[answer.label]
        if asked == 1:
            self.first[answer.label] = result
            return False
        # A cache filled by the first call serves the second; after the
        # second, or after a first call that raised, nothing is compared.
        first = self.first.pop(answer.label, None)
        earlier = {id(obj) for obj in _objects(first)}
        return any(id(obj) in earlier for obj in _objects(result))

    def check(self, answer, result, error: str | None) -> None:
        self.attempted += 1
        self.asked[answer.label] += 1
        if error is not None:
            found = [f"raised: {error.strip().splitlines()[-1]}"]
        else:
            found = checks.problems(answer, result)
            digest = checks.digest(answer.kind, result)
            if self.digests.setdefault(answer.label, digest) != digest:
                found.append("differs from an earlier call with the same inputs")
            want = self.golden.get(answer.label)
            if want is not None and want != digest:
                found.append("digest differs from golden.json")
            if self.cached(answer, result):
                found.append("a repeat returned an object of the first call: a cached answer")
        if found:
            self.failed += 1
            self.problems.append(f"{answer.label}: {'; '.join(found)}")


def main(argv: list[str], sampler: Sampler) -> int:
    try:
        return measure(argv, sampler)
    finally:
        sampler.stop()


def measure(argv: list[str], sampler: Sampler) -> int:
    workload, seed, seconds, mode, spawned_at = argv[0], int(argv[1]), int(argv[2]), argv[3], float(argv[4])
    answers = workloads.build(workload, seed, seconds)
    calls = workloads.schedule(answers)
    setup_end = time.perf_counter()
    if mode == "probe":
        sampler.wait_for(MIN_SAMPLES)
        print(json.dumps({"setup_s": sampler.scaled(spawned_at, setup_end), "setup_raw_s": setup_end - spawned_at}))
        return 0

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    run = Run(answers, tracer)
    for answer in calls:
        run.ask(answer)
    if tracer is not None:
        tracer.uninstall()

    # Each answer's latency at its best repeat, scaled and as measured.
    best = {label: min(sampler.scaled(t0, t1) for t0, t1 in times) for label, times in run.times.items()}
    best_raw = {label: min(t1 - t0 for t0, t1 in times) for label, times in run.times.items()}
    phases: dict[str, float] = {}
    for answer in answers:
        phase = PHASES.get(answer.kind)
        if phase is not None:
            phases[phase] = phases.get(phase, 0.0) + best[answer.label]
    # Time to return every answer once, a repeated answer at its best repeat.
    wall_s = sum(best.values())
    # enumerate-par has no answer of the latency kinds; there every answer,
    # each asked once, goes through the sharded calls.
    sampled = [a for a in answers if a.kind in workloads.LATENCY_KINDS] or answers
    out = {
        "setup_s": sampler.scaled(spawned_at, setup_end),
        "setup_raw_s": setup_end - spawned_at,
        "wall_s": wall_s,
        "wall_raw_s": sum(best_raw.values()),
        # Kernel CPU time over its reference: above 1, the machine ran slower.
        "slowness": statistics.median(sampler.cpu) / REFERENCE_S,
        "answer_latencies_s": [best[a.label] for a in sampled],
        "sampled": ", ".join(sorted({a.kind for a in sampled})) + " answers, a repeated one at its best",
        "phases": phases,
        "answers": len(answers),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digests": run.digests,
        "numpy": numpy.__version__,
        "run_checks": [],
    }
    expected = expected_threshold_calls(workload)
    # Traced or not, the memo must hold exactly the cold threshold queries.
    if len(thresholds._memo) != expected[0] - expected[1]:
        out["run_checks"].append(
            f"{len(thresholds._memo)} threshold results memoised, expected {expected[0] - expected[1]} cold queries"
        )
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = wall_s
        if (layers["thresholds.queries"], layers["thresholds.memo_hits"]) != expected:
            out["run_checks"].append(
                f"threshold calls/memo hits {layers['thresholds.queries']}/{layers['thresholds.memo_hits']}, "
                f"expected {expected[0]}/{expected[1]}"
            )
        out["layers"] = layers
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{workload}-{seed}.jsonl")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + children) / 1024  # ru_maxrss is in KiB on Linux
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _sampler))
