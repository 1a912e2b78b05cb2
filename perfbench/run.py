"""Benchmark of the hypermatch package: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads: certify, enumerate, enumerate-par, sparsify (see README.md).

With ``--trace 0`` the workload runs untraced in a fresh interpreter and the
end-to-end metrics are reported; the set-up time is the median over that
interpreter and eight more that only import and build the inputs, four
started before it and four after.  Times
are scaled to a reference machine speed sampled through the run (see
speed.py); the times as measured are printed beside them.  With
``--trace 1`` a separate fresh interpreter runs the same work with spans
around every layer call and the per-layer metrics are reported.  Every
answer is checked after the timed region.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits
non-zero, printing no result, when the package is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Repeated from workloads.py: this process never imports the package, so it
# can refuse cleanly where the package is missing.
WORKLOADS = ("certify", "enumerate", "enumerate-par", "sparsify")
SETUP_PROBES = 8
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line."""
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode, repr(spawned_at)]
    # With randomised string hashing, one interpreter ran the same q_min grid
    # at 100-120 us a point and the next at 190-220 us: that per-process
    # lottery, not the code, would set the spread between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    finally:
        # A sharded call may have left pool processes behind on failure.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerError(f"{mode} worker printed no result") from exc


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 answers beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def report(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name} = {value:.6g} {unit} ({note})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hypermatch" / "__init__.py").is_file():
        print(f"no hypermatch package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    host = machine()
    try:
        if args.trace:
            run = start_worker(args.workload, args.seed, args.seconds, "trace", deadline)
        else:
            probes = [start_worker(args.workload, args.seed, args.seconds, "probe", deadline) for _ in range(SETUP_PROBES // 2)]
            run = start_worker(args.workload, args.seed, args.seconds, "run", deadline)
            probes.append(run)
            probes += [start_worker(args.workload, args.seed, args.seconds, "probe", deadline) for _ in range(SETUP_PROBES // 2)]
            setups = [probe["setup_s"] for probe in probes]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    host["numpy"] = run["numpy"]
    print(f"machine: {json.dumps(host)}")
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    n = run["attempted"]
    for message in run["problems"][:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for message in run["run_checks"]:
        print(f"FAILED run check: {message}", file=sys.stderr)
    report("failed_share", run["failed"] / n, "share", f"{run['failed']} of {n} calls")

    if args.trace:
        metrics = {name: (value, UNITS[name]) for name, value in run["layers"].items()}
        for name, (value, unit) in metrics.items():
            report(name, value, unit, "traced run")
    else:
        latencies = run["answer_latencies_s"]
        tail_s, percentile = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (run["wall_s"], "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "answer_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "answer_tail_ms": (1000 * tail_s, "ms"),
        }
        q = len(latencies)
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "wall_s": f"{run['answers']} answers once each, a repeated one at its best",
            "peak_rss_mb": "process plus its largest child",
            "answer_p50_ms": f"p50 of {q} {run['sampled']}",
            "answer_tail_ms": f"p{percentile:.4g} of {q} {run['sampled']}, {min(q, 10)} beyond it",
        }
        for name, (value, unit) in metrics.items():
            report(name, value, unit, notes[name])
        for name, value in sorted(run["phases"].items()):
            report(name, value, "s", "answers of that phase, summed")
        report("setup_raw_s", statistics.median(p["setup_raw_s"] for p in probes), "s", "set-up as measured, median")
        report("wall_raw_s", run["wall_raw_s"], "s", "wall_s as measured")
        report("slowness", run["slowness"], "x", "median speed sample over the reference; above 1 is slower")

    result = {
        "correct": run["failed"] == 0 and not run["run_checks"],
        "attempted": n,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
