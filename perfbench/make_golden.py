"""Record golden.json: the digest of every answer at the default seed.

    python3 perfbench/make_golden.py

Runs certify, enumerate and sparsify untraced at the default seed and
length and writes each answer's digest under its label.  enumerate-par
asks the same threshold and grid questions as enumerate, so its answers
are checked against these digests too.  Answers must stay bit-identical,
so rerun this only for a change that is meant to alter answers, and say so.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from checks import GOLDEN_PATH  # noqa: E402
from run import WorkerError, start_worker  # noqa: E402
from workloads import DEFAULT_SECONDS, DEFAULT_SEED  # noqa: E402


def main() -> int:
    golden: dict[str, str] = {}
    for workload in ("certify", "enumerate", "sparsify"):
        try:
            run = start_worker(workload, DEFAULT_SEED, DEFAULT_SECONDS, "run", time.monotonic() + 600)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        others = [m for m in run["problems"] if not m.endswith("digest differs from golden.json")]
        if others or run["run_checks"]:
            print(f"{workload}: answers fail their checks: {(others + run['run_checks'])[:5]}", file=sys.stderr)
            return 1
        golden.update(run["digests"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
