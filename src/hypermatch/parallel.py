"""Worker count and process pool for the round LPs of ``randcons``.

Each round of ``randcons.compute_round_matchings`` is an exact LP with up to
thousands of columns, and the rounds together take seconds, so forking can
pay off there; every other search in the package runs in-process.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence


def pool_size(jobs: int, shards: int) -> int:
    """Workers for ``shards`` independent tasks when ``jobs`` are asked for.

    Never more than the tasks or the CPUs, and never fewer than one; a
    result of 1 means the caller runs in-process.  ``jobs`` < 1 is an error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, shards, os.cpu_count() or 1))


def parallel_map(fn: Callable, payloads: Sequence, workers: int) -> list:
    """``[fn(p) for p in payloads]``, in-process for one worker, else forked.

    Results come back in payload order either way, so a caller's answer
    cannot depend on ``workers``.
    """
    if workers == 1:
        return [fn(p) for p in payloads]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, payloads)
