"""Worker counts and the one process pool of the sharded computations."""

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
