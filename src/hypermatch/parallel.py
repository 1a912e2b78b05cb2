"""How many worker processes a sharded computation may start."""

from __future__ import annotations

import os


def pool_size(jobs: int, shards: int) -> int:
    """Workers for ``shards`` independent tasks when ``jobs`` are asked for.

    Never more than the tasks or the CPUs, and never fewer than one; a
    result of 1 means the caller runs in-process.  ``jobs`` < 1 is an error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, shards, os.cpu_count() or 1))
