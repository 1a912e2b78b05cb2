"""The worker count and process pool of the randcons round LPs.

The threshold scan and the storage grid run in-process whatever ``jobs`` says.
"""

import multiprocessing
import os

import pytest

from hypermatch import parallel, thresholds
from hypermatch.parallel import parallel_map, pool_size
from hypermatch.storage import optimize_grid, sandwich
from hypermatch.thresholds import ThresholdQuery, brute_force_threshold


@pytest.mark.parametrize(
    "jobs, shards, cpus, expected",
    [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (10**6, 10, 8, 8),  # bounded by the CPUs; no process is started
        (10**6, 3, 8, 3),  # bounded by the tasks
        (4, 0, 8, 1),
        (4, 10, None, 1),  # os.cpu_count() may not know
    ],
)
def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch, jobs, shards, cpus, expected):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert pool_size(jobs, shards) == expected


@pytest.mark.parametrize("jobs", [0, -3])
def test_pool_size_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError):
        pool_size(jobs, 10)


def _square_with_pid(x):
    return x * x, os.getpid()


def test_parallel_map_runs_one_worker_in_process():
    assert parallel_map(_square_with_pid, [1, 2, 3], 1) == [
        (1, os.getpid()),
        (4, os.getpid()),
        (9, os.getpid()),
    ]


def test_parallel_map_forks_and_keeps_payload_order():
    got = parallel_map(_square_with_pid, list(range(6)), 2)
    assert [square for square, _ in got] == [x * x for x in range(6)]
    assert os.getpid() not in {pid for _, pid in got}


def test_thresholds_and_grids_start_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was asked for")

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    thresholds._memo.clear()
    # 2^22 masks: the size at which the scan used to fork.
    assert brute_force_threshold(ThresholdQuery(1, 22, 0, 11, "fractional"), jobs=2).value == 11
    assert optimize_grid(5, 2, 2, q=4, jobs=3).phi == 7
    assert sandwich(5, 2, 2, q=4, jobs=3).holds
