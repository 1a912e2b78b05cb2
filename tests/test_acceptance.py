"""The ten acceptance criteria, one test each, one report line each.

Every test delegates to the package's own battery (also behind the
``selftest`` CLI command), prints a single pass/fail line with the
criterion's summary detail, and asserts the verdict.  Run with ``-s`` to
see the lines as they complete; a plain run shows them on failure.
"""

import pytest

from hypermatch import acceptance


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {result.number:>2} {result.name:<28} {status} "
        f"({result.elapsed_seconds:.1f}s) {result.detail}"
    )


def run(number):
    result = acceptance.run_criterion(number)
    report(result)
    assert result.passed, f"criterion {number} failed: {result.detail}"
    return result


def test_criterion_01_duality_chain():
    run(1)


def test_criterion_02_boundary_windows():
    run(2)


def test_criterion_03_argmin_at_zero():
    run(3)


def test_criterion_04_exhaustive_thresholds():
    run(4)


def test_criterion_05_inequality_web():
    run(5)


def test_criterion_06_construction_invariants():
    run(6)


def test_criterion_07_threshold_hypergraph_bridge():
    run(7)


def test_criterion_08_monte_carlo_closed_form():
    run(8)


def test_criterion_09_randomized_construction():
    run(9)


def test_criterion_10_storage_grid_sandwich():
    run(10)
