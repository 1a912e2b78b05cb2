"""The ten acceptance criteria, one test each, one report line each.

Every test delegates to the package's own battery (also behind the
``selftest`` CLI command), prints a single pass/fail line with the
criterion's summary detail, and asserts the verdict.  Run with ``-s`` to
see the lines as they complete; a plain run shows them on failure.
"""

from fractions import Fraction

import pytest

from hypermatch import acceptance, optmatch


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


def test_criteria_names_and_runtime_limits_are_pinned():
    # The runtime gates are never loosened, and the CLI numbers criteria by
    # their position in this table.
    assert [(name, limit) for name, limit, _ in acceptance.CRITERIA] == [
        ("duality_chain", 60.0),
        ("boundary_windows", 5.0),
        ("argmin_at_zero", 5.0),
        ("exhaustive_thresholds", 600.0),
        ("inequality_web", None),
        ("construction_invariants", None),
        ("threshold_hypergraph_bridge", None),
        ("monte_carlo_closed_form", 10.0),
        ("randomized_construction", 300.0),
        ("storage_grid_sandwich", 120.0),
    ]
    assert all(callable(check) for _, _, check in acceptance.CRITERIA)


def test_failed_certificate_check_is_a_failed_criterion(monkeypatch):
    def refuse(h, matching, cover):
        raise AssertionError("matching certificate edges intersect")

    monkeypatch.setattr(optmatch, "_verify_integral", refuse)
    result = acceptance.run_criterion(1)
    assert not result.passed
    assert result.detail == "certificate check failed: matching certificate edges intersect"
    assert (result.number, result.name, result.runtime_limit) == (1, "duality_chain", 60.0)


@pytest.mark.parametrize("number", [0, 11])
def test_criterion_number_out_of_range_is_refused(number):
    with pytest.raises(ValueError) as info:
        acceptance.run_criterion(number)
    assert str(info.value) == "criterion number must be in 1..10"


def test_overrunning_the_runtime_limit_is_a_failed_criterion(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (("instant", 0, lambda: (True, "ok")),))
    result = acceptance.run_criterion(1)
    assert not result.passed
    assert result.detail == "ok [exceeded 0s runtime limit]"
    assert (result.number, result.name, result.runtime_limit) == (1, "instant", 0)


def test_run_all_without_a_list_runs_every_criterion_in_order(monkeypatch):
    rows = tuple((name, None, lambda name=name: (True, name)) for name in ("a", "b", "c"))
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    results = acceptance.run_all()
    assert [(r.number, r.name, r.passed, r.detail) for r in results] == [
        (1, "a", True, "a"),
        (2, "b", True, "b"),
        (3, "c", True, "c"),
    ]


def test_criterion_09_sigma_tests_are_exact_at_the_boundary():
    # With 200 repetitions, a deviation of 30 against variance 1/2 and an
    # excess of 90 against 9/2 lie exactly on 3 sigma (30^2 = 9 * 200 / 2,
    # 90^2 = 9 * 200 * 9 / 2), and both pass.  Through math.sqrt, a vertex
    # of coverage 5 and degree sum 1030 read as outside, and a pair of
    # coverage 0 and count 90 as above.
    assert acceptance._within_3_sigma(1030 - 200 * 5, 200, Fraction(1, 2))
    assert acceptance._within_3_sigma(-30, 200, Fraction(1, 2))
    assert not acceptance._within_3_sigma(31, 200, Fraction(1, 2))
    assert acceptance._below_3_sigma(90 - 200 * 0, 200, Fraction(9, 2))
    assert not acceptance._below_3_sigma(91, 200, Fraction(9, 2))
    # A pair count at or below its coverage passes whatever the variance.
    assert acceptance._below_3_sigma(-5, 200, 0)
    assert acceptance._below_3_sigma(0, 200, 0)
    assert not acceptance._below_3_sigma(1, 200, 0)
