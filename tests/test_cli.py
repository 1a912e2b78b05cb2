"""End-to-end CLI checks: envelopes, payloads, files, exit codes."""

import itertools
import json
import pathlib
import re
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hypermatch.cli import main
from hypermatch.extremal import CONTEXTS
from hypermatch.hypercore import (
    Hypergraph,
    read_hypergraph,
    write_hypergraph,
    write_weighting,
    VertexWeighting,
)
from fractions import Fraction


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


class TestEnvelope:
    def test_schema_and_rationals(self, capsys, tmp_path):
        path = tmp_path / "k4.hg"
        write_hypergraph(Hypergraph.complete(3, 4), str(path))
        code, doc = run_json(capsys, "solve", str(path))
        assert code == 0
        assert set(doc) == {"command", "elapsed_seconds", "payload"}
        assert doc["command"] == "solve"
        assert doc["payload"]["nu_star"] == "4/3"
        assert doc["payload"]["tau_star"] == "4/3"
        assert doc["payload"]["nu"] == 1
        assert doc["payload"]["tau"] == 2

    def test_computational_error_exits_one(self, capsys, tmp_path):
        code, doc = run_json(capsys, "solve", str(tmp_path / "missing.hg"))
        assert code == 1
        assert set(doc) == {"command", "error"}

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["threshold", "--mode", "integral"])
        assert info.value.code == 2
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestConstruct:
    def test_writes_named_file(self, capsys, tmp_path):
        out = tmp_path / "family.hg"
        code, doc = run_json(
            capsys,
            "construct", "h1", "--k", "3", "--n", "9", "--s", "2",
            "--out", str(out),
        )
        assert code == 0
        assert doc["payload"]["file"] == str(out)
        written = read_hypergraph(str(out))
        assert written.num_edges == doc["payload"]["hypergraph"]["num_edges"]

    def test_infeasible_construction_is_an_error(self, capsys):
        code, doc = run_json(capsys, "construct", "h0", "--k", "3", "--n", "7")
        assert code == 1
        assert "error" in doc


class TestConjecture:
    def test_established_coefficient(self, capsys):
        code, doc = run_json(capsys, "conjecture", "Cor1.7", "--k", "4", "--d", "1")
        assert code == 0
        assert doc["payload"]["coefficient"] == "37/64"
        assert doc["payload"]["coefficient_float"] == pytest.approx(37 / 64)

    def test_exact_count(self, capsys):
        code, doc = run_json(
            capsys, "conjecture", "Conj1.8", "--k", "3", "--n", "6", "--s", "2"
        )
        assert code == 0
        assert doc["payload"]["count"] == 11


class TestSamuels:
    def test_qt(self, capsys):
        code, doc = run_json(
            capsys, "samuels", "qt", "--mus", "1/10,1/5,3/10", "--t", "1"
        )
        assert code == 0
        assert doc["payload"]["q_t"] == "14/27"

    def test_qmin(self, capsys):
        code, doc = run_json(capsys, "samuels", "qmin", "--l", "3", "--x", "3/10")
        assert code == 0
        assert doc["payload"]["q_min"] == "1/4"
        assert doc["payload"]["t_min"] == 2

    def test_mc_echoes_default_seed(self, capsys):
        code, doc = run_json(
            capsys, "samuels", "mc", "--l", "3", "--x", "1/5", "--samples", "2000"
        )
        assert code == 0
        assert doc["seed"] == 0
        assert doc["payload"]["exact"] == "64/125"
        assert abs(doc["payload"]["estimate"] - 64 / 125) < 0.05

    def test_mc_over_the_work_budget_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        code, doc = run_json(
            capsys, "samuels", "mc", "--l", "3", "--x", "1/5", "--samples", "100000000000"
        )
        assert time.perf_counter() - started < 5
        assert code == 1
        assert set(doc) == {"command", "error"}
        assert "work budget" in doc["error"]

    def test_mc_with_too_many_shards_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        code, doc = run_json(
            capsys, "samuels", "mc", "--l", "3", "--x", "1/5",
            "--samples", "1000000000", "--shards", "1000000000",
        )
        assert time.perf_counter() - started < 5
        assert code == 1
        assert "work budget" in doc["error"]

    def test_scan_csv_profile(self, capsys):
        code, out = run(capsys, "samuels", "scan", "--l", "2", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,q_0,min_q_rest"
        assert len(lines) > 400

    def test_scan_json_boundary(self, capsys):
        code, doc = run_json(capsys, "samuels", "scan", "--l", "2")
        assert code == 0
        assert doc["payload"]["x_star"] == pytest.approx(0.381966, abs=1e-4)

    def test_scan_tolerance_below_float_spacing(self, capsys):
        code, doc = run_json(capsys, "samuels", "scan", "--l", "2", "--tolerance", "1e-20")
        assert code == 0
        assert doc["payload"]["x_star"] == pytest.approx(0.381966, abs=1e-6)

    @pytest.mark.parametrize(
        "args",
        [("--l", "2", "--tolerance", "nan"), ("--l", "2", "--tolerance", "inf"), ("--l", "2000000",)],
    )
    def test_scan_bad_input_is_a_computational_error(self, capsys, args):
        code, doc = run_json(capsys, "samuels", "scan", *args)
        assert code == 1
        assert set(doc) == {"command", "error"}


class TestThreshold:
    def test_value_and_witness_file(self, capsys, tmp_path):
        witness = tmp_path / "w.hg"
        code, doc = run_json(
            capsys,
            "threshold", "--mode", "integral",
            "--k", "2", "--n", "4", "--d", "1", "--s", "2",
            "--witness-out", str(witness),
        )
        assert code == 0
        assert doc["payload"]["value"] == 2
        h = read_hypergraph(str(witness))
        assert h.num_edges == doc["payload"]["witness"]["num_edges"]

    def test_envelope_counts_lp_calls(self, capsys, tmp_path):
        code, doc = run_json(
            capsys,
            "threshold", "--mode", "fractional",
            "--k", "3", "--n", "6", "--d", "2", "--s", "2",
            "--witness-out", str(tmp_path / "w.hg"),
        )
        assert code == 0
        assert doc["payload"]["lp_calls"] == 14

    def test_budget_exhaustion_is_a_computational_error(self, capsys, tmp_path):
        code, doc = run_json(
            capsys,
            "threshold", "--mode", "integral",
            "--k", "3", "--n", "6", "--d", "1", "--s", "2",
            "--budget", "100",
            "--witness-out", str(tmp_path / "w.hg"),
        )
        assert code == 1
        assert "error" in doc

    def test_work_budget_refusal_is_a_computational_error(self, capsys, tmp_path):
        code, doc = run_json(
            capsys,
            "threshold", "--mode", "integral",
            "--k", "22", "--n", "23", "--d", "5", "--s", "1",
            "--witness-out", str(tmp_path / "w.hg"),
        )
        assert code == 1
        assert "work budget" in doc["error"]


class TestReduce:
    def test_pinned_instance(self, capsys, tmp_path):
        path = tmp_path / "w.wt"
        write_weighting(
            VertexWeighting(
                (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), Fraction(1, 2))
            ),
            str(path),
        )
        code, doc = run_json(
            capsys, "reduce", "--weights", str(path), "--k", "3", "--d", "1"
        )
        assert code == 0
        payload = doc["payload"]
        assert payload["l_set"] == [0]
        assert payload["w_prime"] == ["0/1", "1/7", "3/7", "4/7"]
        assert payload["hypergraph"]["edges"] == [[0, 2, 3], [1, 2, 3]]
        assert payload["link"]["edges"] == [[1, 2]]
        assert payload["link_cover"] == ["1/7", "3/7", "4/7"]


class TestStorage:
    def test_phi_of_an_allocation_file(self, capsys, tmp_path):
        path = tmp_path / "alloc.wt"
        write_weighting(
            VertexWeighting(
                (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), 0)
            ),
            str(path),
        )
        code, doc = run_json(
            capsys, "storage", "phi", "--alloc", str(path), "--r", "2"
        )
        assert code == 0
        assert doc["payload"]["phi"] == 5
        assert doc["payload"]["success_probability"] == "1/2"

    def test_candidates(self, capsys):
        code, doc = run_json(
            capsys, "storage", "candidates", "--n", "7", "--r", "3", "--T", "2"
        )
        assert code == 0
        assert [c["phi"] for c in doc["payload"]["candidates"]] == [20, 25]

    def test_optimize(self, capsys):
        code, doc = run_json(
            capsys,
            "storage", "optimize", "--n", "4", "--r", "2", "--T", "1", "--q", "4",
        )
        assert code == 0
        assert doc["payload"]["phi"] == 3
        assert doc["payload"]["x"] == ["1/1", "0/1", "0/1", "0/1"]


class TestRandcons:
    def test_sample_checks_and_build(self, capsys, tmp_path):
        base = tmp_path / "base.hg"
        write_hypergraph(Hypergraph.complete(3, 9), str(base))
        code, doc = run_json(
            capsys,
            "randcons", "--base", str(base),
            "--p", "0.7", "--rounds", "3", "--seed", "5", "--build",
        )
        assert code == 0
        assert doc["seed"] == 5
        payload = doc["payload"]
        assert payload["rounds"] == 3
        assert {c["name"] for c in payload["checks"]} == {
            "vertex_coverage",
            "pair_coverage",
            "edge_multiplicity",
            "subset_sizes",
            "induced_degrees",
        }
        assert payload["build_seed"] == 0
        assert payload["num_distinct_edges"] >= 1
        assert "degree_histogram" in payload

    def test_preset_exponents_flag(self, capsys, tmp_path):
        base = tmp_path / "base.hg"
        write_hypergraph(Hypergraph.complete(2, 6), str(base))
        code, doc = run_json(
            capsys, "randcons", "--base", str(base), "--paper-exponents"
        )
        assert code == 0
        assert doc["payload"]["p"] == pytest.approx(6**-0.9)
        assert doc["payload"]["rounds"] == round(6**1.1)


class TestSelftest:
    def test_subset_prints_table(self, capsys):
        code, out = run(capsys, "selftest", "--criteria", "2,3")
        assert code == 0
        lines = out.splitlines()
        assert any("boundary_windows" in line and "PASS" in line for line in lines)
        assert any("argmin_at_zero" in line and "PASS" in line for line in lines)
        assert lines[-1].strip() == "2/2 criteria passed"


@pytest.mark.parametrize(
    "args",
    [
        ("threshold", "--mode", "integral", "--k", "2", "--n", "4", "--d", "0", "--s", "1"),
        ("storage", "optimize", "--n", "4", "--r", "2", "--T", "1"),
        ("selftest", "--criteria", "2"),
        ("randcons", "--base", "X", "--p", "0.5", "--rounds", "2"),
        ("solve", "X"),
        ("construct", "h0", "--k", "2", "--n", "4"),
        ("conjecture", "Eq3", "--k", "2", "--n", "4", "--s", "1"),
        ("samuels", "qmin", "--l", "2", "--x", "1/4"),
        ("reduce", "--weights", "X", "--k", "2", "--d", "0"),
    ],
)
def test_no_subcommand_takes_jobs(capsys, args):
    with pytest.raises(SystemExit) as info:
        main([*args, "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flags",
    [
        (("storage", "optimize", "--r", "2"), "--n, --T"),
        (("storage", "candidates", "--r", "2", "--T", "1"), "--n"),
        (("storage", "phi", "--r", "2"), "--alloc"),
        (("samuels", "scan"), "--l"),
    ],
)
def test_missing_required_flag_is_a_usage_error(capsys, args, flags):
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2
    assert f"requires {flags}" in capsys.readouterr().err


# Small integers only, so that every generated instance has n <= 12, and a
# few values that are malformed or out of range.
INT = st.sampled_from([str(i) for i in range(-1, 13)] + ["", "x", "1e3"])
RATIONAL = st.sampled_from(["0", "1", "2", "1/3", "1/5", "3/2", "5/2", "1/10", "-1/2", "1/0", "x"])
FLOAT = st.sampled_from(["0", "0.2", "0.5", "1", "1.5", "1e-3", "1e-6", "-1", "nan", "inf", "x"])
FLAGS = {  # command: (positional choices, required flags, optional flags)
    "solve": ([["input.hg"]], {}, {"--csv": None}),
    "construct": (
        [["h0"], ["h1"], ["clique"]],
        {"--k": INT, "--n": INT},
        {"--s": INT, "--csv": None},
    ),
    "conjecture": (
        [[context] for context in CONTEXTS] + [["nope"]],
        {},
        {"--k": INT, "--n": INT, "--s": RATIONAL, "--d": INT, "--l": INT, "--m": INT},
    ),
    "samuels": (
        [["qt"], ["qmin"], ["scan"], ["mc"]],
        {},
        {
            "--mus": st.lists(RATIONAL, min_size=1, max_size=4).map(",".join),
            "--l": INT, "--x": RATIONAL, "--t": INT, "--tolerance": FLOAT,
            "--samples": INT, "--seed": INT, "--shards": INT, "--csv": None,
        },
    ),
    "threshold": (
        [[]],
        {
            "--mode": st.sampled_from(["integral", "fractional"]),
            "--k": INT, "--n": INT, "--d": INT, "--s": RATIONAL,
        },
        {"--budget": INT, "--csv": None},
    ),
    "reduce": ([[]], {"--weights": st.just("input.wt"), "--k": INT, "--d": INT}, {"--csv": None}),
    "storage": (
        [["phi"], ["candidates"], ["optimize"]],
        {"--r": INT},
        {"--n": INT, "--T": INT, "--q": INT, "--alloc": st.just("input.wt"), "--csv": None},
    ),
    "randcons": (
        [[]],
        {"--base": st.just("input.hg")},
        {
            "--p": FLOAT, "--rounds": INT, "--d": INT, "--seed": INT,
            "--paper-exponents": None, "--vertex-tolerance": FLOAT, "--pair-cap": INT,
            "--size-tolerance": FLOAT, "--degree-fraction": FLOAT, "--build": None,
            "--build-seed": INT, "--csv": None,
        },
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    positional, required, optional = FLAGS[command]
    argv = [command, *draw(st.sampled_from(positional))]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), max_size=6, unique=True))
    for flag in [*required, *chosen]:
        argv.append(flag)
        value = required.get(flag, optional.get(flag))
        if value is not None:
            argv.append(draw(value))
    return argv


@st.composite
def hypergraph_texts(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 12))
    combos = list(itertools.combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(combos), max_size=30)) if combos else []
    return f"{k} {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def small_numbers_only(data: bytes) -> bool:
    return all(int(token) <= 12 for token in re.findall(rb"\d+", data))


FILE_BYTES = st.one_of(
    hypergraph_texts().map(str.encode),
    st.lists(RATIONAL, max_size=12).map(lambda lines: "\n".join(lines).encode()),
    st.lists(st.lists(INT, max_size=4).map(" ".join), max_size=8).map(
        lambda lines: "\n".join(lines).encode()
    ),
    st.binary(max_size=40).filter(small_numbers_only),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=argvs(), hg=FILE_BYTES, wt=FILE_BYTES)
def test_fuzzed_argv_and_files_never_end_in_a_traceback(capsys, tmp_path, monkeypatch, argv, hg, wt):
    # A fresh directory per example: every file the CLI reads or writes is new.
    with tempfile.TemporaryDirectory(dir=tmp_path) as work, monkeypatch.context() as m:
        m.chdir(work)
        pathlib.Path("input.hg").write_bytes(hg)
        pathlib.Path("input.wt").write_bytes(wt)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == 1:
        assert set(json.loads(out)) == {"command", "error"}
