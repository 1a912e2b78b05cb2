"""End-to-end CLI checks: envelopes, payloads, files, exit codes."""

import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hypermatch
from hypermatch.cli import main
from hypermatch.extremal import CONTEXTS, construct_h1
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
        capsys.readouterr()
        for criteria in ("x", ",", "", "0", "11", "2,11"):
            with pytest.raises(SystemExit) as info:
                main(["selftest", "--criteria", criteria])
            assert info.value.code == 2
            assert "--criteria" in capsys.readouterr().err

    @pytest.mark.parametrize("h", [Hypergraph.complete(3, 4), construct_h1(3, 20, 3)])
    def test_closed_stdout_exits_one_in_silence(self, tmp_path, h):
        # The read end is closed before the process starts, so every write
        # to stdout fails.  K_4^3's envelope fits the buffer and fails on
        # main's flush; h1 on 20 vertices fails inside json.dump.
        path = tmp_path / "h.hg"
        write_hypergraph(h, str(path))
        read, write = os.pipe()
        os.close(read)
        # The child imports the package from wherever this process did.
        where = str(pathlib.Path(hypermatch.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": where}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hypermatch.cli", "solve", str(path)],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")


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

    def test_solve_on_twenty_vertices_pins_the_cover(self, capsys, tmp_path):
        # n = 20 puts the cover DP's largest table, 2^20 bits, through solve.
        out = tmp_path / "h1.hg"
        code, _ = run_json(
            capsys,
            "construct", "h1", "--k", "3", "--n", "20", "--s", "3",
            "--out", str(out),
        )
        assert code == 0
        code, doc = run_json(capsys, "solve", str(out))
        assert code == 0
        assert doc["payload"]["tau"] == 2
        assert doc["payload"]["cover"] == [0, 1]

    def test_default_name_carries_s_only_for_families_that_take_it(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for family, s, name in (
            ("h0", (), "h0_k2_n4.hg"),
            ("h1", ("--s", "2"), "h1_k2_n4_s2.hg"),
            ("clique", ("--s", "2"), "clique_k2_n4_s2.hg"),
        ):
            code, doc = run_json(capsys, "construct", family, "--k", "2", "--n", "4", *s)
            assert code == 0
            assert doc["payload"]["file"] == name
            assert (tmp_path / name).exists()

    def test_h0_refuses_s(self, capsys, tmp_path, monkeypatch):
        # h0 is the parity family and has no s: a given --s used to be
        # ignored, and the parity family written all the same.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["construct", "h0", "--k", "2", "--n", "4", "--s", "3"])
        assert info.value.code == 2
        assert "construct h0 does not take --s" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_fractional_count_needs_l_at_most_m(self, capsys):
        # A 3-graph on 2 vertices has no edges to count.
        code, doc = run_json(
            capsys, "conjecture", "Conj1.9", "--l", "3", "--m", "2", "--s", "1/2"
        )
        assert code == 1
        assert doc["error"] == "need 1 <= l <= m, got l=3, m=2"


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

    @pytest.mark.parametrize(
        "args",
        [("--l", "1"), ("--l", "1000"), ("--l", "2000000")],
    )
    def test_scan_bad_input_is_a_computational_error(self, capsys, args):
        code, doc = run_json(capsys, "samuels", "scan", *args)
        assert code == 1
        assert set(doc) == {"command", "error"}

    @pytest.mark.parametrize("view", [(), ("--csv",)], ids=["json", "csv"])
    def test_scan_refuses_an_empty_grid_in_both_views(self, capsys, view):
        code, doc = run_json(capsys, "samuels", "scan", "--l", "1000", *view)
        assert code == 1
        assert "the 0.001 grid has no point below 1/l for l=1000" in doc["error"]


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
        assert set(doc["payload"]) == {
            "mode", "k", "n", "d", "s", "value", "witness_file", "witness", "lp_calls",
        }
        assert doc["payload"]["lp_calls"] == 14

    def test_budget_option_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main([
                "threshold", "--mode", "integral",
                "--k", "3", "--n", "6", "--d", "1", "--s", "2",
                "--budget", "100",
                "--witness-out", str(tmp_path / "w.hg"),
            ])
        assert info.value.code == 2
        assert "--budget" in capsys.readouterr().err

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

    def test_floor_at_one_over_k_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "w.wt"
        write_weighting(VertexWeighting((Fraction(1, 2),) * 4), str(path))
        code, doc = run_json(
            capsys, "reduce", "--weights", str(path), "--k", "3", "--d", "1"
        )
        assert code == 1
        assert doc["error"] == "weight floor 1/2 reaches 1/k for k=3; remap undefined"


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

    def test_size_on_the_band_edge_passes(self, capsys, tmp_path):
        # n * p = 9 on 18 vertices: the subset of size 6 lies on the lower
        # edge of the band [6, 12], and only the size 14 falls out.
        base = tmp_path / "base.hg"
        write_hypergraph(Hypergraph.complete(2, 18), str(base))
        code, doc = run_json(
            capsys, "randcons", "--base", str(base), "--p", "0.5", "--rounds", "3", "--seed", "7"
        )
        assert code == 0
        assert doc["payload"]["subset_sizes"] == [6, 14, 10]
        (sizes,) = [c for c in doc["payload"]["checks"] if c["name"] == "subset_sizes"]
        assert sizes["witnesses"] == [[1, 14]]

    @pytest.mark.parametrize(
        "literal, number, exact", [("1/3", 1 / 3, "1/3"), ("0.05", 0.05, "1/20"), ("0.5", 0.5, "1/2")]
    )
    def test_rate_is_read_exactly(self, capsys, tmp_path, literal, number, exact):
        base = tmp_path / "base.hg"
        write_hypergraph(Hypergraph.complete(3, 12), str(base))
        code, doc = run_json(capsys, "randcons", "--base", str(base), "--p", literal, "--rounds", "2")
        assert code == 0
        assert doc["payload"]["p"] == number
        assert doc["payload"]["p_exact"] == exact

    def test_rate_that_is_not_a_rational_is_a_usage_error(self, capsys, tmp_path):
        base = tmp_path / "base.hg"
        write_hypergraph(Hypergraph.complete(3, 6), str(base))
        with pytest.raises(SystemExit) as info:
            main(["randcons", "--base", str(base), "--p", "half", "--rounds", "2"])
        assert info.value.code == 2

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

    def test_failed_certificate_check_is_a_fail_line(self, capsys, monkeypatch):
        def refuse(h, matching, cover):
            raise AssertionError("cover certificate misses edge (0, 1)")

        monkeypatch.setattr(hypermatch.optmatch, "_verify_integral", refuse)
        code, out = run(capsys, "selftest", "--criteria", "1")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 2
        assert "duality_chain" in lines[0] and "FAIL" in lines[0]
        assert lines[0].endswith("certificate check failed: cover certificate misses edge (0, 1)")
        assert lines[-1].strip() == "0/1 criteria passed"


@pytest.mark.parametrize(
    "args",
    [
        ("threshold", "--mode", "integral", "--k", "2", "--n", "4", "--d", "0", "--s", "1", "--jobs", "2"),
        ("storage", "optimize", "--n", "4", "--r", "2", "--T", "1", "--jobs", "2"),
        ("selftest", "--criteria", "2", "--jobs", "2"),
        ("randcons", "--base", "X", "--p", "0.5", "--rounds", "2", "--jobs", "2"),
        ("solve", "X", "--jobs", "2"),
        ("construct", "h0", "--k", "2", "--n", "4", "--jobs", "2"),
        ("conjecture", "Eq3", "--k", "2", "--n", "4", "--s", "1", "--jobs", "2"),
        ("samuels", "qmin", "--l", "2", "--x", "1/4", "--jobs", "2"),
        ("reduce", "--weights", "X", "--k", "2", "--d", "0", "--jobs", "2"),
        ("samuels", "mc", "--shards", "2"),
        ("samuels", "scan", "--l", "2", "--tolerance", "1e-3"),
        ("randcons", "--base", "X", "--vertex-tolerance", "1/2"),
        ("randcons", "--base", "X", "--pair-cap", "3"),
        ("randcons", "--base", "X", "--size-tolerance", "1/2"),
        ("randcons", "--base", "X", "--degree-fraction", "1/3"),
    ],
)
def test_no_subcommand_takes_jobs(capsys, args):
    # Nor does samuels take --shards or --tolerance, nor randcons its check
    # bands: each removed flag, second to last, is a usage error named on
    # stderr.
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2
    assert args[-2] in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flags",
    [
        (("storage", "optimize", "--r", "2"), "--n, --T"),
        (("storage", "candidates", "--r", "2", "--T", "1"), "--n"),
        (("storage", "phi", "--r", "2"), "--alloc"),
        (("samuels", "scan"), "--l"),
        (("construct", "h1", "--k", "3", "--n", "6"), "--s"),
        (("construct", "clique", "--k", "3", "--n", "6"), "--s"),
    ],
)
def test_missing_required_flag_is_a_usage_error(capsys, args, flags):
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2
    assert f"requires {flags}" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["qt", "qmin", "mc"])
@pytest.mark.parametrize("given", [(), ("--l", "3"), ("--x", "1/5")])
def test_samuels_without_a_query_is_a_usage_error(capsys, action, given):
    with pytest.raises(SystemExit) as info:
        main(["samuels", action, *given])
    assert info.value.code == 2
    assert f"samuels {action} requires --mus, or --l and --x" in capsys.readouterr().err


@pytest.mark.parametrize("given", [(), ("--p", "0.5"), ("--rounds", "3")])
def test_randcons_without_p_and_rounds_is_a_usage_error(capsys, tmp_path, given):
    base = tmp_path / "base.hg"
    write_hypergraph(Hypergraph.complete(3, 6), str(base))
    with pytest.raises(SystemExit) as info:
        main(["randcons", "--base", str(base), *given])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "randcons requires --p and --rounds, or --paper-exponents" in err


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
            "--l": INT, "--x": RATIONAL, "--t": INT,
            "--samples": INT, "--seed": INT, "--csv": None,
        },
    ),
    "threshold": (
        [[]],
        {
            "--mode": st.sampled_from(["integral", "fractional"]),
            "--k": INT, "--n": INT, "--d": INT, "--s": RATIONAL,
        },
        {"--csv": None},
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
            "--paper-exponents": None, "--build": None, "--build-seed": INT, "--csv": None,
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
