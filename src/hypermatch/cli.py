"""Command-line interface: one dispatcher over every module.

All results print to standard out as JSON (rationals as "p/q" strings,
integers as numbers) unless --csv selects a tabular view.  Stochastic
commands default to seed 0 and always echo the seed they used.  Exit
codes: 0 success, 1 computational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .extremal import (
    CONTEXTS,
    construct_clique_plus_isolated,
    construct_h0,
    construct_h1,
    conjecture_values,
)
from .hypercore import (
    Hypergraph,
    VertexWeighting,
    format_rational,
    parse_rational,
    read_hypergraph,
    read_weighting,
    write_hypergraph,
)
from .optmatch import fractional_optimum
from .samuels import (
    SamuelsQuery,
    TwoPointFamily,
    boundary_profile,
    boundary_scan,
    monte_carlo_small_sum,
    q_min,
    q_t,
)
from .storage import Allocation, candidate_allocations, optimize_grid
from .storage import phi as storage_phi
from .randcons import (
    RoundOnePlan,
    build_sparse_subgraph,
    preset_scale_parameters,
    sample_rounds,
)
from .thresholds import ThresholdQuery, brute_force_threshold, reduce_fractional_instance

__all__ = ["main"]


def _jsonable(value):
    """Recursively convert payload values to JSON-ready structures."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Hypergraph):
        return {
            "k": value.k,
            "n": value.n,
            "num_edges": value.num_edges,
            "edges": [list(e) for e in value.edges],
        }
    if isinstance(value, VertexWeighting):
        return [_jsonable(w) for w in value.weights]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(args, command: str, payload: dict, seed: int | None = None) -> None:
    result = {"command": command}
    if seed is not None:
        result["seed"] = seed
    result["elapsed_seconds"] = round(time.perf_counter() - args._started, 6)
    result["payload"] = _jsonable(payload)
    if getattr(args, "csv", False):
        _emit_csv(result["payload"])
    else:
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _emit_csv(payload: dict) -> None:
    """Tabular view: the payload's rows if present, else key/value lines."""
    writer = csv.writer(sys.stdout)
    rows = payload.get("rows")
    if rows is not None:
        header = payload.get("columns")
        if header:
            writer.writerow(header)
        writer.writerows(rows)
        return
    for key, value in payload.items():
        if isinstance(value, (list, dict)):
            value = json.dumps(value)
        writer.writerow([key, value])


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> None:
    h = read_hypergraph(args.file)
    report = fractional_optimum(h)
    matching = report.fractional_matching
    _emit(
        args,
        "solve",
        {
            "k": h.k,
            "n": h.n,
            "num_edges": h.num_edges,
            "nu": report.nu,
            "nu_star": report.nu_star,
            "tau_star": report.tau_star,
            "tau": report.tau,
            "matching": [list(e) for e in report.matching_certificate],
            "fractional_matching": {
                "edges": [list(e) for e, _ in matching.support()],
                "weights": [w for _, w in matching.support()],
            },
            "fractional_cover": report.fractional_cover,
            "cover": list(report.cover_certificate),
        },
    )


def _cmd_construct(args) -> None:
    if args.family == "h0":
        h = construct_h0(args.k, args.n)
    elif args.family == "h1":
        h = construct_h1(args.k, args.n, args.s)
    else:
        h = construct_clique_plus_isolated(args.k, args.n, args.s)
    out = args.out
    if out is None:
        suffix = "" if args.family == "h0" else f"_s{args.s}"
        out = f"{args.family}_k{args.k}_n{args.n}{suffix}.hg"
    write_hypergraph(h, out)
    _emit(args, "construct", {"family": args.family, "file": out, "hypergraph": h})


def _cmd_conjecture(args) -> None:
    value = conjecture_values(
        args.context,
        k=args.k,
        n=args.n,
        s=None if args.s is None else parse_rational(args.s),
        d=args.d,
        l=args.l,
        m=args.m,
    )
    payload = {"context": value.context, "parameters": value.parameters}
    if value.coefficient is not None:
        payload["coefficient"] = value.coefficient
        payload["coefficient_float"] = float(value.coefficient)
    if value.count is not None:
        payload["count"] = value.count
    _emit(args, "conjecture", payload)


def _samuels_query(args) -> SamuelsQuery:
    if args.mus is not None:
        mus = tuple(parse_rational(tok) for tok in args.mus.split(","))
        return SamuelsQuery(mus)
    return SamuelsQuery.uniform(args.l, parse_rational(args.x))


def _cmd_samuels(args) -> None:
    if args.action == "qt":
        query = _samuels_query(args)
        value = q_t(query, args.t)
        _emit(
            args,
            "samuels qt",
            {"t": args.t, "q_t": value, "q_t_float": float(value)},
        )
    elif args.action == "qmin":
        query = _samuels_query(args)
        value, t = q_min(query)
        _emit(
            args,
            "samuels qmin",
            {"q_min": value, "q_min_float": float(value), "t_min": t},
        )
    elif args.action == "scan":
        if getattr(args, "csv", False):
            rows = boundary_profile(args.l)
            _emit(
                args,
                "samuels scan",
                {
                    "columns": ["x", "q_0", "min_q_rest"],
                    "rows": [list(r) for r in rows],
                },
            )
        else:
            _emit(
                args,
                "samuels scan",
                {"l": args.l, "x_star": boundary_scan(args.l)},
            )
    else:  # mc
        query = _samuels_query(args)
        family = TwoPointFamily(query, args.t)
        estimate = monte_carlo_small_sum(family, args.samples, seed=args.seed)
        exact = q_t(query, args.t)
        _emit(
            args,
            "samuels mc",
            {
                "t": args.t,
                "samples": args.samples,
                "estimate": estimate,
                "exact": exact,
                "exact_float": float(exact),
                "absolute_error": abs(estimate - float(exact)),
            },
            seed=args.seed,
        )


def _cmd_threshold(args) -> None:
    query = ThresholdQuery(args.k, args.n, args.d, parse_rational(args.s), args.mode)
    result = brute_force_threshold(query)
    out = args.witness_out
    if out is None:
        out = (
            f"witness_{args.mode}_k{args.k}_n{args.n}_d{args.d}"
            f"_s{args.s.replace('/', 'over')}.hg"
        )
    write_hypergraph(result.witness, out)
    _emit(
        args,
        "threshold",
        {
            "mode": args.mode,
            "k": args.k,
            "n": args.n,
            "d": args.d,
            "s": query.s,
            "value": result.value,
            "witness_file": out,
            "witness": result.witness,
            "lp_calls": result.lp_calls,
        },
    )


def _cmd_reduce(args) -> None:
    weights = read_weighting(args.weights)
    reduction = reduce_fractional_instance(weights, args.k, args.d)
    _emit(
        args,
        "reduce",
        {
            "k": reduction.k,
            "d": reduction.d,
            "l_set": list(reduction.l_set),
            "averaged": reduction.averaged,
            "w_prime": reduction.w_prime,
            "hypergraph": reduction.hypergraph,
            "link": reduction.link_graph,
            "link_cover": reduction.link_cover,
        },
    )


def _allocation_payload(report) -> dict:
    return {
        "phi": report.phi,
        "success_probability": report.success_probability,
        "x": report.allocation.x,
        "r": report.allocation.r,
        "T": report.allocation.budget,
    }


def _cmd_storage(args) -> None:
    if args.action == "phi":
        x = read_weighting(args.alloc)
        budget = args.T
        if budget is None:
            budget = math.ceil(x.total())
        report = storage_phi(Allocation(x, args.r, budget))
        _emit(args, "storage phi", _allocation_payload(report))
    elif args.action == "candidates":
        reports = candidate_allocations(args.n, args.r, args.T)
        _emit(
            args,
            "storage candidates",
            {"candidates": [_allocation_payload(rep) for rep in reports]},
        )
    else:  # optimize
        report = optimize_grid(args.n, args.r, args.T, q=args.q)
        _emit(args, "storage optimize", _allocation_payload(report))


def _cmd_randcons(args) -> None:
    base = read_hypergraph(args.base)
    p, rounds = args.p, args.rounds
    if args.paper_exponents:
        p, rounds = preset_scale_parameters(base.n)
    plan = RoundOnePlan(base, rounds=rounds, p=p, d=args.d, seed=args.seed)
    outcome = sample_rounds(plan, with_matchings=args.build)
    payload = {
        "n": base.n,
        "k": base.k,
        "p": float(p),
        "p_exact": Fraction(p),
        "rounds": rounds,
        "subset_sizes": [len(r) for r in outcome.subsets],
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "violations": c.violations,
                "witnesses": c.witnesses,
            }
            for c in outcome.checks
        ],
    }
    if args.build:
        sparse = build_sparse_subgraph(outcome, seed=args.build_seed)
        degree_hist = collections.Counter(sparse.degrees)
        codegree_hist = collections.Counter(sparse.codegrees.values())
        payload.update(
            {
                "build_seed": args.build_seed,
                "skipped_rounds": list(sparse.skipped_rounds),
                "num_distinct_edges": sparse.hypergraph.num_edges,
                "max_degree": max(sparse.degrees, default=0),
                "max_codegree": sparse.max_codegree(),
                "degree_histogram": {str(k): v for k, v in sorted(degree_hist.items())},
                "codegree_histogram": {
                    str(k): v for k, v in sorted(codegree_hist.items())
                },
                "columns": ["degree", "vertices"],
                "rows": sorted(degree_hist.items()),
            }
        )
    else:
        payload["columns"] = ["subset_size", "rounds"]
        payload["rows"] = sorted(collections.Counter(payload["subset_sizes"]).items())
    _emit(args, "randcons", payload, seed=args.seed)


def _criteria(text: str) -> list[int]:
    """Sorted distinct criterion numbers from a comma-separated list."""
    from . import acceptance

    count = len(acceptance.CRITERIA)
    try:
        numbers = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None
    if not all(1 <= number <= count for number in numbers):
        raise argparse.ArgumentTypeError(f"criterion numbers are 1..{count}, got {text!r}")
    return numbers


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all(args.criteria)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(
            f"criterion {r.number:>2}  {r.name:<{width}}  {status}  "
            f"({r.elapsed_seconds:.1f}s)  {r.detail}"
        )
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="Exact matching optima, degree thresholds, extremal "
        "constructions, small-sum probabilities, storage allocations, and "
        "randomized sparsification for uniform hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="exact matching/cover optima of a .hg file")
    p.add_argument("file", help="hypergraph in .hg format")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("construct", help="write an extremal family as .hg")
    p.add_argument("family", choices=["h0", "h1", "clique"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--out", help="output path (default: derived name in cwd)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("conjecture", help="evaluate a named threshold formula")
    p.add_argument("context", choices=list(CONTEXTS))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s", help="rational, e.g. 3/2")
    p.add_argument("--d", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("samuels", help="small-sum probabilities of two-point families")
    p.add_argument("action", choices=["qt", "qmin", "scan", "mc"])
    p.add_argument("--mus", help="comma-separated rational means, e.g. 1/10,1/5,3/10")
    p.add_argument("--l", type=int, help="number of uniform coordinates")
    p.add_argument("--x", help="uniform mean (rational)")
    p.add_argument("--t", type=int, default=0, help="family index (qt/mc)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true", help="scan: emit the full profile")
    p.set_defaults(handler=_cmd_samuels)

    p = sub.add_parser("threshold", help="brute-force a degree threshold")
    p.add_argument("--mode", choices=["integral", "fractional"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", required=True, help="target size (rational)")
    p.add_argument("--witness-out", help="witness path (default: derived name)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("reduce", help="strip the weight floor from a .wt instance")
    p.add_argument("--weights", required=True, help="vertex weights in .wt format")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("storage", help="recovery counts of storage allocations")
    p.add_argument("action", choices=["phi", "candidates", "optimize"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--T", type=int, help="integer budget")
    p.add_argument("--q", type=int, help="grid denominator (default 2r)")
    p.add_argument("--alloc", help="allocation in .wt format (phi)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_storage)

    p = sub.add_parser("randcons", help="two-round randomized sparsification")
    p.add_argument("--base", required=True, help="base hypergraph (.hg)")
    p.add_argument("--p", type=parse_rational, help="rational, e.g. 1/3 or 0.05")
    p.add_argument("--rounds", type=int)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--paper-exponents",
        action="store_true",
        default=None,  # absent is None, like the flags it stands in for
        help="use p = n^-0.9 and rounds = round(n^1.1)",
    )
    p.add_argument("--build", action="store_true", help="run round two as well")
    p.add_argument("--build-seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_randcons)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--criteria", type=_criteria, help="comma-separated subset, e.g. 1,2,8")
    p.set_defaults(handler=_cmd_selftest)

    return parser


# Flags that argparse leaves optional but these actions cannot run without.
_REQUIRED = {
    ("construct", "h1"): ("s",),
    ("construct", "clique"): ("s",),
    ("samuels", "scan"): ("l",),
    ("storage", "phi"): ("alloc",),
    ("storage", "candidates"): ("n", "T"),
    ("storage", "optimize"): ("n", "T"),
}

# Flags that argparse accepts for the subcommand but this action ignores.
_UNUSED = {("construct", "h0"): ("s",)}

# Actions that need one of two groups of flags, each group in full.
_SAMUELS_QUERY = (("mus",), ("l", "x"))
_EITHER = {
    ("samuels", "qt"): _SAMUELS_QUERY,
    ("samuels", "qmin"): _SAMUELS_QUERY,
    ("samuels", "mc"): _SAMUELS_QUERY,
    ("randcons", None): (("p", "rounds"), ("paper_exponents",)),
}


def _flags(names) -> str:
    return " and ".join(f"--{name.replace('_', '-')}" for name in names)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    action = (args.subcommand, getattr(args, "action", getattr(args, "family", None)))
    command = " ".join(filter(None, action))
    missing = [f"--{name}" for name in _REQUIRED.get(action, ()) if getattr(args, name) is None]
    if missing:
        parser.error(f"{command} requires {', '.join(missing)}")
    unused = [f"--{name}" for name in _UNUSED.get(action, ()) if getattr(args, name) is not None]
    if unused:
        parser.error(f"{command} does not take {', '.join(unused)}")
    groups = _EITHER.get(action)
    if groups and not any(all(getattr(args, n) is not None for n in group) for group in groups):
        parser.error(f"{command} requires {_flags(groups[0])}, or {_flags(groups[1])}")
    args._started = time.perf_counter()
    try:
        outcome = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point its descriptor at devnull,
        # so that the interpreter's last flush of the buffer cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        json.dump(
            {"command": args.subcommand, "error": str(exc)}, sys.stdout
        )
        sys.stdout.write("\n")
        return 1
    return int(outcome or 0)


if __name__ == "__main__":
    sys.exit(main())
