"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install()`` wraps every public function of each layer module (the
names in its ``__all__``) at every module attribute of the package that
binds it: ``solve_unit_packing`` is bound in ``simplex``, ``optmatch`` and
``thresholds``, so all three bindings are wrapped and every caller is seen.
The edge-weighting constructor is wrapped on its class.  A span records
(name, start, end, parent, answer id); spans stay in memory and are written
out once, at the end of the run.  Two private helpers are wrapped to count
work without spans: the threshold scan (``thresholds._scan_range``, counting
the masks it is handed) and the grid's phi count (``storage._phi_on_grid``,
one call per grid point visited).  Work that happens inside worker
processes of a sharded call is not visible; its time stays in the calling
span and its masks and grid points are not counted.

``layer_metrics`` turns the spans into the per-layer metrics.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any

LAYERS = ("hypercore", "simplex", "optmatch", "extremal", "thresholds", "storage", "samuels", "randcons")

# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "hypercore.edge_weighting_s": "s",
    "hypercore.min_d_degree_s": "s",
    "simplex.calls": "count",
    "simplex.s": "s",
    "simplex.pivots": "count",
    "simplex.columns": "count",
    "simplex.ms_per_pivot": "ms",
    "optmatch.fractional_self_s": "s",
    "optmatch.matching_s": "s",
    "optmatch.matching_calls": "count",
    "optmatch.cover_s": "s",
    "optmatch.cover_calls": "count",
    "extremal.s": "s",
    "thresholds.queries": "count",
    "thresholds.memo_hits": "count",
    "thresholds.masks": "count",
    "thresholds.masks_per_s": "1/s",
    "thresholds.scan_self_s": "s",
    "thresholds.lp_calls": "count",
    "thresholds.lp_s": "s",
    "thresholds.verify_s": "s",
    "storage.grid_points": "count",
    "storage.grid_points_per_s": "1/s",
    "storage.grid_s": "s",
    "storage.phi_calls": "count",
    "storage.sandwich_s": "s",
    "samuels.q_min_calls": "count",
    "samuels.q_min_s": "s",
    "samuels.mc_samples": "count",
    "samuels.mc_samples_per_s": "1/s",
    "samuels.boundary_scan_s": "s",
    "randcons.round_one_s": "s",
    "randcons.round_lp_self_s": "s",
    "randcons.rounds": "count",
    "randcons.skipped_rounds": "count",
    "randcons.build_s": "s",
    "randcons.builds_per_s": "1/s",
    "trace.spans": "count",
    "trace.wall_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.answers: list[int] = []
        self.notes: dict[int, dict[str, Any]] = {}
        self.answer = -1
        self.active = True  # off while the benchmark checks an answer
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._seen_results: dict[int, Any] = {}
        self.masks = 0
        self.grid_points = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.answers.append(self.answer)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes[index] = note(self, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever the package binds them."""
        modules = [m for n, m in sys.modules.items() if n == "hypermatch" or n.startswith("hypermatch.")]
        targets: dict[int, str] = {}
        for layer in LAYERS:
            module = sys.modules[f"hypermatch.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = f"{layer}.{obj.__name__}"
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = targets.get(id(obj))
                if name is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, self._wrap(name, obj))
        weighting = sys.modules["hypermatch.hypercore"].EdgeWeighting
        self._undo.append((weighting, "__init__", weighting.__init__))
        weighting.__init__ = self._wrap("hypercore.EdgeWeighting", weighting.__init__)
        self._install_counters()

    def _install_counters(self) -> None:
        thresholds = sys.modules["hypermatch.thresholds"]
        storage = sys.modules["hypermatch.storage"]
        scan, phi_on_grid = thresholds._scan_range, storage._phi_on_grid

        @functools.wraps(scan)
        def counted_scan(*args, **kwargs):
            if self.active:
                bound = _arguments(scan, args, kwargs)
                self.masks += bound["stop"] - bound["start"]
            return scan(*args, **kwargs)

        @functools.wraps(phi_on_grid)
        def counted_phi_on_grid(*args, **kwargs):
            if self.active:
                self.grid_points += 1
            return phi_on_grid(*args, **kwargs)

        self._undo.append((thresholds, "_scan_range", scan))
        thresholds._scan_range = counted_scan
        self._undo.append((storage, "_phi_on_grid", phi_on_grid))
        storage._phi_on_grid = counted_phi_on_grid

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                record = {
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "answer": self.answers[i],
                }
                if i in self.notes:
                    record.update(self.notes[i])
                fh.write(json.dumps(record) + "\n")

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += dur[i]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            self_time[name] += dur[i] - child_time[i]
            calls[name] += 1

        def under(parent_name: str, child_prefix: str) -> tuple[int, float]:
            count, seconds = 0, 0.0
            for i, parent in enumerate(self.parents):
                if parent >= 0 and self.names[parent] == parent_name and self.names[i].startswith(child_prefix):
                    count += 1
                    seconds += dur[i]
            return count, seconds

        def note_sum(name: str, key: str) -> int:
            return sum(self.notes[i][key] for i, n in enumerate(self.names) if n == name and i in self.notes)

        pivots = note_sum("simplex.solve_unit_packing", "pivots")
        simplex_s = total["simplex.solve_unit_packing"]
        bft = "thresholds.brute_force_threshold"
        cold = [i for i, n in enumerate(self.names) if n == bft and i in self.notes and not self.notes[i]["memo_hit"]]
        cold_bft_s = sum(dur[i] for i in cold)
        lp_calls, lp_s = under(bft, "simplex.")
        children_s = sum(dur[i] for i, p in enumerate(self.parents) if p >= 0 and self.names[p] == bft)
        samples = note_sum("samuels.monte_carlo_small_sum", "samples")
        extremal_s = sum(
            dur[i]
            for i, n in enumerate(self.names)
            if n.startswith("extremal.") and not (self.parents[i] >= 0 and self.names[self.parents[i]].startswith("extremal."))
        )
        builds = calls["randcons.build_sparse_subgraph"]
        return {
            "hypercore.edge_weighting_s": total["hypercore.EdgeWeighting"],
            "hypercore.min_d_degree_s": total["hypercore.min_d_degree"],
            "simplex.calls": calls["simplex.solve_unit_packing"],
            "simplex.s": simplex_s,
            "simplex.pivots": pivots,
            "simplex.columns": note_sum("simplex.solve_unit_packing", "columns"),
            "simplex.ms_per_pivot": 1000 * simplex_s / pivots if pivots else 0.0,
            "optmatch.fractional_self_s": self_time["optmatch.fractional_matching"],
            "optmatch.matching_s": total["optmatch.maximum_matching"],
            "optmatch.matching_calls": calls["optmatch.maximum_matching"],
            "optmatch.cover_s": total["optmatch.minimum_cover"],
            "optmatch.cover_calls": calls["optmatch.minimum_cover"],
            "extremal.s": extremal_s,
            "thresholds.queries": calls[bft],
            "thresholds.memo_hits": note_sum(bft, "memo_hit"),
            "thresholds.masks": self.masks,
            "thresholds.masks_per_s": self.masks / cold_bft_s if cold_bft_s else 0.0,
            "thresholds.scan_self_s": self_time[bft],
            "thresholds.lp_calls": lp_calls,
            "thresholds.lp_s": lp_s,
            "thresholds.verify_s": children_s - lp_s,
            "storage.grid_points": self.grid_points,
            "storage.grid_points_per_s": self.grid_points / total["storage.optimize_grid"] if self.grid_points else 0.0,
            "storage.grid_s": total["storage.optimize_grid"],
            "storage.phi_calls": calls["storage.phi"],
            "storage.sandwich_s": total["storage.sandwich"],
            "samuels.q_min_calls": calls["samuels.q_min"],
            "samuels.q_min_s": total["samuels.q_min"],
            "samuels.mc_samples": samples,
            "samuels.mc_samples_per_s": samples / total["samuels.monte_carlo_small_sum"] if samples else 0.0,
            "samuels.boundary_scan_s": total["samuels.boundary_scan"],
            "randcons.round_one_s": self_time["randcons.sample_rounds"],
            "randcons.round_lp_self_s": self_time["randcons.compute_round_matchings"],
            "randcons.rounds": note_sum("randcons.sample_rounds", "rounds"),
            "randcons.skipped_rounds": note_sum("randcons.sample_rounds", "skipped"),
            "randcons.build_s": total["randcons.build_sparse_subgraph"],
            "randcons.builds_per_s": builds / total["randcons.build_sparse_subgraph"] if builds else 0.0,
            "trace.spans": len(self.names),
        }


def _arguments(fn, args, kwargs) -> dict[str, Any]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _memo_note(tracer: Tracer, fn, args, kwargs, result) -> dict[str, Any]:
    # A memoised answer is the very object returned before; keeping every
    # result alive keeps ids unique, so identity tells a hit from a miss.
    hit = id(result) in tracer._seen_results
    tracer._seen_results[id(result)] = result
    return {"memo_hit": hit}


_NOTES = {
    "simplex.solve_unit_packing": lambda t, fn, a, kw, r: {
        "columns": len(_arguments(fn, a, kw)["columns"]),
        "pivots": r.pivots,
    },
    "thresholds.brute_force_threshold": _memo_note,
    "samuels.monte_carlo_small_sum": lambda t, fn, a, kw, r: {
        "samples": _arguments(fn, a, kw)["samples"]
    },
    "randcons.sample_rounds": lambda t, fn, a, kw, r: {
        "rounds": len(r.subsets),
        "skipped": len(r.skipped_rounds),
    },
}
