"""Spans and counters recorded around the package's layer functions.

Nothing under ``src/`` is instrumented.  Instead, :func:`patched` replaces a
layer function at the binding its caller looks it up through (for example
``repbublik.recommend.exact_rwcc``, which the recommenders call, or
``repbublik.harness.br_table``, which the sweep's evaluation calls) and
restores every binding on exit.  Spans are kept in memory and written as
JSONL once the run ends; the parent of a span is the span open in the
current context when it started.
"""
from __future__ import annotations

import contextlib
import contextvars
import json
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import repbublik.bias
import repbublik.cli
import repbublik.graph
import repbublik.harness
import repbublik.montecarlo
import repbublik.recommend
from repbublik.montecarlo import br_sample_size, rwcc_sample_size

ALGORITHM_FNS = (
    "repbublik", "repbublik_plus", "baseline_pure_random", "baseline_rcn",
    "baseline_rwcn",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span store plus named counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        # Time of untraced leaf calls (timed, but not stored as spans),
        # keyed by the span they ran under, so self times stay exact.
        self.leaf_time: dict[int, float] = defaultdict(float)
        # Distinct (graph content, v, pool) requests seen by exact_rwcc.
        self.rwcc_requests: set[tuple[int, int, int]] = set()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._graph_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._current.get())
        self.ends.append(0.0)
        token = self._current.set(idx)
        self.starts.append(perf_counter())
        return idx, token

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.ends[idx] = perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx, token = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx, token)

    def wrap(
        self, fn: Callable, name: str, work: Callable | None = None,
        done: Callable | None = None,
    ) -> Callable:
        """Record a span named ``name`` per call.

        ``work(args, kwargs)`` adds the counts computed from the arguments;
        ``done(result)`` adds the counts read off the result.
        """

        def traced(*args, **kwargs):
            if work is not None:
                work(args, kwargs)
            idx, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, token)
            if done is not None:
                done(result)
            return result

        return traced

    def wrap_leaf(self, fn: Callable, name: str) -> Callable:
        """Count and time calls without a span record (for hot leaf functions)."""
        counts, leaf_s = self.counts, self.leaf_s
        leaf_time, current = self.leaf_time, self._current
        calls = name + ".calls"

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                counts[calls] += 1
                leaf_s[name] += elapsed
                leaf_time[current.get()] += elapsed

        return timed

    def wrap_count(self, fn: Callable, name: str) -> Callable:
        counts, calls = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ work counts

    def _graph_key(self, graph) -> int:
        key = self._graph_keys.get(graph)
        if key is None:
            key = hash((graph.indptr.tobytes(), graph.targets.tobytes(),
                        graph.weights.tobytes()))
            self._graph_keys[graph] = key
        return key

    def _exact_br_work(self, args, kwargs) -> None:
        graph, t = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "t")
        colors = int(graph.color_mask("R").any()) + int(graph.color_mask("B").any())
        self.counts["exact.matvecs"] += colors * (t - 1)

    def _exact_rwcc_work(self, args, kwargs) -> None:
        graph = _arg(args, kwargs, 0, "graph")
        v = _arg(args, kwargs, 1, "v")
        sources = _arg(args, kwargs, 2, "sources")
        t_prime = _arg(args, kwargs, 3, "t_prime")
        self.counts["exact.matvecs"] += max(t_prime - 2, 0)
        pool = np.asarray(sources, dtype=np.int64).tobytes()
        self.rwcc_requests.add((self._graph_key(graph), int(v), hash(pool)))

    def _estimate_br_work(self, args, kwargs) -> None:
        graph, t = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "t")
        r = _arg(args, kwargs, 5, "walks_per_node")
        if r is None:
            r = br_sample_size(graph.n, t, _arg(args, kwargs, 2, "epsilon"),
                               _arg(args, kwargs, 3, "delta"))
        self.counts["montecarlo.walks"] += graph.n * r

    def _estimate_rwcc_work(self, args, kwargs) -> None:
        z = _arg(args, kwargs, 8, "num_sources")
        if z is None:
            z = rwcc_sample_size(_arg(args, kwargs, 3, "t_prime"),
                                 _arg(args, kwargs, 4, "epsilon"),
                                 _arg(args, kwargs, 5, "delta"))
        self.counts["montecarlo.walks"] += z * _arg(args, kwargs, 6, "kappa", 4)

    def _sweep_done(self, records) -> None:
        self.counts["harness.cells"] += len(records)
        self.counts["harness.cells_failed"] += sum(r.error is not None for r in records)

    # -------------------------------------------------------------- bindings

    def bindings(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, replacement) for every traced call site."""
        g = repbublik.graph
        bias, cli, harness = repbublik.bias, repbublik.cli, repbublik.harness
        mc, rec = repbublik.montecarlo, repbublik.recommend
        out = [
            (harness, "build_graph", self.wrap(harness.build_graph, "graph.build_graph")),
            (g.ColoredGraph, "__post_init__",
             self.wrap(g.ColoredGraph.__post_init__, "graph.csr_build")),
            (g, "insert_edge", self.wrap(g.insert_edge, "graph.insert_edge")),
            (rec, "insert_edge", self.wrap(rec.insert_edge, "graph.insert_edge")),
            (harness, "apply_plan", self.wrap(harness.apply_plan, "graph.apply_plan")),
            (rec, "weight_oracle", self.wrap_leaf(rec.weight_oracle, "graph.weight_oracle")),
            (bias, "exact_br", self.wrap(bias.exact_br, "exact.exact_br", self._exact_br_work)),
            (rec, "exact_rwcc",
             self.wrap(rec.exact_rwcc, "exact.exact_rwcc", self._exact_rwcc_work)),
            (bias, "estimate_br", self.wrap(
                bias.estimate_br, "montecarlo.estimate_br", self._estimate_br_work)),
            (rec, "estimate_rwcc", self.wrap(
                rec.estimate_rwcc, "montecarlo.estimate_rwcc", self._estimate_rwcc_work)),
            (mc, "stream", self.wrap_count(mc.stream, "montecarlo.stream")),
            (rec, "br_table", self.wrap(rec.br_table, "bias.br_table.from_recommend")),
            (harness, "br_table", self.wrap(harness.br_table, "bias.br_table.from_harness")),
            (cli, "br_table", self.wrap(cli.br_table, "bias.br_table.from_cli")),
            (harness, "classify", self.wrap(harness.classify, "bias.classify")),
            (cli, "load_dataset", self.wrap(cli.load_dataset, "harness.load_dataset")),
            (harness, "run_sweep", self.wrap(
                harness.run_sweep, "harness.run_sweep", done=self._sweep_done)),
        ]
        out += [
            (rec, fn, self.wrap(getattr(rec, fn), f"recommend.{fn}"))
            for fn in ALGORITHM_FNS
        ]
        return out

    # ------------------------------------------------------------- reporting

    def self_times(self) -> np.ndarray:
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(dur.size + 1)  # last slot collects top-level spans
        np.add.at(child, np.asarray(self.parents, dtype=np.int64), dur)
        for parent, elapsed in self.leaf_time.items():
            child[parent] += elapsed
        return dur - child[:-1]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        self_s = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for name, d, s in zip(self.names, dur.tolist(), self_s.tolist()):
            row = out[name]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += s
        return out

    def child_time(self, parent_name: str, child_names: set[str]) -> float:
        """Summed duration of spans named in ``child_names`` directly under
        a span named ``parent_name``."""
        total = 0.0
        for name, parent, start, end in zip(self.names, self.parents,
                                            self.starts, self.ends):
            if name in child_names and parent >= 0 and self.names[parent] == parent_name:
                total += end - start
        return total

    def write_jsonl(self, path: Path, origin: float) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers and restore the original bindings after."""
    replaced = []
    try:
        for owner, attr, fn in tracer.bindings():
            replaced.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


SPANS_WITH_SELF = (
    [f"recommend.{fn}" for fn in ALGORITHM_FNS]
    + ["harness.load_dataset", "cli.stats", "cli.br", "cli.recommend"]
)
TIMED_SPANS = (
    "graph.build_graph", "graph.csr_build", "graph.insert_edge",
    "graph.apply_plan", "exact.exact_br", "exact.exact_rwcc",
    "montecarlo.estimate_br", "montecarlo.estimate_rwcc",
    "bias.br_table.from_recommend", "bias.br_table.from_harness",
    "bias.br_table.from_cli", "bias.classify",
)
EVAL_SPANS = {"graph.apply_plan", "bias.br_table.from_harness", "bias.classify"}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit); zero where unused."""
    totals = tracer.totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def calls_and_s(name: str) -> None:
        out[f"{name}.calls"] = (totals[name]["calls"], "count")
        out[f"{name}.s"] = (totals[name]["s"], "s")

    for name in TIMED_SPANS:
        calls_and_s(name)
    for name in SPANS_WITH_SELF:
        if name.startswith("recommend."):
            calls_and_s(name)
        else:
            out[f"{name}.s"] = (totals[name]["s"], "s")
        out[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    out["graph.weight_oracle.calls"] = (counts["graph.weight_oracle.calls"], "count")
    out["graph.weight_oracle.s"] = (tracer.leaf_s["graph.weight_oracle"], "s")
    out["montecarlo.stream.calls"] = (counts["montecarlo.stream.calls"], "count")
    out["exact.matvecs"] = (counts["exact.matvecs"], "count")
    rwcc_calls = totals["exact.exact_rwcc"]["calls"]
    out["exact.exact_rwcc.distinct_ratio"] = (
        len(tracer.rwcc_requests) / rwcc_calls if rwcc_calls else 0.0, "ratio"
    )
    walks = counts["montecarlo.walks"]
    walk_s = totals["montecarlo.estimate_br"]["s"] + totals["montecarlo.estimate_rwcc"]["s"]
    out["montecarlo.walks"] = (walks, "count")
    out["montecarlo.walks_per_s"] = (walks / walk_s if walk_s else 0.0, "1/s")
    out["harness.run_sweep.s"] = (totals["harness.run_sweep"]["s"], "s")
    out["harness.eval.s"] = (tracer.child_time("harness.run_sweep", EVAL_SPANS), "s")
    out["harness.cells"] = (counts["harness.cells"], "count")
    out["harness.cells_failed"] = (counts["harness.cells_failed"], "count")
    return out
