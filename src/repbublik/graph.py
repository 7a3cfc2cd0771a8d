"""Two-colored weighted directed graphs with row-stochastic transitions.

A :class:`ColoredGraph` stores a directed graph whose nodes carry one of two
colors (``"R"`` or ``"B"``) in CSR arrays whose out-edge weights form a
right-stochastic transition matrix M: random walks pick the next node with
probability equal to the edge weight.  The graph builds no matrix object;
the exact engines derive what they step on from the CSR arrays and keep it
in ``memo``.  Graphs are immutable; :func:`insert_edge` returns a new graph
with the source row renormalized so it still sums to one.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadEdgeWeight,
    DuplicateEdge,
    EdgeExists,
    GraphValidationError,
    NonStochasticRow,
    SameColorEndpoints,
    SelfLoopEdge,
    ThresholdOrder,
    UnknownColor,
    WorkLimitExceeded,
    ZeroOutDegree,
)

RED = "R"
BLUE = "B"

#: Input rows whose sum deviates from 1 by at most this are silently renormalized.
ROW_RENORM_TOL = 1e-6
#: Constructed rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9
#: Most work one request may imply, in element operations (see
#: :func:`check_work`): about 1.1e12, orders of magnitude above what the
#: figures, the benchmark or the tests ask for.
MAX_WORK = 1 << 40
#: Least work one step is charged, however few items it steps.  A step is a
#: numpy or scipy call made from Python: 1-4 us each on a 2-CPU Xeon desk
#: host (Python 3.11, numpy 2.4, scipy 1.17), about as long as 4096 element
#: operations take there.
STEP_COST = 1 << 12


def opposite(color: str) -> str:
    if color == RED:
        return BLUE
    if color == BLUE:
        return RED
    raise UnknownColor(f"unknown color {color!r}")


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """Immutable two-colored digraph in CSR form.

    ``targets[indptr[v]:indptr[v+1]]`` are the out-neighbors of node ``v``
    (sorted ascending) and ``weights`` the matching transition probabilities.
    Safe to share across concurrent readers.
    """

    colors: np.ndarray   # shape (n,), dtype '<U1', values 'R'/'B'
    indptr: np.ndarray   # shape (n+1,), int64
    targets: np.ndarray  # shape (m,), int64, sorted within each row
    weights: np.ndarray  # shape (m,), float64, each row sums to 1

    def __post_init__(self):
        for arr in (self.colors, self.indptr, self.targets, self.weights):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.colors.shape[0]

    @property
    def edge_count(self) -> int:
        return self.targets.shape[0]

    @cached_property
    def memo(self) -> dict:
        """Results derived from this graph (exact tables, the within-color
        matrix W and each color's block of it, the Monte Carlo walk sampler
        and BR tables), keyed by all their inputs, seeds included; filled on
        first use and dropped with the graph."""
        return {}

    @cached_property
    def lineage(self) -> dict:
        """What every graph grown from this one by :func:`apply_plan` shares
        with it, keyed by what it describes: ``"red_mask"``, whether each
        node is red, read-only; ``"red_list"``, the same as Python bools,
        built when :func:`apply_plan` first needs it; and the sparsity
        patterns of W and of each color's block of W, found by the exact
        engines on first use.  A grown graph starts with its parent's dict,
        not a copy: it has its parent's colors, and an insertion adds a
        cross-color edge, so W and its blocks keep their pattern, and only
        values move.  A graph built directly starts its own.  The dict
        holds index arrays, never a graph."""
        mask = self.colors == RED
        mask.setflags(write=False)
        return {"red_mask": mask}

    @cached_property
    def _out_degrees(self) -> list[int]:
        """Every node's out-degree as Python ints, built on first use: a
        list read is several times cheaper than two numpy-scalar reads."""
        return np.diff(self.indptr).tolist()

    def out_degree(self, v: int) -> int:
        return self._out_degrees[v]

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.targets[lo:hi], self.weights[lo:hi]

    def has_edge(self, src: int, dst: int) -> bool:
        row_targets, _ = self.row(src)
        pos = np.searchsorted(row_targets, dst)
        return pos < row_targets.shape[0] and row_targets[pos] == dst

    def color_of(self, v: int) -> str:
        return str(self.colors[v])

    def color_mask(self, color: str) -> np.ndarray:
        if color == RED:
            return self.lineage["red_mask"]
        if color == BLUE:
            return ~self.lineage["red_mask"]
        raise UnknownColor(f"unknown color {color!r}")

    def nodes_of(self, color: str) -> np.ndarray:
        return np.flatnonzero(self.color_mask(color))


@dataclass(frozen=True)
class EdgeInsertion:
    """A planned cross-color edge with its oracle-assigned transition weight."""

    src: int
    dst: int
    weight: float

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise BadEdgeWeight(
                self.src, self.dst, self.weight, "insertion weights must lie in (0, 1)"
            )


@dataclass(frozen=True)
class InsertionPlan:
    """Ordered set of cross-color insertions, all sharing one source color.

    ``requested`` records the budget the plan was asked for.  A plan holds
    fewer edges when the algorithm stopped early: every parochial node was
    healed, or no legal cross-color edge was left.  Such a short plan is
    data, not a warning; the sweep and the ``recommend`` verb report it.
    """

    edges: tuple[EdgeInsertion, ...]
    color: str
    requested: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.color not in (RED, BLUE):
            raise UnknownColor(f"unknown color {self.color!r}")

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[EdgeInsertion]:
        return iter(self.edges)

    def __bool__(self) -> bool:
        return bool(self.edges)

    def validate_against(self, graph: ColoredGraph) -> None:
        """Raise unless :func:`apply_plan` accepts the edges on ``graph`` and
        every source has the plan's color."""
        apply_plan(graph, self.edges)
        for e in self.edges:
            color = graph.color_of(e.src)
            if color != self.color:
                raise GraphValidationError(
                    f"insertion ({e.src}, {e.dst}): source {e.src} has color "
                    f"{color!r}, not the plan's color {self.color!r}"
                )


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """Raise unless ``value`` is an ``int`` or ``np.integer`` >= ``minimum``."""
    if not isinstance(value, (int, np.integer)):
        raise ThresholdOrder(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ThresholdOrder(f"{name} must be >= {minimum}, got {value}")


def check_work(name: str, items: float, steps: int) -> None:
    """Raise :class:`WorkLimitExceeded` when ``steps`` steps over ``items``
    items each exceed ``MAX_WORK``; called before the work starts.  Each
    step is charged ``max(items, STEP_COST)``.

    The Monte Carlo sizes pass the node count, then their rounded walk or
    draw count, each with the horizon (a walk visits at most ``horizon``
    nodes); the exact passes pass the graph's nodes plus edges and the
    horizon (each of the ``horizon - 1`` products over W touches every one
    once), the closeness renewal its targets and its count of row updates,
    :func:`~repbublik.harness.generate_gadget` its nodes plus edges and
    ``t``, as an exact pass over it would, and
    :func:`~repbublik.harness.generate_polarized` its node count twice
    (it draws one uniform per ordered pair).
    """
    if steps and max(items, STEP_COST) > MAX_WORK / steps:
        raise WorkLimitExceeded(
            f"{name}: {steps} steps exceed the work limit of 2**40 element operations"
        )


def check_seed(seed: int) -> None:
    """Raise unless ``seed`` is an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ThresholdOrder(f"seed must be an integer in [0, 2**64), got {seed!r}")


def check_thresholds(theta_good: float, theta_bad: float, t: int) -> None:
    """Raise unless 1 <= theta_good < theta_bad <= t."""
    if not 1.0 <= theta_good < theta_bad <= t:
        raise ThresholdOrder(
            f"need 1 <= theta_good < theta_bad <= t, got "
            f"theta_good={theta_good}, theta_bad={theta_bad}, t={t}"
        )


def check_accuracy(epsilon: float, delta: float) -> None:
    """Raise unless epsilon lies in (0, 1] and delta in (0, 1).

    epsilon = 1 (one whole step of slack) is a legitimate accuracy target.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ThresholdOrder(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise ThresholdOrder(f"delta must lie in (0, 1), got {delta!r}")


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk configuration: horizon, thresholds, accuracy, seed.

    ``t`` caps the walk length (exploration factor).  Nodes with Bubble
    Radius at most ``theta_good`` are cosmopolitan, at least ``theta_bad``
    parochial; ``theta_bad`` defaults to ``t / 2``.  The Monte Carlo
    estimators size their walks from ``epsilon`` and ``delta`` alone.
    """

    t: int
    theta_good: float = 2.0
    theta_bad: float | None = None
    epsilon: float = 0.5
    delta: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_count("exploration factor t", self.t)
        if self.theta_bad is None:
            object.__setattr__(self, "theta_bad", self.t / 2)
        check_thresholds(self.theta_good, self.theta_bad, self.t)
        check_accuracy(self.epsilon, self.delta)
        check_seed(self.seed)


#: Record layout of an edge table.  :func:`build_graph` reads an array of
#: it as it is and converts any other edge iterable to one.
EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


def build_graph(
    colors: Sequence[str] | np.ndarray,
    edges: Iterable[tuple[int, int, float]] | np.ndarray,
) -> ColoredGraph:
    """Validate and assemble a colored graph from dense-id inputs.

    ``edges`` is an iterable of ``(src, dst, weight)`` tuples or an array of
    ``EDGE_ROW`` records.  Rows whose weight sum deviates from 1 by at most
    ``ROW_RENORM_TOL`` are renormalized (clickstream data carries rounding
    noise); larger deviations raise :class:`NonStochasticRow`, and a weight
    that is not positive and finite raises its subclass
    :class:`BadEdgeWeight`, naming the edge.  Every node needs at least one
    out-edge, self-loops and duplicate (src, dst) pairs are rejected.
    """
    color_arr = np.asarray(
        colors if isinstance(colors, np.ndarray) else list(colors), dtype=str
    )
    n = color_arr.shape[0]
    bad = (color_arr != RED) & (color_arr != BLUE)
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        raise UnknownColor(f"node {v} has color {str(color_arr[v])!r}, expected 'R' or 'B'")
    color_arr = color_arr.astype("<U1")

    if not (isinstance(edges, np.ndarray) and edges.dtype == EDGE_ROW):
        edges = np.array([tuple(e) for e in edges], dtype=EDGE_ROW)
    src, dst, wgt = edges["src"], edges["dst"], edges["weight"]

    out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if out_of_range.any():
        k = int(np.flatnonzero(out_of_range)[0])
        raise UnknownColor(
            f"edge ({src[k]}, {dst[k]}) references a node without a color entry"
        )
    loops = src == dst
    if loops.any():
        raise SelfLoopEdge(int(src[np.flatnonzero(loops)[0]]))
    if not np.all(np.isfinite(wgt) & (wgt > 0.0)):
        k = int(np.flatnonzero(~(np.isfinite(wgt) & (wgt > 0.0)))[0])
        raise BadEdgeWeight(
            int(src[k]), int(dst[k]), float(wgt[k]), "edge weights must be positive and finite"
        )

    # One key per (src, dst) pair; a stable sort of it orders the edges as
    # lexsort((dst, src)) does.
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, wgt = key[order], src[order], dst[order], wgt[order]
    dup = key[1:] == key[:-1]
    if dup.any():
        k = int(np.flatnonzero(dup)[0])
        raise DuplicateEdge(int(src[k]), int(dst[k]))

    degree = np.bincount(src, minlength=n)
    if (degree == 0).any():
        raise ZeroOutDegree(int(np.flatnonzero(degree == 0)[0]))
    indptr = np.concatenate(([0], np.cumsum(degree)))

    with np.errstate(over="ignore"):  # an infinite sum fails the check below
        row_sums = np.add.reduceat(wgt, indptr[:-1])
    off = np.abs(row_sums - 1.0) > ROW_RENORM_TOL
    if off.any():
        v = int(np.flatnonzero(off)[0])
        raise NonStochasticRow(v, float(row_sums[v]))
    wgt = wgt / np.repeat(row_sums, degree)

    return ColoredGraph(colors=color_arr, indptr=indptr, targets=dst, weights=wgt)


def insert_edge(graph: ColoredGraph, edge: EdgeInsertion) -> ColoredGraph:
    """Return a new graph with ``edge`` added (a one-edge :func:`apply_plan`).

    The pre-existing out-weights of the source are each multiplied by
    ``1 - edge.weight`` so the row still sums to one.  The input graph is
    left untouched.
    """
    return apply_plan(graph, (edge,))


def apply_plan(
    graph: ColoredGraph, plan: Iterable[EdgeInsertion]
) -> ColoredGraph:
    """Return a new graph with the insertions of ``plan`` added in order.

    Each insertion multiplies the source's current out-weights by
    ``1 - weight`` and places the new edge at its sorted position, so
    same-source weights renormalize sequentially.  The edges are checked one
    by one in plan order (endpoints in range, different colors, edge not
    present in the graph or earlier in the plan, row sum within
    ``ROW_SUM_TOL``), and the first bad edge raises.  Only the touched rows
    are rebuilt, as Python lists, and the graph is assembled once.
    """
    n = graph.n
    lineage = graph.lineage
    red = lineage.get("red_list")
    if red is None:
        red = lineage["red_list"] = lineage["red_mask"].tolist()
    rows: dict[int, tuple[list[int], list[float]]] = {}  # touched rows
    for edge in plan:
        v, w, m = edge.src, edge.dst, edge.weight
        if not (0 <= v < n and 0 <= w < n):
            raise UnknownColor(f"insertion ({v}, {w}) references a node outside the graph")
        if red[v] == red[w]:
            raise SameColorEndpoints(v, w)
        if v not in rows:
            lo, hi = graph.indptr[v : v + 2].tolist()
            rows[v] = (graph.targets[lo:hi].tolist(), graph.weights[lo:hi].tolist())
        row_targets, row_weights = rows[v]
        pos = bisect_left(row_targets, w)
        if pos < len(row_targets) and row_targets[pos] == w:
            raise EdgeExists(v, w)
        scale = 1.0 - m
        row_weights[:] = [x * scale for x in row_weights]
        row_weights.insert(pos, m)
        row_targets.insert(pos, w)
        new_sum = math.fsum(row_weights)
        if abs(new_sum - 1.0) > ROW_SUM_TOL:
            raise NonStochasticRow(v, new_sum, "renormalization drifted")
    if not rows:
        return graph

    touched = np.fromiter(rows, dtype=np.int64)
    lengths = np.fromiter((len(row) for row, _ in rows.values()), dtype=np.int64)
    added = np.zeros(n, dtype=np.int64)
    added[touched] = lengths - (graph.indptr[touched + 1] - graph.indptr[touched])
    indptr = graph.indptr + np.concatenate(([0], np.cumsum(added)))
    # The old entries fill every slot but the ones opened at the end of each
    # touched row, in order; then the touched rows are overwritten.
    opened = added[touched]
    ends = np.cumsum(opened)
    old = np.ones(indptr[-1], dtype=bool)
    old[np.repeat(indptr[touched + 1] - ends, opened) + np.arange(ends[-1])] = False
    targets = np.empty(indptr[-1], dtype=graph.targets.dtype)
    weights = np.empty(indptr[-1], dtype=graph.weights.dtype)
    targets[old] = graph.targets
    weights[old] = graph.weights
    # Entry j of the touched rows laid end to end goes to ``at[j]``.
    offsets = np.cumsum(lengths) - lengths
    at = np.repeat(indptr[touched] - offsets, lengths) + np.arange(lengths.sum())
    targets[at] = [x for row_targets, _ in rows.values() for x in row_targets]
    weights[at] = [x for _, row_weights in rows.values() for x in row_weights]
    grown = ColoredGraph(colors=graph.colors, indptr=indptr, targets=targets, weights=weights)
    grown.__dict__["lineage"] = lineage  # the cached property's slot
    return grown


def weight_oracle(
    graph: ColoredGraph,
    v: int | np.ndarray,
    *,
    planned: int | np.ndarray = 0,
) -> float | np.ndarray:
    """Transition weight granted to the next edge inserted from ``v``.

    Returns ``1 / (d'(v) + 1)`` where ``d'(v)`` counts the out-degree of
    ``v`` in the original graph plus the ``planned`` insertions already
    planned from ``v``: each planned edge changes the page, so later
    insertions see the grown degree.  ``v`` may also be an array of nodes,
    with ``planned`` one count or one per node; the weights then come back
    as an array, each with the bits of the one-node call.
    """
    if isinstance(v, np.ndarray):
        return 1.0 / (graph.indptr[v + 1] - graph.indptr[v] + planned + 1)
    return 1.0 / (graph.out_degree(v) + planned + 1)
