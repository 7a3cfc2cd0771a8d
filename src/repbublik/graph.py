"""Two-colored weighted directed graphs with row-stochastic transitions.

A :class:`ColoredGraph` stores a directed graph whose nodes carry one of two
colors (``"R"`` or ``"B"``) and whose out-edge weights form a right-stochastic
transition matrix: random walks pick the next node with probability equal to
the edge weight.  Graphs are immutable; :func:`insert_edge` returns a new
graph with the source row renormalized so it still sums to one.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DuplicateEdge,
    EdgeExists,
    NonStochasticRow,
    SameColorEndpoints,
    SelfLoopEdge,
    ThresholdOrder,
    UnknownColor,
    ZeroOutDegree,
)

RED = "R"
BLUE = "B"

#: Input rows whose sum deviates from 1 by at most this are silently renormalized.
ROW_RENORM_TOL = 1e-6
#: Constructed rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9


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
        n = self.colors.shape[0]
        matrix = sp.csr_matrix(
            (self.weights, self.targets, self.indptr), shape=(n, n)
        )
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_red_mask", self.colors == RED)

    @property
    def n(self) -> int:
        return self.colors.shape[0]

    @property
    def edge_count(self) -> int:
        return self.targets.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        """Right-stochastic transition matrix."""
        return self._matrix

    @cached_property
    def matrix_t(self) -> sp.csr_matrix:
        """Transpose of the transition matrix (for distribution propagation),
        built on first use."""
        return self._matrix.T.tocsr()

    def out_degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

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
            return self._red_mask
        if color == BLUE:
            return ~self._red_mask
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
            raise NonStochasticRow(
                self.src, self.weight, "insertion weight must lie in (0, 1)"
            )


@dataclass(frozen=True)
class InsertionPlan:
    """Ordered set of cross-color insertions, all sharing one source color.

    ``requested`` records the budget the plan was asked for; a plan may be
    shorter when the algorithm stopped early because no parochial node was
    left to repair.
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

    def eta(self, v: int) -> int:
        """Penalty counter: one plus the number of plan edges with source v."""
        return 1 + sum(1 for e in self.edges if e.src == v)

    def validate_against(self, graph: ColoredGraph) -> None:
        """Raise unless every edge is a legal cross-color insertion into graph."""
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if graph.color_of(e.src) != self.color:
                raise SameColorEndpoints(e.src, e.dst)
            if graph.color_of(e.dst) == self.color:
                raise SameColorEndpoints(e.src, e.dst)
            if graph.has_edge(e.src, e.dst):
                raise EdgeExists(e.src, e.dst)
            if (e.src, e.dst) in seen:
                raise DuplicateEdge(e.src, e.dst)
            seen.add((e.src, e.dst))


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
    parochial; ``theta_bad`` defaults to ``t / 2``.  ``kappa`` is the number
    of inner walks per sampled source in Monte Carlo closeness estimates.
    """

    t: int
    theta_good: float = 2.0
    theta_bad: float | None = None
    epsilon: float = 0.5
    delta: float = 0.05
    seed: int = 0
    kappa: int = 4

    def __post_init__(self):
        if not isinstance(self.t, (int, np.integer)) or self.t < 1:
            raise ThresholdOrder(f"exploration factor t must be a positive integer, got {self.t!r}")
        if self.theta_bad is None:
            object.__setattr__(self, "theta_bad", self.t / 2)
        if not 1.0 <= self.theta_good < self.theta_bad <= self.t:
            raise ThresholdOrder(
                f"need 1 <= theta_good < theta_bad <= t, got "
                f"theta_good={self.theta_good}, theta_bad={self.theta_bad}, t={self.t}"
            )
        check_accuracy(self.epsilon, self.delta)
        if not 0 <= self.seed < 2**64:
            raise ThresholdOrder(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa < 1:
            raise ThresholdOrder(
                f"kappa must be a positive integer, got {self.kappa!r}"
            )


def build_graph(
    colors: Sequence[str], edges: Iterable[tuple[int, int, float]]
) -> ColoredGraph:
    """Validate and assemble a colored graph from dense-id inputs.

    Rows whose weight sum deviates from 1 by at most ``ROW_RENORM_TOL`` are
    renormalized (clickstream data carries rounding noise); larger deviations
    raise :class:`NonStochasticRow`.  Every node needs at least one out-edge,
    self-loops and duplicate (src, dst) pairs are rejected.
    """
    color_arr = np.asarray(list(colors), dtype="<U1")
    n = color_arr.shape[0]
    bad = ~np.isin(color_arr, (RED, BLUE))
    if bad.any():
        v = int(np.flatnonzero(bad)[0])
        raise UnknownColor(f"node {v} has color {color_arr[v]!r}, expected 'R' or 'B'")

    edge_list = list(edges)
    src = np.fromiter((e[0] for e in edge_list), dtype=np.int64, count=len(edge_list))
    dst = np.fromiter((e[1] for e in edge_list), dtype=np.int64, count=len(edge_list))
    wgt = np.fromiter((e[2] for e in edge_list), dtype=np.float64, count=len(edge_list))

    if src.size:
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
            raise NonStochasticRow(int(src[k]), float(wgt[k]), "edge weight must be positive")

    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    if src.size > 1:
        dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise DuplicateEdge(int(src[k]), int(dst[k]))

    degree = np.bincount(src, minlength=n)
    if (degree == 0).any():
        raise ZeroOutDegree(int(np.flatnonzero(degree == 0)[0]))
    indptr = np.concatenate(([0], np.cumsum(degree)))

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
    same-source weights renormalize sequentially.  Every edge is checked in
    plan order (endpoints in range, different colors, edge not present in
    the graph or earlier in the plan, row sum within ``ROW_SUM_TOL``), and
    the first bad edge raises.  Only the touched rows are rebuilt, and the
    graph is assembled once.
    """
    rows: dict[int, tuple[list[int], list[float]]] = {}  # touched rows
    for edge in plan:
        v, w, m = edge.src, edge.dst, edge.weight
        if not (0 <= v < graph.n and 0 <= w < graph.n):
            raise UnknownColor(f"insertion ({v}, {w}) references a node outside the graph")
        if graph.colors[v] == graph.colors[w]:
            raise SameColorEndpoints(v, w)
        if v not in rows:
            rows[v] = tuple(part.tolist() for part in graph.row(v))
        row_targets, row_weights = rows[v]
        pos = bisect_left(row_targets, w)
        if pos < len(row_targets) and row_targets[pos] == w:
            raise EdgeExists(v, w)
        scale = 1.0 - m
        row_weights[:] = [x * scale for x in row_weights]
        row_weights.insert(pos, m)
        row_targets.insert(pos, w)
        new_sum = float(np.sum(row_weights))
        if abs(new_sum - 1.0) > ROW_SUM_TOL:
            raise NonStochasticRow(v, new_sum, "renormalization drifted")
    if not rows:
        return graph

    touched = np.fromiter(rows, dtype=np.int64)
    added = np.zeros(graph.n, dtype=np.int64)
    added[touched] = [len(rows[v][0]) - graph.out_degree(v) for v in rows]
    # Open room at the end of every touched row, then overwrite those rows.
    ends = np.repeat(graph.indptr[1:], added)
    targets = np.insert(graph.targets, ends, 0)
    weights = np.insert(graph.weights, ends, 0.0)
    indptr = graph.indptr + np.concatenate(([0], np.cumsum(added)))
    for v, (row_targets, row_weights) in rows.items():
        targets[indptr[v] : indptr[v + 1]] = row_targets
        weights[indptr[v] : indptr[v + 1]] = row_weights
    return ColoredGraph(colors=graph.colors, indptr=indptr, targets=targets, weights=weights)


def weight_oracle(
    graph: ColoredGraph,
    v: int,
    plan: Iterable[EdgeInsertion] = (),
    *,
    planned: int | None = None,
) -> float:
    """Transition weight granted to the next edge inserted from ``v``.

    Returns ``1 / (d'(v) + 1)`` where ``d'(v)`` counts the out-degree of
    ``v`` in the original graph plus the insertions already planned from
    ``v``: each planned edge changes the page, so later insertions see the
    grown degree.  Depends only on ``v`` and the plan's source multiset.
    Callers that keep a per-source count pass it as ``planned`` instead of
    the plan.
    """
    if planned is None:
        planned = sum(1 for e in plan if e.src == v)
    return 1.0 / (graph.out_degree(v) + planned + 1)
