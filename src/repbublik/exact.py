"""Exact dynamic programs for bounded random-walk quantities.

Every estimator and property test in the package is checked against these
routines.  All of them run in O(t * |E|) per source/target via sparse
matrix-vector products, so they stay practical for small and medium graphs
while avoiding the cubic cost of Laplacian-based hitting-time solvers.
Closeness for a whole pool of targets (:func:`exact_rwcc_many`) and the
return-mass profiles behind :func:`exact_gamma` are block passes: the
columns are stepped together in chunks of at most ``BLOCK_ELEMENTS``
entries, with the bits of a one-column pass.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EmptySourceSet,
    EnumerationTooLarge,
    MixedColorSet,
    SourceIsTarget,
    TargetInAvoidSet,
)
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    apply_plan,
    check_count,
    opposite,
    weight_oracle,
)

#: Absolute tolerance for the dynamic programs.
DP_TOL = 1e-9
#: Most entries in one n x width block of closeness target or return-mass
#: columns.
BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True, eq=False)
class BrTable:
    """Per-node Bubble Radius values for one horizon.

    ``values[v]`` is E[min(t, steps to first hit the opposite color)] and
    always lies in [1, t]; nodes that cannot reach the opposite color sit at
    the cap t.  ``provenance`` records whether the table came from the exact
    engine or a Monte Carlo estimate.
    """

    values: np.ndarray
    t: int
    provenance: str  # "exact" | "estimated"

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.values.size and (
            self.values.min() < 1.0 - DP_TOL or self.values.max() > self.t + DP_TOL
        ):
            raise ValueError(f"Bubble Radius values must lie in [1, {self.t}]")


@dataclass(frozen=True, eq=False)
class FirstPassageProfile:
    """Color-avoiding first-passage probabilities from one node to another.

    ``probs[i]`` is the probability that a walk from ``source`` is at
    ``target`` at exactly step ``i`` (1-indexed; ``probs[0]`` is unused and
    zero) without visiting ``target`` or any opposite-color node earlier.
    """

    source: int
    target: int
    horizon: int
    probs: np.ndarray  # shape (horizon + 1,)

    def __post_init__(self):
        self.probs.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.probs.sum())


def _node_set(graph: ColoredGraph, nodes: Iterable[int]) -> np.ndarray:
    if not isinstance(nodes, np.ndarray):
        nodes = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    arr = np.unique(nodes.astype(np.int64, copy=False))
    if arr.size and (arr[0] < 0 or arr[-1] >= graph.n):
        raise ValueError(f"node set {arr} contains ids outside 0..{graph.n - 1}")
    return arr


def exact_bounded_hitting(
    graph: ColoredGraph, absorbing: Iterable[int], t: int
) -> np.ndarray:
    """E[min(t, first hit of the absorbing set)] for every start node.

    Uses the survival identity E[min(t, T)] = sum_{i=0}^{t-1} P(T > i) with
    the recurrence s_{i+1} = M @ s_i zeroed on the absorbing set.  An empty
    absorbing set is allowed and yields t everywhere (the walk is never
    absorbed, only capped).
    """
    check_count("horizon", t)
    absorbed = _node_set(graph, absorbing)
    survival = np.ones(graph.n)
    survival[absorbed] = 0.0
    expected = survival.copy()
    for _ in range(t - 1):
        survival = graph.matrix @ survival
        survival[absorbed] = 0.0
        expected += survival
    return expected


def exact_br(graph: ColoredGraph, t: int) -> BrTable:
    """Exact Bubble Radius of every node at horizon ``t``.

    Two absorbing-set passes: blue nodes absorb the walks of red sources and
    vice versa.  A color with no opposite nodes sits at the cap ``t``.
    """
    values = np.empty(graph.n)
    for color in (RED, BLUE):
        sources = graph.color_mask(color)
        if not sources.any():
            continue
        hit = exact_bounded_hitting(graph, graph.nodes_of(opposite(color)), t)
        values[sources] = hit[sources]
    return BrTable(values=values, t=t, provenance="exact")


def exact_first_passage(
    graph: ColoredGraph, source: int, target: int, t: int
) -> FirstPassageProfile:
    """Distribution of the first hit of ``target`` avoiding the other color.

    Step-wise distribution propagation with absorbing set
    {target} union opposite-color nodes.  Source and target must share a
    color; the conflicting case is rejected rather than guessing precedence
    between "hit the target" and "avoid the other color".
    """
    _node_set(graph, (source, target))
    if source == target:
        raise SourceIsTarget(f"first passage from {source} to itself is a return mass")
    if graph.color_of(source) != graph.color_of(target):
        raise TargetInAvoidSet(
            f"target {target} has the opposite color of source {source}"
        )
    check_count("horizon", t)

    absorb = graph.color_mask(opposite(graph.color_of(source))).copy()
    absorb[target] = True
    dist = np.zeros(graph.n)
    dist[source] = 1.0
    probs = np.zeros(t + 1)
    for step in range(1, t + 1):
        dist = graph.matrix_t @ dist
        probs[step] = dist[target]
        dist[absorb] = 0.0
    return FirstPassageProfile(source=source, target=target, horizon=t, probs=probs)


def _return_profiles(
    graph: ColoredGraph, nodes: np.ndarray, t_prime: int
) -> np.ndarray:
    """Return-visit profiles of ``nodes``, all of one color, in blocks.

    Column j of a block is the distribution of the walk started at the
    j-th node, zeroed on the opposite color after every step; row j of the
    result is that node's ``p[0..t'-1]``.  Blocks hold at most
    ``BLOCK_ELEMENTS`` entries, and each column's arithmetic does not depend
    on the block width.
    """
    avoid = graph.color_mask(opposite(graph.color_of(int(nodes[0]))))
    profiles = np.zeros((nodes.size, t_prime))
    profiles[:, 0] = 1.0
    width = max(1, BLOCK_ELEMENTS // graph.n)
    for lo in range(0, nodes.size, width):
        chunk = nodes[lo : lo + width]
        cols = np.arange(chunk.size)
        block = np.zeros((graph.n, chunk.size))
        block[chunk, cols] = 1.0
        for step in range(1, t_prime):
            block = graph.matrix_t @ block
            block[avoid, :] = 0.0
            profiles[lo + cols, step] = block[chunk, cols]
    return profiles


def exact_return_mass(
    graph: ColoredGraph, v: int, t_prime: int
) -> tuple[np.ndarray, float]:
    """Return-visit probabilities of ``v`` before touching the other color.

    ``p[i]`` is the probability that a walk from ``v`` is at ``v`` at step
    ``i`` while avoiding the opposite color at steps 1..i; earlier revisits
    of ``v`` do not stop the walk.  Returns ``(p[0..t'-1], F)`` with
    ``F = sum(p)``; ``p[0] = 1`` and ``p[1] = 0`` always (no self-loops).
    The one-node case of the block pass :func:`exact_gamma` runs.
    """
    check_count("horizon", t_prime)
    p = _return_profiles(graph, _node_set(graph, (v,)), t_prime)[0]
    assert t_prime < 2 or p[1] == 0.0, "a self-loop slipped past graph validation"
    return p, float(p.sum())


def exact_gamma(graph: ColoredGraph, t: int) -> float:
    """max over nodes of the total return mass F_t(v).

    One chunked block pass per color steps the walks from the color's nodes
    together; each node's total is summed like :func:`exact_return_mass`.
    """
    check_count("horizon", t)
    best = 1.0  # p_0 = 1 contributes to every node
    for color in (RED, BLUE):
        nodes = graph.nodes_of(color)
        if nodes.size:
            best = max(best, float(_return_profiles(graph, nodes, t).sum(axis=1).max()))
    return best


def _validate_centrality_set(
    graph: ColoredGraph, nodes: np.ndarray, sources: np.ndarray
) -> None:
    if sources.size == 0:
        raise EmptySourceSet("centrality needs at least one source node")
    shared = np.unique(graph.colors[sources])
    mixed = (graph.colors[nodes] != shared[0]) | (shared.size > 1)
    if mixed.any():
        v = int(nodes[np.flatnonzero(mixed)[0]])
        raise MixedColorSet(f"sources of c(v={v}, S) must all share the color of v")


def exact_rwcc_many(
    graph: ColoredGraph,
    nodes: Iterable[int],
    sources: Iterable[int],
    t_prime: int,
) -> np.ndarray:
    """Bounded random-walk closeness c_{t'}(v, S) for every v in ``nodes``.

    c_{t'}(v, S) = (1/|S|) * sum_{w in S} sum_{i=1}^{t'} (t' - i) * P(walk
    from w first hits v at step i avoiding the opposite color).  Sources that
    cannot reach v within t' contribute zero; the self term w == v is
    skipped (the sum starts at step 1, not 0).  Entry j of the result
    belongs to the j-th entry of ``nodes``.

    One backward DP per target: q_i(w) = P(from w, first hit of v at step i
    avoiding the absorbing set), stepped for a block of targets at once as
    Q <- M @ (Q * keep), where column j also zeroes its own target.  Blocks
    hold at most ``BLOCK_ELEMENTS`` entries, and each column's arithmetic
    is that of a one-target pass, so values do not depend on the block width.
    """
    check_count("horizon", t_prime)
    targets = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    uniq = _node_set(graph, targets)
    src = _node_set(graph, sources)
    _validate_centrality_set(graph, targets, src)
    values = np.empty(uniq.size)
    if uniq.size == 0:
        return values

    keep = ~graph.color_mask(opposite(graph.color_of(int(uniq[0]))))
    pos = np.searchsorted(src, uniq)
    in_src = src[np.minimum(pos, src.size - 1)] == uniq
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    width = max(1, BLOCK_ELEMENTS // graph.n)
    for lo in range(0, uniq.size, width):
        block = uniq[lo : lo + width]
        cols = np.arange(block.size)
        column_of = np.full(graph.n, -1)
        column_of[block] = cols
        into = column_of[graph.targets]
        hit = into >= 0
        q = np.zeros((graph.n, block.size))
        q[rows[hit], into[hit]] = graph.weights[hit]  # q_1(w) = M[w, v]
        acc = (t_prime - 1) * q
        for i in range(2, t_prime):
            q *= keep[:, None]
            q[block, cols] = 0.0  # the walk stops at its first visit of v
            q = graph.matrix @ q
            acc += (t_prime - i) * q
        # Each target sums S without itself, ascending, as one contiguous
        # row, so the sum rounds like the one-target pass.
        for member in (False, True):
            sel = np.flatnonzero(in_src[lo : lo + width] == member)
            if sel.size == 0:
                continue
            idx = np.broadcast_to(np.arange(src.size - member), (sel.size, src.size - member))
            if member:
                idx = idx + (idx >= pos[lo + sel][:, None])
            values[lo + sel] = acc[src[idx], sel[:, None]].sum(axis=1) / src.size
    return values[np.searchsorted(uniq, targets)]


def exact_rwcc(
    graph: ColoredGraph, v: int, sources: Iterable[int], t_prime: int
) -> float:
    """Bounded random-walk closeness centrality of ``v`` w.r.t. ``sources``;
    the one-target case of :func:`exact_rwcc_many`."""
    return float(exact_rwcc_many(graph, (v,), sources, t_prime)[0])


def _gain(
    graph: ColoredGraph, nodes: Iterable[int], plan: Iterable[EdgeInsertion], t: int,
    br_values: Callable[[ColoredGraph], np.ndarray],
) -> float:
    """Mean drop of ``br_values`` (a horizon-``t`` BR table's values) over
    ``nodes`` after applying ``plan``; an empty plan gains zero."""
    check_count("horizon", t)
    targets = _node_set(graph, nodes)
    if targets.size == 0:
        raise EmptySourceSet("gain needs a non-empty node set")
    edges = tuple(plan)
    if not edges:
        return 0.0
    before, after = br_values(graph), br_values(apply_plan(graph, edges))
    return float(np.mean(before[targets] - after[targets]))


def exact_gain(
    graph: ColoredGraph,
    nodes: Iterable[int],
    plan: InsertionPlan | Sequence[EdgeInsertion],
    t: int,
) -> float:
    """Mean Bubble Radius drop over ``nodes`` after applying ``plan``.

    Insertions are applied in plan order, so same-source weights renormalize
    sequentially.  An empty plan is the identity and gains zero.
    """
    return _gain(graph, nodes, plan, t, lambda g: exact_br(g, t).values)


def parochial_nodes(
    colors: np.ndarray, br: BrTable, color: str, theta_bad: float
) -> np.ndarray:
    """Nodes of ``color``, ascending, whose Bubble Radius is at least
    ``theta_bad``: the one parochial rule of the package."""
    return np.flatnonzero((colors == color) & (br.values >= theta_bad))


def brute_force_opt(
    graph: ColoredGraph,
    color: str,
    k: int,
    t: int,
    theta_bad: float | None = None,
    enumeration_cap: int = 200_000,
) -> tuple[InsertionPlan, float]:
    """Exhaustive optimum of the k-edge insertion problem (test oracle).

    Enumerates every k-subset of candidate cross-color edges with parochial
    sources (weights assigned sequentially by the oracle) and returns the
    plan maximizing the exact gain over the parochial set, breaking ties by
    enumeration order.  Refuses instances above ``enumeration_cap`` plans.
    """
    check_count("k", k, 0)
    if theta_bad is None:
        theta_bad = t / 2
    if k == 0:
        return InsertionPlan(edges=(), color=color, requested=0), 0.0

    br = exact_br(graph, t)
    parochial = parochial_nodes(graph.colors, br, color, theta_bad)
    others = graph.nodes_of(opposite(color))
    candidates = [
        (int(v), int(w))
        for v in parochial
        for w in others
        if not graph.has_edge(int(v), int(w))
    ]
    if len(candidates) < k:
        return InsertionPlan(edges=(), color=color, requested=k), 0.0
    n_plans = math.comb(len(candidates), k)
    if n_plans > enumeration_cap:
        raise EnumerationTooLarge(n_plans, enumeration_cap)

    best_gain = -np.inf
    best_edges: tuple[EdgeInsertion, ...] = ()
    for combo in itertools.combinations(candidates, k):
        edges: list[EdgeInsertion] = []
        for v, w in combo:
            edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, edges)))
        gain = exact_gain(graph, parochial, edges, t)
        if gain > best_gain:
            best_gain = gain
            best_edges = tuple(edges)
    return InsertionPlan(edges=best_edges, color=color, requested=k), float(best_gain)
