"""Greedy cross-color edge recommendation and the randomized baselines.

The main algorithm repairs parochial nodes one edge at a time: each round it
scores every parochial node of the requested color by bounded closeness
centrality times the oracle weight of its next insertion, inserts an edge
from the argmax, and repeats on the grown graph.  The cheaper ``_plus``
variant freezes the parochial set and the centralities at the start and
divides each node's score by a penalty that grows with the edges already
planned from it, which spreads insertions across sources.

Every recommender takes ``(graph, color, budget, cfg, seed=None,
backend="exact")``; the two greedies also take a keyword ``policy`` for the
choice of target.
"""
from __future__ import annotations

import heapq
import warnings
from bisect import bisect_left, insort
from typing import Collection

import numpy as np

from .errors import NoLegalTarget, NoOppositeColor
from .bias import br_table
# ``exact_rwcc`` and ``estimate_rwcc`` stay bound here only because the benchmark's
# traced pass (perfbench/spans.py) patches them, as it does ``insert_edge``.
from .exact import BrTable, exact_rwcc, exact_rwcc_many, parochial_nodes  # noqa: F401
from .graph import (
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    insert_edge,
    apply_plan,
    check_count,
    opposite,
    weight_oracle,
)
from .montecarlo import derive_seed, estimate_rwcc, estimate_rwcc_many, stream  # noqa: F401

_TAG_BR = 11
_TAG_RWCC = 12
_TAG_TARGET = 13
_TAG_BASELINE = 14

#: Share of the parochial pool, in percent, that the central baselines sample from.
DEFAULT_TOP_PCT = 10.0


def _parochial_pool(
    graph: ColoredGraph,
    color: str,
    cfg: WalkConfig,
    seed: int,
    backend: str,
    round_no: int = 0,
) -> tuple[BrTable, np.ndarray]:
    """BR table of one scoring round and the parochial nodes of ``color``."""
    br = br_table(graph, cfg, backend, derive_seed(seed, _TAG_BR, round_no))
    return br, parochial_nodes(graph.colors, br, color, cfg.theta_bad)


def _prologue(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None,
    backend: str,
) -> tuple[int, BrTable, np.ndarray]:
    """Shared start of every recommender: argument checks, the seed default,
    and the first round's BR table and parochial pool."""
    check_count("budget", budget, 0)
    if not graph.color_mask(opposite(color)).any():
        raise NoOppositeColor(f"no node of color {opposite(color)} to link toward")
    if seed is None:
        seed = cfg.seed
    return (seed, *_parochial_pool(graph, color, cfg, seed, backend))


def closeness(
    graph: ColoredGraph,
    nodes: Collection[int],
    sources: Collection[int],
    horizon: int,
    cfg: WalkConfig,
    backend: str,
    seed: int,
) -> np.ndarray:
    """Bounded closeness c_horizon(v, sources) of every v in ``nodes``.

    The exact backend runs one block pass; the Monte Carlo backend steps the
    walks of all nodes together, with ``cfg``'s accuracy and ``kappa`` and
    the given seed.
    """
    if backend == "exact":
        return exact_rwcc_many(graph, nodes, sources, horizon)
    if backend != "mc":
        raise ValueError(f"unknown backend {backend!r}")
    return estimate_rwcc_many(
        graph, nodes, sources, horizon, cfg.epsilon, cfg.delta,
        kappa=cfg.kappa, seed=seed,
    )


def _centralities(
    graph: ColoredGraph,
    pool: np.ndarray,
    cfg: WalkConfig,
    backend: str,
    seed: int,
) -> np.ndarray:
    """c_{t-2}(v, pool) for every v in pool; zeros when the horizon collapses."""
    if cfg.t - 2 < 1 or pool.size == 0:
        return np.zeros(pool.size)
    return closeness(graph, pool, pool, cfg.t - 2, cfg, backend, seed)


def _oracle_weights(
    graph: ColoredGraph, pool: np.ndarray, planned: np.ndarray
) -> np.ndarray:
    """``weight_oracle(graph, v, planned=planned[v])`` for every v in pool,
    bit for bit: 1.0 divided by the same integer."""
    return 1.0 / (graph.indptr[pool + 1] - graph.indptr[pool] + planned[pool] + 1)


def _holds(ascending: list[int], x: int) -> bool:
    i = bisect_left(ascending, x)
    return i < len(ascending) and ascending[i] == x


class _Targets:
    """Legal targets of one plan's sources, without an n-long mask.

    A source may link to any node of the opposite color except its current
    out-neighbors and the targets already picked for it.  ``others`` holds
    the opposite color ascending, and each source keeps the excluded
    positions in ``others`` as a sorted list, so the count and the k-th
    legal target follow from the two sorted sequences.  ``policy`` is
    checked here, before any pick, and holds for every pick.
    """

    def __init__(self, graph: ColoredGraph, color: str, policy: str):
        if policy not in ("lowest-br", "uniform-seeded"):
            raise ValueError(f"unknown target policy {policy!r}")
        self.graph, self.policy = graph, policy
        self.others = graph.nodes_of(opposite(color))
        self._excluded: dict[int, list[int]] = {}
        self._ranked: np.ndarray | None = None  # set by rank()

    def rank(self, br: BrTable) -> None:
        """Order ``others`` by (BR, id) for the ``lowest-br`` policy."""
        self._ranked = np.lexsort((self.others, br.values[self.others]))

    def _excluded_of(self, v: int) -> list[int]:
        excluded = self._excluded.get(v)
        if excluded is None:
            row = self.graph.row(v)[0]
            pos = np.searchsorted(self.others, row)
            inside = pos < self.others.size
            pos, row = pos[inside], row[inside]
            excluded = self._excluded[v] = pos[self.others[pos] == row].tolist()
        return excluded

    def pick(self, v: int, rng: np.random.Generator | None) -> int:
        """Choose ``v``'s next target and exclude it from later picks.

        ``lowest-br``: the legal target first in the ranked order, so of
        smallest BR, ties to the lowest id; ``uniform-seeded``: one uniform
        draw from ``rng`` over the legal targets, ascending.
        """
        excluded = self._excluded_of(v)
        legal = self.others.size - len(excluded)
        if legal == 0:
            raise NoLegalTarget(v)
        if self.policy == "uniform-seeded":
            pos = int(rng.integers(legal))
            for p in excluded:  # step over the excluded positions at or before it
                if p > pos:
                    break
                pos += 1
        else:
            pos = next(int(p) for p in self._ranked if not _holds(excluded, p))
        insort(excluded, pos)
        return int(self.others[pos])


def target_selection(
    graph: ColoredGraph,
    v: int,
    plan: InsertionPlan | tuple[EdgeInsertion, ...] = (),
    policy: str = "lowest-br",
    cfg: WalkConfig | None = None,
    backend: str = "exact",
    seed: int | None = None,
) -> int:
    """Pick the destination for the next insertion from ``v`` given ``plan``.

    ``lowest-br`` (default) returns the opposite-color node with the smallest
    current Bubble Radius among targets not already linked from ``v``;
    ``uniform-seeded`` draws uniformly from the legal targets.  Ties go to
    the lowest node id.
    """
    if policy == "lowest-br" and cfg is None:
        raise ValueError("the lowest-br policy needs a WalkConfig for the horizon")
    if seed is None:
        seed = cfg.seed if cfg is not None else 0
    current = apply_plan(graph, plan)
    targets = _Targets(current, current.color_of(v), policy)
    if policy == "lowest-br":
        targets.rank(br_table(current, cfg, backend, seed))
    rng = stream(seed, _TAG_TARGET, v) if policy == "uniform-seeded" else None
    return targets.pick(v, rng)


def repbublik(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None = None,
    backend: str = "exact",
    *,
    policy: str = "lowest-br",
) -> InsertionPlan:
    """Greedy insertion plan with per-round recomputation.

    Each of the ``budget`` rounds recomputes the parochial set and the
    centralities on the graph grown so far, then inserts an edge from the
    node maximizing centrality times oracle weight (ties: lowest id),
    passing over nodes that already link to every node of the other color.
    Stops early once no parochial node of ``color`` has a legal target left.
    """
    seed, br, pool = _prologue(graph, color, budget, cfg, seed, backend)
    rng = stream(seed, _TAG_TARGET)
    targets = _Targets(graph, color, policy)
    current = graph
    edges: list[EdgeInsertion] = []
    planned = np.zeros(graph.n, dtype=np.int64)  # edges planned per source
    for round_no in range(budget):
        if round_no > 0:
            br, pool = _parochial_pool(current, color, cfg, seed, backend, round_no)
        if pool.size == 0:
            break
        scores = _centralities(
            current, pool, cfg, backend, derive_seed(seed, _TAG_RWCC, round_no)
        )
        weights = _oracle_weights(graph, pool, planned)
        if policy == "lowest-br":
            targets.rank(br)
        # Best score first, ties to the lowest id; a failed pick draws nothing.
        for i in np.argsort(-(scores * weights), kind="stable").tolist():
            try:
                target = targets.pick(int(pool[i]), rng)
                break
            except NoLegalTarget:  # the source links to every other-color node
                continue
        else:  # no source in the pool has a legal target left
            break
        source = int(pool[i])
        edge = EdgeInsertion(source, target, float(weights[i]))
        current = insert_edge(current, edge)
        edges.append(edge)
        planned[source] += 1
    return InsertionPlan(edges=tuple(edges), color=color, requested=budget)


def repbublik_plus(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None = None,
    backend: str = "exact",
    *,
    policy: str = "lowest-br",
) -> InsertionPlan:
    """Penalized greedy plan with a single up-front scoring pass.

    Parochial nodes and centralities are computed once on the input graph;
    each round maximizes centrality * oracle weight / penalty, where the
    penalty is one plus the edges already planned from the node.  Ties
    prefer the node with the smaller penalty, then the lowest id, so equal
    scores still rotate across untouched sources.

    Targets are ranked with the prologue's BR table, the one the parochial
    pool came from: inserting edges from ``color`` nodes changes only
    ``color`` rows, and a walk from the opposite color stops at its first
    ``color`` node, so the opposite color's Bubble Radii cannot move while
    the plan is built.
    """
    seed, br, pool = _prologue(graph, color, budget, cfg, seed, backend)
    targets = _Targets(graph, color, policy)
    if pool.size == 0 or budget == 0:
        return InsertionPlan(edges=(), color=color, requested=budget)
    base = _centralities(graph, pool, cfg, backend, derive_seed(seed, _TAG_RWCC, 0))
    if policy == "lowest-br":
        targets.rank(br)
    rng = stream(seed, _TAG_TARGET)

    # A min-heap on (-score, eta, id), where eta is one plus the edges
    # planned from the source and its oracle weight is 1 / (degree + eta).
    # Only the chosen source's score moves, so it alone is pushed back.
    def entry(v: int, b: float, d: int, eta: int) -> tuple:
        return (-(b * (1.0 / (d + eta)) / eta), eta, v, b, d)  # base * weight / eta

    degree = np.diff(graph.indptr)[pool].tolist()
    heap = [entry(v, b, d, 1) for v, b, d in zip(pool.tolist(), base.tolist(), degree)]
    heapq.heapify(heap)
    edges: list[EdgeInsertion] = []
    while len(edges) < budget and heap:
        _, eta, v, b, d = heap[0]
        try:
            target = targets.pick(v, rng)
        except NoLegalTarget:  # no legal target left: drop the source
            heapq.heappop(heap)
            continue
        edges.append(EdgeInsertion(v, target, 1.0 / (d + eta)))
        heapq.heapreplace(heap, entry(v, b, d, eta + 1))
    return InsertionPlan(edges=tuple(edges), color=color, requested=budget)


def _random_plan(
    graph: ColoredGraph,
    pool: np.ndarray,
    color: str,
    budget: int,
    rng: np.random.Generator,
) -> InsertionPlan:
    """Sample (source, target) pairs: sources uniform from the pool with
    replacement, targets uniform over the still-legal cross edges.  Warns
    when the pool (possibly empty) runs out of legal edges before the
    budget is spent."""
    pool = [int(v) for v in pool]
    targets = _Targets(graph, color, "uniform-seeded")
    planned: dict[int, int] = {}  # edges planned per source
    edges: list[EdgeInsertion] = []
    while len(edges) < budget and pool:
        v = pool[int(rng.integers(len(pool)))]
        try:
            w = targets.pick(v, rng)
        except NoLegalTarget:
            pool.remove(v)
            continue
        count = planned.get(v, 0)
        edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, planned=count)))
        planned[v] = count + 1
    if len(edges) < budget:
        warnings.warn(
            f"only {len(edges)} of {budget} insertions were possible for color {color}",
            RuntimeWarning,
            stacklevel=3,
        )
    return InsertionPlan(edges=tuple(edges), color=color, requested=budget)


def baseline_pure_random(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None = None,
    backend: str = "exact",
) -> InsertionPlan:
    """Sources uniform over the parochial set of ``color``, targets uniform."""
    seed, _, pool = _prologue(graph, color, budget, cfg, seed, backend)
    return _random_plan(graph, pool, color, budget, stream(seed, _TAG_BASELINE, 0))


def _top_pool(
    pool: np.ndarray, scores: np.ndarray, top_pct: float = DEFAULT_TOP_PCT
) -> np.ndarray:
    """Top-N-percent slice (ceiling) of the pool by descending score."""
    keep = int(np.ceil(top_pct / 100.0 * pool.size))
    order = np.lexsort((pool, -scores))
    return pool[order[:keep]]


def baseline_rcn(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None = None,
    backend: str = "exact",
) -> InsertionPlan:
    """Random sources from the top-N-percent most central parochial nodes."""
    seed, _, pool = _prologue(graph, color, budget, cfg, seed, backend)
    scores = _centralities(graph, pool, cfg, backend, derive_seed(seed, _TAG_RWCC, 0))
    top = _top_pool(pool, scores)
    return _random_plan(graph, top, color, budget, stream(seed, _TAG_BASELINE, 1))


def baseline_rwcn(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    seed: int | None = None,
    backend: str = "exact",
) -> InsertionPlan:
    """Like the central baseline, but ranks by centrality * oracle weight."""
    seed, _, pool = _prologue(graph, color, budget, cfg, seed, backend)
    scores = _centralities(graph, pool, cfg, backend, derive_seed(seed, _TAG_RWCC, 0))
    scores = scores * _oracle_weights(graph, pool, np.zeros(graph.n, dtype=np.int64))
    top = _top_pool(pool, scores)
    return _random_plan(graph, top, color, budget, stream(seed, _TAG_BASELINE, 2))


#: Registry used by the sweep harness and the CLI; every entry takes
#: ``(graph, color, budget, cfg, seed=None, backend="exact")``.
ALGORITHMS = {
    "repbublik": repbublik,
    "repbublik-plus": repbublik_plus,
    "pure-random": baseline_pure_random,
    "rcn": baseline_rcn,
    "rwcn": baseline_rwcn,
}
