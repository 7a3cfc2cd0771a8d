"""Greedy cross-color edge recommendation and the randomized baselines.

The main algorithm repairs parochial nodes one edge at a time: each round it
scores every parochial node of the requested color by bounded closeness
centrality times the oracle weight of its next insertion, inserts an edge
from the argmax, and repeats on the grown graph.  The cheaper ``_plus``
variant freezes the parochial set and the centralities at the start and
divides each node's score by a penalty that grows with the edges already
planned from it, which spreads insertions across sources.

Every recommender takes ``(graph, color, budget, cfg, backend="exact")``
and draws from ``cfg.seed``.  Each builds its plan through one ``_Plan``,
which picks every target and gives every edge its oracle weight.  The
baselines draw their targets uniformly; the greedies link each source to
its legal target of lowest Bubble Radius (BR), ties to the lowest id, and
draw nothing for it.  The target cannot move any BR: the new edge leaves the
source's color, and a walk ends at its first node of the other color,
whichever node that is.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Collection

import numpy as np

from .errors import NoOppositeColor, UnknownName
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
    check_count,
    opposite,
    weight_oracle,
)
from .montecarlo import derive_seed, estimate_rwcc, estimate_rwcc_many, stream  # noqa: F401

_TAG_BR = 11
_TAG_RWCC = 12
_TAG_BASELINE = 14
#: Raw words a plan's draws read at a time.
_WORD_BLOCK = 64

#: Share of the parochial pool, in percent, that the central baselines sample from.
DEFAULT_TOP_PCT = 10.0


def _parochial_pool(
    graph: ColoredGraph,
    color: str,
    cfg: WalkConfig,
    backend: str,
    round_no: int = 0,
) -> tuple[BrTable, np.ndarray]:
    """BR table of one scoring round and the parochial nodes of ``color``."""
    br = br_table(graph, cfg, backend, derive_seed(cfg.seed, _TAG_BR, round_no))
    return br, parochial_nodes(graph.colors, br, color, cfg.theta_bad)


def _prologue(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str,
) -> tuple[BrTable, np.ndarray]:
    """Shared start of every recommender: argument checks, then the first
    round's BR table and parochial pool."""
    check_count("budget", budget, 0)
    if not graph.color_mask(opposite(color)).any():
        raise NoOppositeColor(f"no node of color {opposite(color)} to link toward")
    return _parochial_pool(graph, color, cfg, backend)


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

    The exact backend runs one block pass; the Monte Carlo backend scores
    every node from one walk per source draw, the draws sized by ``cfg``'s
    accuracy alone and drawn from the given seed.
    """
    if backend == "exact":
        return exact_rwcc_many(graph, nodes, sources, horizon)
    if backend != "mc":
        raise UnknownName(f"unknown backend {backend!r}")
    return estimate_rwcc_many(
        graph, nodes, sources, horizon, cfg.epsilon, cfg.delta, seed=seed
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


def _holds(ascending: list[int], x: int) -> bool:
    i = bisect_left(ascending, x)
    return i < len(ascending) and ascending[i] == x


def _excluded_positions(
    graph: ColoredGraph, others: np.ndarray, sources: np.ndarray
) -> list[list[int]]:
    """For each of ``sources``, the ascending positions in ``others`` (an
    ascending array) of its out-neighbors: one numpy pass over their rows."""
    lo, hi = graph.indptr[sources], graph.indptr[sources + 1]
    lengths = hi - lo
    starts = np.cumsum(lengths) - lengths
    rows = graph.targets[np.repeat(lo - starts, lengths) + np.arange(lengths.sum())]
    pos = np.searchsorted(others, rows)
    hit = np.append(others, -1)[pos] == rows  # -1 matches no node
    # Each source's hits come out ascending and in source order.
    owner = np.repeat(np.arange(sources.size), lengths)[hit]
    ends = np.cumsum(np.bincount(owner, minlength=sources.size)).tolist()
    flat = pos[hit].tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


class _Draws:
    """Uniform integers below a bound, each equal to the one
    ``Generator.integers(bound)`` would return on the same Philox bit
    generator, draw for draw: the bounded-draw rule of the package's
    baseline streams, replayed from the raw words without a call per draw.

    The rule is numpy's for a bound of at most 2**32, Lemire's multiply and
    reject (Lemire 2019, "Fast Random Integer Generation in an Interval",
    ACM TOMACS 29(1)).  Each 64-bit word gives two 32-bit draws u, low half
    first.  For a bound b, m = u * b is drawn again while its low 32 bits
    are below both b and (2**32 - b) % b, and the draw is m >> 32.  A bound
    of 1 returns 0 and reads nothing.  Bounds run from 1 to 2**32: a plan's
    bounds are a pool's size and a count of legal targets, and a larger one
    would need 2**32 nodes of one color.

    The words are read from ``bit_generator.random_raw`` in blocks, so some
    are read ahead and never used: the bit generator must be the draws'
    alone from the first draw on.
    """

    __slots__ = ("_raw", "_halves", "_at")

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self._halves: list[int] = []  # the 32-bit draws read so far
        self._at = 0  # the next one's index

    def below(self, bound: int) -> int:
        """One uniform integer in [0, ``bound``)."""
        if bound == 1:
            return 0
        while True:
            if self._at == len(self._halves):
                words = self._raw(_WORD_BLOCK)
                halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1)
                self._halves, self._at = halves.ravel().tolist(), 0
            m = self._halves[self._at] * bound
            self._at += 1
            low = m & 0xFFFFFFFF
            # (2**32 - b) % b < b, so a low part of at least b is kept at once.
            if low >= bound or low >= (0x100000000 - bound) % bound:
                return m >> 32


class _Plan:
    """One insertion plan while it is built: its edges, the edges planned
    per source, and the legal targets left, without an n-long mask.

    A source may link to any node of the opposite color except its current
    out-neighbors and the targets already picked for it.  ``others`` holds
    the opposite color ascending, and each source keeps the excluded
    positions in ``others`` as a sorted list, so the count and the k-th
    legal target follow from the two sorted sequences.  :meth:`exclude`
    finds them for a whole pool of sources in one pass; a source outside
    every pool finds its own on its first pick.  With ``draws`` every pick
    is one uniform draw from them; without, every pick follows the order set
    by :meth:`rank`.  ``planned[v]`` counts the edges planned from v, the count
    the oracle weight of v's next edge reads.
    """

    def __init__(
        self,
        graph: ColoredGraph,
        color: str,
        budget: int,
        draws: _Draws | None = None,
    ):
        self.graph, self.color, self.budget, self.draws = graph, color, budget, draws
        self.others = graph.nodes_of(opposite(color))
        self._others = self.others.tolist()  # for cheap reads
        self.edges: list[EdgeInsertion] = []
        self.planned = np.zeros(graph.n, dtype=np.int64)
        self._excluded: dict[int, list[int]] = {}
        self._ranked: np.ndarray | None = None  # set by rank()

    def rank(self, br: BrTable) -> None:
        """Order ``others`` by (BR, id) for the picks without ``draws``."""
        self._ranked = np.lexsort((self.others, br.values[self.others]))

    def exclude(self, sources: np.ndarray) -> None:
        """Find the excluded positions of every one of ``sources`` not seen
        yet."""
        fresh = sources[[v not in self._excluded for v in sources.tolist()]]
        positions = _excluded_positions(self.graph, self.others, fresh)
        self._excluded.update(zip(fresh.tolist(), positions))

    def add(self, v: int) -> bool:
        """Plan ``v``'s next edge with its oracle weight; False, with nothing
        planned and nothing drawn, when ``v`` links to every node of the
        other color.

        With ``draws``: one uniform draw over the legal targets, ascending;
        without: the legal target first in the ranked order, so of smallest
        BR, ties to the lowest id.
        """
        excluded = self._excluded.get(v)
        if excluded is None:
            self.exclude(np.array([v]))
            excluded = self._excluded[v]
        legal = self.others.size - len(excluded)
        if legal == 0:
            return False
        if self.draws is not None:
            pos = self.draws.below(legal)
            for p in excluded:  # step over the excluded positions at or before it
                if p > pos:
                    break
                pos += 1
        else:
            pos = next(int(p) for p in self._ranked if not _holds(excluded, p))
        insort(excluded, pos)
        planned = int(self.planned[v])
        weight = weight_oracle(self.graph, v, planned=planned)
        self.edges.append(EdgeInsertion(v, self._others[pos], weight))
        self.planned[v] = planned + 1
        return True

    def done(self) -> InsertionPlan:
        return InsertionPlan(edges=tuple(self.edges), color=self.color, requested=self.budget)


def repbublik(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str = "exact",
) -> InsertionPlan:
    """Greedy insertion plan with per-round recomputation.

    Each of the ``budget`` rounds recomputes the parochial set and the
    centralities on the graph grown so far, then inserts an edge from the
    node maximizing centrality times oracle weight (ties: lowest id),
    passing over nodes that already link to every node of the other color.
    Stops early once no parochial node of ``color`` has a legal target left.
    """
    br, pool = _prologue(graph, color, budget, cfg, backend)
    plan = _Plan(graph, color, budget)
    current = graph
    for round_no in range(budget):
        if round_no > 0:
            br, pool = _parochial_pool(current, color, cfg, backend, round_no)
        scores = _centralities(
            current, pool, cfg, backend, derive_seed(cfg.seed, _TAG_RWCC, round_no)
        )
        weights = weight_oracle(graph, pool, planned=plan.planned[pool])
        plan.rank(br)
        # Best score first, ties to the lowest id; a source without a legal
        # target is passed over, and a pool of such sources ends the plan.
        order = np.argsort(-(scores * weights), kind="stable").tolist()
        if not any(plan.add(int(pool[i])) for i in order):
            break
        current = insert_edge(current, plan.edges[-1])
    return plan.done()


def repbublik_plus(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str = "exact",
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
    br, pool = _prologue(graph, color, budget, cfg, backend)
    plan = _Plan(graph, color, budget)
    if budget == 0:  # skips a closeness pass no round reads
        return plan.done()
    base = _centralities(graph, pool, cfg, backend, derive_seed(cfg.seed, _TAG_RWCC, 0))
    plan.rank(br)
    plan.exclude(pool)

    # A min-heap on (-score, eta, id), where eta is one plus the edges
    # planned from the source and the score is base * oracle weight / eta.
    # Only the chosen source's score moves, so it alone is pushed back.
    def entry(v: int, b: float) -> tuple:
        planned = int(plan.planned[v])
        eta = planned + 1
        return (-(b * weight_oracle(graph, v, planned=planned) / eta), eta, v, b)

    heap = [entry(v, b) for v, b in zip(pool.tolist(), base.tolist())]
    heapq.heapify(heap)
    while len(plan.edges) < budget and heap:
        _, _, v, b = heap[0]
        if plan.add(v):
            heapq.heapreplace(heap, entry(v, b))
        else:  # no legal target left: drop the source
            heapq.heappop(heap)
    return plan.done()


def _random_plan(
    graph: ColoredGraph,
    pool: np.ndarray,
    color: str,
    budget: int,
    rng: np.random.Generator,
) -> InsertionPlan:
    """Sample (source, target) pairs: sources uniform from the pool with
    replacement, targets uniform over the still-legal cross edges.  The plan
    ends short when the pool (possibly empty) runs out of legal edges before
    the budget is spent.  Every draw is the plan's, from ``rng``'s bit
    generator, which no one reads after it."""
    draws = _Draws(rng.bit_generator)
    plan = _Plan(graph, color, budget, draws)
    plan.exclude(pool)
    pool = pool.tolist()
    while len(plan.edges) < budget and pool:
        v = pool[draws.below(len(pool))]
        if not plan.add(v):
            pool.remove(v)
    return plan.done()


def baseline_pure_random(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str = "exact",
) -> InsertionPlan:
    """Sources uniform over the parochial set of ``color``, targets uniform."""
    _, pool = _prologue(graph, color, budget, cfg, backend)
    return _random_plan(graph, pool, color, budget, stream(cfg.seed, _TAG_BASELINE, 0))


def _top_pool(pool: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Top-``DEFAULT_TOP_PCT``-percent slice (ceiling) of the pool by
    descending score."""
    keep = int(np.ceil(DEFAULT_TOP_PCT / 100.0 * pool.size))
    order = np.lexsort((pool, -scores))
    return pool[order[:keep]]


def baseline_rcn(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str = "exact",
) -> InsertionPlan:
    """Random sources from the top-N-percent most central parochial nodes."""
    _, pool = _prologue(graph, color, budget, cfg, backend)
    scores = _centralities(graph, pool, cfg, backend, derive_seed(cfg.seed, _TAG_RWCC, 0))
    top = _top_pool(pool, scores)
    return _random_plan(graph, top, color, budget, stream(cfg.seed, _TAG_BASELINE, 1))


def baseline_rwcn(
    graph: ColoredGraph,
    color: str,
    budget: int,
    cfg: WalkConfig,
    backend: str = "exact",
) -> InsertionPlan:
    """Like the central baseline, but ranks by centrality * oracle weight."""
    _, pool = _prologue(graph, color, budget, cfg, backend)
    scores = _centralities(graph, pool, cfg, backend, derive_seed(cfg.seed, _TAG_RWCC, 0))
    scores = scores * weight_oracle(graph, pool)
    top = _top_pool(pool, scores)
    return _random_plan(graph, top, color, budget, stream(cfg.seed, _TAG_BASELINE, 2))


#: Registry used by the sweep harness and the CLI; every entry takes
#: ``(graph, color, budget, cfg, backend="exact")`` and draws from ``cfg.seed``.
ALGORITHMS = {
    "repbublik": repbublik,
    "repbublik-plus": repbublik_plus,
    "pure-random": baseline_pure_random,
    "rcn": baseline_rcn,
    "rwcn": baseline_rwcn,
}

#: The registry entries whose plan under the exact backend draws nothing, so
#: that it is a function of the graph and the walk settings alone: the sweep
#: builds it once and shares it across repetition seeds.
EXACT_SEED_FREE = frozenset({"repbublik", "repbublik-plus"})
