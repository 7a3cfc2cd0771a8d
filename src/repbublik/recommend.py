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

import warnings
from typing import Collection

import numpy as np

from .errors import NoLegalTarget, NoOppositeColor
from .bias import br_table
# ``exact_rwcc`` and ``insert_edge`` stay bound here because the benchmark's
# traced pass (perfbench/spans.py) patches these names.
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
from .montecarlo import derive_seed, estimate_rwcc, stream

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

    The exact backend runs one block pass; the Monte Carlo backend runs one
    estimate per node with ``cfg``'s accuracy and ``kappa`` and the given
    seed.
    """
    if backend == "exact":
        return exact_rwcc_many(graph, nodes, sources, horizon)
    if backend != "mc":
        raise ValueError(f"unknown backend {backend!r}")
    return np.array([
        estimate_rwcc(
            graph, int(v), sources, horizon, cfg.epsilon, cfg.delta,
            kappa=cfg.kappa, seed=seed,
        )
        for v in nodes
    ])


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


def _legal_targets(
    graph: ColoredGraph, v: int, taken: Collection[int] = ()
) -> np.ndarray:
    """Opposite-color nodes, ascending, that ``v`` links to neither in
    ``graph`` nor through the already planned targets ``taken``."""
    legal = ~graph.color_mask(graph.color_of(v))
    legal[graph.row(v)[0]] = False
    legal[list(taken)] = False
    return np.flatnonzero(legal)


def _pick_target(
    legal: np.ndarray,
    v: int,
    policy: str,
    br: BrTable | None,
    rng: np.random.Generator | None,
) -> int:
    """``lowest-br``: the legal target of smallest BR (ties: lowest id);
    ``uniform-seeded``: one uniform draw from ``rng``."""
    if legal.size == 0:
        raise NoLegalTarget(v)
    if policy == "uniform-seeded":
        return int(legal[rng.integers(legal.size)])
    if policy == "lowest-br":
        order = np.lexsort((legal, br.values[legal]))
        return int(legal[order[0]])
    raise ValueError(f"unknown target policy {policy!r}")


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
    br = br_table(current, cfg, backend, seed) if policy == "lowest-br" else None
    rng = stream(seed, _TAG_TARGET, v) if policy == "uniform-seeded" else None
    return _pick_target(_legal_targets(current, v), v, policy, br, rng)


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
    node maximizing centrality times oracle weight (ties: lowest id).  Stops
    early once no parochial node of ``color`` is left.
    """
    seed, br, pool = _prologue(graph, color, budget, cfg, seed, backend)
    rng = stream(seed, _TAG_TARGET)
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
        i = int(np.argmax(scores * weights))  # argmax returns the first max
        source = int(pool[i])
        target = _pick_target(_legal_targets(current, source), source, policy, br, rng)
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

    Targets are chosen against the input graph's BR table: inserting edges
    from ``color`` nodes changes only ``color`` rows, and a walk from the
    opposite color stops at its first ``color`` node, so the opposite
    color's Bubble Radii cannot move while the plan is built.
    """
    seed, _, pool = _prologue(graph, color, budget, cfg, seed, backend)
    if pool.size == 0 or budget == 0:
        return InsertionPlan(edges=(), color=color, requested=budget)
    base = _centralities(graph, pool, cfg, backend, derive_seed(seed, _TAG_RWCC, 0))
    target_br = br_table(graph, cfg, backend, seed) if policy == "lowest-br" else None
    rng = stream(seed, _TAG_TARGET)

    planned = np.zeros(graph.n, dtype=np.int64)  # edges planned per source
    open_ = np.ones(pool.size, dtype=bool)  # sources with legal targets left
    taken: dict[int, list[int]] = {}
    edges: list[EdgeInsertion] = []
    while len(edges) < budget and open_.any():
        weight = _oracle_weights(graph, pool, planned)
        eta = planned[pool] + 1
        score = base * weight / eta
        ranked = np.lexsort((pool, eta, -score))
        i = int(ranked[open_[ranked]][0])
        v = int(pool[i])
        try:
            target = _pick_target(
                _legal_targets(graph, v, taken.get(v, ())), v, policy, target_br, rng
            )
        except NoLegalTarget:
            open_[i] = False
            continue
        edges.append(EdgeInsertion(v, target, float(weight[i])))
        taken.setdefault(v, []).append(target)
        planned[v] += 1
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
    planned: dict[int, list[int]] = {}  # targets planned per source
    edges: list[EdgeInsertion] = []
    while len(edges) < budget and pool:
        v = pool[int(rng.integers(len(pool)))]
        legal = _legal_targets(graph, v, planned.get(v, ()))
        if legal.size == 0:
            pool.remove(v)
            continue
        w = int(legal[rng.integers(legal.size)])
        taken = planned.setdefault(v, [])
        edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, planned=len(taken))))
        taken.append(w)
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
