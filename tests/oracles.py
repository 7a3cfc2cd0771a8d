"""Test oracles: the reference computations that check the package.

No CLI verb, recommender, sweep step or engine calls these, so they live
with the tests.  They are the transition matrix M built from the CSR
arrays, the bounded hitting times and first-passage profiles stepped on it
that the exact engines are checked against, the one-node return-mass
profile, the Bubble Radius gain of a plan (exact or estimated), the paper's
browsing-session model, the brute-force optimum of the insertion problem,
the one-source target choice of the recommenders, the mask-based random
plan drawn with ``Generator.integers``, the edge-by-edge ``np.insert``
growth of a graph, the per-walk walker the sessions run on, and the walk-stream
walker with the walk-by-walk reductions the Monte Carlo estimators must
equal bit for bit, draw for draw.  Tests import this module the way they import ``conftest``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repbublik.bias import br_table
from repbublik.errors import (
    EdgeExists,
    EmptySourceSet,
    GraphValidationError,
    NonStochasticRow,
    RepbublikError,
    SameColorEndpoints,
    UnknownColor,
)
from repbublik.exact import _node_set, _return_profiles, exact_br, parochial_nodes
from repbublik.graph import (
    ROW_SUM_TOL,
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    apply_plan,
    check_count,
    opposite,
    weight_oracle,
)
from repbublik.montecarlo import (
    _STREAM_BR,
    _STREAM_RWCC_SOURCES,
    _STREAM_RWCC_WALKS,
    _WALK_GROUP,
    _sampler_of,
    _WalkSampler,
    estimate_br,
    stream,
)
from repbublik.recommend import _Plan

# The browsing session's stream purpose; the package's walk streams use 1-3.
_STREAM_SESSION = 4


class SourceIsTarget(GraphValidationError):
    """First-passage source and target coincide; use the return-mass profile."""


class NoLegalTarget(RepbublikError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"all cross-color edges from node {node} already exist")


class TargetInAvoidSet(GraphValidationError):
    """First-passage target has the opposite color of the source."""


class EnumerationTooLarge(RepbublikError):
    def __init__(self, plans: int, cap: int):
        self.plans, self.cap = plans, cap
        super().__init__(f"{plans} candidate plans exceed the enumeration cap {cap}")


def transition_matrix(graph: ColoredGraph) -> sp.csr_matrix:
    """M, the graph's right-stochastic transition matrix, built from its CSR
    arrays; the reference programs step on it, not on the engine's W."""
    return sp.csr_matrix(
        (graph.weights, graph.targets, graph.indptr), shape=(graph.n, graph.n)
    )


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
    matrix = transition_matrix(graph)
    for _ in range(t - 1):
        survival = matrix @ survival
        survival[absorbed] = 0.0
        expected += survival
    return expected


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

    matrix_t = transition_matrix(graph).T.tocsr()
    absorb = graph.color_mask(opposite(graph.color_of(source))).copy()
    absorb[target] = True
    dist = np.zeros(graph.n)
    dist[source] = 1.0
    probs = np.zeros(t + 1)
    for step in range(1, t + 1):
        dist = matrix_t @ dist
        probs[step] = dist[target]
        dist[absorb] = 0.0
    return FirstPassageProfile(source=source, target=target, horizon=t, probs=probs)


def exact_return_mass(
    graph: ColoredGraph, v: int, t_prime: int
) -> tuple[np.ndarray, float]:
    """Return-visit probabilities of ``v`` before touching the other color.

    ``p[i]`` is the probability that a walk from ``v`` is at ``v`` at step
    ``i`` while avoiding the opposite color at steps 1..i; earlier revisits
    of ``v`` do not stop the walk.  Returns ``(p[0..t'-1], F)`` with
    ``F = sum(p)``; ``p[0] = 1`` and ``p[1] = 0`` always (no self-loops).
    The one-node case of the block pass ``exact_gamma`` runs.
    """
    check_count("horizon", t_prime)
    p = _return_profiles(graph, _node_set(graph, (v,)), t_prime)[0]
    assert t_prime < 2 or p[1] == 0.0, "a self-loop slipped past graph validation"
    return p, float(p.sum())


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


def gain(
    graph: ColoredGraph,
    nodes: Iterable[int],
    plan: InsertionPlan | Sequence[EdgeInsertion],
    t: int,
    backend: str = "exact",
    cfg: WalkConfig | None = None,
) -> float:
    """Mean Bubble Radius drop over ``nodes`` due to ``plan``.

    The Monte Carlo backend estimates the before/after tables with the same
    seed, so walk noise largely cancels in the difference.
    """
    if backend == "exact":
        return exact_gain(graph, nodes, plan, t)
    if backend != "mc":
        raise ValueError(f"unknown backend {backend!r}")
    if cfg is None:
        raise ValueError("the mc backend needs a WalkConfig for epsilon/delta/seed")
    return _gain(
        graph, nodes, plan, t,
        lambda g: estimate_br(g, t, cfg.epsilon, cfg.delta, cfg.seed).values,
    )


def brute_force_opt(
    graph: ColoredGraph,
    color: str,
    k: int,
    t: int,
    theta_bad: float | None = None,
    enumeration_cap: int = 200_000,
) -> tuple[InsertionPlan, float]:
    """Exhaustive optimum of the k-edge insertion problem.

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
            planned = sum(1 for e in edges if e.src == v)
            edges.append(EdgeInsertion(v, w, weight_oracle(graph, v, planned=planned)))
        gain = exact_gain(graph, parochial, edges, t)
        if gain > best_gain:
            best_gain = gain
            best_edges = tuple(edges)
    return InsertionPlan(edges=best_edges, color=color, requested=k), float(best_gain)


def _walk(
    sampler: _WalkSampler, starts: int | np.ndarray, stop: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step every walk until it enters the ``stop`` set or runs out of steps.

    Walk i starts at ``starts`` (one node, or one node per walk) and reads
    row i of ``uniforms``, whose width is the horizon.  Returns each walk's
    stop step and stop node; a walk that never stops gets the horizon and
    -1.  Unlike the package's walk loop it takes every step, the last too,
    and records each walk's own stop.
    """
    walks, horizon = uniforms.shape
    steps = np.full(walks, horizon, dtype=np.int64)
    ends = np.full(walks, -1, dtype=np.int64)
    states = np.full(walks, starts, dtype=np.int64)
    rows = np.arange(walks)
    columns = uniforms.T.copy()  # one contiguous row per step: 1-D gathers
    for step in range(1, horizon + 1):
        nxt = sampler.step(states, columns[step - 1][rows])
        hit = stop[nxt]
        stopped = rows[hit]
        steps[stopped] = step
        ends[stopped] = nxt[hit]
        going = ~hit
        rows = rows[going]
        states = nxt[going]
        if rows.size == 0:
            break
    return steps, ends


def _walk_stream(seed: int, *key: int) -> np.random.Generator:
    """The SFC64 walk stream of ``(seed, purpose, ...)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def walk_steps(
    graph: ColoredGraph, rng: np.random.Generator, starts: np.ndarray,
    stop: np.ndarray, horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stream's walks as the walk stream ``rng`` runs them.

    Walk i starts at ``starts[i]``.  The walks run in groups of
    ``_WALK_GROUP``, one group after the other; a group steps through every
    step but the last, and before each step draws one uniform per walk
    still live, in walk order.  A walk at ``s`` moves to the out-neighbor
    ``count(rowcum <= u)`` of its row, the count taken over the row's inner
    edges by a search of the whole row.  It stops on entering the ``stop``
    set.  Returns each walk's steps taken (its uniforms drawn), its stop
    node (-1 for a walk that never stopped) and its path: ``paths[i, k]`` is
    its node after step k while it has not stopped, else -1.
    """
    indptr, targets = graph.indptr, graph.targets
    rowcums = [np.cumsum(graph.weights[a:b]) for a, b in zip(indptr, indptr[1:])]
    steps = np.zeros(starts.size, dtype=np.int64)
    ends = np.full(starts.size, -1, dtype=np.int64)
    paths = np.full((starts.size, horizon), -1, dtype=np.int64)
    paths[:, 0] = starts
    for first in range(0, starts.size, _WALK_GROUP):
        walks = np.arange(first, min(first + _WALK_GROUP, starts.size))
        states = starts[walks]
        for k in range(1, horizon):
            if walks.size == 0:
                break
            u = rng.random(walks.size)
            nxt = np.empty_like(states)
            for s in np.unique(states).tolist():
                at = np.flatnonzero(states == s)
                inner = rowcums[s][:-1]
                moves = (inner[None, :] <= u[at, None]).sum(axis=1)
                nxt[at] = targets[indptr[s] + moves]
            steps[walks] += 1
            hit = stop[nxt]
            ends[walks[hit]] = nxt[hit]
            walks, states = walks[~hit], nxt[~hit]
            paths[walks, k] = states
    return steps, ends, paths


def br_by_walks(
    graph: ColoredGraph, t: int, r: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_br(graph, t, epsilon, delta, seed).values`` reduced walk by
    walk, with each node's uniforms drawn, for the r walks per node that
    ``br_sample_size(graph.n, t, epsilon, delta)`` sizes.

    The red nodes' walks and then the blue nodes' run by :func:`walk_steps`
    on the one ``(seed, _STREAM_BR)`` walk stream, each color's over
    ``np.repeat(nodes, r)``: r walks from each node, in node order.  A walk
    that stops at step k scores k, any other t; a node's value is the mean
    of its walks' scores, and its draws the sum of their steps.
    """
    values = np.empty(graph.n)
    draws = np.zeros(graph.n, dtype=np.int64)
    rng = _walk_stream(seed, _STREAM_BR)
    for color in ("R", "B"):
        nodes = graph.nodes_of(color)
        absorbing = graph.color_mask(opposite(color))
        steps, ends, _ = walk_steps(graph, rng, np.repeat(nodes, r), absorbing, t)
        scores = np.where(ends >= 0, steps, t).reshape(nodes.size, r)
        values[nodes] = scores.sum(axis=1) / r
        draws[nodes] = steps.reshape(nodes.size, r).sum(axis=1)
    return values, draws


def rwcc_by_walks(
    graph: ColoredGraph, nodes: Iterable[int], sources: Iterable[int],
    t_prime: int, seed: int, draws: int,
) -> tuple[np.ndarray, int]:
    """``estimate_rwcc_many(graph, nodes, sources, t_prime, epsilon, delta,
    seed)`` reduced walk by walk, with the uniforms the request draws, for
    the N = ``draws`` sources that ``rwcc_sample_size(graph.n, t_prime,
    epsilon, delta)`` sizes.

    The N picks come from the ``(seed, _STREAM_RWCC_SOURCES)`` stream, and
    walk i of the one ``(seed, _STREAM_RWCC_WALKS)`` walk stream starts at
    pick i; :func:`walk_steps` runs each until it enters the other color.
    Each node a walk first visits at a step k < t', other than its start,
    scores t' - k; a node's value is its total over the N walks divided by
    N.
    """
    src = np.asarray(sorted(set(sources)), dtype=np.int64)
    picks = stream(seed, _STREAM_RWCC_SOURCES).integers(0, src.size, size=draws)
    starts = src[picks]
    stop = graph.color_mask(opposite(graph.color_of(int(src[0]))))
    rng = _walk_stream(seed, _STREAM_RWCC_WALKS)
    steps, _, paths = walk_steps(graph, rng, starts, stop, t_prime)
    totals = np.zeros(graph.n)
    for path in paths.tolist():
        seen = {path[0]}
        for k, node in enumerate(path[1:], start=1):
            if node >= 0 and node not in seen:
                seen.add(node)
                totals[node] += t_prime - k
    values = totals[np.fromiter(nodes, dtype=np.int64)] / starts.size
    return values, int(steps.sum())


def simulate_restart_session(
    graph: ColoredGraph, v: int, t: int, restarts: int, seed: int
) -> int | None:
    """Browsing session from ``v`` with up to ``restarts`` attempts.

    Runs sequential walk segments of at most ``t`` steps each; a segment that
    ends without touching the opposite color triggers a restart from ``v``.
    Returns the total number of steps across segments up to the first hit,
    or None if every segment failed.
    """
    check_count("horizon", t)
    check_count("restarts", restarts)
    _node_set(graph, (v,))
    sampler = _sampler_of(graph)
    absorbing = graph.color_mask(opposite(graph.color_of(v)))
    rng = stream(seed, _STREAM_SESSION, v)
    total = 0
    for _ in range(restarts):
        uniforms = rng.random((1, t))
        steps, ends = _walk(sampler, v, absorbing, uniforms)
        total += int(steps[0])
        if ends[0] >= 0:
            return total
    return None


def target_selection(
    graph: ColoredGraph,
    v: int,
    plan: InsertionPlan | tuple[EdgeInsertion, ...],
    cfg: WalkConfig,
    backend: str = "exact",
) -> int:
    """Pick the destination for the next insertion from ``v`` given ``plan``:
    the opposite-color node with the smallest current Bubble Radius among
    targets not already linked from ``v``, ties to the lowest node id.
    """
    current = apply_plan(graph, plan)
    one = _Plan(current, current.color_of(v), 1)
    one.rank(br_table(current, cfg, backend, cfg.seed))
    if not one.add(v):
        raise NoLegalTarget(v)
    return one.edges[-1].dst


def legal_targets(graph: ColoredGraph, v: int, taken: Iterable[int] = ()) -> np.ndarray:
    """The nodes ``v`` may still link to, ascending, from an n-long mask:
    the other color without ``v``'s out-neighbors and ``taken``."""
    legal = ~graph.color_mask(graph.color_of(v))
    legal[graph.row(v)[0]] = False
    legal[list(taken)] = False
    return np.flatnonzero(legal)


def random_plan_by_integers(
    graph: ColoredGraph, pool: Iterable[int], budget: int, rng: np.random.Generator
) -> tuple[tuple[int, int, float], ...]:
    """The (src, dst, weight) triples of a random baseline plan drawn with
    one scalar ``rng.integers`` call per draw: a source uniform from the
    pool, then a target uniform over its mask-based legal targets; a source
    without one is dropped from the pool and draws no target."""
    pool = [int(v) for v in pool]
    planned: dict[int, list[int]] = {}
    edges = []
    while len(edges) < budget and pool:
        v = pool[int(rng.integers(len(pool)))]
        legal = legal_targets(graph, v, planned.get(v, ()))
        if legal.size == 0:
            pool.remove(v)
            continue
        w = int(legal[rng.integers(legal.size)])
        taken = planned.setdefault(v, [])
        edges.append((v, w, weight_oracle(graph, v, planned=len(taken))))
        taken.append(w)
    return tuple(edges)


def insert_one_by_one(graph: ColoredGraph, plan: Iterable[EdgeInsertion]) -> ColoredGraph:
    """``apply_plan`` edge by edge, one graph per edge, each grown with two
    ``np.insert`` calls: the same checks in the same order, and the same
    float operations on every entry."""
    for edge in plan:
        v, w, m = edge.src, edge.dst, edge.weight
        if not (0 <= v < graph.n and 0 <= w < graph.n):
            raise UnknownColor(f"insertion ({v}, {w}) references a node outside the graph")
        if graph.color_of(v) == graph.color_of(w):
            raise SameColorEndpoints(v, w)
        if graph.has_edge(v, w):
            raise EdgeExists(v, w)
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        pos = lo + int(np.searchsorted(graph.targets[lo:hi], w))
        targets = np.insert(graph.targets, pos, w)
        weights = graph.weights.copy()
        weights[lo:hi] *= 1.0 - m
        weights = np.insert(weights, pos, m)
        indptr = graph.indptr.copy()
        indptr[v + 1 :] += 1
        new_sum = math.fsum(weights[lo : hi + 1])  # apply_plan's row-sum rule
        if abs(new_sum - 1.0) > ROW_SUM_TOL:
            raise NonStochasticRow(v, new_sum, "renormalization drifted")
        graph = ColoredGraph(
            colors=graph.colors, indptr=indptr, targets=targets, weights=weights
        )
    return graph
