"""Seeded Monte Carlo estimators for Bubble Radius and bounded closeness.

Sample sizes follow the Hoeffding bound for the Bubble Radius (a union bound
over all nodes) and a Chebyshev/Popoviciu bound for the closeness estimate.

Randomness comes from counter-based Philox streams keyed on
``(master seed, purpose, node id)``, one stream per node and purpose.  Each
node owns one block of uniforms with one row per walk and one column per
step:

- the Bubble Radius of ``v`` reads an ``(r, t)`` block from
  ``(seed, _STREAM_BR, v)``;
- the closeness of ``v`` draws its ``z`` sources from
  ``(seed, _STREAM_RWCC_SOURCES, v)`` and reads a ``(z * kappa, t')`` block
  from ``(seed, _STREAM_RWCC_WALKS, v)``, where draw ``i`` owns rows
  ``i * kappa`` to ``i * kappa + kappa - 1``; a draw equal to ``v``
  counts the full horizon whatever its rows hold.

The walks of many nodes step together.  Their blocks are laid end to end and
cut into walk passes of at most ``WALK_ELEMENTS`` uniforms (and at least one
row); a block that crosses a pass boundary is drawn in row slices from its
one generator, which yields the rows one draw of the whole block would.
Each estimate is reduced from its own node's rows alone, through exact
integer sums, so results are bit-identical whatever the budget and whatever
batch a node is estimated in, and identical (graph, config, seed) gives
identical estimates.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .exact import BrTable, _node_set, _validate_centrality_set
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    check_accuracy,
    check_count,
    check_seed,
    opposite,
)

# Stream purposes; part of the Philox key, never reused across call sites.
_STREAM_BR = 1
_STREAM_RWCC_SOURCES = 2
_STREAM_RWCC_WALKS = 3
_STREAM_SESSION = 4

#: Most uniforms one walk pass holds (a pass takes at least one row).  It
#: bounds the memory of a pass; no result depends on it.
WALK_ELEMENTS = 1 << 16


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for one (seed, purpose, ...) task."""
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit master seed."""
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _ceil(x: float) -> int:
    # Guard against float noise pushing an exact integer over the ceiling.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(x)


def br_sample_size(n: int, t: int, epsilon: float, delta: float) -> int:
    """Walks per node so that every node's estimate is epsilon-close w.p. 1-delta."""
    check_accuracy(epsilon, delta)
    check_count("n", n)
    check_count("horizon", t)
    return _ceil((t * t / (epsilon * epsilon)) * math.log(2.0 * n / delta))


def rwcc_sample_size(t_prime: int, epsilon: float, delta: float) -> int:
    """Sampled sources so the closeness estimate is epsilon-close w.p. 1-delta."""
    check_accuracy(epsilon, delta)
    check_count("horizon", t_prime)
    return _ceil((t_prime / (2.0 * epsilon)) ** 2 / delta)


class _WalkSampler:
    """Vectorized next-state sampling from the CSR rows of a graph.

    A walk at state ``s`` with uniform ``u`` moves to the first out-neighbor
    whose row-cumulative weight exceeds ``u``, or to the last one when
    rounding leaves ``u`` above the row total.  Every walk binary-searches
    its own row for the last entry ``<= u``: all walks take the same
    power-of-two steps, ``bit_length(max_degree)`` of them, clamped to the
    end of their row.  Positive weights keep each row's cumulative sums
    non-decreasing, so the search lands where a linear scan would.
    """

    def __init__(self, graph: ColoredGraph):
        self.indptr = graph.indptr
        self.targets = graph.targets
        deg = np.diff(graph.indptr)
        # Running sums one column position j at a time, over the rows long
        # enough to have it (a prefix of the rows by descending degree): the
        # bits of np.cumsum on each row alone, so no row's rounding depends
        # on the rows stored before it.  Once fewer than j rows are longer
        # than j, each of them finishes with its own cumsum from column
        # j - 1, which adds in the same order; so there are at most
        # sqrt(edges) column passes even with one huge row.
        order = np.argsort(-deg, kind="stable")
        heads, neg_deg = graph.indptr[order], -deg[order]  # neg_deg ascending
        max_deg = int(deg.max(initial=0))
        cum = self.rowcum = graph.weights.copy()
        j = 1
        while j < max_deg and (longer := int(np.searchsorted(neg_deg, -j))) >= j:
            at = heads[:longer] + j
            cum[at] += cum[at - 1]
            j += 1
        for lo, d in zip(heads.tolist(), (-neg_deg).tolist()):
            if d <= j:
                break
            cum[lo + j - 1 : lo + d] = np.cumsum(cum[lo + j - 1 : lo + d])
        rounds = max_deg.bit_length()
        self.steps = [1 << k for k in reversed(range(rounds))]

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        last = self.indptr[states + 1] - 1
        pos = self.indptr[states] - 1  # last entry known to be <= u; none yet
        for size in self.steps:
            cand = np.minimum(pos + size, last)
            pos = np.where(self.rowcum[cand] <= u, cand, pos)
        return self.targets[np.minimum(pos + 1, last)]


def _walk(
    sampler: _WalkSampler,
    starts: int | np.ndarray,
    stop: np.ndarray,
    uniforms: np.ndarray,
    goals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step every walk until it enters the ``stop`` set or runs out of steps.

    Walk i starts at ``starts`` (one node, or one node per walk) and reads
    row i of ``uniforms``, whose width is the horizon; with ``goals`` it
    also stops on reaching node ``goals[i]``.  Returns each walk's stop step
    and stop node; a walk that never stops gets the horizon and -1.
    """
    walks, horizon = uniforms.shape
    steps = np.full(walks, horizon, dtype=np.int64)
    ends = np.full(walks, -1, dtype=np.int64)
    states = np.full(walks, starts, dtype=np.int64)
    rows = np.arange(walks)
    for step in range(1, horizon + 1):
        nxt = sampler.step(states, uniforms[rows, step - 1])
        hit = stop[nxt]
        if goals is not None:
            hit |= nxt == goals
        stopped = rows[hit]
        steps[stopped] = step
        ends[stopped] = nxt[hit]
        going = ~hit
        rows = rows[going]
        states = nxt[going]
        if goals is not None:
            goals = goals[going]
        if rows.size == 0:
            break
    return steps, ends


def _walk_passes(
    seed: int, purpose: int, nodes: np.ndarray, per_node: int, horizon: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of ``nodes`` laid end to end, cut into walk passes.

    ``nodes[k]`` owns rows ``k * per_node`` to ``(k + 1) * per_node - 1`` of
    the whole, drawn from ``stream(seed, purpose, nodes[k])`` in row order.
    Yields ``(rows, uniforms)`` per pass: the indices of its rows in the
    whole and their uniforms, at most ``WALK_ELEMENTS`` of them but at least
    one row.  Every pass refills one buffer, so a pass's uniforms last until
    the next.
    """
    per_pass = max(1, WALK_ELEMENTS // horizon)
    total = nodes.size * per_node
    buffer = np.empty((min(per_pass, total), horizon))
    for first in range(0, total, per_pass):
        uniforms = buffer[: min(per_pass, total - first)]
        at = 0
        while at < len(uniforms):
            k, row = divmod(first + at, per_node)
            if row == 0:
                rng = stream(seed, purpose, int(nodes[k]))
            take = min(per_node - row, len(uniforms) - at)
            rng.random(out=uniforms[at : at + take])
            at += take
        yield np.arange(first, first + len(uniforms)), uniforms


def _add_by_owner(owner: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """``out[owner[i]] += values[i]`` for a non-decreasing ``owner``.  The
    values are whole numbers, so every partial sum is exact and the totals
    do not depend on how the values were split into passes."""
    out[owner[0] : owner[-1] + 1] += np.bincount(owner - owner[0], weights=values)


def estimate_br(
    graph: ColoredGraph,
    t: int,
    epsilon: float,
    delta: float,
    seed: int,
    walks_per_node: int | None = None,
) -> BrTable:
    """Monte Carlo Bubble Radius table: mean of r capped walk lengths per node.

    Walks stop when they hit the opposite color or after ``t`` steps,
    whichever comes first.  The walks of each color's nodes step together,
    and node ``v`` reads its own ``(seed, _STREAM_BR, v)`` block.
    Deterministic for a fixed seed.
    """
    check_count("horizon", t)
    r = walks_per_node if walks_per_node is not None else br_sample_size(
        graph.n, t, epsilon, delta
    )
    check_count("walks_per_node", r)
    sampler = _WalkSampler(graph)
    values = np.empty(graph.n)
    for color in (RED, BLUE):
        nodes = graph.nodes_of(color)
        absorbing = graph.color_mask(opposite(color))
        lengths = np.zeros(nodes.size)  # summed over each node's r walks
        for rows, uniforms in _walk_passes(seed, _STREAM_BR, nodes, r, t):
            owner = rows // r
            steps, _ = _walk(sampler, nodes[owner], absorbing, uniforms)
            _add_by_owner(owner, steps, lengths)
        values[nodes] = lengths / r
    return BrTable(values=values, t=t, provenance="estimated")


def estimate_rwcc_many(
    graph: ColoredGraph,
    nodes: Iterable[int],
    sources: Iterable[int],
    t_prime: int,
    epsilon: float,
    delta: float,
    kappa: int = 4,
    seed: int = 0,
    num_sources: int | None = None,
) -> np.ndarray:
    """Monte Carlo bounded closeness c_{t'}(v, S) for every v in ``nodes``.

    The twin of :func:`exact.exact_rwcc_many`: entry j belongs to the j-th
    entry of ``nodes``.  For each node v, draws z sources uniformly at
    random with replacement, estimates each drawn source's capped hit time
    of v as the mean of ``kappa`` walks, and returns t' minus the grand
    mean.  A walk stops when it enters the opposite color or reaches v.  A
    drawn source equal to v contributes the full horizon (zero centrality),
    matching the exact form in which the self term is skipped.  The walks
    of all nodes step together; each estimate reads only its node's
    streams, so it does not depend on the other entries of ``nodes``.
    """
    check_count("horizon", t_prime)
    check_count("kappa", kappa)
    targets = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    uniq = _node_set(graph, targets)
    src = _node_set(graph, sources)
    _validate_centrality_set(graph, targets, src)
    z = num_sources if num_sources is not None else rwcc_sample_size(
        t_prime, epsilon, delta
    )
    check_count("num_sources", z)
    if uniq.size == 0:
        return np.empty(0)
    starts = np.concatenate([
        src[stream(seed, _STREAM_RWCC_SOURCES, int(v)).integers(0, src.size, size=z)]
        for v in uniq
    ])
    absorbing = graph.color_mask(opposite(graph.color_of(int(uniq[0]))))
    sampler = _WalkSampler(graph)
    hit_sums = np.zeros(uniq.size * z)  # summed over each draw's kappa walks
    passes = _walk_passes(seed, _STREAM_RWCC_WALKS, uniq, z * kappa, t_prime)
    for rows, uniforms in passes:
        draw = rows // kappa
        goal, start = uniq[draw // z], starts[draw]
        steps, ends = _walk(sampler, start, absorbing, uniforms, goal)
        # Only a stop at v shortens a walk's capped hit time; a walk of a
        # self draw counts the full horizon whatever it does.
        times = np.where((ends == goal) & (start != goal), steps, t_prime)
        _add_by_owner(draw, times, hit_sums)
    h_bars = (hit_sums / kappa).reshape(uniq.size, z)
    values = t_prime - h_bars.mean(axis=1)
    return values[np.searchsorted(uniq, targets)]


def estimate_rwcc(
    graph: ColoredGraph,
    v: int,
    sources: Iterable[int],
    t_prime: int,
    epsilon: float,
    delta: float,
    kappa: int = 4,
    seed: int = 0,
    num_sources: int | None = None,
) -> float:
    """Monte Carlo bounded closeness of ``v`` w.r.t. a monochromatic set:
    ``estimate_rwcc_many`` for the one node ``v``."""
    return float(estimate_rwcc_many(
        graph, (v,), sources, t_prime, epsilon, delta, kappa, seed, num_sources
    )[0])


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
    sampler = _WalkSampler(graph)
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
