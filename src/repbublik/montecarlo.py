"""Seeded Monte Carlo estimators for Bubble Radius and bounded closeness.

Sample sizes follow the Hoeffding bound for the Bubble Radius (a union bound
over all nodes) and a Chebyshev/Popoviciu bound for the closeness estimate.
Randomness comes from counter-based Philox streams keyed on
``(master seed, purpose, node id)``: walk ``i`` of a node reads row ``i`` of
that node's uniform block, so scheduling or worker count can never change a
result and identical (graph, config, seed) gives bit-identical estimates.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import EmptySourceSet, MixedColorSet
from .exact import BrTable, _node_set
from .graph import ColoredGraph, check_accuracy, opposite

# Stream purposes; part of the Philox key, never reused across call sites.
_STREAM_BR = 1
_STREAM_RWCC_SOURCES = 2
_STREAM_RWCC_WALKS = 3
_STREAM_SESSION = 4


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for one (seed, purpose, ...) task."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit master seed."""
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
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    return _ceil((t * t / (epsilon * epsilon)) * math.log(2.0 * n / delta))


def rwcc_sample_size(t_prime: int, epsilon: float, delta: float) -> int:
    """Sampled sources so the closeness estimate is epsilon-close w.p. 1-delta."""
    check_accuracy(epsilon, delta)
    if t_prime < 1:
        raise ValueError("need t' >= 1")
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
        cs = np.cumsum(graph.weights)
        row_prefix = cs[graph.indptr[:-1]] - graph.weights[graph.indptr[:-1]]
        self.rowcum = cs - np.repeat(row_prefix, deg)
        rounds = int(deg.max(initial=0)).bit_length()
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
) -> tuple[np.ndarray, np.ndarray]:
    """Step every walk until it enters the ``stop`` set or runs out of steps.

    Walk i starts at ``starts`` (one node, or one node per walk) and reads
    row i of ``uniforms``, whose width is the horizon.  Returns each walk's
    stop step and stop node; a walk that never stops gets the horizon and
    -1.
    """
    walks, horizon = uniforms.shape
    steps = np.full(walks, horizon, dtype=np.int64)
    ends = np.full(walks, -1, dtype=np.int64)
    states = np.full(walks, starts, dtype=np.int64)
    rows = np.arange(walks)
    for step in range(1, horizon + 1):
        nxt = sampler.step(states, uniforms[rows, step - 1])
        hit = stop[nxt]
        stopped = rows[hit]
        steps[stopped] = step
        ends[stopped] = nxt[hit]
        rows = rows[~hit]
        states = nxt[~hit]
        if rows.size == 0:
            break
    return steps, ends


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
    whichever comes first.  Deterministic for a fixed seed.
    """
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    r = walks_per_node if walks_per_node is not None else br_sample_size(
        graph.n, t, epsilon, delta
    )
    if r < 1:
        raise ValueError("need at least one walk per node")
    sampler = _WalkSampler(graph)
    values = np.empty(graph.n)
    for v in range(graph.n):
        absorbing = graph.color_mask(opposite(graph.color_of(v)))
        uniforms = stream(seed, _STREAM_BR, v).random((r, t))
        lengths, _ = _walk(sampler, v, absorbing, uniforms)
        values[v] = lengths.mean()
    return BrTable(values=values, t=t, provenance="estimated")


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
    """Monte Carlo bounded closeness of ``v`` w.r.t. a monochromatic set.

    Draws z sources uniformly at random with replacement, estimates each
    source's capped hit time of ``v`` as the mean of ``kappa`` walks, and
    returns t' minus the grand mean.  A drawn source equal to ``v`` itself
    contributes the full horizon (zero centrality), matching the exact form
    in which the self term is skipped.
    """
    if t_prime < 1:
        raise ValueError(f"horizon must be >= 1, got {t_prime}")
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    _node_set(graph, (v,))
    src = _node_set(graph, sources)
    if src.size == 0:
        raise EmptySourceSet("closeness estimation needs a non-empty source set")
    if not (graph.colors[src] == graph.color_of(v)).all():
        raise MixedColorSet("sources must all share the color of v")

    z = num_sources if num_sources is not None else rwcc_sample_size(
        t_prime, epsilon, delta
    )
    picks = stream(seed, _STREAM_RWCC_SOURCES, v).integers(0, src.size, size=z)
    starts = src[picks]
    walked = np.flatnonzero(starts != v)
    h_bars = np.full(z, float(t_prime))
    if walked.size:
        # All kappa walks of every drawn source step together; draw i still
        # reads its own (seed, purpose, v, i) block.
        uniforms = np.concatenate([
            stream(seed, _STREAM_RWCC_WALKS, v, int(i)).random((kappa, t_prime))
            for i in walked
        ])
        # A walk stops at v or at the opposite color; only a stop at v
        # shortens its capped hit time.
        stop = graph.color_mask(opposite(graph.color_of(v))).copy()
        stop[v] = True
        walk_starts = np.repeat(starts[walked], kappa)
        steps, ends = _walk(_WalkSampler(graph), walk_starts, stop, uniforms)
        times = np.where(ends == v, steps, t_prime)
        h_bars[walked] = times.reshape(walked.size, kappa).mean(axis=1)
    return float(t_prime - h_bars.mean())


def simulate_restart_session(
    graph: ColoredGraph, v: int, t: int, restarts: int, seed: int
) -> int | None:
    """Browsing session from ``v`` with up to ``restarts`` attempts.

    Runs sequential walk segments of at most ``t`` steps each; a segment that
    ends without touching the opposite color triggers a restart from ``v``.
    Returns the total number of steps across segments up to the first hit,
    or None if every segment failed.
    """
    if t < 1 or restarts < 1:
        raise ValueError("need t >= 1 and restarts >= 1")
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
