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

A walk step moves to out-edge ``count(rowcum <= u)`` of its row.  It finds
that count with one lookup in a bucket guide: each row's range of ``u`` is
cut into a power of two of equal buckets, and scaling by a power of two is
exact, so both ends of a bucket have exact integer answers.  The count is
monotone in ``u``, so a bucket whose ends agree settles every ``u`` in it;
only a walk in a bucket whose ends differ searches the few edges between
them, with the same comparison.  Every step is thus bit-identical to a
search of the whole row (see :class:`_WalkSampler`).  The sampler is
derived from the graph alone, with no seed, so each graph builds it once
and keeps it in ``graph.memo``.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .exact import BrTable, _centrality_request, _node_set
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

#: Guide buckets per out-edge, at least: each row gets the least power of
#: two at or above ``GUIDE`` times its degree.  It trades the guide's size
#: against the share of steps that search a bucket; no result depends on it.
GUIDE = 4

_BELOW_ONE = np.nextafter(1.0, 0.0)


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


def _row_cumsum(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of every CSR row alone, bit for bit.

    Rows of one degree d are gathered into a (rows, d) block and summed
    along axis 1, which adds each row left to right as its own cumsum does;
    so no row's rounding depends on the rows stored before it.  There is
    one pass per distinct degree, so fewer than sqrt(2 * edges) passes.
    """
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    starts = np.flatnonzero(np.diff(deg[order], prepend=-1)).tolist()
    cum = np.empty_like(weights)
    for lo, hi in zip(starts, starts[1:] + [order.size]):
        rows = order[lo:hi]
        at = indptr[rows, None] + np.arange(deg[rows[0]])
        cum[at] = np.cumsum(weights[at], axis=1)
    return cum


def _bucket_keys(
    indptr: np.ndarray, cum: np.ndarray, scale: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every edge's guide bucket, and whether it ends strictly inside it.

    An inner edge's bucket is its row's offset plus ``min(floor(rowcum *
    2**b), 2**b - 1)``, and it straddles when ``rowcum * 2**b`` lies above
    that (not on the bucket's lower end); a row's last edge gets the next
    row's offset.  Keys never decrease along the edge array.
    """
    edge_row = np.repeat(np.arange(scale.size, dtype=np.int32), np.diff(indptr))
    width = scale[edge_row]
    scaled = cum * width
    bucket = np.minimum(np.floor(scaled), width - 1)
    straddles = scaled > bucket
    last = indptr[1:] - 1
    bucket[last], straddles[last] = width[last], False
    keys = offsets[edge_row]
    keys += bucket.astype(np.int64)
    return keys, straddles


class _WalkSampler:
    """Vectorized next-state sampling from the CSR rows of a graph.

    A walk at state ``s`` with uniform ``u`` moves to out-edge
    ``count(rowcum <= u)`` of its row, the count taken over the row's inner
    edges (all but the last): the first out-neighbor whose row-cumulative
    weight exceeds ``u``, or the last one when rounding leaves ``u`` above
    the row total.  Positive weights keep ``rowcum`` non-decreasing along a
    row, so the count is monotone in ``u``.

    A bucket guide finds the count in one lookup.  Row ``s`` is cut into
    ``2**b`` equal buckets of ``u``, the least power of two at or above
    ``GUIDE`` times its degree; a step's key is ``offsets[s] + floor(min(u,
    1-) * 2**b)``.  Scaling by a power of two is exact, so both ends of
    bucket ``i`` have exact integer answers: at ``u = i / 2**b`` the count
    is of inner edges with ``ceil(rowcum * 2**b) <= i``, and just below
    ``(i + 1) / 2**b`` of those with ``floor(rowcum * 2**b) <= i``; the
    row's last bucket reaches past ``u = 1`` to the row's end.  As the
    count is monotone, every ``u`` in a bucket whose two ends agree has
    that answer, and the guide stores its next node.  Any other bucket
    stores ``-1 - j`` for span ``j``, the inner edges whose weights end
    inside it, and only the walks that land there binary-search that span
    with the same ``rowcum <= u`` comparison.  So every step has the bits
    of a search of the whole row; ``GUIDE`` sets only the guide's size
    (under ``2 * GUIDE`` entries per edge) and the share of steps that
    search.
    """

    def __init__(self, graph: ColoredGraph):
        self.targets = graph.targets
        self.rowcum = _row_cumsum(graph.indptr, graph.weights)
        bits = np.frexp((GUIDE * np.diff(graph.indptr) - 1).astype(float))[1]
        self.scale = np.ldexp(1.0, bits)  # 2**b per row
        sizes = self.scale.astype(np.int64)
        self.offsets = np.cumsum(sizes) - sizes  # each row's first bucket
        keys, straddles = _bucket_keys(graph.indptr, self.rowcum, self.scale, self.offsets)
        # Within a bucket the edges on its lower end come first, so an
        # ambiguous bucket's span runs from its first straddling edge to its
        # last edge.
        inside = np.flatnonzero(straddles)
        first = np.flatnonzero(np.diff(keys[inside], prepend=-1))
        ambiguous = keys[inside[first]]
        self.span_first = inside[first] - 1  # the last edge known to be <= u
        self.span_last = np.append(inside[first[1:] - 1], inside[-1:])
        del inside, first, straddles  # bound the peak: the guide is larger
        # Bucket k's answer at its upper end is edge #{keys <= k}.
        self.guide = np.repeat(self.targets, np.diff(keys, prepend=0))
        del keys
        self.guide[ambiguous] = ~np.arange(ambiguous.size)
        widest = int((self.span_last - self.span_first).max(initial=0))
        self.search = [1 << k for k in reversed(range(widest.bit_length()))]
        for arr in (self.rowcum, self.scale, self.offsets, self.guide,
                    self.span_first, self.span_last):
            arr.setflags(write=False)

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next node of each walk for uniforms ``u``; any ``u`` from the
        row's total up takes the row's last edge."""
        key = self.offsets[states] + (
            np.minimum(u, _BELOW_ONE) * self.scale[states]
        ).astype(np.int64)
        nxt = self.guide[key]
        miss = np.flatnonzero(nxt < 0)
        if miss.size:
            span, um = ~nxt[miss], u[miss]
            pos, last = self.span_first[span], self.span_last[span]
            for size in self.search:
                cand = np.minimum(pos + size, last)
                pos = np.where(self.rowcum[cand] <= um, cand, pos)
            nxt[miss] = self.targets[pos + 1]
        return nxt


def _sampler_of(graph: ColoredGraph) -> _WalkSampler:
    """The graph's one walk sampler, built on first use and kept in
    ``graph.memo``: it is read-only and holds no seed."""
    if "walk_sampler" not in graph.memo:
        graph.memo["walk_sampler"] = _WalkSampler(graph)
    return graph.memo["walk_sampler"]


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
    columns = uniforms.T.copy()  # one contiguous row per step: 1-D gathers
    for step in range(1, horizon + 1):
        nxt = sampler.step(states, columns[step - 1][rows])
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
    Deterministic for a fixed seed, so the table is computed once per
    graph, ``t``, walk count and seed and kept in ``graph.memo``.
    """
    check_count("horizon", t)
    r = walks_per_node if walks_per_node is not None else br_sample_size(
        graph.n, t, epsilon, delta
    )
    check_count("walks_per_node", r)
    check_seed(seed)
    key = ("br-mc", t, r, seed)
    if key in graph.memo:
        return graph.memo[key]
    sampler = _sampler_of(graph)
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
    graph.memo[key] = BrTable(values=values, t=t, provenance="estimated")
    return graph.memo[key]


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
    targets, uniq, src = _centrality_request(graph, nodes, sources)
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
    sampler = _sampler_of(graph)
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
