"""Seeded Monte Carlo estimators for Bubble Radius and bounded closeness.

Both keep an (epsilon, delta) contract: with probability at least 1 - delta,
every node's estimate lies within epsilon of its true value.  One rule sizes
both, Hoeffding's bound (1963) for means of draws in a range of t - 1 with a
union bound over the n nodes: ceil((t - 1)^2 ln(2n / delta) / (2 epsilon^2))
draws.  A capped walk length lies in [1, t], and :func:`br_sample_size` runs
that many walks per node; a closeness draw scores each node in [0, t' - 1],
and :func:`rwcc_sample_size` draws that many sources per request, shared by
all of its targets.  The estimators check these sizes and their work
against ``graph.MAX_WORK`` before any walk starts.

Randomness comes from one stream per ``(master seed, purpose, ...)`` key.
Every draw but the walk steps comes from counter-based Philox streams
(:func:`stream`): the closeness source draws, and outside this module the
generated graphs, the target picks and the baselines.  The walk steps come
from SFC64 streams (:func:`_walk_stream`), which fill uniforms about four
times faster, one walk stream per request.  A Bubble Radius table runs the
r walks of every node on ``(seed, _STREAM_BR)``: the red nodes' walks, then
the blue nodes', each color in node order.  A closeness request draws its N
sources uniformly over S from ``(seed, _STREAM_RWCC_SOURCES)`` and runs one
walk from each on ``(seed, _STREAM_RWCC_WALKS)``: walk ``i`` starts at draw
``i``.

A walk stream holds only the uniforms that are read.  Its walks are cut into
groups of ``_WALK_GROUP`` walks, run one after the other; a group draws step
by step, at step k one uniform for each of its walks still live before step
k, in walk order.  No walk takes the last step of the horizon, which cannot
change a capped length or a closeness score.  The group size and this order
are the stream layout; they fix every estimate.  A group is all the walks
held at once, so memory does not grow with the walk count.  Every estimate
is reduced through exact integer sums, so identical (graph, config, seed)
gives bit-identical estimates.

One walk loop (:func:`_live_walks`) steps each group of both estimators,
keeping only the live walks, their indices in order and their states.  A
node's summed capped length is, over the steps k, the count of its walks
live before step k.  A closeness walk scores ``t' - k`` for every node it
first visits at a step k < t', other than its own start; a node's total over
the N walks, divided by N, estimates c_{t'}(v, S) without bias for every v at
once, and no entry depends on the other targets asked for.  Epsilon alone
trades walks for accuracy.

A walk step moves to out-edge ``count(rowcum <= u)`` of its row for a
uniform ``u`` in [0, 1), found by one lookup in a bucket guide with the bits
of a search of the whole row (see :class:`_WalkSampler`).  The sampler holds
no seed, so each graph builds it once and keeps it in ``graph.memo``.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import WorkLimitExceeded
from .exact import BrTable, _centrality_request
from .graph import (
    BLUE,
    RED,
    ColoredGraph,
    MAX_WORK,
    check_accuracy,
    check_count,
    check_seed,
    check_work,
)

# Stream purposes; part of the stream key, never reused across call sites.
_STREAM_BR = 1
_STREAM_RWCC_SOURCES = 2
_STREAM_RWCC_WALKS = 3

# Walks per group: a stream's walks are cut into groups of this many, each
# of which draws its steps in turn.  Part of the stream layout, not a knob;
# a group is also all the walks held at once.
_WALK_GROUP = 1 << 14

#: Most source draws plus first-visit records one closeness request holds
#: at once, 16 bytes each (2 GiB; near 6 GiB at the peak, as ``np.unique``
#: sorts copies of the records): the work bound alone admits terabytes.
DRAW_ELEMENTS = 1 << 27

#: Guide buckets per out-edge, at least: each row gets the least power of
#: two at or above ``GUIDE`` times its degree.  It trades the guide's size
#: against the share of steps that search a bucket; no result depends on it.
GUIDE = 4


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based Philox generator for one (seed, purpose, ...)
    task: every draw of the package but the walk steps, which come from
    :func:`_walk_stream`."""
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _walk_stream(seed: int, *key: int) -> np.random.Generator:
    """The SFC64 generator whose uniforms step the walks of one (seed,
    purpose) request: a Bubble Radius table, or a closeness request."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit master seed.

    The seed is checked on every call; the value is computed once per
    (seed, key) and then read from a cache, since one seed derivation costs
    tens of microseconds and a sweep repeats the same few hundred."""
    check_seed(seed)
    return _derived(seed, key)


@functools.lru_cache(maxsize=1 << 12, typed=True)
def _derived(seed: int, key: tuple[int, ...]) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _ceil(x: float) -> int:
    # Guard against float noise pushing an exact integer over the ceiling.
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(x)


def _hoeffding_size(n: int, t: int, epsilon: float, delta: float) -> int:
    """max(1, ceil((t - 1)^2 ln(2n / delta) / (2 epsilon^2))), capped at
    ``MAX_WORK``: the one sample-size rule (see :func:`br_sample_size`)."""
    check_accuracy(epsilon, delta)
    check_count("n", n)
    check_count("horizon", t)
    check_work("Monte Carlo walks", n, t)  # so t fits a float
    spread = (t - 1) / epsilon
    draws = spread * spread * math.log(2.0 * n / delta) / 2.0
    return max(1, _ceil(min(draws, MAX_WORK)))  # capped, so inf rounds


def br_sample_size(n: int, t: int, epsilon: float, delta: float) -> int:
    """Walks per node, r, so that with probability at least ``1 - delta``
    every one of the ``n`` estimates lies within ``epsilon`` of its node's
    Bubble Radius.

    A capped walk length lies in [1, t], a range of t - 1, so Hoeffding's
    inequality (1963) bounds one node's miss probability by
    2 exp(-2 r epsilon^2 / (t - 1)^2), and a union bound over the n nodes
    gives r = max(1, ceil((t - 1)^2 ln(2n / delta) / (2 epsilon^2))).  This
    is 2t^2 / (t - 1)^2 times fewer walks than the paper's
    ceil(t^2 / epsilon^2 * ln(2n / delta)), 2.47 at t = 10, for the same
    contract.  At t = 1 every length is 1, so one walk is exact.  Raises
    :class:`WorkLimitExceeded` when the n * r walks exceed ``MAX_WORK``.
    """
    r = _hoeffding_size(n, t, epsilon, delta)
    check_work("Monte Carlo Bubble Radius walks", n * r, t)
    return r


def rwcc_sample_size(n: int, t_prime: int, epsilon: float, delta: float) -> int:
    """Source draws, N, so that with probability at least ``1 - delta``
    every closeness estimate on ``n`` nodes lies within ``epsilon``: a draw
    scores each node in [0, t' - 1], so this is the rule of
    :func:`br_sample_size` at horizon t'.  Raises
    :class:`WorkLimitExceeded` when the N walks, one per draw, exceed
    ``MAX_WORK``."""
    draws = _hoeffding_size(n, t_prime, epsilon, delta)
    check_work("Monte Carlo closeness walks", draws, t_prime)
    return draws


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
    ``GUIDE`` times its degree; a step's key is ``offsets[s] + floor(u *
    2**b)`` for ``u`` in [0, 1).  Scaling by a power of two is exact, so
    both ends of bucket ``i`` have exact integer answers: at ``u = i /
    2**b`` the count is of inner edges with ``ceil(rowcum * 2**b) <= i``,
    and just below ``(i + 1) / 2**b`` of those with ``floor(rowcum * 2**b)
    <= i``; the row's last bucket reaches to the row's end.  As the count
    is monotone, every ``u`` in a bucket whose two ends agree has
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
        """Next node of each walk for uniforms ``u`` in [0, 1); any ``u``
        from the row's total up takes the row's last edge."""
        key = self.offsets[states] + (u * self.scale[states]).astype(np.int64)
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


def _live_walks(
    sampler: _WalkSampler,
    live: np.ndarray,
    horizon: int,
    rng: np.random.Generator,
    starts: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Step one group of walks through every step but the last.

    Walk ``i`` of the group starts at ``starts[i]`` and lives while it stays
    on ``live`` nodes.  Before each step, ``rng`` draws one uniform per live
    walk, in walk order.  After each step k below the horizon, yields k, the
    group's local indices of the walks still live (sorted) and their states.
    The last step is never taken: a walk live before it scores the horizon
    whatever it does.
    """
    rows, states = np.arange(starts.size), starts
    buffer = np.empty(starts.size)
    for step in range(1, horizon):
        if rows.size == 0:
            return
        u = buffer[: rows.size]
        rng.random(out=u)
        nxt = sampler.step(states, u)
        keep = np.flatnonzero(live[nxt])
        rows, states = rows[keep], nxt[keep]
        yield step, rows, states


def _first_visits(
    steps: Iterable[tuple[int, np.ndarray, np.ndarray]], stride: int, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each walk's first visit of each node over the ``(step, rows,
    states)`` of a group, in step order: the keys ``row * stride + node``,
    ascending, and their steps.  ``cap`` bounds the first visits; the
    visits held are cut to first visits whenever the next step would take
    them past ``2 * cap``, however long the walks live."""
    held, size = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))], 0

    def reduced():  # the earliest visit of each key
        keys, at = (np.concatenate(part) for part in zip(*held))
        held.clear()  # free the parts before the sort makes its copies
        keys, first = np.unique(keys, return_index=True)
        return [(keys, at[first])]

    for step, rows, states in steps:
        if size + rows.size > 2 * cap:
            held = reduced()
            size = held[0][0].size
        held.append((rows * stride + states, np.full(rows.size, step)))
        size += rows.size
    return reduced()[0]


def estimate_br(
    graph: ColoredGraph,
    t: int,
    epsilon: float,
    delta: float,
    seed: int,
) -> BrTable:
    """Monte Carlo Bubble Radius table: mean of r = :func:`br_sample_size`
    capped walk lengths per node.

    Walks stop when they hit the opposite color or after ``t`` steps,
    whichever comes first.  The table's walks run on one ``(seed,
    _STREAM_BR)`` stream: the red nodes' walks, then the blue nodes', each
    color in node order with r walks per node, so walk ``i`` of a color
    belongs to ``nodes[i // r]``.  Each color is cut into groups of
    ``_WALK_GROUP`` walks, and a node's walks may straddle two groups.
    Deterministic for a fixed seed, so the table is computed once per
    graph, ``t``, walk count and seed and kept in ``graph.memo``.  A graph
    without nodes gets the exact backend's empty table: there is no
    estimate to bound, and the sizing's union bound needs a node.
    """
    if graph.n == 0:
        check_accuracy(epsilon, delta)
        check_count("horizon", t)
        check_seed(seed)
        return BrTable(values=np.empty(0), t=t)
    r = br_sample_size(graph.n, t, epsilon, delta)
    check_seed(seed)
    key = ("br-mc", t, r, seed)
    if key in graph.memo:
        return graph.memo[key]
    sampler = _sampler_of(graph)
    rng = _walk_stream(seed, _STREAM_BR)
    values = np.empty(graph.n)
    for color in (RED, BLUE):
        nodes = graph.nodes_of(color)
        live = graph.color_mask(color)
        lengths = np.zeros(nodes.size, dtype=np.int64)  # over each node's r walks
        total = nodes.size * r
        for first in range(0, total, _WALK_GROUP):
            # A walk's capped length is the number of steps it is live
            # before.  The group's owners are contiguous and its live rows
            # sorted, so each step's live count per owner is one search of
            # the owners' bounds, clipped to the group.
            size = min(_WALK_GROUP, total - first)
            lo, hi = first // r, (first + size - 1) // r + 1
            bounds = np.clip(np.arange(lo, hi + 1) * r - first, 0, size)
            counts = np.diff(bounds)
            starts = np.repeat(nodes[lo:hi], counts)  # nodes[walk // r]
            for _, walking, _ in _live_walks(sampler, live, t, rng, starts):
                counts += np.diff(np.searchsorted(walking, bounds))
            lengths[lo:hi] += counts
        values[nodes] = lengths / r
    graph.memo[key] = BrTable(values=values, t=t)
    return graph.memo[key]


def estimate_rwcc_many(
    graph: ColoredGraph,
    nodes: Iterable[int],
    sources: Iterable[int],
    t_prime: int,
    epsilon: float,
    delta: float,
    seed: int,
) -> np.ndarray:
    """Monte Carlo bounded closeness c_{t'}(v, S) for every v in ``nodes``.

    The twin of :func:`exact.exact_rwcc_many`: entry j belongs to the j-th
    entry of ``nodes``.  Draws N = :func:`rwcc_sample_size` sources
    uniformly from S with replacement and runs one walk from each, until it
    enters the opposite color.  A node's estimate is the mean over the walks
    of t' - i for a first visit at step i < t', or 0; a walk never scores its
    own start, as the exact form skips the self term.  Raises
    :class:`WorkLimitExceeded` before any walk: from the sizing when the
    walks exceed ``MAX_WORK``, and after an empty request returns when the
    draws plus the first-visit records a group may hold exceed
    ``DRAW_ELEMENTS``.
    """
    check_count("horizon", t_prime)
    targets, _, src = _centrality_request(graph, nodes, sources)
    draws = rwcc_sample_size(graph.n, t_prime, epsilon, delta)
    check_seed(seed)
    if targets.size == 0:
        return np.empty(0)
    live = graph.color_mask(graph.color_of(int(src[0])))
    # A walk first visits at most one node per step, and only live ones.
    cap = min(draws, _WALK_GROUP) * min(t_prime - 1, int(live.sum()))
    if draws + 2 * cap > DRAW_ELEMENTS:
        raise WorkLimitExceeded(f"Monte Carlo closeness: {draws} source draws and "
                                f"{2 * cap} first-visit records > {DRAW_ELEMENTS}")
    starts = src[stream(seed, _STREAM_RWCC_SOURCES).integers(0, src.size, size=draws)]
    sampler = _sampler_of(graph)
    rng = _walk_stream(seed, _STREAM_RWCC_WALKS)
    # Whole scores below 2**53 (the work bound keeps every total under
    # walks * t'), so each float sum is exact in any order.
    totals = np.zeros(graph.n)
    for first in range(0, draws, _WALK_GROUP):
        start = starts[first : first + _WALK_GROUP]
        keys, steps = _first_visits(
            _live_walks(sampler, live, t_prime, rng, start), graph.n, cap
        )
        walk, node = np.divmod(keys, graph.n)
        scored = node != start[walk]
        totals += np.bincount(node[scored], t_prime - steps[scored], graph.n)
    return totals[targets] / draws


def estimate_rwcc(
    graph: ColoredGraph,
    v: int,
    sources: Iterable[int],
    t_prime: int,
    epsilon: float,
    delta: float,
    seed: int,
) -> float:
    """Monte Carlo bounded closeness of ``v`` w.r.t. a monochromatic set:
    ``estimate_rwcc_many`` for the one node ``v``."""
    return float(estimate_rwcc_many(
        graph, (v,), sources, t_prime, epsilon, delta, seed
    )[0])
