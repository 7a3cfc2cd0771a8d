"""Exact dynamic programs for bounded random-walk quantities.

These are the exact backend of the recommenders, the sweep and the CLI,
and the Monte Carlo estimators are checked against them.  Each pass costs
O(t * |E|) via sparse matrix-vector products, which avoids the cubic cost
of Laplacian-based hitting-time solvers.
A walk is absorbed when it first enters the opposite color.  The engines
step on W (:func:`_within`), the transition matrix M without its
cross-color edges, the one place where they decide where a walk dies:
:func:`exact_br` is one one-column pass over W, and closeness and return
mass use the color's block A of W (:func:`_color_block`), through the
return-visit profiles of :func:`_return_profiles`.  These step the walks
from the requested nodes together through A^T in |C| x width chunks of at
most ``BLOCK_ELEMENTS`` entries.  Every term W leaves out was an exact
+0.0 in the same CSR order, so the bits are those of a pass over M.
:func:`exact_gamma` sums the profiles; :func:`exact_rwcc_many` adds one
forward occupancy pass and solves the renewal equation for the first
passages.
scipy is imported in :func:`_csr` alone, when an engine first builds W or
a block: it is most of what ``import repbublik`` would cost, and the Monte
Carlo backend, the generators and ``--help`` never build a matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BrOutOfRange, EmptySourceSet, IdOutOfRange, MixedColorSet
from .graph import BLUE, RED, ColoredGraph, check_count, check_work

#: Absolute tolerance for the dynamic programs.
DP_TOL = 1e-9
#: Most entries in one |C| x width block of return-profile columns, where C
#: is the nodes of the block's color.
BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True, eq=False)
class BrTable:
    """Per-node Bubble Radius values for one horizon.

    ``values[v]`` is E[min(t, steps to first hit the opposite color)] and
    always lies in [1, t]; nodes that cannot reach the opposite color sit at
    the cap t.  :func:`exact_br` and ``montecarlo.estimate_br`` build it.
    """

    values: np.ndarray
    t: int

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.values.size and (
            self.values.min() < 1.0 - DP_TOL or self.values.max() > self.t + DP_TOL
        ):
            raise BrOutOfRange(f"Bubble Radius values must lie in [1, {self.t}]")


def _node_set(graph: ColoredGraph, nodes: Iterable[int]) -> np.ndarray:
    """``nodes`` as an ascending, duplicate-free int64 array of valid ids.
    An array that already is one (``nodes_of``, a parochial pool) is
    returned as it is."""
    if not isinstance(nodes, np.ndarray):
        nodes = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    if nodes.dtype == np.int64 and nodes.ndim == 1 and (nodes[1:] > nodes[:-1]).all():
        arr = nodes
    else:
        arr = np.unique(nodes.astype(np.int64, copy=False))
    if arr.size and (arr[0] < 0 or arr[-1] >= graph.n):
        raise IdOutOfRange(f"node set {arr} contains ids outside 0..{graph.n - 1}")
    return arr


def _csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> scipy.sparse.csr_matrix:
    """The CSR matrix of ``(data, indices, indptr)``; the package's one
    scipy import, made here on the first call."""
    import scipy.sparse

    return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)


def _within(graph: ColoredGraph) -> scipy.sparse.csr_matrix:
    """W, the transition matrix M without its cross-color edges, in M's row
    order; built on first use and kept in ``graph.memo``.

    W's index arrays are found once per lineage (see
    ``ColoredGraph.lineage``): a graph whose lineage found them before only
    gathers its own values into them."""
    if "within" not in graph.memo:
        red = graph.color_mask(RED)
        kept = np.repeat(red, np.diff(graph.indptr)) == red[graph.targets]
        pattern = graph.lineage.get("within")
        if pattern is None:
            pattern = (graph.targets[kept], np.concatenate(([0], np.cumsum(kept)))[graph.indptr])
        within = _csr(graph.weights[kept], *pattern, (graph.n, graph.n))
        # Keep the index arrays scipy settled on, read-only, since every W
        # of the lineage shares them.
        within.indices.setflags(write=False)
        within.indptr.setflags(write=False)
        graph.lineage["within"] = (within.indices, within.indptr)
        graph.memo["within"] = within
    return graph.memo["within"]


def _check_horizon(graph: ColoredGraph, t: int) -> None:
    """Raise unless ``t`` is a horizon whose passes over W fit ``MAX_WORK``."""
    check_count("horizon", t)
    check_work("exact products over W", graph.n + graph.edge_count, t)


def exact_br(graph: ColoredGraph, t: int) -> BrTable:
    """Exact Bubble Radius of every node at horizon ``t``.

    One pass of the survival recurrence E[min(t, T)] = sum_{i<t} P(T > i)
    with s_0 = 1 and s_{i+1} = W @ s_i: a walk that leaves its color is
    absorbed, and W never mixes the colors, so one column holds the walks
    of both.  A color with no opposite nodes sits at the cap ``t``.  The
    table is computed once per graph and ``t`` and kept in ``graph.memo``.
    """
    _check_horizon(graph, t)
    key = ("br", t)
    if key in graph.memo:
        return graph.memo[key]
    within = _within(graph)
    survival = np.ones(graph.n)
    expected = survival.copy()
    for _ in range(t - 1):
        survival = within @ survival
        if not survival.any():
            break  # every later term adds +0.0
        expected += survival
    graph.memo[key] = BrTable(values=expected, t=t)
    return graph.memo[key]


@dataclass(frozen=True, eq=False)
class _ColorBlock:
    """The within-color matrix restricted to one color's nodes.

    ``matrix_t`` is the transpose of A = W[C][:, C] = M[C][:, C] for the
    ascending nodes C of the color.
    """

    nodes: np.ndarray
    matrix_t: scipy.sparse.csr_matrix

    def local(self, nodes: np.ndarray) -> np.ndarray:
        """Local indices of ``nodes``, all of the block's color."""
        return np.searchsorted(self.nodes, nodes)


def _color_block(graph: ColoredGraph, color: str) -> _ColorBlock:
    """The block of ``color``, its rows of W on local column ids; built on
    first use and kept in ``graph.memo``.

    The block's pattern is ``(nodes, take, indices, indptr)``, where
    ``take`` holds the positions in W's data of its entries, in its order:
    ``matrix_t.data == W.data[take]``.  A graph whose lineage (see
    ``ColoredGraph.lineage``) found it before reads W's values through it;
    otherwise it is found here and left for the lineage.
    """
    key = ("block", color)
    if key not in graph.memo:
        within = _within(graph)
        pattern = graph.lineage.get(key)
        if pattern is None:
            inside = graph.color_mask(color)
            nodes = np.flatnonzero(inside)
            local = np.cumsum(inside) - 1
            # W's rows of the color are the block, in (row, column) order;
            # a stable sort by column puts them in the transpose's order.
            degree = np.diff(within.indptr)
            where = np.flatnonzero(np.repeat(inside, degree))
            rows = np.repeat(local[nodes], degree[nodes])
            cols = local[within.indices[where]]
            order = np.argsort(cols, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=nodes.size))))
            pattern = (nodes, where[order], rows[order], indptr)
        nodes, take, indices, indptr = pattern
        matrix_t = _csr(within.data[take], indices, indptr, (nodes.size, nodes.size))
        # Keep the index arrays scipy settled on, so later builds reuse them.
        graph.lineage[key] = (nodes, take, matrix_t.indices, matrix_t.indptr)
        graph.memo[key] = _ColorBlock(nodes=nodes, matrix_t=matrix_t)
    return graph.memo[key]


def _return_profiles(
    graph: ColoredGraph, nodes: np.ndarray, t_prime: int
) -> np.ndarray:
    """Return-visit profiles of ``nodes``, all of one color, in blocks.

    Column j of a block is the distribution, on the color's own block, of
    the walk started at the j-th node; row j of the result is that node's
    ``p[0..t'-1]``.  Blocks hold at most ``BLOCK_ELEMENTS`` entries, and
    each column's arithmetic does not depend on the block width.
    """
    color = _color_block(graph, graph.color_of(int(nodes[0])))
    local = color.local(nodes)
    profiles = np.zeros((nodes.size, t_prime))
    profiles[:, 0] = 1.0
    width = max(1, BLOCK_ELEMENTS // color.nodes.size)
    for lo in range(0, nodes.size, width):
        chunk = local[lo : lo + width]
        cols = np.arange(chunk.size)
        block = np.zeros((color.nodes.size, chunk.size))
        block[chunk, cols] = 1.0
        for step in range(1, t_prime):
            block = color.matrix_t @ block
            if not block.any():
                break  # the later entries stay +0.0
            profiles[lo + cols, step] = block[chunk, cols]
    return profiles


def exact_gamma(graph: ColoredGraph, t: int) -> float:
    """max over nodes of the total return mass F_t(v).

    One chunked block pass per color steps the walks from the color's nodes
    together; a node's total is the sum of its profile.
    """
    _check_horizon(graph, t)
    best = 1.0  # p_0 = 1 contributes to every node
    for color in (RED, BLUE):
        nodes = graph.nodes_of(color)
        if nodes.size:
            best = max(best, float(_return_profiles(graph, nodes, t).sum(axis=1).max()))
    return best


def _centrality_request(
    graph: ColoredGraph, nodes: Iterable[int], sources: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(targets, uniq, src)`` of a closeness request: the targets in the
    order given, the same as a node set, and the source set.  The sources
    must be non-empty and share the color of every target."""
    targets = np.fromiter((int(v) for v in nodes), dtype=np.int64)
    uniq = _node_set(graph, targets)
    src = _node_set(graph, sources)
    if src.size == 0:
        raise EmptySourceSet("centrality needs at least one source node")
    shared = np.unique(graph.colors[src])
    mixed = (graph.colors[targets] != shared[0]) | (shared.size > 1)
    if mixed.any():
        v = int(targets[np.flatnonzero(mixed)[0]])
        raise MixedColorSet(f"sources of c(v={v}, S) must all share the color of v")
    return targets, uniq, src


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

    Closeness by renewal on the color's own block A = M[C][:, C]: one
    forward pass u_i = A^T u_{i-1} from u_0 = 1_S gives the occupancy
    o_i(v) = sum_{w in S} (A^i)[w, v] of every target at once, and
    :func:`_return_profiles` gives r_v(k) = (A^k)[v, v].  When v is in S
    its own walk is dropped, o'_i = o_i - r_v(i).  Splitting each walk at
    its first visit of v gives the renewal equation o'_i = sum_{k=1}^{i}
    F_k r_v(i - k) (Feller, *An Introduction to Probability Theory and Its
    Applications*, Vol. 1, ch. XIII), solved forward for the first-passage
    mass F_i = o'_i - sum_{k=1}^{i-1} F_k r_v(i - k) of S minus v; then
    c = (1/|S|) sum_{i<t'} (t' - i) F_i.  The solve is elementwise over the
    targets, so each value has the same bits whatever the block width and
    whatever else the request holds.  It agrees with the per-target
    first-passage DP to within rounding, so exact ties between symmetric
    nodes may break at the last bit.

    The result is read-only and kept in ``graph.memo`` under the horizon and
    the validated node and source arrays, so a repeated request is one
    dictionary lookup.  Raises :class:`WorkLimitExceeded`, before any
    product, when the products over W or the renewal's t'(t' - 1)/2 row
    updates, charged as vector operations, exceed ``MAX_WORK``.
    """
    _check_horizon(graph, t_prime)
    targets, uniq, src = _centrality_request(graph, nodes, sources)
    check_work("exact renewal operations", uniq.size, t_prime * (t_prime - 1) // 2)
    key = ("rwcc", t_prime, targets.tobytes(), src.tobytes())
    if key not in graph.memo:
        result = _rwcc_block(graph, targets, uniq, src, t_prime)
        result.setflags(write=False)
        graph.memo[key] = result
    return graph.memo[key]


def _rwcc_block(
    graph: ColoredGraph,
    targets: np.ndarray,
    uniq: np.ndarray,
    src: np.ndarray,
    t_prime: int,
) -> np.ndarray:
    """The renewal solve of :func:`exact_rwcc_many` on validated arrays."""
    values = np.zeros(uniq.size)
    if uniq.size == 0:
        return values
    color = _color_block(graph, graph.color_of(int(uniq[0])))
    local = color.local(uniq)
    # Rows are steps, columns targets: returns[k][j] = r_j(k), and
    # passages[i] holds o'_i until the solve below turns it into F_i.
    returns = _return_profiles(graph, uniq, t_prime).T
    in_src = np.isin(uniq, src, assume_unique=True)
    occupancy = np.zeros(color.nodes.size)
    occupancy[color.local(src)] = 1.0  # u_0 = 1_S
    passages = np.zeros((t_prime, uniq.size))
    for i in range(1, t_prime):
        occupancy = color.matrix_t @ occupancy
        if not occupancy.any():
            break  # r_v(i) <= o_i(v) for v in S, so o'_i stays +0.0
        # o'_i, without the target's own walk when it is a source
        passages[i] = occupancy[local] - np.where(in_src, returns[i], 0.0)
    # Final F_k leaves F_k r(i - k) from every later row i at once: each row
    # takes the subtractions of a row-by-row solve, in the same k order.
    for k in range(1, t_prime):
        passages[k + 1 :] -= passages[k] * returns[1 : t_prime - k]
        values += (t_prime - k) * passages[k]
    values /= src.size
    return values[np.searchsorted(uniq, targets)]


def exact_rwcc(
    graph: ColoredGraph, v: int, sources: Iterable[int], t_prime: int
) -> float:
    """Bounded random-walk closeness centrality of ``v`` w.r.t. ``sources``;
    the one-target case of :func:`exact_rwcc_many`."""
    return float(exact_rwcc_many(graph, (v,), sources, t_prime)[0])


def parochial_nodes(
    colors: np.ndarray, br: BrTable, color: str, theta_bad: float
) -> np.ndarray:
    """Nodes of ``color``, ascending, whose Bubble Radius is at least
    ``theta_bad``: the one parochial rule of the package."""
    return np.flatnonzero((colors == color) & (br.values >= theta_bad))
