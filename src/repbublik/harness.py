"""Dataset ingestion, fixture generators, budget sweeps, and plot data.

The sweep reproduces the standard evaluation protocol: split each budget K
between the colors proportionally to their parochial Bubble Radius mass, run
the requested algorithms per color, and measure the mean Bubble Radius gain
over the originally parochial nodes plus the fraction of them healed.
"""
from __future__ import annotations

import math
import os
import re
import signal
import sys
import threading
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bias import (
    BiasPartition,
    br_table,
    budget_allocation,
    classify,
    structural_bias,
    warn_if_estimate_too_coarse,
)
from .errors import (
    BadEdgeWeight,
    DuplicateEdge,
    EmptyRecords,
    IdOutOfRange,
    NonStochasticRow,
    ParseError,
    RepbublikError,
    SelfLoopEdge,
    ThresholdOrder,
    UncoveredElement,
    UnknownColor,
    UnknownName,
    ZeroOutDegree,
)
from .graph import (
    BLUE,
    EDGE_ROW,
    RED,
    ColoredGraph,
    EdgeInsertion,
    InsertionPlan,
    WalkConfig,
    apply_plan,
    build_graph,
    check_count,
    check_seed,
    check_work,
    opposite,
)
from .montecarlo import derive_seed, stream
from .recommend import ALGORITHMS, EXACT_SEED_FREE

_TAG_EVAL = 31
_TAG_POLARIZED = 32

CSV_HEADER = "algo,K,pct_candidate,delta,pct_parochial,seed,runtime_ms"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class DatasetStats:
    """Headline statistics of a loaded graph (one row of the datasets table)."""

    n_red: int
    n_blue: int
    edges_red_to_blue: int
    edges_blue_to_red: int
    edge_count: int
    pct_parochial_red: float
    pct_parochial_blue: float


@dataclass(frozen=True)
class LoadedDataset:
    graph: ColoredGraph
    original_ids: np.ndarray        # dense id -> original id

    @cached_property
    def dense_ids(self) -> dict[int, int]:
        """Original id -> dense id, built on first use."""
        return dict(zip(self.original_ids.tolist(), range(self.original_ids.size)))


@dataclass(frozen=True)
class ExperimentRecord:
    """One (algorithm, K, seed) cell of a sweep."""

    algorithm: str
    budget: int
    pct_candidate: float
    delta: float
    pct_parochial: float
    seed: int
    runtime_ms: float
    error: str | None = None

    def csv_row(self) -> str:
        if self.error is not None:
            delta = pct = "ERROR"
        else:
            delta, pct = _fmt(self.delta), _fmt(self.pct_parochial)
        return ",".join(
            (
                self.algorithm,
                str(self.budget),
                _fmt(self.pct_candidate),
                delta,
                pct,
                str(self.seed),
                _fmt(self.runtime_ms),
            )
        )


def cross_edge_counts(graph: ColoredGraph) -> tuple[int, int]:
    red = graph.color_mask(RED)
    src_red = np.repeat(red, np.diff(graph.indptr))
    dst_red = red[graph.targets]
    red_to_blue = int(np.count_nonzero(src_red & ~dst_red))
    blue_to_red = int(np.count_nonzero(dst_red & ~src_red))
    return red_to_blue, blue_to_red


def dataset_stats(
    graph: ColoredGraph, cfg: WalkConfig, backend: str = "exact"
) -> DatasetStats:
    """Recompute the stats row from a graph; ``cfg`` sets the parochial rule."""
    rb, br_ = cross_edge_counts(graph)
    n_red = int(graph.color_mask(RED).sum())
    n_blue = graph.n - n_red
    warn_if_estimate_too_coarse(cfg, backend)
    table = br_table(graph, cfg, backend, cfg.seed)
    part = classify(table, graph.colors, cfg.theta_good, cfg.theta_bad)
    pct_red = 100.0 * part.parochial_red.size / n_red if n_red else 0.0
    pct_blue = 100.0 * part.parochial_blue.size / n_blue if n_blue else 0.0
    return DatasetStats(
        n_red=n_red,
        n_blue=n_blue,
        edges_red_to_blue=rb,
        edges_blue_to_red=br_,
        edge_count=graph.edge_count,
        pct_parochial_red=pct_red,
        pct_parochial_blue=pct_blue,
    )


#: A node id as ``np.loadtxt`` reads it into an int64 column: ASCII decimal
#: digits with an optional sign and surrounding whitespace.
_ID = re.compile(r"\s*[+-]?[0-9]+\s*")
#: The color column holds one character more than a color, so a longer
#: label such as "Red" can never read as "R".
_COLOR_ROW = np.dtype([("node", np.int64), ("color", "U2")])


def _loadtxt(source, dtype: np.dtype) -> np.ndarray:
    """TSV rows as records; empty lines are skipped, a bad line raises ValueError."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, delimiter="\t", comments=None, ndmin=1)


def _read_tsv(path: Path, dtype: np.dtype, convert: Callable, check: Callable):
    """Parse a TSV file in one ``np.loadtxt`` pass and ``convert`` the rows.

    ``convert`` makes the array checks and returns None when a row fails one.
    Only then, or when a line does not parse, ``check(path, lines)`` scans
    the non-blank lines and raises the error of the first bad one with its
    1-based number.  A file whose only fault is a whitespace-only line,
    which loadtxt does not skip, is parsed again without those lines.
    """
    try:
        # Given a path, loadtxt reads the file in blocks; given an open file,
        # it iterates over lines, which made ingest about 30% slower.
        rows = _loadtxt(path, dtype)
    except ValueError:
        rows = None
    out = None if rows is None else convert(rows)
    if out is None:
        lines = [
            (line_no, line)
            for line_no, line in enumerate(path.read_text().split("\n"), start=1)
            if line.strip()
        ]
        check(str(path), lines)
        out = convert(_loadtxt([line for _, line in lines], dtype))
    return out


def _parse_id(token: str, path: str, line_no: int, what: str) -> int:
    if not _ID.fullmatch(token):
        raise ParseError(path, line_no, f"bad {what} {token!r}")
    value = int(token)
    if value < 0:
        raise ParseError(path, line_no, f"{what} must be non-negative, got {value}")
    if value >= 2**63:
        raise ParseError(path, line_no, f"{what} must be below 2**63, got {value}")
    return value


def _is_float(token: str) -> bool:
    """Whether loadtxt reads ``token`` as a float64: ``float`` syntax in
    ASCII, without digit separators."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _check_color_lines(path: str, lines: list[tuple[int, str]]) -> None:
    seen: set[int] = set()
    for line_no, line in lines:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(parts)}")
        node = _parse_id(parts[0], path, line_no, "node id")
        if node in seen:
            raise ParseError(path, line_no, f"duplicate color for node {node}")
        if parts[1] not in (RED, BLUE):
            raise UnknownColor(f"{path}:{line_no}: color {parts[1]!r} is not 'R' or 'B'")
        seen.add(node)


def _check_edge_lines(
    path: str, lines: list[tuple[int, str]], colored: set[int]
) -> None:
    for line_no, line in lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
        src = _parse_id(parts[0], path, line_no, "source id")
        dst = _parse_id(parts[1], path, line_no, "target id")
        if not _is_float(parts[2]):
            raise ParseError(path, line_no, f"bad weight {parts[2]!r}")
        for node in (src, dst):
            if node not in colored:
                raise UnknownColor(f"{path}:{line_no}: node {node} has no color entry")


def _color_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(original ids ascending, their colors), or None when an id is
    negative or repeated or a color is not R/B."""
    order = np.argsort(rows["node"], kind="stable")
    ids, colors = rows["node"][order], rows["color"][order]
    if (
        (ids[:1] < 0).any()
        or (ids[1:] == ids[:-1]).any()
        or not ((colors == RED) | (colors == BLUE)).all()
    ):
        return None
    return ids, colors


def _dense_edges(rows: np.ndarray, original_ids: np.ndarray) -> np.ndarray | None:
    """``rows`` with both id columns mapped to dense ids in place, or None
    when an id has no color entry.  Ids that are already 0..n-1 map to
    themselves, so only their range is checked."""
    last = original_ids.size - 1
    dense = last < 0 or original_ids[last] == last  # ascending distinct ids >= 0
    for column in ("src", "dst"):
        ids = rows[column]
        if dense:
            if ids.size and (ids.min() < 0 or ids.max() > last):
                return None
            continue
        pos = np.searchsorted(original_ids, ids)
        if ids.size and (original_ids[np.minimum(pos, last)] != ids).any():
            return None
        rows[column] = pos
    return rows


def load_dataset(edge_path: str | Path, color_path: str | Path) -> LoadedDataset:
    """Load `src<TAB>dst<TAB>weight` edges and `node<TAB>R|B` colors.

    Original node ids may be any integers in [0, 2**63); they are compacted
    to dense 0..n-1 ids (ascending original order) and the mapping is
    returned alongside the graph; :func:`dataset_stats` makes its stats
    row.  Blank lines are skipped.  Each file is parsed in one array pass;
    a bad file is scanned line by line to name its first bad line.  An
    error of the graph's own checks names the original ids.
    """
    color_path, edge_path = Path(color_path), Path(edge_path)
    original_ids, colors = _read_tsv(
        color_path, _COLOR_ROW, _color_columns, _check_color_lines
    )
    edges = _read_tsv(
        edge_path,
        EDGE_ROW,
        lambda rows: _dense_edges(rows, original_ids),
        lambda path, lines: _check_edge_lines(path, lines, set(original_ids.tolist())),
    )
    try:
        graph = build_graph(colors, edges)
    except DuplicateEdge as exc:  # named by the file's own ids
        raise DuplicateEdge(*original_ids[[exc.src, exc.dst]].tolist()) from None
    except BadEdgeWeight as exc:
        ends = original_ids[[exc.src, exc.dst]].tolist()
        raise BadEdgeWeight(*ends, exc.weight, exc.detail) from None
    except (SelfLoopEdge, ZeroOutDegree) as exc:
        raise type(exc)(int(original_ids[exc.node])) from None
    except NonStochasticRow as exc:
        raise NonStochasticRow(int(original_ids[exc.node]), exc.row_sum, exc.detail) from None
    return LoadedDataset(graph=graph, original_ids=original_ids)


def write_dataset(graph: ColoredGraph, edge_path: str | Path, color_path: str | Path) -> None:
    """Write a graph back out in the loader's TSV formats."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    rows = zip(src.tolist(), graph.targets.tolist(), graph.weights.tolist())
    Path(edge_path).write_text(
        "\n".join(f"{v}\t{w}\t{_fmt(m)}" for v, w, m in rows) + "\n"
    )
    Path(color_path).write_text(
        "\n".join(f"{v}\t{c}" for v, c in enumerate(graph.colors.tolist())) + "\n"
    )


@dataclass(frozen=True)
class Gadget:
    """Set-cover hardness gadget with its node roles exposed for tests.

    All nodes are red except the single blue sink.  Element node i links
    uniformly to the nodes of the subsets containing it; each subset node
    starts a weight-1 path of ceil(t/2)-1 edges ending at the sink, which
    pins the subset nodes' Bubble Radius to ceil(t/2)-1 and the element
    nodes' to ceil(t/2).
    """

    graph: ColoredGraph
    elements: np.ndarray
    subsets: np.ndarray
    path_nodes: np.ndarray
    sink: int


def generate_gadget(
    n_elements: int, subsets: Sequence[Iterable[int]], t: int
) -> Gadget:
    check_count("t", t, 3)
    check_count("n_elements", n_elements)
    members = [sorted(set(int(u) for u in s)) for s in subsets]
    for s in members:
        if s and (s[0] < 0 or s[-1] >= n_elements):
            raise IdOutOfRange(f"subset {s} references elements outside 0..{n_elements - 1}")
    counts = np.zeros(n_elements, dtype=np.int64)
    for s in members:
        counts[s] += 1
    if (counts == 0).any():
        raise UncoveredElement(int(np.flatnonzero(counts == 0)[0]))

    n_sets = len(members)
    path_len = math.ceil(t / 2) - 1          # edges from each subset node to the sink
    per_set_inner = path_len - 1             # intermediate nodes per path
    set_base = n_elements
    path_base = set_base + n_sets
    sink = path_base + n_sets * per_set_inner
    n = sink + 1

    colors = [RED] * n
    colors[sink] = BLUE
    edges: list[tuple[int, int, float]] = []
    for j, s in enumerate(members):
        edges += [(i, set_base + j, 1.0 / counts[i]) for i in s]
    for j in range(n_sets):
        chain = [set_base + j]
        chain += [path_base + j * per_set_inner + k for k in range(per_set_inner)]
        chain.append(sink)
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, 1.0))
    # The sink needs an out-edge; walks of red nodes stop at the sink, so
    # pointing it back into the first path keeps every red Bubble Radius intact.
    escape = path_base if per_set_inner > 0 else set_base
    edges.append((sink, escape, 1.0))

    graph = build_graph(colors, edges)
    return Gadget(
        graph=graph,
        elements=np.arange(n_elements),
        subsets=np.arange(set_base, set_base + n_sets),
        path_nodes=np.arange(path_base, sink),
        sink=sink,
    )


def generate_polarized(
    n_red: int, n_blue: int, p_within: float, p_cross: float, seed: int
) -> ColoredGraph:
    """Random two-community digraph with uniform out-weights.

    Every ordered same-color pair gets an edge with probability ``p_within``,
    cross-color pairs with ``p_cross`` (``p_cross <= p_within``; zero means
    no escape at all and every Bubble Radius sits at the cap).  Nodes that
    sample no edge receive one forced within-color edge so the graph stays
    sink-free.
    """
    check_count("n_red", n_red)
    check_count("n_blue", n_blue)
    if not 0.0 <= p_cross <= p_within <= 1.0 or p_within == 0.0:
        raise ThresholdOrder(
            f"need 0 <= p_cross <= p_within <= 1 with p_within > 0, "
            f"got p_within={p_within}, p_cross={p_cross}"
        )
    n = n_red + n_blue
    check_work("polarized graph draws", n, n)
    red = np.arange(n) < n_red
    rng = stream(seed, _TAG_POLARIZED)
    # Row v reads the next n uniforms, every row before any forced edge, and
    # keeps only its hits: the stream of one n x n draw in O(n + m) memory.
    rows = []
    for v in range(n):
        hits = np.flatnonzero(rng.random(n) < np.where(red == red[v], p_within, p_cross))
        rows.append(hits[hits != v])
    for v, hits in enumerate(rows):
        if hits.size == 0:
            peers = np.flatnonzero(red == red[v])
            peers = peers[peers != v]
            if peers.size == 0:
                peers = np.flatnonzero(red != red[v])
            pick = int(rng.integers(peers.size))
            rows[v] = peers[pick : pick + 1]

    degree = np.array([hits.size for hits in rows])
    edges = np.empty(int(degree.sum()), dtype=EDGE_ROW)
    edges["src"] = np.repeat(np.arange(n), degree)
    edges["dst"] = np.concatenate(rows)
    edges["weight"] = np.repeat(1.0 / degree, degree)
    return build_graph(np.where(red, RED, BLUE), edges)


def candidate_universe(graph: ColoredGraph, partition: BiasPartition) -> int:
    """Number of insertable cross-color edges with parochial sources: per
    color, every (parochial, opposite-color) pair minus the cross-color
    edges the parochial nodes already have."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    red = graph.color_mask(RED)
    cross = red[src] != red[graph.targets]
    cross_out_degree = np.bincount(src[cross], minlength=graph.n)
    total = 0
    for color in (RED, BLUE):
        parochial = partition.parochial_of(color)
        n_other = int(graph.color_mask(opposite(color)).sum())
        total += parochial.size * n_other - int(cross_out_degree[parochial].sum())
    return total


def run_sweep(
    graph: ColoredGraph,
    algorithms: Sequence[str],
    k_values: Sequence[int],
    cfg: WalkConfig,
    seeds: Sequence[int],
    out_path: str | Path,
    backend: str = "exact",
    measure_runtime: bool = False,
) -> list[ExperimentRecord]:
    """Run every (algorithm, K, seed) cell and stream the rows to a CSV.

    Each budget K is split across the colors proportionally to their
    parochial Bubble Radius mass (even split if neither color is biased),
    the algorithm runs once per color, and the gain and healed fraction are
    measured with freshly computed Bubble Radii on the grown graph.  A cell
    failing with a :class:`RepbublikError` is recorded with an error marker
    and the sweep continues; any other exception, a plain ``ValueError``
    included, is a programming error and propagates.

    The cells form chains: one per (algorithm, repetition seed), or one
    per algorithm for an entry of ``EXACT_SEED_FREE`` under the exact
    backend, whose plan is the same for every seed.  A chain builds each
    color's plan once, at the color's largest budget on the ladder, in the
    process that runs it, when the first cell that reads it runs, and every
    cell reads a prefix.  So a short plan is reported once, and with
    ``measure_runtime`` the time to build a plan, or to grow a shared
    graph, is part of the runtime of the cell that does it: a later seed's
    cell of a shared plan records its evaluation alone.

    Chains share nothing but the input graph, so they run on every CPU this
    process may use, in fixed stripes over this process and forked workers
    (see :func:`_worker_count` and :func:`_forked`); with one CPU, off
    Linux, or beside another Python thread, every chain runs here, and a
    stripe whose fork fails runs here too.  Before the first fork this
    process computes the input graph's BR table, which every chain reads;
    under the exact backend that imports scipy here, once, and the workers
    inherit it.
    The CSV, the records, the warnings and a programming error are those of
    running the chains one after another in this process: each cell
    computes its own CSV row from its algorithm, K and seed positions, and
    rows are written in (algorithm, K, seed) order, each as soon as the
    rows before it are known.  A programming error propagates once every
    row before its cell is written; the first failing cell in row order
    decides which.

    The sweep's warnings are raised here, naming this function's caller:
    under the Monte Carlo backend, one before any chain runs when epsilon
    cannot separate the thresholds; then one per short plan (fewer edges
    than its budget), in chain order and within a chain red's before
    blue's, as each chain is merged.

    With ``measure_runtime`` left off, runtime_ms is written as 0 so that
    identical inputs and seeds produce byte-identical CSV files.
    """
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise UnknownName(f"unregistered algorithms: {unknown}")
    if list(k_values) != sorted(k_values):
        raise ThresholdOrder("k_values must be ascending")
    for k in k_values:
        check_count("K", k, 0)
    for seed in seeds:
        check_seed(seed)

    warn_if_estimate_too_coarse(cfg, backend)
    base_br = br_table(graph, cfg, backend, cfg.seed)
    partition = classify(base_br, graph.colors, cfg.theta_good, cfg.theta_bad)
    y_red = structural_bias(base_br, partition, RED)
    y_blue = structural_bias(base_br, partition, BLUE)
    parochial = partition.parochial
    universe = candidate_universe(graph, partition)

    # (k_red, k_blue) per K
    splits = [budget_allocation(y_red, y_blue, int(k)) for k in k_values]
    top = {
        RED: max((k_red for k_red, _ in splits), default=0),
        BLUE: max((k_blue for _, k_blue in splits), default=0),
    }

    chains = _chains(algorithms, seeds, backend)

    def run(chain: tuple[int, list[int]]) -> _Outcome:
        """Run one chain's cells, K by K and, within a K, seed by seed.

        ``chain`` is an algorithm's position in ``algorithms`` and the
        chain's positions in ``seeds``, so each cell knows its own CSV row,
        and a later seed of a shared chain at the same K applies no edge,
        gets the graph back from ``apply_plan`` and its exact table from
        the graph's memo.

        Plans: a recommender's plan for a budget is the first edges of its
        plan for any larger budget, and a recommender that fails at one
        positive budget fails at all of them (``tests/test_recommend.py``
        asserts both).  So each color's plan is built once, at
        ``top[color]`` with the chain's first seed, by the first cell that
        reads it; cells read prefixes of it, or raise again the error its
        build raised.

        Graphs: no color's budget falls as K grows, so the chain keeps the
        graph of its last cell and applies only the new edges of each color
        to it.  That gives the bits of one call on the input graph: an edge
        of one color rewrites only that color's rows, and a row
        renormalised edge by edge in plan order runs the same float
        operations whether it is built in one call or in several.
        """
        a, positions = chain
        algo, chain_seeds = algorithms[a], [int(seeds[j]) for j in positions]
        plans: dict[str, InsertionPlan | Exception] = {}

        def read(color: str, budget: int) -> tuple[EdgeInsertion, ...] | Exception:
            """The first ``budget`` edges of the color's plan, or the error
            its build raised."""
            if budget == 0:
                return ()
            if color not in plans:
                try:
                    plans[color] = ALGORITHMS[algo](
                        graph, color, top[color], replace(cfg, seed=chain_seeds[0]),
                        backend=backend,
                    )
                except Exception as exc:  # raised again by each cell that reads it
                    plans[color] = exc
            plan = plans[color]
            return plan if isinstance(plan, Exception) else plan.edges[:budget]

        grown, n_red, n_blue = graph, 0, 0
        records, stopped = [], None
        try:
            for i, (k, (k_red, k_blue)) in enumerate(zip(map(int, k_values), splits)):
                for j, seed in zip(positions, chain_seeds):
                    row = (a * len(k_values) + i) * len(seeds) + j
                    started = time.perf_counter()
                    delta = healed = float("nan")
                    error = None
                    try:
                        # Both plans are read before red's error is raised,
                        # so a failing red build hides no short blue plan.
                        red, blue = read(RED, k_red), read(BLUE, k_blue)
                        for edges in (red, blue):
                            if isinstance(edges, Exception):
                                raise edges
                        grown = apply_plan(grown, red[n_red:] + blue[n_blue:])
                        n_red, n_blue = len(red), len(blue)
                        new_br = br_table(grown, cfg, backend, derive_seed(seed, _TAG_EVAL))
                        if parochial.size:
                            left = classify(new_br, grown.colors, cfg.theta_good, cfg.theta_bad)
                            delta = float(np.mean(
                                base_br.values[parochial] - new_br.values[parochial]
                            ))
                            # The two colors' parochial sets are disjoint.
                            n_left = left.parochial_red.size + left.parochial_blue.size
                            healed = (parochial.size - n_left) / parochial.size
                        else:
                            delta, healed = 0.0, 0.0
                    except RepbublikError as exc:  # record the failure, keep sweeping
                        error = f"{type(exc).__name__}: {exc}"
                    records.append((row, ExperimentRecord(
                        algorithm=algo,
                        budget=k,
                        pct_candidate=100.0 * k / universe if universe else 0.0,
                        delta=delta,
                        pct_parochial=healed,
                        seed=seed,
                        runtime_ms=(time.perf_counter() - started) * 1000.0
                        if measure_runtime else 0.0,
                        error=error,
                    )))
        except Exception as exc:
            stopped = row, exc
        # Red's short plan before blue's, whichever color's budget came first.
        short = [
            plan for plan in map(plans.get, (RED, BLUE))
            if isinstance(plan, InsertionPlan) and _is_short(plan)
        ]
        return _Outcome(short, records, stopped)

    outcomes = _forked(chains, run, _worker_count(len(chains)))
    try:
        return _write_rows(outcomes, len(algorithms) * len(k_values) * len(seeds), out_path)
    finally:
        outcomes.close()


def _chains(
    algorithms: Sequence[str], seeds: Sequence[int], backend: str
) -> list[tuple[int, list[int]]]:
    """A sweep's chains as (algorithm position, seed positions), in the
    order of their first rows: one per algorithm and repetition seed, or
    one per algorithm for an entry of ``EXACT_SEED_FREE`` under the exact
    backend.  The cell at the i-th K and ``seeds[j]`` of algorithm a writes
    CSV row ``(a * len(k_values) + i) * len(seeds) + j``.
    """
    chains = []
    for a, algo in enumerate(algorithms):
        seed_free = backend == "exact" and algo in EXACT_SEED_FREE
        groups: dict[int | None, list[int]] = {}
        for j, seed in enumerate(seeds):
            groups.setdefault(None if seed_free else int(seed), []).append(j)
        chains += [(a, positions) for positions in groups.values()]
    return chains


def _write_rows(
    outcomes: Iterator[tuple[int, _Outcome]], n_rows: int, out_path: str | Path
) -> list[ExperimentRecord]:
    """Write the CSV from the chains' outcomes, which may come in any order,
    as if the chains had run here one after another, and return its rows.

    The chains are merged in order, each warning for its short plans with
    the location of ``run_sweep``'s caller.  A row is written once every
    row before it is known, and a programming error is raised once every
    row before its cell is written: the first failing cell in row order
    decides which error.
    """
    rows: list[ExperimentRecord | None] = [None] * n_rows
    written = merged = 0
    done: dict[int, _Outcome] = {}
    failed: dict[int, Exception] = {}  # by the row of its cell
    with open(out_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for index, outcome in outcomes:
            done[index] = outcome
            while merged in done:
                outcome = done.pop(merged)
                for plan in outcome.short:
                    _warn_if_short(plan, stacklevel=3)
                for row, record in outcome.records:
                    rows[row] = record
                if outcome.error is not None:
                    row, exc = outcome.error
                    failed[row] = exc
                merged += 1
            while written < n_rows and rows[written] is not None:
                fh.write(rows[written].csv_row() + "\n")
                written += 1
            fh.flush()
            if written in failed:
                raise failed[written]
    return rows


def _is_short(plan: InsertionPlan) -> bool:
    """Whether ``plan`` holds fewer edges than its budget asked for."""
    return plan.requested is not None and len(plan) < plan.requested


def _warn_if_short(plan: InsertionPlan, stacklevel: int) -> None:
    """Warn when ``plan`` is short; ``stacklevel`` counts from the caller,
    as ``warnings.warn``'s does."""
    if _is_short(plan):
        warnings.warn(
            f"only {len(plan)} of {plan.requested} insertions were possible for color {plan.color}",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )


@dataclass
class _Outcome:
    """What one chain gives back: its short plans, the (CSV row, record)
    of each cell it ran, in cell order, and the (CSV row, error) of the
    cell a programming error stopped it at."""

    short: list[InsertionPlan]
    records: list[tuple[int, ExperimentRecord]]
    error: tuple[int, Exception] | None


def _worker_count(chains: int) -> int:
    """How many processes run a sweep's chains: the CPUs this process may
    use, at most one per chain.  Only one, the calling process, where a
    fork is unsafe or unknown: off Linux, without ``os.fork``, or when
    another Python thread runs, whose locks a child could inherit held."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), chains))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, so ``taskset``
    confines a sweep); the tests replace it to pin a worker count."""
    return len(os.sched_getaffinity(0))


#: The warning CPython 3.12 and later raise when a multi-threaded process forks.
_FORK_WARNING = re.compile(r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)")


def _fork() -> int:
    """``os.fork()``, without the ``DeprecationWarning`` CPython 3.12 and
    later raise when a process with several OS threads forks.  Only the
    display hook is replaced while it forks, and any other warning is then
    shown as it would be; the filters are left alone, since changing them
    would reset every module's record of the warnings it has shown once.

    After ``import numpy`` the other threads are OpenBLAS's idle pool, and
    they are the only ones: :func:`_worker_count` forks from no process with
    a second Python thread.  A child runs sweep chains, which call no BLAS
    routine: every matrix product in them is a scipy sparse matrix times a
    dense array, computed by scipy's own sparse kernels, and the rest is
    element-wise numpy, sorting and Python.  So no child waits on a lock or
    a thread it did not inherit.
    """
    display, shown = warnings.showwarning, []
    warnings.showwarning = lambda *args: shown.append(args[:4])
    try:
        pid = os.fork()
    finally:
        warnings.showwarning = display
    for message, category, filename, lineno in shown:
        if not (category is DeprecationWarning and _FORK_WARNING.match(str(message))):
            display(message, category, filename, lineno)
    return pid


def _forked(
    chains: list[tuple[int, list[int]]],
    run: Callable[[tuple[int, list[int]]], _Outcome],
    workers: int,
) -> Iterator[tuple[int, _Outcome]]:
    """(index, outcome) of every chain, in the order the chains finish,
    run by this process and ``workers - 1`` forked children.

    Process p runs chains p, p + workers, p + 2 * workers, ... in order,
    and this process is the last one, so with one worker it forks nothing
    and runs every chain here.  A chain's cost hardly depends on its seed
    and an algorithm's chains are adjacent, so these fixed stripes spread
    each algorithm's chains across the processes.  The children inherit
    the chains and the memo of the input graph, and each sends its
    outcomes back over its own pipe.  This process reads those between its
    own chains and once its stripe is done, and runs again any chain whose
    child ended before sending it.  Where a pipe or a fork fails with an
    ``OSError`` (a process, memory or descriptor limit), no more children
    are forked: the stripes no child took run here too, after this
    process's own.  A child stopped by a programming error
    sends nothing more, so the error is raised here with its own type,
    message and traceback.  A warning raised in a child is shown by the
    child as raised; the package raises none there, since the sweep
    reports short plans from their outcomes.  Every child is reaped before
    the generator ends or is closed, and one still running then is killed
    first.
    """
    # Imported here: ``import repbublik`` stays cheap for what runs no sweep.
    from multiprocessing.connection import Pipe, wait

    pids, pipes = [], []
    finished = False
    try:
        for p in range(workers - 1):
            ends = ()
            try:
                ends = pipe, child_end = Pipe(duplex=False)
                pid = _fork()
            except OSError:  # a process, memory or descriptor limit
                for end in ends:
                    end.close()
                break
            if pid == 0:
                code = 1
                try:
                    for other in (pipe, *pipes):
                        other.close()
                    for index in range(p, len(chains), workers):
                        outcome = run(chains[index])
                        if outcome.error is not None:
                            break
                        child_end.send((index, outcome))
                    code = 0
                finally:
                    # Leave without atexit handlers or flushing the buffers
                    # this process inherited, the CSV's included.
                    os._exit(code)
            pids.append(pid)
            child_end.close()
            pipes.append(pipe)

        received: set[int] = set()

        def collect(timeout):
            for pipe in wait(pipes, timeout):
                try:
                    index, outcome = pipe.recv()
                except EOFError:  # the child has ended
                    pipes.remove(pipe)
                    pipe.close()
                    continue
                received.add(index)
                yield index, outcome

        for index in range(workers - 1, len(chains), workers):
            received.add(index)
            yield index, run(chains[index])
            yield from collect(0)
        while pipes:
            yield from collect(None)
        # A chain whose child died or stopped at a programming error, or
        # whose stripe no child took.
        for index in range(len(chains)):
            if index not in received:
                yield index, run(chains[index])
        finished = True
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # Where SIGCHLD is ignored, the kernel has reaped the child.
            with suppress(ChildProcessError, ProcessLookupError):
                if not finished:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def default_k_values(k_max: int, universe: int | None = None) -> list[int]:
    """1, 2, 4, 6, ... capped at ``k_max`` and the candidate universe."""
    check_count("k_max", k_max, 0)
    cap = k_max if universe is None else min(k_max, universe)
    values = [k for k in [1, *range(2, cap + 1, 2)] if k <= cap]
    return values


def emit_plotdata(
    records: Sequence[ExperimentRecord], out_dir: str | Path
) -> list[Path]:
    """One `pct_candidate<TAB>mean<TAB>stddev` TSV per (algorithm, metric) curve.

    Aggregates across seeds per budget; the standard deviation is the
    population one, so a single record yields 0.  Error cells are skipped.
    """
    usable = [r for r in records if r.error is None]
    if not usable:
        raise EmptyRecords("no successful experiment records to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    algorithms = sorted({r.algorithm for r in usable})
    written: list[Path] = []
    for algo in algorithms:
        rows = [r for r in usable if r.algorithm == algo]
        budgets = sorted({r.budget for r in rows})
        for metric in ("delta", "pct_parochial"):
            path = out_dir / f"{metric}_{algo}.tsv"
            lines = ["pct_candidate\tmean\tstddev"]
            for k in budgets:
                cell = [r for r in rows if r.budget == k]
                values = np.array([getattr(r, metric) for r in cell])
                lines.append(
                    f"{_fmt(cell[0].pct_candidate)}\t{_fmt(values.mean())}"
                    f"\t{_fmt(values.std(ddof=0))}"
                )
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written
