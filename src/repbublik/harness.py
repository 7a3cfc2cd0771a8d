"""Dataset ingestion, fixture generators, budget sweeps, and plot data.

The sweep reproduces the standard evaluation protocol: split each budget K
between the colors proportionally to their parochial Bubble Radius mass, run
the requested algorithms per color, and measure the mean Bubble Radius gain
over the originally parochial nodes plus the fraction of them healed.
"""
from __future__ import annotations

import math
import re
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .bias import BiasPartition, budget_allocation, classify, even_split, structural_bias
from .errors import (
    BothColorsUnbiased,
    EmptyRecords,
    ParseError,
    RepbublikError,
    UncoveredElement,
    UnknownColor,
)
from .exact import BrTable
from .graph import (
    BLUE,
    EDGE_ROW,
    RED,
    ColoredGraph,
    EdgeInsertion,
    WalkConfig,
    apply_plan,
    build_graph,
    check_count,
    check_seed,
    opposite,
)
from .montecarlo import derive_seed, stream
from .bias import br_table
from .recommend import ALGORITHMS

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
    pct_parochial_red: float | None = None
    pct_parochial_blue: float | None = None


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
    graph: ColoredGraph, cfg: WalkConfig | None = None, backend: str = "exact"
) -> DatasetStats:
    """Recompute the stats row from a graph; parochial shares need a config."""
    rb, br_ = cross_edge_counts(graph)
    n_red = int(graph.color_mask(RED).sum())
    n_blue = graph.n - n_red
    pct_red = pct_blue = None
    if cfg is not None:
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
    a bad file is scanned line by line to name its first bad line.
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
    graph = build_graph(colors, edges)
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
            raise ValueError(f"subset {s} references elements outside 0..{n_elements - 1}")
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
    for i in range(n_elements):
        for j, s in enumerate(members):
            if i in s:
                edges.append((i, set_base + j, 1.0 / counts[i]))
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
        raise ValueError(
            f"need 0 <= p_cross <= p_within <= 1 with p_within > 0, "
            f"got p_within={p_within}, p_cross={p_cross}"
        )
    n = n_red + n_blue
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
    failing with a :class:`RepbublikError` or ``ValueError`` is recorded
    with an error marker and the sweep continues; any other exception is a
    programming error and propagates.

    Each (algorithm, seed, color) plan is built once, at the color's
    largest budget on the ladder, by the first cell that needs it, and
    every cell reads a prefix (see :class:`_AlgorithmCells`).  So a
    recommender's warning about a short plan is raised once per plan, and
    with ``measure_runtime`` the time to build a plan is charged to the
    cell that builds it.

    With ``measure_runtime`` left off, runtime_ms is written as 0 so that
    identical inputs and seeds produce byte-identical CSV files.
    """
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unregistered algorithms: {unknown}")
    if list(k_values) != sorted(k_values):
        raise ValueError("k_values must be ascending")
    for k in k_values:
        check_count("K", k, 0)
    for seed in seeds:
        check_seed(seed)

    base_br = br_table(graph, cfg, backend, cfg.seed)
    partition = classify(base_br, graph.colors, cfg.theta_good, cfg.theta_bad)
    y_red = structural_bias(base_br, partition, RED)
    y_blue = structural_bias(base_br, partition, BLUE)
    parochial = partition.parochial
    universe = candidate_universe(graph, partition)

    splits = [_split(y_red, y_blue, int(k)) for k in k_values]  # (k_red, k_blue) per K
    top = {
        RED: max((k_red for k_red, _ in splits), default=0),
        BLUE: max((k_blue for _, k_blue in splits), default=0),
    }

    records: list[ExperimentRecord] = []
    with open(out_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for algo in algorithms:
            cells = _AlgorithmCells(graph, algo, top, cfg, backend)
            for k, split in zip(k_values, splits):
                for seed in seeds:
                    record = _run_cell(
                        cells, int(k), split, int(seed),
                        base_br, parochial, universe, measure_runtime,
                    )
                    records.append(record)
                    fh.write(record.csv_row() + "\n")
                    fh.flush()
    return records


def _split(y_red: float, y_blue: float, k: int) -> tuple[int, int]:
    """(k_red, k_blue): proportional to the bias sums, even if both are zero."""
    try:
        return budget_allocation(y_red, y_blue, k)
    except BothColorsUnbiased:
        return even_split(k)


class _AlgorithmCells:
    """One algorithm's plans and grown graphs while a sweep runs its cells.

    Plans: a recommender's plan for a budget is the first edges of its plan
    for any larger budget, and a recommender that fails at one positive
    budget fails at all of them (``tests/test_recommend.py`` asserts both).
    So the plan of each (seed, color) is built once, at ``top[color]``, on
    the first cell whose budget for that color is positive; cells read
    prefixes of it, or raise again the error its build raised.

    Graphs: no color's budget falls as K grows, so each seed keeps the graph
    of its last cell and applies only the new edges of each color to it.
    That gives the bits of one call on the input graph: an edge of one
    color rewrites only that color's rows, and a row renormalised edge by
    edge in plan order runs the same float operations whether it is built
    in one call or in several.
    """

    def __init__(
        self, graph: ColoredGraph, algo: str, top: dict[str, int],
        cfg: WalkConfig, backend: str,
    ):
        self.graph, self.algo, self.top = graph, algo, top
        self.cfg, self.backend = cfg, backend
        self._plans: dict[tuple[int, str], tuple[EdgeInsertion, ...] | Exception] = {}
        self._grown: dict[int, tuple[ColoredGraph, int, int]] = {}

    def edges(self, color: str, budget: int, seed: int) -> tuple[EdgeInsertion, ...]:
        """The first ``budget`` edges of the (seed, color) plan."""
        if budget == 0:
            return ()
        key = (seed, color)
        if key not in self._plans:
            try:
                self._plans[key] = ALGORITHMS[self.algo](
                    self.graph, color, self.top[color], self.cfg, seed=seed, backend=self.backend
                ).edges
            except (RepbublikError, ValueError) as exc:
                self._plans[key] = exc
        plan = self._plans[key]
        if isinstance(plan, Exception):
            raise plan
        return plan[:budget]

    def grow(
        self, seed: int, red: tuple[EdgeInsertion, ...], blue: tuple[EdgeInsertion, ...]
    ) -> ColoredGraph:
        """The input graph with ``red`` and then ``blue`` applied."""
        base, n_red, n_blue = self._grown.get(seed, (self.graph, 0, 0))
        grown = apply_plan(base, red[n_red:] + blue[n_blue:])
        self._grown[seed] = (grown, len(red), len(blue))
        return grown


def _run_cell(
    cells: _AlgorithmCells,
    k: int,
    split: tuple[int, int],
    seed: int,
    base_br: BrTable,
    parochial: np.ndarray,
    universe: int,
    measure_runtime: bool,
) -> ExperimentRecord:
    started = time.perf_counter()
    delta = healed = float("nan")
    error = None
    try:
        k_red, k_blue = split
        grown = cells.grow(
            seed, cells.edges(RED, k_red, seed), cells.edges(BLUE, k_blue, seed)
        )
        cfg = cells.cfg
        new_br = br_table(grown, cfg, cells.backend, derive_seed(seed, _TAG_EVAL))
        if parochial.size:
            new_partition = classify(
                new_br, grown.colors, cfg.theta_good, cfg.theta_bad
            )
            delta = float(
                np.mean(base_br.values[parochial] - new_br.values[parochial])
            )
            healed = (parochial.size - new_partition.parochial.size) / parochial.size
        else:
            delta, healed = 0.0, 0.0
    except (RepbublikError, ValueError) as exc:  # record the failure, keep sweeping
        error = f"{type(exc).__name__}: {exc}"
    return ExperimentRecord(
        algorithm=cells.algo,
        budget=k,
        pct_candidate=100.0 * k / universe if universe else 0.0,
        delta=delta,
        pct_parochial=healed,
        seed=seed,
        runtime_ms=(time.perf_counter() - started) * 1000.0 if measure_runtime else 0.0,
        error=error,
    )


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
