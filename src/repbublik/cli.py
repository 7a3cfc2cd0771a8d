"""Command-line interface: stats, br, rwcc, recommend, sweep, generators.

Exit codes: 0 on success, 1 on validation errors, 2 when a sweep finished
but some cells failed or when argparse rejects the command line.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .bias import br_table, classify, warn_if_estimate_too_coarse
from .errors import RepbublikError, ThresholdOrder, UnknownColor
from .graph import BLUE, RED, WalkConfig, check_count
from .harness import (
    _warn_if_short,
    candidate_universe,
    dataset_stats,
    default_k_values,
    emit_plotdata,
    generate_gadget,
    generate_polarized,
    load_dataset,
    run_sweep,
    write_dataset,
)
from .recommend import ALGORITHMS, closeness


_WALK_OPTIONS = {
    "--t": dict(type=int, default=10, help="exploration factor (walk cap)"),
    "--theta-good": dict(type=float, default=2.0, help="cosmopolitan threshold"),
    "--theta-bad": dict(type=float, default=None, help="parochial threshold (default t/2)"),
    "--epsilon": dict(type=float, default=0.5, help="estimation accuracy"),
    "--delta": dict(type=float, default=0.05, help="estimation failure probability"),
    "--seed": dict(type=int, default=0, help="master random seed"),
    "--backend": dict(choices=("exact", "mc"), default="exact"),
    "--output": dict(type=Path, default=None, help="write results here instead of stdout"),
}


def _add_walk_options(
    p: argparse.ArgumentParser,
    names: tuple[str, ...] = tuple(_WALK_OPTIONS),
    output: dict | None = None,
) -> None:
    """Add the shared options ``names``; ``output`` (a default and a help)
    replaces those of ``--output`` for a verb that does not write its
    results to stdout."""
    g = p.add_argument_group("walk configuration")
    for name in names:
        options = _WALK_OPTIONS[name]
        if name == "--output" and output is not None:
            options = dict(options, **output)
        g.add_argument(name, **options)


def _prefix_help(default: str) -> dict:
    return dict(
        default=default,
        help="file prefix: write PREFIX.edges.tsv and PREFIX.colors.tsv (default %(default)s)",
    )


def _dataset_verb(sub, name: str, help: str, verb, output: dict | None = None):
    """Add the verb ``name``, which runs ``verb(args, cfg, loaded)`` on the
    walk configuration and the dataset that ``--edges`` and ``--colors``
    name; return its parser for the verb's own options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--edges", type=Path, required=True, help="TSV: src<TAB>dst<TAB>weight")
    p.add_argument("--colors", type=Path, required=True, help="TSV: node<TAB>R|B")
    _add_walk_options(p, output=output)
    p.set_defaults(fn=_on_dataset, verb=verb)
    return p


def _on_dataset(args: argparse.Namespace) -> int:
    return args.verb(args, _config(args), load_dataset(args.edges, args.colors))


def _config(args: argparse.Namespace) -> WalkConfig:
    return WalkConfig(
        t=args.t,
        theta_good=args.theta_good,
        theta_bad=args.theta_bad,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
    )


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is not None:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)


def _table(header: str, row: str, *columns: list) -> str:
    """The header line, then one ``row``-formatted line per entry of the
    columns: one ``%`` format over the columns interleaved."""
    width, n = len(columns), len(columns[0])
    cells: list = [None] * (width * n)
    for i, column in enumerate(columns):
        cells[i::width] = column
    return f"{header}\n" + (row + "\n") * n % tuple(cells)


def _cmd_stats(args, cfg, loaded) -> int:
    row = dataclasses.asdict(dataset_stats(loaded.graph, cfg, args.backend))
    _emit(args, _table(
        "metric\tvalue", "%s\t%s",
        list(row), ["%.4f" % v if isinstance(v, float) else v for v in row.values()],
    ))
    return 0


def _cmd_br(args, cfg, loaded) -> int:
    table = br_table(loaded.graph, cfg, args.backend, cfg.seed)
    _emit(args, _table(
        "node\tbr", "%d\t%.9g", loaded.original_ids.tolist(), table.values.tolist()
    ))
    return 0


def _cmd_rwcc(args, cfg, loaded) -> int:
    horizon = max(cfg.t - 2, 1) if args.horizon is None else args.horizon
    check_count("horizon", horizon)
    graph = loaded.graph
    warn_if_estimate_too_coarse(cfg, args.backend)
    table = br_table(graph, cfg, args.backend, cfg.seed)
    partition = classify(table, graph.colors, cfg.theta_good, cfg.theta_bad)

    if args.node is not None:
        if args.node not in loaded.dense_ids:
            raise UnknownColor(f"node {args.node} has no color entry")
        nodes = np.array([loaded.dense_ids[args.node]])
    else:
        nodes = partition.parochial
    values: dict[int, float] = {}
    for color in (RED, BLUE):
        members = nodes[graph.colors[nodes] == color]
        if not members.size:
            continue
        # Centrality w.r.t. the parochial set of the color; fall back to all
        # nodes of the color when none is parochial.
        pool = partition.parochial_of(color)
        if not pool.size:
            pool = graph.nodes_of(color)
        scores = closeness(graph, members, pool, horizon, cfg, args.backend, cfg.seed)
        values.update(zip(members.tolist(), scores))
    _emit(args, _table(
        "node\trwcc", "%d\t%.9g",
        loaded.original_ids[nodes].tolist(), [values[v] for v in nodes.tolist()],
    ))
    return 0


def _cmd_recommend(args, cfg, loaded) -> int:
    warn_if_estimate_too_coarse(cfg, args.backend)
    plan = ALGORITHMS[args.algorithm](loaded.graph, args.color, args.k, cfg, backend=args.backend)
    _warn_if_short(plan, stacklevel=1)
    ends = np.array([(e.src, e.dst) for e in plan.edges], dtype=np.int64).reshape(-1, 2)
    ids = loaded.original_ids[ends].tolist()
    _emit(args, _table(
        "src\tdst\tweight", "%d\t%d\t%.9g",
        [src for src, _ in ids], [dst for _, dst in ids], [e.weight for e in plan.edges],
    ))
    return 0


def _cmd_sweep(args, cfg, loaded) -> int:
    graph = loaded.graph
    seeds = _int_list(args.seeds, "--seeds")
    if args.k_list is not None:
        k_values = sorted(_int_list(args.k_list, "--k-list"))
    else:
        table = br_table(graph, cfg, args.backend, cfg.seed)
        partition = classify(table, graph.colors, cfg.theta_good, cfg.theta_bad)
        k_values = default_k_values(args.k_max, candidate_universe(graph, partition))
    records = run_sweep(
        graph,
        args.algorithms.split(","),
        k_values,
        cfg,
        seeds,
        args.output,
        backend=args.backend,
        measure_runtime=args.measure_runtime,
    )
    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(f"cell {r.algorithm} K={r.budget} seed={r.seed}: {r.error}", file=sys.stderr)
    if failed:
        print(f"{len(failed)} of {len(records)} cells failed", file=sys.stderr)
    if args.plot_dir is not None:
        emit_plotdata(records, args.plot_dir)
    return 2 if failed else 0


def _int_list(text: str, option: str) -> list[int]:
    """The comma-separated integers given to ``option``.  An empty entry
    (and so an empty list) or a non-integer one raises :class:`ThresholdOrder`."""
    entries = text.split(",")
    if any(not entry.strip() for entry in entries):
        raise ThresholdOrder(f"{option} has an empty entry: {text!r}")
    try:
        return [int(entry) for entry in entries]
    except ValueError:
        raise ThresholdOrder(f"{option} has a non-integer entry: {text!r}") from None


def _cmd_gen_gadget(args) -> int:
    subsets = [_int_list(block, "--sets") for block in args.sets.split(";")]
    gadget = generate_gadget(args.elements, subsets, args.t)
    write_dataset(gadget.graph, f"{args.output}.edges.tsv", f"{args.output}.colors.tsv")
    print(
        f"gadget with {gadget.graph.n} nodes written to {args.output}.edges.tsv / "
        f"{args.output}.colors.tsv (sink node {gadget.sink})"
    )
    return 0


def _cmd_gen_polarized(args) -> int:
    graph = generate_polarized(
        args.n_red, args.n_blue, args.p_within, args.p_cross, args.seed
    )
    write_dataset(graph, f"{args.output}.edges.tsv", f"{args.output}.colors.tsv")
    print(f"polarized graph with {graph.n} nodes written to {args.output}.edges.tsv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repbublik",
        description="Quantify the structural bias of a two-colored graph and "
        "recommend cross-color edge insertions that reduce it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _dataset_verb(sub, "stats", "dataset statistics table", _cmd_stats)
    _dataset_verb(sub, "br", "per-node Bubble Radius table", _cmd_br)

    p = _dataset_verb(sub, "rwcc", "bounded random-walk closeness centrality", _cmd_rwcc)
    p.add_argument("--node", type=int, default=None, help="original id of a single node")
    p.add_argument("--horizon", type=int, default=None, help="centrality horizon (default t-2)")

    p = _dataset_verb(sub, "recommend", "compute an insertion plan", _cmd_recommend)
    p.add_argument("--color", choices=(RED, BLUE), required=True)
    p.add_argument("-k", type=int, required=True, help="number of insertions")
    p.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="repbublik-plus"
    )

    p = _dataset_verb(
        sub, "sweep", "budget sweep over several algorithms", _cmd_sweep,
        dict(default="sweep.csv", help="CSV file to write (default %(default)s)"),
    )
    p.add_argument(
        "--algorithms",
        default="repbublik-plus,pure-random,rcn,rwcn",
        help="comma-separated registry names",
    )
    p.add_argument("--k-list", default=None, help="comma-separated budgets")
    p.add_argument("--k-max", type=int, default=400, help="cap for the default budget ladder")
    p.add_argument("--seeds", default="0", help="comma-separated repetition seeds")
    p.add_argument("--plot-dir", type=Path, default=None, help="also emit plot TSVs here")
    p.add_argument(
        "--measure-runtime",
        action="store_true",
        help="record wall-clock runtime_ms (breaks byte-level reproducibility)",
    )

    p = sub.add_parser("gen-gadget", help="write a set-cover gadget dataset")
    _add_walk_options(p, ("--t", "--output"), _prefix_help("gadget"))
    p.add_argument("--elements", type=int, required=True, help="universe size")
    p.add_argument(
        "--sets", required=True,
        help="semicolon-separated subsets, each a comma list of element ids",
    )
    p.set_defaults(fn=_cmd_gen_gadget)

    p = sub.add_parser("gen-polarized", help="write a random polarized dataset")
    _add_walk_options(p, ("--seed", "--output"), _prefix_help("polarized"))
    p.add_argument("--n-red", type=int, required=True)
    p.add_argument("--n-blue", type=int, required=True)
    p.add_argument("--p-within", type=float, required=True)
    p.add_argument("--p-cross", type=float, required=True)
    p.set_defaults(fn=_cmd_gen_polarized)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each parse starts from a fresh
    namespace and leaves the parser as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line.  A package error or a file that cannot be read
    or written prints one ``error:`` line and returns 1; any other
    exception, a plain ``ValueError`` included, is a bug and propagates."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RepbublikError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
