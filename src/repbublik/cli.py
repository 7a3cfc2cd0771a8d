"""Command-line interface: stats, br, rwcc, recommend, sweep, generators.

Exit codes: 0 on success, 1 on validation errors, 2 when a sweep finished
but some cells failed or when argparse rejects the command line.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .bias import classify
from .errors import RepbublikError, UnknownColor
from .graph import BLUE, RED, WalkConfig, check_count
from .harness import (
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
from .bias import br_table
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
    output_help: str | None = None,
) -> None:
    """Add the shared options ``names``; ``output_help`` replaces the help of
    ``--output`` for a verb that does not write its results to stdout."""
    g = p.add_argument_group("walk configuration")
    for name in names:
        options = _WALK_OPTIONS[name]
        if name == "--output" and output_help is not None:
            options = dict(options, help=output_help)
        g.add_argument(name, **options)


def _prefix_help(default: str) -> str:
    return (
        "file prefix: write PREFIX.edges.tsv and PREFIX.colors.tsv "
        f"(default {default})"
    )


def _add_dataset_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", type=Path, required=True, help="TSV: src<TAB>dst<TAB>weight")
    p.add_argument("--colors", type=Path, required=True, help="TSV: node<TAB>R|B")


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


def _cmd_stats(args) -> int:
    cfg = _config(args)
    loaded = load_dataset(args.edges, args.colors)
    s = dataset_stats(loaded.graph, cfg, args.backend)
    lines = [
        "metric\tvalue",
        f"n_red\t{s.n_red}",
        f"n_blue\t{s.n_blue}",
        f"edges_red_to_blue\t{s.edges_red_to_blue}",
        f"edges_blue_to_red\t{s.edges_blue_to_red}",
        f"edge_count\t{s.edge_count}",
        f"pct_parochial_red\t{s.pct_parochial_red:.4f}",
        f"pct_parochial_blue\t{s.pct_parochial_blue:.4f}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_br(args) -> int:
    cfg = _config(args)
    loaded = load_dataset(args.edges, args.colors)
    table = br_table(loaded.graph, cfg, args.backend, cfg.seed)
    rows = zip(loaded.original_ids.tolist(), table.values.tolist())
    _emit(args, "node\tbr\n" + "".join(f"{orig}\t{br:.9g}\n" for orig, br in rows))
    return 0


def _cmd_rwcc(args) -> int:
    cfg = _config(args)
    if args.horizon is not None:
        check_count("horizon", args.horizon)
    loaded = load_dataset(args.edges, args.colors)
    graph = loaded.graph
    horizon = args.horizon if args.horizon is not None else max(cfg.t - 2, 1)
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
    lines = ["node\trwcc"]
    for v in nodes.tolist():
        lines.append(f"{int(loaded.original_ids[v])}\t{values[v]:.9g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_recommend(args) -> int:
    cfg = _config(args)
    loaded = load_dataset(args.edges, args.colors)
    plan = ALGORITHMS[args.algorithm](loaded.graph, args.color, args.k, cfg, backend=args.backend)
    lines = ["src\tdst\tweight"]
    for e in plan.edges:
        lines.append(
            f"{int(loaded.original_ids[e.src])}\t{int(loaded.original_ids[e.dst])}"
            f"\t{e.weight:.9g}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    graph = load_dataset(args.edges, args.colors).graph
    if args.k_list:
        k_values = sorted(int(k) for k in args.k_list.split(","))
    else:
        table = br_table(graph, cfg, args.backend, cfg.seed)
        partition = classify(table, graph.colors, cfg.theta_good, cfg.theta_bad)
        k_values = default_k_values(args.k_max, candidate_universe(graph, partition))
    seeds = [int(s) for s in args.seeds.split(",")]
    out_path = args.output if args.output is not None else Path("sweep.csv")
    records = run_sweep(
        graph,
        args.algorithms.split(","),
        k_values,
        cfg,
        seeds,
        out_path,
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


def _cmd_gen_gadget(args) -> int:
    subsets = [
        [int(x) for x in block.split(",") if x != ""]
        for block in args.sets.split(";")
    ]
    gadget = generate_gadget(args.elements, subsets, args.t)
    prefix = args.output if args.output is not None else Path("gadget")
    write_dataset(gadget.graph, f"{prefix}.edges.tsv", f"{prefix}.colors.tsv")
    print(
        f"gadget with {gadget.graph.n} nodes written to {prefix}.edges.tsv / "
        f"{prefix}.colors.tsv (sink node {gadget.sink})"
    )
    return 0


def _cmd_gen_polarized(args) -> int:
    graph = generate_polarized(
        args.n_red, args.n_blue, args.p_within, args.p_cross, args.seed
    )
    prefix = args.output if args.output is not None else Path("polarized")
    write_dataset(graph, f"{prefix}.edges.tsv", f"{prefix}.colors.tsv")
    print(f"polarized graph with {graph.n} nodes written to {prefix}.edges.tsv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repbublik",
        description="Quantify the structural bias of a two-colored graph and "
        "recommend cross-color edge insertions that reduce it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics table")
    _add_dataset_options(p)
    _add_walk_options(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("br", help="per-node Bubble Radius table")
    _add_dataset_options(p)
    _add_walk_options(p)
    p.set_defaults(fn=_cmd_br)

    p = sub.add_parser("rwcc", help="bounded random-walk closeness centrality")
    _add_dataset_options(p)
    _add_walk_options(p)
    p.add_argument("--node", type=int, default=None, help="original id of a single node")
    p.add_argument("--horizon", type=int, default=None, help="centrality horizon (default t-2)")
    p.set_defaults(fn=_cmd_rwcc)

    p = sub.add_parser("recommend", help="compute an insertion plan")
    _add_dataset_options(p)
    _add_walk_options(p)
    p.add_argument("--color", choices=(RED, BLUE), required=True)
    p.add_argument("-k", type=int, required=True, help="number of insertions")
    p.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="repbublik-plus"
    )
    p.set_defaults(fn=_cmd_recommend)

    p = sub.add_parser("sweep", help="budget sweep over several algorithms")
    _add_dataset_options(p)
    _add_walk_options(p, output_help="CSV file to write (default sweep.csv)")
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
    p.set_defaults(fn=_cmd_sweep)

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
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RepbublikError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
