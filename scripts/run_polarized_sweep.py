#!/usr/bin/env python3
"""Run the full budget sweep on a synthetic polarized graph.

Generates a two-community digraph with sparse cross links, sweeps all
registered algorithms over a geometric budget ladder, and writes the CSV
plus per-curve plot TSVs.

    python3 scripts/run_polarized_sweep.py --out-dir results/demo
"""
import argparse
import time
from pathlib import Path

from repbublik import (
    WalkConfig,
    candidate_universe,
    classify,
    emit_plotdata,
    exact_br,
    generate_polarized,
    run_sweep,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-red", type=int, default=200)
    ap.add_argument("--n-blue", type=int, default=200)
    ap.add_argument("--p-within", type=float, default=0.02)
    ap.add_argument("--p-cross", type=float, default=0.002)
    ap.add_argument("--t", type=int, default=10)
    ap.add_argument("--theta-good", type=float, default=2.0)
    ap.add_argument("--theta-bad", type=float, default=5.0)
    ap.add_argument("--graph-seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--algorithms", default="repbublik-plus,pure-random,rcn,rwcn"
    )
    ap.add_argument("--out-dir", type=Path, default=Path("sweep-results"))
    args = ap.parse_args()

    graph = generate_polarized(
        args.n_red, args.n_blue, args.p_within, args.p_cross, args.graph_seed
    )
    cfg = WalkConfig(
        t=args.t, theta_good=args.theta_good, theta_bad=args.theta_bad, seed=1
    )
    part = classify(exact_br(graph, cfg.t), graph.colors, cfg.theta_good, cfg.theta_bad)
    universe = candidate_universe(graph, part)
    print(
        f"graph: {graph.n} nodes, {graph.edge_count} edges, "
        f"{part.parochial.size} parochial, candidate universe {universe}"
    )

    budgets = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    budgets = [k for k in budgets if k <= universe]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    records = run_sweep(
        graph,
        args.algorithms.split(","),
        budgets,
        cfg,
        seeds=list(range(args.repeats)),
        out_path=args.out_dir / "sweep.csv",
    )
    emit_plotdata(records, args.out_dir / "plots")
    print(
        f"{len(records)} cells in {time.perf_counter() - started:.1f}s; "
        f"CSV and plot TSVs under {args.out_dir}/"
    )


if __name__ == "__main__":
    main()
