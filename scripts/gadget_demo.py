#!/usr/bin/env python3
"""Walk through the set-cover gadget: exact values, classification, healing.

    python3 scripts/gadget_demo.py --elements 4 --t 8
"""
import argparse

from repbublik import (
    WalkConfig,
    apply_plan,
    classify,
    exact_br,
    generate_gadget,
    repbublik_plus,
    structural_bias,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--elements", type=int, default=3)
    ap.add_argument("--t", type=int, default=6)
    args = ap.parse_args()

    # One subset per element plus one covering everything.
    subsets = [[u] for u in range(args.elements)]
    subsets.append(list(range(args.elements)))
    gadget = generate_gadget(args.elements, subsets, args.t)
    graph = gadget.graph

    theta_bad = float((args.t + 1) // 2)
    cfg = WalkConfig(t=args.t, theta_good=1.5, theta_bad=theta_bad, seed=0)
    table = exact_br(graph, args.t)
    part = classify(table, graph.colors, cfg.theta_good, cfg.theta_bad)
    print(f"gadget: {graph.n} nodes, sink = node {gadget.sink}")
    print(f"element Bubble Radii: {table.values[gadget.elements]}")
    print(f"subset  Bubble Radii: {table.values[gadget.subsets]}")
    print(f"parochial nodes: {part.parochial.tolist()}")
    print(f"structural bias: {structural_bias(table, part):.3f}")

    plan = repbublik_plus(graph, "R", args.elements, cfg)
    healed = apply_plan(graph, plan.edges)
    new_table = exact_br(healed, args.t)
    new_part = classify(new_table, healed.colors, cfg.theta_good, cfg.theta_bad)
    print(f"inserted {len(plan)} edges: {[(e.src, e.dst) for e in plan.edges]}")
    print(f"parochial after repair: {new_part.parochial.tolist()}")
    print(f"structural bias after repair: {structural_bias(new_table, new_part):.3f}")


if __name__ == "__main__":
    main()
