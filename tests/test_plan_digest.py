"""Plans and sweeps stay byte-identical: SHA-256 digests of their output.

The exact plan digests were recorded from the implementation before the
recommenders shared one scoring prologue, the sweep digest from the one
before closeness and plan application became block passes.  The Monte Carlo
(``@mc``) digests were recorded again when each node's closeness walks came
to read one block of its own stream and repbublik-plus began to rank targets
with its prologue's BR table.  Any change to a source choice, a target
choice, a tie break, an insertion weight's bits or an evaluated Bubble
Radius changes a digest.
"""
import hashlib
import warnings

import numpy as np

from repbublik import (
    WalkConfig,
    generate_polarized,
    run_sweep,
    baseline_pure_random,
    baseline_rcn,
    baseline_rwcn,
    repbublik,
    repbublik_plus,
)

from conftest import random_polarized

BUDGETS = (3, 10)  # the larger one exhausts some sources' legal targets
MC_EPSILON, MC_DELTA = 0.6, 0.3

VARIANTS = {
    "repbublik/lowest-br": (repbublik, {"policy": "lowest-br"}),
    "repbublik/uniform-seeded": (repbublik, {"policy": "uniform-seeded"}),
    "repbublik-plus/lowest-br": (repbublik_plus, {"policy": "lowest-br"}),
    "repbublik-plus/uniform-seeded": (repbublik_plus, {"policy": "uniform-seeded"}),
    "pure-random": (baseline_pure_random, {}),
    "rcn": (baseline_rcn, {}),
    "rwcn": (baseline_rwcn, {}),
}

EXPECTED = {
    "repbublik/lowest-br@exact": "2864cb15848b23d2679e8b3be744203a80ec82bdf96d95786165c322c8fdd48c",
    "repbublik/uniform-seeded@exact": "d328d7a44fdfa4f183769cc139f6156e0d9c722662711d0c48212d26a0de5a59",
    "repbublik-plus/lowest-br@exact": "5918a544fe8922f6642b55da6de20be9a454666eb00cc0acf0067167538432cb",
    "repbublik-plus/uniform-seeded@exact": "27fd6177a827ff17b20d89eba03d13dfc51167a4ee0d759619f6a02e1646f57b",
    "pure-random@exact": "d46403d872674d2236fe591d4fbf14085d36facaabce5a5ce829a51d22235541",
    "rcn@exact": "cef6f9080d7751e32000ca2ee3f3af1aa8985bd73b4659404ce0ca8589cabe18",
    "rwcn@exact": "2f613f77e270092b4c03a1ab95c12fcbaf600e9f102100bb90fd611c746bd1e2",
    "repbublik/lowest-br@mc": "1f0f65b05cb781bd1c4798a402ae8f9dff346af875960d0477c75819d4f016aa",
    "repbublik/uniform-seeded@mc": "b35fb600f2b106735588c61fd4196a1ed3e78e076366dc3828cd6c081369c8ad",
    "repbublik-plus/lowest-br@mc": "bfc6a7e29ad4526014bda09da08f0d0ca3989eff50cce8cbd34f85e85d845c43",
    "repbublik-plus/uniform-seeded@mc": "0b9fd7cbfc99801a8e5f6a63a58b1f8fcb9945bf7a9490f677e102236e011df7",
    "pure-random@mc": "2f546946ea25b3d5b42f498715c92ec8ffd0f0786e2c5fe8e80799da1deb1308",
    "rcn@mc": "68a0cefb58b53aac5e5cc8741f334cf30780a6757c70cbfd06504ef371d65ad4",
    "rwcn@mc": "2f613f77e270092b4c03a1ab95c12fcbaf600e9f102100bb90fd611c746bd1e2",
}


# One desk graph through the figure protocol: the four figure algorithms,
# K in {1, 8, 64, 365}, repetition seeds 0 and 1, t = 10, thresholds 2 / 5.
SWEEP_EXPECTED = "c0c6018992d4e622d50de477ea78145a6fca4a4091c0e03768a0c3ce3c06e653"


def _graphs():
    rng = np.random.default_rng(2021)
    return [random_polarized(rng, n_max=16, t_range=(5, 7)) for _ in range(3)]


def plan_digests() -> dict[str, str]:
    """One digest per (variant, backend) over all graphs, colors and seeds."""
    out = {}
    graphs = _graphs()
    for backend in ("exact", "mc"):
        for name, (fn, kwargs) in VARIANTS.items():
            h = hashlib.sha256()
            for gi, (graph, t) in enumerate(graphs):
                cfg = WalkConfig(
                    t=t, theta_good=1.5, theta_bad=t / 2,
                    epsilon=MC_EPSILON, delta=MC_DELTA, seed=gi,
                )
                for color in ("R", "B"):
                    for budget in BUDGETS:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            plan = fn(graph, color, budget, cfg, seed=10 + gi,
                                      backend=backend, **kwargs)
                        h.update(f"{gi}:{color}:{plan.requested}|".encode())
                        for e in plan.edges:
                            h.update(f"{e.src},{e.dst},{e.weight.hex()};".encode())
            out[f"{name}@{backend}"] = h.hexdigest()
    return out


def test_plans_match_recorded_digests():
    assert plan_digests() == EXPECTED


def sweep_digest(out_path) -> str:
    graph = generate_polarized(200, 200, 0.02, 0.002, seed=0)
    cfg = WalkConfig(t=10, theta_good=2.0, theta_bad=5.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_sweep(
            graph, ["repbublik-plus", "pure-random", "rcn", "rwcn"],
            [1, 8, 64, 365], cfg, [0, 1], out_path, backend="exact",
        )
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


def test_sweep_csv_matches_recorded_digest(tmp_path):
    assert sweep_digest(tmp_path / "sweep.csv") == SWEEP_EXPECTED


if __name__ == "__main__":
    for key, value in plan_digests().items():
        print(f'    "{key}": "{value}",')
