"""Plans and sweeps stay byte-identical: SHA-256 digests of their output.

The exact plan digests were recorded from the implementation before the
recommenders shared one scoring prologue, the sweep digest from the one
before closeness and plan application became block passes.  The Monte Carlo
(``@mc``) digests were recorded again when the walks came to step on SFC64
walk streams that draw, group by group and step by step, one uniform per
live walk: every walk's uniforms changed, so every estimate did.  (``rwcn``
reads no estimate, so its digest did not move, and ``pure-random@mc`` now
happens to draw the exact backend's parochial pools.)  Three were recorded
again when ``br_sample_size`` moved to the Hoeffding size for lengths in
[1, t]: fewer walks per node change every Monte Carlo Bubble Radius, and so
the ``repbublik`` plans and the targets of ``repbublik-plus``; the other
``@mc`` variants read the estimates only through parochial pools, which did
not change on these graphs.  The greedies once took a keyword ``policy``
whose uniform targets had digests of their own; they went with it, and the
greedies' digests are those once recorded for their lowest-BR targets.  The
four that read Monte Carlo closeness (``repbublik``, ``repbublik-plus``,
``rcn`` and ``rwcn``) were recorded again when closeness came from one pooled
set of walks per request; ``rcn@mc`` now happens to pick the exact backend's
sources, and ``rwcn@mc`` no longer does.  Each
call draws from its config's seed, ``10 + gi``.  Any change to a source choice, a
target choice, a tie break, an insertion weight's bits or an evaluated
Bubble Radius changes a digest.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    "repbublik": repbublik,
    "repbublik-plus": repbublik_plus,
    "pure-random": baseline_pure_random,
    "rcn": baseline_rcn,
    "rwcn": baseline_rwcn,
}

EXPECTED = {
    "repbublik@exact": "2864cb15848b23d2679e8b3be744203a80ec82bdf96d95786165c322c8fdd48c",
    "repbublik-plus@exact": "5918a544fe8922f6642b55da6de20be9a454666eb00cc0acf0067167538432cb",
    "pure-random@exact": "d46403d872674d2236fe591d4fbf14085d36facaabce5a5ce829a51d22235541",
    "rcn@exact": "cef6f9080d7751e32000ca2ee3f3af1aa8985bd73b4659404ce0ca8589cabe18",
    "rwcn@exact": "2f613f77e270092b4c03a1ab95c12fcbaf600e9f102100bb90fd611c746bd1e2",
    "repbublik@mc": "15d71d94174b781b66373f14ba748c074f70e87dc1e0fd1cce71390837bdf22a",
    "repbublik-plus@mc": "d97754825e1e0ab37224d3c43ea5b1d7a8627229eb05a8940b026d60e2336d27",
    "pure-random@mc": "d46403d872674d2236fe591d4fbf14085d36facaabce5a5ce829a51d22235541",
    "rcn@mc": "cef6f9080d7751e32000ca2ee3f3af1aa8985bd73b4659404ce0ca8589cabe18",
    "rwcn@mc": "54761d7d24741257b555e52c025e8696caab1b5c5e8ef818fcfaad60350cb4a4",
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
        for name, fn in VARIANTS.items():
            h = hashlib.sha256()
            for gi, (graph, t) in enumerate(graphs):
                cfg = WalkConfig(
                    t=t, theta_good=1.5, theta_bad=t / 2,
                    epsilon=MC_EPSILON, delta=MC_DELTA, seed=10 + gi,
                )
                for color in ("R", "B"):
                    for budget in BUDGETS:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            plan = fn(graph, color, budget, cfg, backend=backend)
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


# Small chunk sizes, set as module attributes in a fresh interpreter: one
# column per exact block on the desk graph, Monte Carlo passes of one walk
# group, and a bucket guide of one bucket per out-edge (GUIDE is 4).
_SMALL_CHUNKS = """
import json, sys
import repbublik.exact, repbublik.montecarlo
repbublik.exact.BLOCK_ELEMENTS = 64
repbublik.montecarlo.WALK_ELEMENTS = 256
repbublik.montecarlo.GUIDE = 1
from pathlib import Path
import test_plan_digest as digests
print(json.dumps([digests.plan_digests(), digests.sweep_digest(Path(sys.argv[1]))]))
"""


def test_digests_hold_with_small_chunks_in_a_fresh_process(tmp_path):
    import repbublik

    paths = [str(Path(repbublik.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _SMALL_CHUNKS, str(tmp_path / "sweep.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    plans, sweep = json.loads(done.stdout.splitlines()[-1])
    assert plans == EXPECTED
    assert sweep == SWEEP_EXPECTED


if __name__ == "__main__":
    for key, value in plan_digests().items():
        print(f'    "{key}": "{value}",')
