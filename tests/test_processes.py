"""What the CLI writes does not depend on the process that runs it.

A seed gives the same bytes whatever the interpreter's hash seed, and a
sweep confined to one CPU, which then runs every chain in its own process,
writes what a sweep spread over forked workers writes.  Each run is a fresh
interpreter calling ``repbublik.cli.main``, so the hash seed and the CPU
affinity are the child's own; the pytest process keeps its own.
"""
import json
import os
from pathlib import Path

import pytest

from conftest import child
from repbublik import generate_gadget, write_dataset

# Runs the CLI command lines of argv[2:], each a JSON list, one after
# another, on every CPU this process may use or, with argv[1] == "one-cpu",
# confined to the first of them before numpy starts a thread.  Then prints
# on stdout how many sweep workers it forked, and fails if a command did.
CLI = """
import json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repbublik import harness
from repbublik.cli import main
forks = []
def counted(fork=harness._fork):
    forks.append(None)
    return fork()
harness._fork = counted
codes = [main(json.loads(argv)) for argv in sys.argv[2:]]
print(len(forks))
sys.exit(max(codes))
"""

WALK = ["--t", "10", "--theta-good", "2", "--theta-bad", "5"]
DESK_SWEEP = ["sweep", "--seeds", "0,1,2,3,4", "--k-list", "1,8,64,365",
              "--output", "sweep.csv", "--plot-dir", "plots"]
# The Monte Carlo verbs, then the exact sweep and both greedy recommenders.
DESK_VERBS = [
    ["stats", "--seed", "0", "--backend", "mc", "--output", "stats.tsv"],
    ["br", "--seed", "0", "--backend", "mc", "--output", "br.tsv"],
    ["rwcc", "--seed", "0", "--backend", "mc", "--output", "rwcc.tsv"],
    ["recommend", "--seed", "0", "--backend", "mc", "--color", "R", "-k", "16",
     "--algorithm", "repbublik-plus", "--output", "recommend.tsv"],
    DESK_SWEEP,
    ["recommend", "--seed", "0", "--color", "R", "-k", "32",
     "--algorithm", "repbublik", "--output", "greedy.tsv"],
    ["recommend", "--seed", "0", "--color", "R", "-k", "512",
     "--algorithm", "repbublik-plus", "--output", "plus.tsv"],
]
# Every warning shown: the chains warn for pure-random's short plans at
# seeds 1, 2 and 3, then for rcn's, which samples from a pool of one.
GADGET_SWEEP = ["sweep", "--t", "6", "--theta-good", "2", "--theta-bad", "3", "--seed", "1",
                "--algorithms", "pure-random,rcn", "--k-list", "1,2,4,8", "--seeds", "1,2,3"]


@pytest.fixture(scope="module")
def desk(desk_tsv):
    """The options that run a verb on the seed-0 desk graph."""
    edges, colors = desk_tsv
    return ["--edges", str(edges), "--colors", str(colors), *WALK]


@pytest.fixture(scope="module")
def gadget(tmp_path_factory):
    """The options that run a verb on the 3-element set-cover gadget."""
    where = tmp_path_factory.mktemp("gadget")
    graph = generate_gadget(3, [[0, 1], [1, 2], [2]], 6).graph
    write_dataset(graph, where / "gadget.edges.tsv", where / "gadget.colors.tsv")
    return ["--edges", str(where / "gadget.edges.tsv"),
            "--colors", str(where / "gadget.colors.tsv")]


def _run(where: Path, cpus: str, commands: list[list[str]], **env: str):
    """The forks, the files written and the stderr of one child that runs
    ``commands`` in ``where``."""
    where.mkdir()
    proc = child(CLI, [cpus, *map(json.dumps, commands)], where, **env)
    files = {p.relative_to(where).as_posix(): p.read_bytes()
             for p in sorted(where.rglob("*")) if p.is_file()}
    return int(proc.stdout), files, proc.stderr


def test_outputs_do_not_depend_on_the_hash_seed(desk, tmp_path):
    commands = [[*argv, *desk] for argv in DESK_VERBS]
    runs = [_run(tmp_path / seed, "all-cpus", commands, PYTHONHASHSEED=seed)
            for seed in ("1", "2")]
    assert runs[0][1:] == runs[1][1:]
    files = runs[0][1]
    assert {"stats.tsv", "rwcc.tsv", "sweep.csv", "greedy.tsv", "plus.tsv"} <= set(files)
    assert any(name.startswith("plots/") for name in files)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_a_sweep_on_one_cpu_runs_in_its_process_and_writes_the_same(desk, gadget, tmp_path):
    commands = [[*DESK_SWEEP, *desk]] + [
        [*GADGET_SWEEP, *gadget, "--backend", backend, "--output", f"gadget-{backend}.csv"]
        for backend in ("exact", "mc")
    ]
    one, every = (_run(tmp_path / cpus, cpus, commands, PYTHONWARNINGS="always")
                  for cpus in ("one-cpu", "all-cpus"))
    # _usable_cpus reads the affinity mask: the confined sweeps fork no
    # worker, and the others fork where they may use more than one CPU.
    assert one[0] == 0
    assert (every[0] > 0) == (len(os.sched_getaffinity(0)) > 1)
    assert one[1:] == every[1:]
    assert one[2].count(b"only 3 of 8 insertions were possible for color R") == 6
