"""What starting the package loads: scipy.sparse only for the exact engines.

scipy is most of what ``import repbublik`` would cost, and only an exact
engine building its first matrix needs it (``exact._csr``).  Each case runs
in a fresh interpreter, since this process has scipy loaded already (the
test oracles import it).  The exact ``br`` digest below was recorded when
scipy was still imported with the package, so moving the import kept every
byte of that verb.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repbublik

# The commands run in temporary directories, so the package's own source
# directory goes on their path first.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(repbublik.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
))

# Runs one CLI command line and prints whether scipy.sparse got loaded.
PROBE = """
import sys
from repbublik.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help exits through argparse
    code = exc.code
print("scipy.sparse" in sys.modules, code, file=sys.stderr)
"""

WALK = ["--t", "10", "--theta-good", "2", "--theta-bad", "5", "--seed", "0"]
GEN_SMALL = ["gen-polarized", "--n-red", "40", "--n-blue", "40", "--p-within", "0.1",
             "--p-cross", "0.01", "--seed", "0", "--output", "small"]
# ``br`` on the TSV GEN_SMALL writes, exact backend, SHA-256 of stdout.
EXACT_BR_SHA256 = "6a993096f22df0be41636c021dc14f72d18ae27e43f390742e906371af1375b7"


def run(argv: list[str], cwd) -> tuple[bool, bytes]:
    """Whether a fresh interpreter running ``argv`` loaded scipy.sparse,
    and its stdout; the command must succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, env=ENV, capture_output=True,
        check=True,
    )
    loaded, code = proc.stderr.decode().splitlines()[-1].split()
    assert code == "0", proc.stderr.decode()
    return loaded == "True", proc.stdout


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An 80-node polarized TSV and the options every dataset verb takes."""
    cwd = tmp_path_factory.mktemp("startup")
    run(GEN_SMALL, cwd)
    return cwd, ["--edges", "small.edges.tsv", "--colors", "small.colors.tsv", *WALK]


@pytest.mark.parametrize("module", ["repbublik", "repbublik.cli"])
def test_import_leaves_scipy_out(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('scipy' in sys.modules)"],
        env=ENV, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("verb", [
    ["stats"], ["br"], ["rwcc"],
    ["recommend", "--color", "R", "-k", "4", "--algorithm", "repbublik-plus"],
    ["sweep", "--seeds", "0", "--k-list", "1,4", "--output", "sweep.csv"],
], ids=lambda verb: verb[0])
def test_monte_carlo_verbs_leave_scipy_out(verb, small):
    cwd, options = small
    loaded, _ = run([*verb, *options, "--backend", "mc"], cwd)
    assert not loaded


@pytest.mark.parametrize("argv", [
    GEN_SMALL,
    ["gen-gadget", "--elements", "3", "--sets", "0,1;1,2;2", "--t", "6",
     "--output", "gadget"],
    ["--help"],
], ids=["gen-polarized", "gen-gadget", "help"])
def test_commands_without_a_dataset_leave_scipy_out(argv, tmp_path):
    loaded, _ = run(argv, tmp_path)
    assert not loaded


def test_exact_br_loads_scipy_and_keeps_its_bytes(small):
    cwd, options = small
    loaded, out = run(["br", *options], cwd)
    assert loaded
    assert hashlib.sha256(out).hexdigest() == EXACT_BR_SHA256
