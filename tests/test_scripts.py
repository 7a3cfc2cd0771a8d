"""The runnable scripts under scripts/ start, finish, and print what they did."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GADGET_DEMO_STDOUT = """\
gadget: 12 nodes, sink = node 11
element Bubble Radii: [3. 3. 3.]
subset  Bubble Radii: [2. 2. 2. 2.]
parochial nodes: [0, 1, 2]
structural bias: 9.000
inserted 3 edges: [(0, 11), (1, 11), (2, 11)]
parochial after repair: []
structural bias after repair: 0.000
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_gadget_demo_output():
    done = _run("gadget_demo.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == GADGET_DEMO_STDOUT

