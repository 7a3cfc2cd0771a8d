#!/usr/bin/env python3
"""Record the SHA-256 of the desk-sweep CSV for a range of workload seeds.

    python3 perfbench/record_sweep_hashes.py 0 20

runs the desk-sweep sweep for seeds 0..19 and merges their digests into
``sweep_sha256.json``, which ``run.py`` checks the CSV against.  Rerun it
only when a change to the package is meant to change sweep output.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SWEEP_SHA256, DeskSweep  # noqa: E402


def main() -> int:
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    digests = dict(SWEEP_SHA256)
    out_dir = HERE.parent / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for seed in range(first, stop):
            workload = DeskSweep(seed, Path(tmp))
            workload.setup()
            path = Path(tmp) / "sweep.csv"
            records = workload.sweep(path)
            if any(r.error is not None for r in records):
                print(f"seed {seed}: sweep has error cells, not recorded", file=sys.stderr)
                return 1
            digests[str(seed)] = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"seed {seed}: {digests[str(seed)]}", flush=True)
    ordered = {k: digests[k] for k in sorted(digests, key=int)}
    (HERE / "sweep_sha256.json").write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
