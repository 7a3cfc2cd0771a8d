#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 10 --trace 0

Set-up (input generation, TSV writing, package import) runs several times
and reports its median.  The workload's op sequence then repeats until
``--seconds`` have passed (at least once) in this one process, each op
starting after the previous one returned; every output is checked.  Each
op's time is also divided by the time of a fixed reference computation
sampled before, during and after it (see ``reference.py``); ``wall_norm``,
the sum of these ratios over a pass, is the gated time metric.  With
``--trace 1`` one more pass runs with the layer functions wrapped (see
``spans.py``), its outputs must match the untraced ones byte for byte, and
the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the environment, every sample and every metric is written under
``.perfbench-out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def commit_id() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = git / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repbublik").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the package."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repbublik"],
        env=env, cwd=ROOT, check=True, timeout=120,
    )
    return time.perf_counter() - started


def run_ops(ops, out_dir: Path, probe=None, tracer=None) -> dict:
    """One pass over the op sequence: time each op, then check its output.

    With ``probe`` (``reference.SpeedProbe``) the reference computation is
    sampled around and during each op; the op's time then excludes the
    samples taken inside it, and its ``norm`` is that time divided by the
    mean sample.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    times, norm, refs, results, errors = {}, {}, [], [], []
    for op in ops:
        path = out_dir / op.output
        speed = probe() if probe else contextlib.nullcontext()
        with speed:
            op_started = time.perf_counter()
            try:
                if tracer is not None and op.span is not None:
                    with tracer.span(op.span):
                        result = op.run(path)
                else:
                    result = op.run(path)
            except Exception:  # an op that raises fails; the others still run
                result = None
                errors.append(traceback.format_exc())
            times[op.metric] = time.perf_counter() - op_started
        results.append(result)
        if probe:
            times[op.metric] -= speed.inside_s
            norm[op.metric] = times[op.metric] / speed.mean_s()
            refs += speed.samples

    failed = {}
    for op, result in zip(ops, results):
        try:
            failed[op.output] = op.size if result is None else op.check(
                out_dir / op.output, result
            )
        except Exception:  # an output that cannot be read fails its check
            failed[op.output] = op.size
            errors.append(traceback.format_exc())
    return {
        "wall_s": sum(times.values()), "wall_norm": sum(norm.values()),
        "op_s": times, "op_norm": norm, "ref_s": refs, "failed": failed,
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repbublik" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import numpy
    import scipy

    from reference import SpeedProbe
    from spans import Tracer, layer_metrics, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir / "inputs")
    origin = time.perf_counter()

    setup_samples = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - started + import_seconds(env))
    ops = workload.ops()

    passes = []
    loop_started = time.perf_counter()
    while not passes or time.perf_counter() - loop_started < args.seconds:
        passes.append(run_ops(ops, run_dir / "untraced", SpeedProbe))

    traced = None
    if args.trace:
        tracer = Tracer()
        with patched(tracer):
            traced = run_ops(ops, run_dir / "traced", tracer=tracer)
        tracer.write_jsonl(run_dir / "spans.jsonl", origin)
        for op in ops:
            plain, with_trace = run_dir / "untraced" / op.output, run_dir / "traced" / op.output
            if not (plain.is_file() and with_trace.is_file()
                    and plain.read_bytes() == with_trace.read_bytes()):
                traced["failed"][op.output] = op.size
                traced["errors"].append(f"{op.output} differs with tracing on")

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(op.size for op in ops) * len(all_passes)
    failed = sum(sum(p["failed"].values()) for p in all_passes)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_norm": (statistics.median(p["wall_norm"] for p in passes), "ref"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ref_s": (statistics.median(r for p in passes for r in p["ref_s"]), "s"),
    }
    for op in ops:
        end_to_end[op.metric] = (statistics.median(p["op_s"][op.metric] for p in passes), "s")
        end_to_end[op.metric.removesuffix("_s") + "_norm"] = (
            statistics.median(p["op_norm"][op.metric] for p in passes), "ref"
        )
    end_to_end["fail_ratio"] = (failed / attempted, "ratio")

    layers = {}
    if traced:
        layers = layer_metrics(tracer)
        layers["trace_overhead"] = (traced["wall_s"] / wall_s, "ratio")
    reported = layers if args.trace else {
        k: end_to_end[k] for k in ("setup_s", "wall_norm", "peak_rss_mb")
    }

    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace}")
    for name, (value, unit) in {**end_to_end, **layers}.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for error in (e for p in all_passes for e in p["errors"]):
        print(error, file=sys.stderr)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "setup_samples_s": setup_samples,
        "passes": passes,
        "traced_pass": traced,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    # The inputs are remade from the seed; sparse-cli's are 9 MB a run.
    shutil.rmtree(run_dir / "inputs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
