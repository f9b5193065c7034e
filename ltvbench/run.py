"""Run one workload of the ltvkit benchmark and print its metrics.

    python3 ltvbench/run.py --workload smd-long --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It imports ltvkit from the checkout's
``src`` directory, with one BLAS thread, and exits with code 2 when those
sources are missing.  ``--trace 0`` reports the end-to-end metrics, from
untraced passes; ``--trace 1`` reports the per-layer metrics, from a run
whose passes alternate between traced and untraced ones, plus a counting
pass.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric with its sample count.  A full report,
with the spans of a traced run, is written under ``.bench_build/ltvbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "ltvbench"

WORKLOADS = ("smd-long", "wide-block", "smd-sweep", "cli-roundtrip")

# Blocks are 3x3 to 12x12, so BLAS threads add only scheduler noise.
BLAS_THREADS = "1"

# A seed no workload was tuned on; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 7

# Shrunken sizes for the untimed warm-up pass, which lets lazy imports and
# first-call set-up finish before timing starts.
WARMUP_SIZES = {
    "smd-long": {"N": 50},
    "wide-block": {"N": 50},
    "smd-sweep": {"seeds": 1},
    "cli-roundtrip": {"N": 50},
}

_UNITS = {"peak_rss_mb": "MB", "control.closed_loop_cost": "sum_sq"}


def unit_of(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if ".multiply_" in name:
        return "count"
    if name.endswith("calls_per_instant"):
        return "calls/instant"
    if name.startswith("cli.bytes_"):
        return "bytes"
    return "ratio"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
            setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns ({metric: (value, samples)}, run result).

    ``sizes`` shrinks the workload, for tests.  Needs ltvkit importable and
    the BLAS thread variables set before numpy is first imported.
    """
    import bench

    OUT.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else bench.setup_seconds(SRC, setup_repeats, bench.ReferenceKernel())
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        warmup_dir = workdir / "warmup"
        warmup_dir.mkdir()
        warm = bench.make_workload(workload, seed, warmup_dir, **WARMUP_SIZES[workload])
        bench.run(warm, 0.0, traced=False, min_passes=1)
        built = bench.make_workload(workload, seed, workdir, **(sizes or {}))
        result = bench.run(built, seconds, traced=trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        return bench.per_layer(result), result
    measured = bench.end_to_end(result)
    measured["setup_s"] = (bench.median(setup), setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured["peak_rss_mb"] = (rss_mb, [rss_mb])
    return measured, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ltvkit" / "__init__.py").is_file():
        print(f"error: no ltvkit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # The BLAS variables must be set before numpy is first imported.
    sys.path.insert(0, str(SRC))
    import ltvkit

    if not Path(ltvkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ltvkit from {ltvkit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    env = environment()
    measured, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome = result.outcome
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, (value, _) in measured.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "passes": {"completed": result.completed, "traced": result.traced,
                   "speed_factor": result.factor},
        "samples": {name: samples for name, (_, samples) in measured.items()},
        "metrics": metrics,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.reasons[:20],
    }
    if args.trace:
        report["spans"] = [vars(span) for span in result.recorder.spans]
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"ltvbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result.completed)}")
    print("environment " + json.dumps(env))
    print(f"  times rescaled to the reference speed by a median factor of "
          f"{statistics.median(result.factor.values()):.4g}")
    for name, (value, samples) in measured.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}  (n={len(samples)})")
    print(f"  failed_frac {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for reason in outcome.reasons[:5]:
        print(f"  failure: {reason}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
