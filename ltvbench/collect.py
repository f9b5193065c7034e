"""Run every workload over several seeds and summarise the results as JSON.

    python3 ltvbench/collect.py --seeds 1-10 --seconds 20 --out ltvbench/baseline.json

Runs ``run.py`` once per workload and seed with ``--trace 0``, one run at a
time, and once per workload with ``--trace 1`` on the first seed.  For each
end-to-end metric it writes the median of the runs, their quartiles and the
spread (interquartile distance over the median); for each per-layer metric
the traced run's value.  It stops at the first run that fails or reports an
incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run's result line and its environment."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed {result['failed']} operations:\n{proc.stdout}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds,
               "held_out_seed": run.HELD_OUT_SEED, "workloads": {}}
    for workload in run.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, summary["environment"] = _run(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        end_to_end = {}
        for name, vals in values.items():
            q1, mid, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            end_to_end[name] = {"unit": run.unit_of(name), "median": statistics.median(vals),
                                "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / mid if mid else 0.0, "runs": vals}
        traced = _run(workload, seeds[0], args.seconds, 1)[0]["metrics"]
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
