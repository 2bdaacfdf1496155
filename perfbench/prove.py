"""Run every workload over several seeds and report each end-to-end metric.

Usage (from the root of a source checkout):

    python3 perfbench/prove.py --seeds 10              # all workloads
    python3 perfbench/prove.py --seeds 5 --workloads study
    python3 perfbench/prove.py --seeds 10 --baseline   # also rewrite baseline.json

For each workload and end-to-end metric it prints the median over the seeds
and the spread, the distance between the first and third quartile as a share
of the median, next to the metric's bound from BENCHMARK.json.  Every run's
correctness verdict is checked.  ``--baseline`` adds one traced run per
workload and records the machine, the medians and the per-layer numbers in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "note": "a shared 2-core sandbox; the numbers are not scaling results",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        wrong = [seed for seed, r in zip(seeds, runs) if not r["correct"] or r["failed"]]
        ok &= not wrong
        print(f"{workload}: {len(runs)} runs, {max(r['elapsed_s'] for r in runs):.0f} s at most, "
              f"failed operations {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}"
              + (f", incorrect at seeds {wrong}" if wrong else ""))
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            verdict = "steady" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<16} median {med:12.6g} {unit:<3} spread {rel:7.2%} (bound {bound:.0%}) {verdict}")
            metrics[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": rel, "values": values}
            if name != "setup_s":
                ok &= rel <= bound
        report[workload] = {"seeds": seeds, "metrics": metrics}
        if args.baseline:
            traced = run_once(workload, seeds[0], 1)
            ok &= traced["correct"] and not traced["failed"]
            report[workload]["per_layer_seed"] = seeds[0]
            report[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_work" / "prove-last.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.baseline:
        baseline = {
            "machine": machine(),
            "prevbias_run_threads": "1 (--threads 1; the default would be os.cpu_count() = "
                                    f"{os.cpu_count()}); run_experiment for reps_per_s uses the default",
            "run_seconds": BENCH["run_seconds"],
            "why": {w["name"]: w["why"] for w in BENCH["workloads"]},
            "workloads": report,
        }
        (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
