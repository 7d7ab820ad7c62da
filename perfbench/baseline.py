"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 0-9 --trace 0
    python3 perfbench/baseline.py --seeds 0-2 --trace 1 --workloads spectral

Each run is one ``run.py`` process, one at a time.  For every workload and
metric it prints the median, the quartiles and the spread (interquartile
range over median) and merges them into ``perfbench/baseline.json``
together with the machine, the pinned thread count, the versions and the
commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
RUN_TIMEOUT_S = 900


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _environment():
    import run  # pins the thread variables before numpy loads

    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "threads": {var: run.THREADS for var in run.THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["environment"] = _environment()
    record["run_seconds"] = args.seconds
    section = record.setdefault("per_layer" if args.trace else "end_to_end", {})
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(workload, seed, {k: round(v["value"], 6)
                                   for k, v in result["metrics"].items()}, flush=True)
        if not results:
            continue
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = _summary([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
            spread, bound = metrics[name]["spread"], bounds.get(name)
            flag = ""
            if not args.trace and spread is not None and bound and name != "setup_s":
                flag = "  (ok)" if spread < bound / 3 else "  (ABOVE bound/3)"
            print(f"{workload:9s} {name:40s} median {metrics[name]['median']:.6g} "
                  f"spread {spread if spread is None else round(spread, 4)}{flag}")
        section[workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
