"""Measure the baseline: repeated timed runs per workload, one traced run.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--out FILE]

Runs `run.py` once per seed 1..runs for each workload, in fresh processes
one after another, and writes per-metric medians, quartiles and spread
(interquartile range over median, as `statistics.quantiles(n=4)` gives
the quartiles) plus the exact counts of one traced run per workload.
Default output: perfbench/BASELINE.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from bench import _commit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = p.parse_args(argv)
    counts = [k for k, v in tracer.LAYER_METRICS.items() if v[1] == "count"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"commit": _commit(), "run_seconds": SPEC["run_seconds"],
              "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        results = [run_once(name, seed, 0) for seed in report["seeds"]]
        if not all(r["correct"] for r in results):
            ok = False
        metrics = {m: summarize([r["metrics"][m]["value"] for r in results])
                   for m in bounds}
        traced = run_once(name, 1, 1)
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "traced_seed1_counts": {k: traced["metrics"][k]["value"] for k in counts},
        }
        for m, s in metrics.items():
            flag = "" if s["spread"] < bounds[m] / 3 else "  <-- above bound/3"
            print(f"{name:17s} {m:12s} median={s['median']:.4g} "
                  f"spread={s['spread']:.3f} bound={bounds[m]}{flag}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
