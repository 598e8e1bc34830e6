"""Run the benchmark on several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each workload of BENCHMARK.json is run once per seed with --trace 0 and
once with --trace 1 on the first seed.  Each run is its own process, one
after another.  For every end-to-end metric the summary gives the values,
their median and quartiles, and the spread: the distance between the first
and third quartile as a share of the median.  It also gives each op's
fastest and median latency (medians over seeds) and the traced run's per-layer metrics.
"""

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


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = [json.loads(line[4:]) for line in proc.stderr.splitlines() if line.startswith("ops ")]
    return proc.returncode, result, ops[0] if ops else {}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seeds_of(args.seeds)
    report = {
        "machine": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        values, ops, ok = {}, {}, True
        for seed in seeds:
            rc, result, op_times = run(name, seed, spec["run_seconds"], 0)
            ok = ok and rc == 0 and result["correct"] and result["failed"] == 0
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for key, times in op_times.items():
                ops.setdefault(key, []).append(times)
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rc, traced, _ = run(name, seeds[0], spec["run_seconds"], 1)
        ok = ok and rc == 0 and traced["correct"]
        report["workloads"][name] = {
            "all_correct": ok,
            "end_to_end": {m: summary(v) for m, v in values.items()},
            "ops": {k: {"fastest_s": statistics.median(t["fastest_s"] for t in v),
                        "median_s": statistics.median(t["median_s"] for t in v)}
                    for k, v in ops.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in report["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
