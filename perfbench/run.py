"""planarweb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in this single process as a closed loop with one caller:
passes over the workload's ops, one op after another, until the next pass
would end after S seconds (at least one pass).  Pass i uses the seed
1000 * N + i (1000 * N + i // 2 when tracing), and its op j the seed
100 * (pass seed) + j, so that ops of one pass do not share sample points.
Every op's exit code and output are checked; a mismatch or an exception
counts as a failed op and is never retried.

Times are rescaled to a reference host speed (perfbench/speed.py), because
other tenants' load changes the speed of a shared host by up to 2x.
setup_s is the median set-up time of 5 fresh processes.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
layers are traced from outside (perfbench/tracer.py) on every other pass and
the per-layer metrics are printed, per traced pass.  Spans go to
perfbench/out/.  The last line of stdout is one JSON object; progress and
failures go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SPAWN_REFERENCE_S, Speedometer, spawn_sample
from workloads import GOLDEN, MARGIN_CAP, WORKLOADS, Package
import tracer as tracing

OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
PROBE_MARK = "setup-done"


class PassResult:
    def __init__(self):
        self.latencies = []  # per op, at the reference speed
        self.raw = []  # per op, wall-clock
        self.failed = 0
        self.margins = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_op(op, seed: int):
    try:
        return op.run(seed)
    except Exception:  # noqa: BLE001 - an op that raises is a failed op
        traceback.print_exc()
        return None


def run_pass(ops, seed: int, speedometer: Speedometer, tracer=None) -> PassResult:
    result = PassResult()
    for i, op in enumerate(ops):
        op_seed = 100 * seed + i
        if tracer is not None:
            tracer.request = f"{op_seed}:{op.key}"
        # every op starts from an empty collector, as a fresh CLI process does
        gc.collect()
        outcome, raw, latency = speedometer.time(run_op, op, op_seed)
        result.raw.append(raw)
        result.latencies.append(latency)
        if outcome is None or not outcome.ok:
            result.failed += 1
            if outcome is not None:
                print(f"FAILED {op.key} (seed {op_seed}): {outcome.detail}", file=sys.stderr)
        elif outcome.margin is not None:
            result.margins.append(outcome.margin)
    return result


def probe_setup(workload: str, seed: int) -> list:
    """Set-up times of SETUP_PROBES fresh benchmark processes: seconds from
    spawning one until its set-up ends.

    Interpreter start and imports are rescaled by the mean of the spawn
    references timed right before and right after the probe; the rest of
    the set-up, which computes, is rescaled inside the probe as an op is
    (speed.py)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    spawns, times = [spawn_sample()], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            reported = proc.stdout.read()
        if line.strip() != PROBE_MARK or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        spawns.append(spawn_sample())
        computing, rescaled = json.loads(reported)
        spawn = (spawns[-2] + spawns[-1]) / 2
        times.append((elapsed - computing) * SPAWN_REFERENCE_S / spawn + rescaled)
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_times):
    margins = [min(p.margins) if p.margins else MARGIN_CAP for p in passes]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "slowest_op_s": metric(
            max(statistics.mean(op) for op in zip(*(p.latencies for p in passes))), "s"
        ),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "residual_margin_digits": metric(statistics.median(margins), "digits"),
    }


def per_layer(tracer, traced, untraced):
    n = len(traced)
    out = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = metric(tracer.calls[name] / n, "count")
        out[f"{name}.total_s"] = metric(tracer.total_s[name] / n, "s")
        out[f"{name}.self_s"] = metric(tracer.self_s[name] / n, "s")
    nullspaces = tracer.calls["linalg.exact_nullspace"]
    out["linalg.primes_per_nullspace"] = metric(
        tracer.calls["linalg.modp_rref"] / nullspaces if nullspaces else 0.0, "ratio"
    )
    out["linalg.nullspace_cells"] = metric(tracer.nullspace_cells / n, "count")
    out["trace.spans"] = metric(len(tracer.spans) / n, "count")
    out["trace.overhead_ratio"] = metric(
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1,
        "ratio",
    )
    return out


def measure(workload, seed: int, seconds: float, trace: bool):
    """Loop over passes of a workload that is set up; return the result
    dict, the untraced passes and the tracer (None when not tracing)."""
    tracer = tracing.Tracer() if trace else None
    speedometer = Speedometer()
    passes, traced, elapsed = [], [], []
    start = time.perf_counter()
    while True:
        index = len(passes) + len(traced)
        # traced and untraced passes come in pairs on the same inputs
        pass_seed = 1000 * seed + (index // 2 if trace else index)
        on = trace and index % 2 == 0
        if on:
            tracer.install()
        try:
            pass_start = time.perf_counter()
            result = run_pass(workload.ops, pass_seed, speedometer, tracer if on else None)
            elapsed.append(time.perf_counter() - pass_start)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else passes).append(result)
        done = passes + traced
        print(f"{workload.name} pass {len(done)}: {result.wall:.3f} s at reference speed, "
              f"{sum(result.raw):.3f} s wall-clock{' traced' if on else ''}, {result.failed} failed",
              file=sys.stderr)
        typical = statistics.median(elapsed)
        if not (trace and not passes) and time.perf_counter() - start + typical > seconds:
            break
    done = passes + traced
    attempted = sum(len(p.latencies) for p in done)
    failed = sum(p.failed for p in done)
    correct = failed == 0
    if trace:
        for name in tracer.missing:
            print(f"trace: {name} not found, its metrics read 0", file=sys.stderr)
        for layer in workload.layers:
            if tracer.layer_calls(layer) == 0:
                print(f"trace: layer {layer} recorded no call on {workload.name}", file=sys.stderr)
                correct = False
        metrics = per_layer(tracer, traced, passes)
    else:
        metrics = None
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, passes, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        pkg = Package()
        start = time.perf_counter()
        _, _, rescaled = Speedometer().time(workload.setup, GOLDEN, pkg)
        computing = time.perf_counter() - start
        print(PROBE_MARK, flush=True)
        print(json.dumps([computing, rescaled]), flush=True)
        return 0

    workload.setup()  # fails before any result when the sources are missing
    setup_times = [] if args.trace else probe_setup(args.workload, args.seed)
    result, passes, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))
    if tracer is None:
        result["metrics"] = end_to_end(passes, setup_times)
        walls = [p.wall for p in passes]
        print(f"{args.workload}: {len(walls)} passes at reference speed, fastest {min(walls):.3f} s, "
              f"median {statistics.median(walls):.3f} s, slowest {max(walls):.3f} s; wall-clock median "
              f"{statistics.median(sum(p.raw) for p in passes):.3f} s", file=sys.stderr)
        ops = {op.key: {"fastest_s": min(lat), "median_s": statistics.median(lat)}
               for op, lat in zip(workload.ops, zip(*(p.latencies for p in passes)))}
        print("ops " + json.dumps(ops), file=sys.stderr)
    else:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
