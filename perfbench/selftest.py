"""Small test of the benchmark.

    python3 perfbench/selftest.py

Runs one tiny pass of every workload, untraced and traced, and checks that
every metric of BENCHMARK.json is printed with its unit, that every op
passes, and that the layers each workload exists for are seen by the trace.
Then corrupts one golden file and checks that the op reading it is counted
as failed.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer counts that must be positive on the workload meant to move them
MUST_CALL = {
    "subweb-ranks": ("linalg.exact_nullspace.calls", "web.singular_locus.calls", "jets.hexagonality.calls"),
    "characterization": ("jets.constrained_rank.calls", "linalg.exact_rank_of_span.calls"),
    "numeric-identities": ("hyperlog.value_vector.calls", "hyperlog.verify_afe_numeric.calls"),
    "symbolic-corpus": ("abel.derive_lde.calls", "projective.prop7_check.calls"),
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in specs}, set(got) ^ {m["name"] for m in specs}
    for spec in specs:
        assert got[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert isinstance(got[spec["name"]]["value"], (int, float)), spec["name"]


def corrupted_golden_counts_as_failed() -> None:
    sys.path.insert(0, str(HERE))
    import run as bench
    from workloads import GOLDEN, WORKLOADS

    workload = WORKLOADS["symbolic-corpus"]
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copytree(GOLDEN, tmp, dirs_exist_ok=True)
        victim = Path(tmp) / "sigma-bol.json"
        victim.write_bytes(victim.read_bytes().replace(b'"bol"', b'"b0l"', 1))
        workload.setup(Path(tmp))
        result, _, _ = bench.measure(workload, 0, 0, False)
    assert result["attempted"] == len(workload.ops), result
    assert result["failed"] == 1 and not result["correct"], result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        assert plain["correct"] and plain["failed"] == 0, plain
        check_metrics(plain, spec["end_to_end"])
        traced = run(workload, 1)
        assert traced["correct"] and traced["failed"] == 0, traced
        check_metrics(traced, spec["per_layer"])
        for name in MUST_CALL[workload]:
            assert traced["metrics"][name]["value"] > 0, (workload, name)
        print(f"ok {workload}")
    corrupted_golden_counts_as_failed()
    print("ok corrupted golden counted as a failed op")


if __name__ == "__main__":
    main()
