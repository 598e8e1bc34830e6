"""Write the golden outputs of the benchmark's exact CLI ops.

    python3 perfbench/make_golden.py

Run at a commit whose output is trusted; the benchmark then requires every
later run to print the same bytes.  The outputs do not depend on the seed.
"""

import contextlib
import io

from workloads import GOLDEN, WORKLOADS, CliOp, Package

if __name__ == "__main__":
    pkg = Package()
    GOLDEN.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for op in workload.ops:
            if isinstance(op, CliOp) and op.check == "golden":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = pkg.cli.main(op.argv + ["--seed", "0"])
                if rc != op.exit_code:
                    raise SystemExit(f"{op.key}: exit code {rc}, expected {op.exit_code}")
                (GOLDEN / f"{op.key}.json").write_bytes(buf.getvalue().encode("utf-8"))
                print(op.key)
