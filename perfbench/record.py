#!/usr/bin/env python3
"""Record the reference output of every benchmark operation.

    python3 perfbench/record.py

Writes perfbench/expected.json: per operation, the sha256 and length of
its stdout, with the echoed seed masked for seeded operations.  Run it
only at the commit whose output is the reference; a later commit must
reproduce these bytes, and the benchmark counts any difference as a
failed operation.
"""

import json
import sys
import time

from run import HERE, WORKLOADS, digest, normalized_output, operations, run_operation


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        for key, argv in operations(workload, seed=0):
            report = run_operation(argv, None, time.monotonic() + 600)
            if "error" in report or report["exit"] != 0 or not report["stdout"].endswith("result: pass\n"):
                print(f"error: {' '.join(argv)} did not pass; nothing recorded", file=sys.stderr)
                return 1
            expected[key] = digest(normalized_output(argv, report["stdout"]))
            print(f"{key}: {expected[key]['bytes']} bytes")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
