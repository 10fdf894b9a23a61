"""Run every workload in BENCHMARK.json, one after another.

    python3 perfbench/run_all.py [--seed N] [--trace 0|1]

Each workload runs for the file's ``run_seconds`` through ``run.py``, whose
report (every metric by name and unit, error_rate, and the JSON line) is
passed through.  Exits 1 if any workload fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = []
    for workload in spec["workloads"]:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", workload["name"],
            "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            failed.append(workload["name"])
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
