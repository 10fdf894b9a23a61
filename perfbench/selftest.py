"""Self-test of the benchmark harness, in seconds.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and requires
exit 0 with no failed check.  Then requires a non-zero exit with
``failed`` > 0 when one pinned digest is corrupted, and a non-zero exit
without a result line in a directory that holds only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench_out" / "bare"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    problems = []
    for workload in workloads:
        for trace in ("0", "1"):
            code, result = bench("--workload", workload, "--trace", trace, "--size", "tiny")
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: exit {code}, {'ok' if ok else 'FAILED'}")
            if not ok:
                problems.append(f"{workload} trace={trace}")

    code, result = bench("--workload", workloads[0], "--trace", "0", "--size", "tiny",
                         "--corrupt-oracle")
    caught = code != 0 and result is not None and result["failed"] > 0
    print(f"corrupted oracle: exit {code}, failed {result and result['failed']}, "
          f"{'caught' if caught else 'MISSED'}")
    if not caught:
        problems.append("corrupted oracle not caught")

    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    code, result = bench("--workload", workloads[0], "--trace", "0", cwd=BARE)
    shutil.rmtree(BARE)
    refused = code != 0 and result is None
    print(f"bare directory: exit {code}, {'refused' if refused else 'NOT REFUSED'}")
    if not refused:
        problems.append("bare directory not refused")

    print("self-test " + ("passed" if not problems else "FAILED: " + "; ".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
