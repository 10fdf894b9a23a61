"""tourneykit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see BENCHMARK.json for the workloads and why
each exists) for about S seconds, one fresh interpreter per pass, and
checks every pass's outputs against pinned digests and oracles.  Prints
each metric by name with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Times are seconds at a fixed nominal machine speed, so
that load from other tenants of a shared machine cancels out (see
reference.py); the measured seconds are printed beside them.  A traced
run alternates untraced and traced passes, so it also reports the
tracing overhead.  After each pass, SETUPS_PER_PASS more
interpreters do the set-up alone, so the median set-up time rests on more
samples.  Exits 1 when any check fails.

Each run also writes its raw per-pass numbers, the seed, the machine and
the versions to ``.perfbench_out/result-<workload>-<size>-<seed>-<trace>.json``.

``--size tiny`` and ``--corrupt-oracle`` serve ``selftest.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PASS_TIMEOUT_S = 120
SETUPS_PER_PASS = 2


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(args, mode: str) -> dict | None:
    """One pass (or set-up alone) in a fresh interpreter; None when it
    crashed or timed out."""
    cmd = [
        sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    env.pop("PYTHONOPTIMIZE", None)  # the library's asserts are part of the work
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"pass exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result.pop("setup_done") - spawned - result["setup_bracket_s"]
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    result["elapsed_s"] = time.monotonic() - spawned
    result["mode"] = mode
    return result


def run_passes(args) -> tuple[list[dict | None], list[dict | None]]:
    """Untraced passes (or untraced/traced pairs), each followed by
    set-up-only runs, until the time is spent.

    A round starts only if one as long as the longest so far still fits.
    """
    modes = ("pass", "traced") if args.trace else ("pass",)
    deadline = time.monotonic() + args.seconds
    passes: list[dict | None] = []
    setups: list[dict | None] = []
    longest = 0.0
    while not passes or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        passes += [run_child(args, mode) for mode in modes]
        setups += [run_child(args, "setup") for _ in range(SETUPS_PER_PASS)]
        longest = max(longest, time.monotonic() - began)
    return passes, setups


def check_passes(passes: list[dict | None], pins: dict[str, str]) -> list:
    """Each pass's own checks, its digests against the pins, and equal
    digests across passes (untraced and traced alike)."""
    checks = []
    for i, p in enumerate(passes):
        if p is None:
            checks.append([f"pass {i} completed", False])
            continue
        checks += p["checks"]
        got = p["digests"]
        for key in sorted(set(got) | set(pins)):
            checks.append([f"pass {i} digest {key} pinned", got.get(key) == pins.get(key)])
    done = [p["digests"] for p in passes if p is not None]
    checks += [[f"pass digests agree ({len(done)})", all(d == done[0] for d in done)]]
    return checks


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="alter one pinned digest, to show that checks fail")
    args = ap.parse_args()

    if not (ROOT / "src" / "tourneykit" / "__init__.py").is_file():
        print(f"no tourneykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(whys)}",
              file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())[f"{args.workload}/{args.size}"]
    if args.corrupt_oracle:
        key = sorted(pins)[0]
        pins[key] = "corrupted-" + pins[key]

    # byte-compile first, so no pass pays for it in its set-up time
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    passes, setups = run_passes(args)
    checks = check_passes(passes, pins)
    checks.append([f"set-up runs completed ({len(setups)})", None not in setups])
    failed = sum(1 for _, ok in checks if not ok)
    done = [p for p in passes if p is not None]
    untraced = [p for p in done if p["mode"] == "pass"]
    traced = [p for p in done if p["mode"] == "traced"]

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values: dict[str, list[float]] = {}
    if not args.trace:
        for name in ("wall_s", "peak_rss_mb", "wall_raw_s", "ref_s"):
            values[name] = [p[name] for p in untraced]
        for name in ("setup_s", "setup_raw_s"):
            values[name] = [r[name] for r in passes + setups if r is not None]
    else:
        for name in traced[0]["layers"] if traced else ():
            values[name] = [p["layers"][name] for p in traced]
        values["pass.traced_s"] = [p["wall_s"] for p in traced]
        if traced and untraced:
            values["trace_overhead_s"] = [
                statistics.median(values["pass.traced_s"])
                - statistics.median(p["wall_s"] for p in untraced)
            ]
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": units[name]}
        for name in units
        if values.get(name)
    }
    correct = failed == 0 and set(metrics) == set(units)

    first = done[0] if done else {}
    info = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
    }
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)}")
    print(f"  why: {info['why']}")
    m = info["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} commit={m['commit']}")
    for name, series in values.items():
        q1, q2, q3 = quartiles(series)
        unit = units.get(name, "s")  # the raw times shown beside the metrics
        print(f"  {name} = {q2:.6g} {unit}  (median of {len(series)}; q1 {q1:.6g}, "
              f"q3 {q3:.6g}, max {max(series):.6g})")
    print(f"  error_rate = {failed / len(checks):.6g}  ({failed} of {len(checks)} checks failed)")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED: {name}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")

    OUT.mkdir(exist_ok=True)
    record = dict(info, passes=passes, checks=checks, metrics=metrics)
    (OUT / f"result-{args.workload}-{args.size}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
