"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N [--size tiny]
                                 [--mode pass|traced|setup]

``run.py`` starts this once per pass, so the library's canon cache starts
cold, as it does for a command-line user.  It builds the inputs, times the
library call while sampling the machine's speed (see reference.py),
checks the outputs, and prints one JSON line: ``setup_done`` (a
``time.monotonic`` reading, so the parent can time interpreter start-up),
``setup_bracket_s`` (time spent timing the chunk inside the set-up) and
``setup_scale`` (nominal over measured chunk time around the set-up);
``wall_raw_s`` (without the sampling time), ``ref_s`` (chunk time at the
pass's mean speed), ``wall_s`` (``wall_raw_s`` at the nominal speed),
``peak_rss_mb``, the output digests, the checks, and in a traced pass the
per-layer numbers.  A ``setup`` run stops after the set-up fields.  Spans
of a traced pass are written to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import NOMINAL_CHUNK_S, SpeedSampler, bracket_chunk_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# (metric prefix, owner module attribute or class, attribute, kind)
TRACED = (
    ("tournament.induced", "Tournament", "induced", "method"),
    ("tournament.from_beats", "Tournament", "from_beats", "method"),
    ("tournament.concat", "tournament", "concat", "function"),
    ("canon.canonical_form", "canon", "canonical_form", "function"),
    ("canon.automorphism_order", "canon", "automorphism_order", "function"),
    ("speed.hereditary_closure", "speed", "hereditary_closure", "function"),
    ("speed.avoidance_closure", "speed", "avoidance_closure", "function"),
    ("speed.SpeedTable.is_downward_closed", "SpeedTable", "is_downward_closed", "method"),
    ("speed.check_supermultiplicative", "speed", "check_supermultiplicative", "function"),
    ("blocks.decompose", "blocks", "decompose", "function"),
    ("verify.run_lemma", "verify", "run_lemma", "function"),
)
CANON_FAMILIES = (
    "stacked_small", "stacked_large", "paley_small", "paley_large", "moon", "random",
)


def install_tracer(tk):
    from tracer import Tracer

    tracer = Tracer()
    for name, owner, attr, kind in TRACED:
        if kind == "method":
            tracer.wrap_method(name, getattr(tk, owner), attr)
        else:
            key = (lambda t: (t.n, t.bits)) if name == "canon.canonical_form" else None
            tracer.wrap_function(name, getattr(tk, owner), attr, key)
    return tracer


def layer_metrics(
    tracer, level_counts: list[int], wall: float, scale: float
) -> dict[str, float]:
    """Per-layer numbers of one traced pass of ``wall`` measured seconds.

    Self times are given as a share (%) of the traced pass, so a layer
    that a workload never calls reads 0 % rather than a constant 0 s.
    ``canonical_form``, which every workload calls, also gets seconds at
    the nominal speed (measured seconds times ``scale``).
    """
    spans = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m: dict[str, float] = {}
    for name, *_ in TRACED:
        s = spans.get(name, zero)
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.self_pct"] = 100 * s["self_s"] / wall
    canon = spans.get("canon.canonical_form", zero)
    m["canon.canonical_form.self_s"] = canon["self_s"] * scale
    distinct = tracer.distinct.get("canon.canonical_form", ())
    m["canon.canonical_form.unique_ratio"] = (
        len(distinct) / canon["calls"] if canon["calls"] else 0.0
    )
    for family in CANON_FAMILIES:
        m[f"canon.family_pct.{family}"] = (
            100 * spans.get(f"family:{family}", zero)["total_s"] / wall
        )
    c = level_counts
    tried = sum(c[k - 1] << k for k in range(1, len(c)))
    m["speed.ext_tried"] = tried
    m["speed.ext_yield"] = sum(c[1:]) / tried if tried else 0.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("pass", "traced", "setup"), default="pass")
    args = ap.parse_args()

    start = time.perf_counter()
    chunk_before = bracket_chunk_s()
    setup_bracket_s = time.perf_counter() - start
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tourneykit as tk
    import tourneykit.verify  # noqa: F401  (not imported by the package)

    workload = WORKLOADS[args.workload](tk, args.seed, args.size)
    result = {
        "setup_done": time.monotonic(),
        "setup_bracket_s": setup_bracket_s,
        "setup_scale": NOMINAL_CHUNK_S / statistics.harmonic_mean(
            [chunk_before, bracket_chunk_s()]
        ),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = install_tracer(tk) if args.mode == "traced" else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    with SpeedSampler() as speed:
        start = time.perf_counter()
        with span("pass"):
            output = workload.run(span)
        wall = time.perf_counter() - start - speed.inside_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = NOMINAL_CHUNK_S / speed.ref_s

    checks = workload.checks(output)
    result.update({
        "wall_raw_s": wall,
        "ref_s": speed.ref_s,
        "ref_samples": len(speed.samples),
        "wall_s": wall * scale,
        "peak_rss_mb": peak_rss_mb,
        "digests": workload.digests(output),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    if tracer:
        layers = layer_metrics(tracer, workload.level_counts(output), wall, scale)
        # from_beats builds every extension (and every concatenation), so
        # its call count cross-checks that the tracer saw every call
        checks.append((
            "trace: from_beats calls == extensions tried + concat calls",
            layers["tournament.from_beats.calls"]
            == layers["speed.ext_tried"] + layers["tournament.concat.calls"],
        ))
        result["layers"] = layers
        tracer.write(OUT / f"spans-{args.workload}.npz")
    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
