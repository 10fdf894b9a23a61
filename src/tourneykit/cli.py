"""Command-line front door.

Verbs: gen, canon, iso, aut, blocks, detect, speed, subcount, verify.
JSON goes to stdout, diagnostics to stderr.  Exit status: 0 ok, 1
verification failure / pattern absent, 2 usage error, 3 infeasible size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import verify as verify_mod
from .blocks import decompose
from .canon import automorphism_order, canonical_form, is_isomorphic
from .families import (
    MAX_TOWER_VERTICES,
    FlagTriple,
    ReversalSpec,
    make_M,
    make_M_general,
    make_T,
    make_TS,
    make_Tstar,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
)
from .speed import DEFAULT_MEM_BUDGET, avoidance_closure, hereditary_closure
from .structures import detect_type1, detect_type2
from .tournament import InfeasibleSizeError, Tournament, random_tournament

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
RANDOM_MAX_N = 2048  # `gen` cap, every family: ~2M pair bits, a 2 MB .trn file
# `gen` families: the least and most parameters each takes, its vertex count
# n from them, checked against the cap before anything is built, and its
# builder from the parameters (padded with "" for those not given), n and
# the seed
FAMILIES = {
    "T": (1, 1, lambda p: sum(_csv_ints(p[0])), lambda p, n, seed: make_T(_csv_ints(p[0]))),
    "M": (2, 2, lambda p: 3 * int(p[1]),
          lambda p, n, seed: make_M(FlagTriple.coerce(_csv_ints(p[0])), int(p[1]))),
    "Mk": (2, 2, lambda p: int(p[0]) * int(p[1]),
           lambda p, n, seed: make_M_general(int(p[0]), int(p[1]))),
    "cyclic": (1, 1, lambda p: int(p[0]), lambda p, n, seed: make_cyclic(n)),
    "TS": (1, 2, lambda p: int(p[0]), lambda p, n, seed: make_TS(n, _csv_ints(p[1]))),
    "Tstar": (1, 3, lambda p: int(p[0]), lambda p, n, seed: make_Tstar(
        ReversalSpec(n, tuple(_csv_ints(p[1])), tuple(_csv_ints(p[2]))))),
    "type1": (1, 2, lambda p: 2 * int(p[0]) + 1,
              lambda p, n, seed: make_type1(int(p[0]), int(p[1]) if p[1] else 1)),
    # make_moon_tower refuses a level past its own bound, which is under the cap
    "moon": (1, 1, lambda p: MAX_TOWER_VERTICES,
             lambda p, n, seed: make_moon_tower(int(p[0]))),
    # the cyclic quotient on one vertex per block is built too
    "blowup": (1, 1, lambda p: max(sum(s := _csv_ints(p[0])), len(s)),
               lambda p, n, seed: make_cyclic_blowup(_csv_ints(p[0]))),
    "random": (1, 1, lambda p: int(p[0]), lambda p, n, seed: random_tournament(n, seed)),
}


def _load(path: str) -> Tournament:
    text = Path(path).read_text()
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if len(first.split()) > 1:  # "u v", split on any whitespace
        from .tournament import read_edge_list

        return read_edge_list(text)
    return Tournament.from_trn(text)


def _csv_ints(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(x) for x in s.split(",")]


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _gen(args) -> int:
    fam = args.family
    params = args.params
    if fam not in FAMILIES:
        print(f"unknown family {fam!r}", file=sys.stderr)
        return EXIT_USAGE
    least, most, size, build = FAMILIES[fam]
    if len(params) < least:
        raise ValueError("missing family parameters")
    if len(params) > most:
        raise ValueError(
            f"too many family parameters: gen {fam} takes at most {most}, got {len(params)}"
        )
    padded = params + ["", ""]
    n = size(padded)
    if n > RANDOM_MAX_N:
        raise InfeasibleSizeError(f"gen {fam} is capped at {RANDOM_MAX_N} vertices, got {n}")
    text = build(padded, n, args.seed).to_trn()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _canon(args) -> int:
    print(canonical_form(_load(args.file)).bits)
    return EXIT_OK


def _iso(args) -> int:
    same = is_isomorphic(_load(args.a), _load(args.b))
    _emit({"isomorphic": same})
    return EXIT_OK


def _aut(args) -> int:
    order = automorphism_order(_load(args.file))
    _emit({"automorphism_order": order})
    return EXIT_OK


def _blocks(args) -> int:
    t = _load(args.file)
    dec = decompose(t)
    _emit(
        {
            "blocks": [sorted(b) for b in dec.blocks],
            "sequence": list(dec.sequence),
            "quotient": {"n": dec.quotient.n, "trn": dec.quotient.body_line()},
        }
    )
    return EXIT_OK


def _detect(args) -> int:
    t = _load(args.file)
    w = (detect_type1 if args.type == 1 else detect_type2)(t, args.k)
    if w is None:
        _emit({"found": False})
        return EXIT_FAIL
    _emit({"found": True, "kind": w.kind, "assignment": list(w.assignment)})
    return EXIT_OK


def _speed(args) -> int:
    if args.n_max < 1:
        print(f"speed --n-max must be at least 1, got {args.n_max}", file=sys.stderr)
        return EXIT_USAGE
    if args.avoid:
        table = avoidance_closure(
            [_load(p) for p in args.avoid],
            args.n_max,
            mem_budget=args.mem_budget,
        )
    elif args.seeds:
        table = hereditary_closure(
            [_load(p) for p in args.seeds],
            args.n_max,
            mem_budget=args.mem_budget,
        )
    else:
        print("speed needs --seeds or --avoid", file=sys.stderr)
        return EXIT_USAGE
    if args.csv:
        sys.stdout.write(table.to_csv())
    else:
        print(table.to_json(include_forms=args.forms))
    return EXIT_OK


def _subcount(args) -> int:
    if args.csv and args.scan is None:
        print("subcount --csv needs --scan: only a scan is a table", file=sys.stderr)
        return EXIT_USAGE
    if args.cyclic:
        if args.m is not None or args.scan is not None:
            print(
                "subcount --cyclic takes no --m or --scan: its host is cyclic(2n)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        result = {"n": args.n, "count": verify_mod.count_cyclic_subs(args.n)}
    elif args.flags is None:
        print("subcount needs --flags or --cyclic", file=sys.stderr)
        return EXIT_USAGE
    elif args.m is None and args.scan is None:
        print("subcount --flags needs --m or --scan", file=sys.stderr)
        return EXIT_USAGE
    else:
        flags = tuple(_csv_ints(args.flags))
        result = {"n": args.n, "flags": list(flags)}
        if args.scan is not None:
            values, stable = verify_mod.count_sub_L_scan(flags, args.n, m_max=args.scan)
            if args.csv:
                print("m,count")
                for m, c in values:
                    print(f"{m},{c}")
                return EXIT_OK
            result["values"] = [{"m": m, "count": c} for m, c in values]
            result["stabilized_m"] = stable
        else:
            result["m"] = args.m
            result["count"] = verify_mod.count_sub_L(flags, args.n, args.m)
    _emit(result)
    return EXIT_OK


def _verify(args) -> int:
    params = {}
    for name in ("n_max", "m_max", "level_max"):
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    start = time.monotonic()
    report = verify_mod.run_lemma(args.id, **params)
    print(report.to_json())
    print(
        f"{args.id}: {'pass' if report.passed else 'FAIL'} "
        f"({len(report.cases)} cases, {time.monotonic() - start:.2f}s)",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tourneykit",
        description="Tournament combinatorics workbench",
    )
    p.add_argument(
        "--mem-budget", type=int, default=DEFAULT_MEM_BUDGET, help="closure budget, bytes"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling verbs")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate a family member as .trn")
    g.add_argument("family", help="|".join(FAMILIES))
    g.add_argument("params", nargs="*", help="family parameters")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_gen)

    c = sub.add_parser("canon", help="print the canonical line of a .trn file")
    c.add_argument("file")
    c.set_defaults(fn=_canon)

    i = sub.add_parser("iso", help="isomorphism test")
    i.add_argument("a")
    i.add_argument("b")
    i.set_defaults(fn=_iso)

    a = sub.add_parser("aut", help="automorphism group order")
    a.add_argument("file")
    a.set_defaults(fn=_aut)

    b = sub.add_parser("blocks", help="homogeneous block decomposition")
    b.add_argument("file")
    b.set_defaults(fn=_blocks)

    d = sub.add_parser("detect", help="find a type-1/type-2 k-structure")
    d.add_argument("--type", type=int, choices=(1, 2), required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("file")
    d.set_defaults(fn=_detect)

    s = sub.add_parser("speed", help="speed table of a hereditary property")
    closure = s.add_mutually_exclusive_group()
    closure.add_argument("--seeds", nargs="+", help=".trn seeds for deletion closure")
    closure.add_argument("--avoid", nargs="+", help=".trn forbidden patterns")
    s.add_argument("--n-max", type=int, required=True)
    output = s.add_mutually_exclusive_group()
    output.add_argument("--forms", action="store_true", help="include canonical lines")
    output.add_argument("--csv", action="store_true", help="CSV output, n,count")
    s.set_defaults(fn=_speed)

    sc = sub.add_parser("subcount", help="count n-vertex sub-tournament classes")
    sc.add_argument("--n", type=int, required=True)
    host = sc.add_mutually_exclusive_group()
    host.add_argument("--flags", help="I1,I2,I3 for the layered flag family")
    host.add_argument("--cyclic", action="store_true", help="use the cyclic host")
    layers = sc.add_mutually_exclusive_group()
    layers.add_argument("--m", type=int, help="host layer count")
    layers.add_argument("--scan", type=int, help="scan m upward to this bound")
    sc.add_argument("--csv", action="store_true", help="CSV output of --scan, m,count")
    sc.set_defaults(fn=_subcount)

    v = sub.add_parser("verify", help="run one verification suite case")
    v.add_argument("id", choices=sorted(verify_mod.LEMMA_IDS))
    v.add_argument("--n-max", type=int, default=None)
    v.add_argument("--m-max", type=int, default=None)
    v.add_argument("--level-max", type=int, default=None, help="moon-aut's top tower level")
    v.set_defaults(fn=_verify)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mem_budget < 1:
        parser.error(f"--mem-budget must be at least 1 byte, got {args.mem_budget}")
    try:
        return args.fn(args)
    except InfeasibleSizeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
