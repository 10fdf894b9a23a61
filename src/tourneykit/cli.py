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
from .speed import (
    avoidance_closure,
    count_cyclic_subs,
    count_sub_L,
    count_sub_L_scan,
    hereditary_closure,
)
from .structures import detect_type1, detect_type2
from .tournament import InfeasibleSizeError, Tournament, random_tournament

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
RANDOM_MAX_N = 2048  # `gen random` cap: ~2M pair bits, a 2 MB .trn file


def _load(path: str) -> Tournament:
    text = Path(path).read_text()
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if " " in first.strip():
        from .tournament import read_edge_list

        return read_edge_list(text)
    return Tournament.from_trn(text)


def _csv_ints(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(x) for x in s.split(",")]


def _emit(obj, args) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _gen(args) -> int:
    fam = args.family
    params = args.params
    if fam == "T":
        t = make_T(_csv_ints(params[0]))
    elif fam == "M":
        t = make_M(FlagTriple.coerce(_csv_ints(params[0])), int(params[1]))
    elif fam == "Mk":
        t = make_M_general(int(params[0]), int(params[1]))
    elif fam == "cyclic":
        t = make_cyclic(int(params[0]))
    elif fam == "TS":
        s = _csv_ints(params[1]) if len(params) > 1 else []
        t = make_TS(int(params[0]), s)
    elif fam == "Tstar":
        n = int(params[0])
        s = tuple(_csv_ints(params[1])) if len(params) > 1 else ()
        sigma = tuple(_csv_ints(params[2])) if len(params) > 2 else ()
        t = make_Tstar(ReversalSpec(n, s, sigma))
    elif fam == "type1":
        t = make_type1(int(params[0]), int(params[1]) if len(params) > 1 else 1)
    elif fam == "moon":
        t = make_moon_tower(int(params[0]))
    elif fam == "blowup":
        t = make_cyclic_blowup(_csv_ints(params[0]))
    elif fam == "random":
        n = int(params[0])
        if n > RANDOM_MAX_N:
            raise InfeasibleSizeError(
                f"gen random is capped at {RANDOM_MAX_N} vertices, got {n}"
            )
        t = random_tournament(n, args.seed)
    else:
        print(f"unknown family {fam!r}", file=sys.stderr)
        return EXIT_USAGE
    text = t.to_trn()
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
    _emit({"isomorphic": same}, args)
    return EXIT_OK


def _aut(args) -> int:
    order = automorphism_order(_load(args.file), bound=args.bound)
    _emit({"automorphism_order": order}, args)
    return EXIT_OK


def _blocks(args) -> int:
    t = _load(args.file)
    dec = decompose(t)
    _emit(
        {
            "blocks": [sorted(b) for b in dec.blocks],
            "sequence": list(dec.sequence),
            "quotient": {"n": dec.quotient.n, "trn": dec.quotient.body_line()},
        },
        args,
    )
    return EXIT_OK


def _detect(args) -> int:
    t = _load(args.file)
    w = (detect_type1 if args.type == 1 else detect_type2)(t, args.k)
    if w is None:
        _emit({"found": False}, args)
        return EXIT_FAIL
    _emit({"found": True, "kind": w.kind, "assignment": list(w.assignment)}, args)
    return EXIT_OK


def _speed(args) -> int:
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
            workers=args.threads,
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
    if args.cyclic:
        result = {"n": args.n, "count": count_cyclic_subs(args.n)}
    elif args.flags is None:
        print("subcount needs --flags or --cyclic", file=sys.stderr)
        return EXIT_USAGE
    elif args.m is None and not args.scan:
        print("subcount --flags needs --m or --scan", file=sys.stderr)
        return EXIT_USAGE
    else:
        flags = tuple(_csv_ints(args.flags))
        if args.scan:
            values, stable = count_sub_L_scan(flags, args.n, m_max=args.scan)
            if args.csv:
                print("m,count")
                for m, c in values:
                    print(f"{m},{c}")
                return EXIT_OK
            result = {
                "n": args.n,
                "flags": list(flags),
                "values": [{"m": m, "count": c} for m, c in values],
                "stabilized_m": stable,
            }
        else:
            result = {
                "n": args.n,
                "flags": list(flags),
                "m": args.m,
                "count": count_sub_L(flags, args.n, args.m),
            }
    _emit(result, args)
    return EXIT_OK


def _verify(args) -> int:
    params = {}
    if args.n_max is not None:
        params["n_max"] = args.n_max
    if args.m_max is not None:
        params["m_max"] = args.m_max
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
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument(
        "--mem-budget", type=int, default=2 * 1024**3, help="closure budget, bytes"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling verbs")
    shared = argparse.ArgumentParser(add_help=False)
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument(
        "--csv", action="store_true", help="CSV output (speed tables only)"
    )
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", parents=[shared], help="generate a family member as .trn")
    g.add_argument("family", help="T|M|Mk|cyclic|TS|Tstar|type1|moon|blowup|random")
    g.add_argument("params", nargs="*", help="family parameters")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_gen)

    c = sub.add_parser("canon", parents=[shared], help="print the canonical line of a .trn file")
    c.add_argument("file")
    c.set_defaults(fn=_canon)

    i = sub.add_parser("iso", parents=[shared], help="isomorphism test")
    i.add_argument("a")
    i.add_argument("b")
    i.set_defaults(fn=_iso)

    a = sub.add_parser("aut", parents=[shared], help="automorphism group order")
    a.add_argument("file")
    a.add_argument("--bound", type=int, default=16)
    a.set_defaults(fn=_aut)

    b = sub.add_parser("blocks", parents=[shared], help="homogeneous block decomposition")
    b.add_argument("file")
    b.set_defaults(fn=_blocks)

    d = sub.add_parser("detect", parents=[shared], help="find a type-1/type-2 k-structure")
    d.add_argument("--type", type=int, choices=(1, 2), required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("file")
    d.set_defaults(fn=_detect)

    s = sub.add_parser("speed", parents=[shared], help="speed table of a hereditary property")
    s.add_argument("--seeds", nargs="+", help=".trn seeds for deletion closure")
    s.add_argument("--avoid", nargs="+", help=".trn forbidden patterns")
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--forms", action="store_true", help="include canonical lines")
    s.set_defaults(fn=_speed)

    sc = sub.add_parser("subcount", parents=[shared], help="count n-vertex sub-tournament classes")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--flags", help="I1,I2,I3 for the layered flag family")
    sc.add_argument("--m", type=int, help="host layer count")
    sc.add_argument("--scan", type=int, help="scan m upward to this bound")
    sc.add_argument("--cyclic", action="store_true", help="use the cyclic host")
    sc.set_defaults(fn=_subcount)

    v = sub.add_parser("verify", parents=[shared], help="run one verification suite case")
    v.add_argument("id", choices=sorted(verify_mod.LEMMA_IDS))
    v.add_argument("--n-max", type=int, default=None)
    v.add_argument("--m-max", type=int, default=None)
    v.set_defaults(fn=_verify)
    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleSizeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IndexError:
        print("error: missing family parameters", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
