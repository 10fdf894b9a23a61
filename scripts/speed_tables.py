#!/usr/bin/env python3
"""Build speed tables for the bundled example properties and print them as
CSV blocks with log-log growth slopes.

Usage:
    python scripts/speed_tables.py [--n-max N] [--forms]

Properties covered: the stacked 1/3-block family, the cyclic-tournament
closure, the property avoiding the strongly connected 4-tournament, and
the engineered blow-up properties with one/two/three large blocks.
"""

from __future__ import annotations

import argparse

from tourneykit import (
    avoidance_closure,
    hereditary_closure,
    make_T,
    make_cyclic,
    make_cyclic_blowup,
    property_slope,
)
from tourneykit.verify import t_family_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--forms", action="store_true", help="dump JSON with forms")
    args = parser.parse_args()
    n_max = args.n_max
    if n_max < 1:
        parser.error(f"--n-max must be at least 1, got {n_max}")

    tables = [
        ("stacked-1/3-blocks", t_family_table(n_max + 3, n_max)),
        (
            "cyclic-closure",
            hereditary_closure(
                [make_cyclic(m) for m in range(1, 13)], n_max,
                seed_description="cyclic m<=12",
            ),
        ),
        ("avoid-strong-4", avoidance_closure([make_cyclic(4)], min(n_max, 9))),
        (
            "transitive-only",
            hereditary_closure([make_T((1,) * 13)], n_max,
                               seed_description="transitive(13)"),
        ),
        (
            "two-large-blocks",
            hereditary_closure([make_cyclic_blowup((12, 12, 1))], n_max,
                               seed_description="blowup(12,12,1)"),
        ),
        (
            "three-large-blocks",
            hereditary_closure([make_cyclic_blowup((11, 11, 11))], n_max,
                               seed_description="blowup(11,11,11)"),
        ),
    ]
    for name, table in tables:
        levels = table.levels()
        lo, hi = max(6, min(levels)), max(levels)
        slope = property_slope(table, lo, hi) if hi > lo else float("nan")
        print(f"# {name} (seed: {table.seed}; slope[{lo},{hi}] = {slope:.3f})")
        if args.forms:
            print(table.to_json(include_forms=True))
        else:
            print(table.to_csv(), end="")
        print()


if __name__ == "__main__":
    main()
