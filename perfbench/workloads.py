"""The benchmark workloads: seeded inputs, the timed call, oracle checks.

Each workload class builds its inputs from the seed in ``__init__`` (timed
as set-up), does the library work in ``run`` (timed as the pass), and
exposes its outputs as digests for the pinned values plus checks against
independent oracles.  Inputs are relabelled by seeded permutations; the
outputs are isomorphism invariants, so they do not depend on the seed.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import AbstractContextManager
from typing import Callable

# OEIS A000568, unlabelled tournaments on n = 1, 2, ... vertices
A000568 = (1, 1, 2, 4, 12, 56, 456, 6880, 191536)

Span = Callable[[str], AbstractContextManager]
Check = tuple[str, bool]


def fstar(n: int) -> int:
    """1, 1, 1, then f(n) = f(n-1) + f(n-3); kept apart from the library's."""
    f = [1, 1, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-3])
    return f[n]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def relabelled(t, seed: int, key: str):
    """t under a permutation drawn from (seed, key)."""
    perm = list(range(t.n))
    random.Random(f"{seed}/{key}").shuffle(perm)
    return t.relabel(perm)


def paley(tk, p: int):
    residues = {(x * x) % p for x in range(1, p)}
    return tk.Tournament.from_beats(p, lambda i, j: (j - i) % p in residues)


def seeded_constructors(tk, seed: int, names: tuple[str, ...]) -> dict[str, Callable]:
    """Family constructors that return seeded relabellings, built once.

    The lemmas build their seed tournaments by calling constructors that
    ``verify`` imports by name.  Installing these in their place hands every
    lemma a relabelled input; calling them during set-up builds each input
    there, so the pass only looks them up.
    """
    built: dict[str, object] = {}

    def seeded(name: str) -> Callable:
        make = getattr(tk.families, name)

        def build(*args):
            key = f"{name}{args!r}"
            if key not in built:
                built[key] = relabelled(make(*args), seed, key)
            return built[key]

        return build

    return {name: seeded(name) for name in names}


def _lemma_checks(report, count_case_prefix: str, n_max: int) -> list[Check]:
    checks = [(f"{report.lemma_id} passed", report.passed)]
    counted = [c for c in report.cases if c.name.startswith(count_case_prefix)]
    checks.append((f"{report.lemma_id} has {n_max} counts", len(counted) == n_max))
    for n, case in enumerate(counted, start=1):
        checks.append((f"{report.lemma_id} {case.name} == fstar", case.observed == fstar(n)))
    return checks


class Deletion:
    # T-equals-Fstar n_max, lemma3-bound n_max
    SIZES = {"full": (14, 12), "tiny": (8, 6)}

    def __init__(self, tk, seed: int, size: str):
        self.tk = tk
        self.t_n_max, self.l3_n_max = self.SIZES[size]
        make = seeded_constructors(tk, seed, ("make_T", "make_cyclic_blowup"))
        for seq in tk.verify.composition_seqs(self.t_n_max + 3):
            make["make_T"](seq)
        make["make_T"]((1,) * 12)
        make["make_cyclic_blowup"]((12, 12, 1))
        make["make_cyclic_blowup"]((8, 8, 8))
        vars(tk.verify).update(make)

    def run(self, span: Span):
        run_lemma = self.tk.verify.run_lemma
        return [
            run_lemma("T-equals-Fstar", n_max=self.t_n_max),
            run_lemma("lemma3-bound", n_max=self.l3_n_max),
        ]

    def digests(self, reports) -> dict[str, str]:
        return {r.lemma_id: sha(r.to_json()) for r in reports}

    def checks(self, reports) -> list[Check]:
        t_report, l3_report = reports
        return _lemma_checks(t_report, "n=", self.t_n_max) + [
            (f"{l3_report.lemma_id} passed", l3_report.passed)
        ]

    def level_counts(self, reports) -> list[int]:
        return []


class AvoidC4:
    SIZES = {"full": 11, "tiny": 7}

    def __init__(self, tk, seed: int, size: str):
        self.tk = tk
        self.n_max = self.SIZES[size]
        make = seeded_constructors(tk, seed, ("make_cyclic",))
        make["make_cyclic"](4)
        vars(tk.verify).update(make)

    def run(self, span: Span):
        return self.tk.verify.run_lemma("fekete", n_max=self.n_max)

    def digests(self, report) -> dict[str, str]:
        return {report.lemma_id: sha(report.to_json())}

    def checks(self, report) -> list[Check]:
        return _lemma_checks(report, "cross-check count n=", self.n_max)

    def level_counts(self, report) -> list[int]:
        return [c.observed for c in report.cases if c.name.startswith("cross-check count")]


class AllClasses:
    SIZES = {"full": 8, "tiny": 6}

    def __init__(self, tk, seed: int, size: str):
        # no inputs: extension starts from the one-vertex tournament
        self.tk = tk
        self.n_max = self.SIZES[size]

    def run(self, span: Span):
        return self.tk.speed.all_classes(self.n_max)

    def digests(self, table) -> dict[str, str]:
        return {"all_classes": sha(table.to_json(include_forms=True))}

    def checks(self, table) -> list[Check]:
        return [
            (f"n={n} == A000568", table.count(n) == A000568[n - 1])
            for n in range(1, self.n_max + 1)
        ]

    def level_counts(self, table) -> list[int]:
        return [table.count(n) for n in range(1, self.n_max + 1)]


def _moon(level: int):
    return lambda tk: tk.make_moon_tower(level)


def _stacked(k: int):
    return lambda tk: tk.make_T((3,) * k)


def _paley(p: int):
    return lambda tk: paley(tk, p)


def _random(n: int):
    return lambda tk: tk.random_tournament(n, 0)


def _cyclic(n: int):
    return lambda tk: tk.make_cyclic(n)


class CanonHard:
    """Cache-cold canonical forms of hard instances, plus automorphism
    counts.  Family names are roles, so both sizes report the same keys."""

    SIZES = {
        "full": {
            "relabellings": 20,
            "canon": {
                "stacked_small": _stacked(7),
                "stacked_large": _stacked(8),
                "paley_small": _paley(23),
                "paley_large": _paley(31),
                "moon": _moon(3),
                "random": _random(64),
            },
            "aut": {"stacked": _stacked(5), "paley": _paley(11), "cyclic": _cyclic(15)},
        },
        "tiny": {
            "relabellings": 3,
            "canon": {
                "stacked_small": _stacked(2),
                "stacked_large": _stacked(3),
                "paley_small": _paley(7),
                "paley_large": _paley(11),
                "moon": _moon(2),
                "random": _random(16),
            },
            "aut": {"stacked": _stacked(2), "paley": _paley(7), "cyclic": _cyclic(7)},
        },
    }
    # |Aut|: 3 rotations per triangle; Paley p has p(p-1)/2; cyclic n has n
    AUT_ORDERS = {
        "full": {"stacked": 3**5, "paley": 11 * 5, "cyclic": 15},
        "tiny": {"stacked": 3**2, "paley": 7 * 3, "cyclic": 7},
    }

    def __init__(self, tk, seed: int, size: str):
        self.tk = tk
        spec = self.SIZES[size]
        self.aut_orders = self.AUT_ORDERS[size]

        def copies(kind: str, name: str, build) -> list:
            base = build(tk)
            return [
                relabelled(base, seed, f"{kind}/{name}/{i}")
                for i in range(spec["relabellings"])
            ]

        self.canon = {f: copies("canon", f, b) for f, b in spec["canon"].items()}
        self.aut = {f: copies("aut", f, b) for f, b in spec["aut"].items()}

    def run(self, span: Span):
        canon = self.tk.canon
        lines = {}
        for family, instances in self.canon.items():
            with span(f"family:{family}"):
                lines[family] = [canon.canonical_form(t).bits for t in instances]
        orders = {}
        for family, instances in self.aut.items():
            with span(f"aut:{family}"):
                orders[family] = [canon.automorphism_order(t) for t in instances]
        return lines, orders

    def digests(self, output) -> dict[str, str]:
        lines, orders = output
        out = {}
        for family, got in lines.items():
            out[f"canon:{family}"] = sha(got[0]) if len(set(got)) == 1 else "relabellings disagree"
        for family, got in orders.items():
            out[f"aut:{family}"] = str(got[0]) if len(set(got)) == 1 else "relabellings disagree"
        return out

    def checks(self, output) -> list[Check]:
        lines, orders = output
        checks = [
            (f"canon:{family} one line over relabellings", len(set(got)) == 1)
            for family, got in lines.items()
        ]
        checks += [
            (f"aut:{family} == {self.aut_orders[family]}", all(o == self.aut_orders[family] for o in got))
            for family, got in orders.items()
        ]
        return checks

    def level_counts(self, output) -> list[int]:
        return []


WORKLOADS = {
    "deletion": Deletion,
    "avoid-c4": AvoidC4,
    "all-classes": AllClasses,
    "canon-hard": CanonHard,
}
