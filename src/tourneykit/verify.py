"""Executable verification suite: each case id replays one finite-scale
counting or structure claim and reports observed vs. required values.

Reports are deterministic and carry no timings, so two runs of the same
case produce byte-identical output.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from math import ceil, comb
from typing import Callable, Iterator

from .blocks import block_count
from .canon import automorphism_order, canonical_code
from .families import (
    make_M,
    make_T,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
)
from .speed import (
    SpeedTable,
    avoidance_closure,
    check_olarge,
    check_supermultiplicative,
    count_cyclic_subs,
    count_sub_L_scan,
    count_tn_lower,
    fstar,
    hereditary_closure,
    property_slope,
    type1_tn_classes,
)
from .structures import dn_membership


@dataclass(frozen=True)
class Case:
    name: str
    observed: object
    required: str
    passed: bool


@dataclass
class VerifyReport:
    lemma_id: str
    parameters: dict
    cases: list[Case] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """At least one case, and every case holds: no cases checks nothing."""
        return bool(self.cases) and all(c.passed for c in self.cases)

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.lemma_id,
                "parameters": dict(sorted(self.parameters.items())),
                "passed": self.passed,
                "cases": [
                    {
                        "name": c.name,
                        "observed": c.observed,
                        "required": c.required,
                        "passed": c.passed,
                    }
                    for c in self.cases
                ],
            },
            sort_keys=True,
            indent=2,
        )


def composition_seqs(total_max: int) -> Iterator[tuple[int, ...]]:
    """All sequences over {1, 3} with sum between 1 and total_max."""

    def rec(prefix: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        for a in (1, 3):
            if a <= left:
                yield prefix + (a,)
                yield from rec(prefix + (a,), left - a)

    yield from rec((), total_max)


def t_family_table(sum_max: int, n_max: int) -> SpeedTable:
    """Speed table of the stacked 1/3-block family with sums <= sum_max.

    Only the compositions of sum_max itself seed the closure: a shorter
    sum's make_T(seq) is make_T(seq + (1,)) less its last vertex, so the
    deletion BFS reaches it without a search of its own.
    """
    seeds = [make_T(seq) for seq in composition_seqs(sum_max) if sum(seq) == sum_max]
    return hereditary_closure(
        seeds,
        n_max,
        seed_description=f"stacked 1/3 blocks, sums <= {sum_max}",
    )


def _dn_shape(n: int, s: frozenset[int]) -> bool:
    for i in range(1, n + 2):
        if s == frozenset(range(i, n + 1)):
            return True
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if s == frozenset({i}) | frozenset(range(j + 1, n + 1)):
                return True
            if s == frozenset(range(i, j)) | frozenset(range(j + 1, n + 1)):
                return True
    return False


def verify_t_equals_fstar(n_max: int = 10) -> VerifyReport:
    table = t_family_table(n_max + 3, n_max)
    cases = [
        Case(
            f"n={n}",
            table.count(n),
            f"== fstar({n}) = {fstar(n)}",
            table.count(n) == fstar(n),
        )
        for n in range(1, n_max + 1)
    ]
    cases.append(Case("fstar(4)", fstar(4), "== 3", fstar(4) == 3))
    cases.append(Case("fstar(5)", fstar(5), "== 4", fstar(5) == 4))
    return VerifyReport("T-equals-Fstar", {"n_max": n_max}, cases)


def verify_dn_bound(n_max: int = 8) -> VerifyReport:
    cases = []
    for n in range(1, n_max + 1):
        members = [
            frozenset(s)
            for r in range(n + 1)
            for s in _subsets(n, r)
            if dn_membership(n, s)
        ]
        bound = 2 * comb(n, 2) + n + 1
        cases.append(
            Case(f"n={n} size", len(members), f"<= {bound}", len(members) <= bound)
        )
        bad = [s for s in members if not _dn_shape(n, s)]
        cases.append(
            Case(f"n={n} shapes", len(bad), "== 0 members off-shape", not bad)
        )
    return VerifyReport("Dn-bound", {"n_max": n_max}, cases)


def _subsets(n: int, r: int):
    from itertools import combinations

    return combinations(range(1, n + 1), r)


def verify_l111(n_max: int = 9, m_max: int = 12) -> VerifyReport:
    cases = []
    for n in range(1, n_max + 1):
        values, stable = count_sub_L_scan((1, 1, 1), n, m_max=m_max)
        final = values[-1][1]
        cases.append(
            Case(f"n={n} stabilized", stable, "stabilization reached", stable is not None)
        )
        cases.append(
            Case(f"n={n} count", final, f"== fstar({n}) = {fstar(n)}", final == fstar(n))
        )
    return VerifyReport("L111", {"n_max": n_max, "m_max": m_max}, cases)


def _verify_flag_lower(
    lemma_id: str,
    flag_triples: list[tuple[int, int, int]],
    bound: Callable[[int], int],
    bound_desc: str,
    n_max: int,
    m_max: int,
) -> VerifyReport:
    cases = []
    for flags in flag_triples:
        for n in range(1, n_max + 1):
            values, stable = count_sub_L_scan(flags, n, m_max=m_max)
            final = values[-1][1]
            need = bound(n)
            # no stabilization in budget: monotonicity was asserted by the
            # scan, so the bound is required at the largest feasible m
            label = f"I={flags} n={n}" + (" (unstabilized)" if stable is None else "")
            cases.append(Case(label, final, f">= {bound_desc} = {need}", final >= need))
    return VerifyReport(
        lemma_id,
        {"n_max": n_max, "m_max": m_max, "flags": [list(f) for f in flag_triples]},
        cases,
    )


def verify_l_i2_neq_i3(n_max: int = 6, m_max: int = 10) -> VerifyReport:
    triples = [(i1, i2, 1 - i2) for i1 in (0, 1) for i2 in (0, 1)]
    return _verify_flag_lower(
        "L-I2neqI3",
        triples,
        lambda n: max(1, 2 ** (n - 2)) if n >= 2 else 1,
        "2^(n-2)",
        n_max,
        m_max,
    )


def verify_l_i1_zero(n_max: int = 6, m_max: int = 10) -> VerifyReport:
    return _verify_flag_lower(
        "L-I1zero",
        [(0, 0, 0), (0, 1, 1)],
        lambda n: max(0, 2 ** (n - 3) - 2),
        "2^(n-3) - 2",
        n_max,
        m_max,
    )


def verify_cyclic_count(n_max: int = 8) -> VerifyReport:
    cases = []
    for n in range(1, n_max + 1):
        c = count_cyclic_subs(n)
        need = ceil(2 ** (n - 1) / n)
        cases.append(Case(f"n={n}", c, f">= ceil(2^(n-1)/n) = {need}", c >= need))
    c3 = count_cyclic_subs(3)
    cases.append(Case("n=3 exact", c3, "== 2", c3 == 2))
    return VerifyReport("cyclic-count", {"n_max": n_max}, cases)


def verify_olarge(n_max: int = 30) -> VerifyReport:
    cases = [
        Case(f"({c.label}) n={c.n}", c.lhs, f"vs fstar-side {c.rhs}", c.holds)
        for c in check_olarge(n_max)
    ]
    tight = [
        ("i tight at 6", 2**5 - 2 * comb(5, 2) - 6, fstar(6)),
        ("ii tight at 6", 2**3 - 2, fstar(6)),
        ("iii tight at 6", ceil(2**5 / 6), fstar(6)),
        ("iii exception at 4", ceil(2**3 / 4), fstar(4)),
    ]
    for name, lhs, rhs in tight[:3]:
        cases.append(Case(name, lhs, f"== {rhs}", lhs == rhs))
    name, lhs, rhs = tight[3]
    cases.append(Case(name, lhs, f"< {rhs}", lhs < rhs))
    return VerifyReport("olarge", {"n_max": n_max}, cases)


def cyclic_family_table(m_max: int = 12, n_max: int = 5) -> SpeedTable:
    seeds = [make_cyclic(m) for m in range(1, m_max + 1)]
    return hereditary_closure(
        seeds, n_max, seed_description=f"cyclic tournaments, m <= {m_max}"
    )


def verify_osmall() -> VerifyReport:
    cases = []
    cyc = cyclic_family_table(12, 5)
    for n, need in ((1, 1), (2, 1), (3, 2)):
        cases.append(
            Case(
                f"(a) cyclic family n={n}",
                cyc.count(n),
                f">= fstar({n}) = {need}",
                cyc.count(n) >= need,
            )
        )
    cases.append(
        Case("(d) cyclic family n=4", cyc.count(4), "== 2", cyc.count(4) == 2)
    )
    t5 = {
        canonical_code(5, make_T(seq).bits)
        for seq in composition_seqs(5)
        if sum(seq) == 5
    }
    for flavor in (0, 1):
        tab = hereditary_closure(
            [make_type1(3, flavor)], 5, seed_description=f"type1(3,{flavor})"
        )
        lvl5 = tab.codes.get(5, frozenset())
        cases.append(
            Case(
                f"(b) type1(3,{flavor}) n=5",
                tab.count(5),
                ">= 4",
                tab.count(5) >= 4,
            )
        )
        cases.append(
            Case(
                f"(b) type1(3,{flavor}) contains stacked family level 5",
                len(t5 & lvl5),
                f"== {len(t5)}",
                t5 <= lvl5,
            )
        )
    for flags in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
        tab = hereditary_closure(
            [make_M(flags, 3)], 5, seed_description=f"M{flags} level 3"
        )
        cases.append(
            Case(
                f"(c) M_I(3) I={flags} n=5",
                tab.count(5),
                ">= fstar(5) = 4",
                tab.count(5) >= 4,
            )
        )
    return VerifyReport("osmall", {}, cases)


def verify_moon_aut(level_max: int = 3) -> VerifyReport:
    cases = []
    for level in range(1, level_max + 1):
        k = 3**level
        want = 3 ** ((k - 1) // 2)
        got = automorphism_order(make_moon_tower(level))
        cases.append(
            Case(f"level={level} (k={k})", got, f"== 3^((k-1)/2) = {want}", got == want)
        )
    return VerifyReport("moon-aut", {"level_max": level_max}, cases)


def verify_fekete(n_max: int = 9) -> VerifyReport:
    c4 = make_cyclic(4)
    table = avoidance_closure([c4], n_max, seed_description="avoid cyclic(4)")
    report = check_supermultiplicative(table, forbidden=[c4])
    cases = [
        Case(
            f"m={m} n={n}",
            cnt,
            f">= product {prod}",
            ok,
        )
        for m, n, prod, cnt, ok in report.inequalities
    ]
    cases.append(
        Case(
            "witnesses",
            len(report.witness_failures),
            "== 0 failures",
            not report.witness_failures,
        )
    )
    for n in range(1, n_max + 1):
        cases.append(
            Case(
                f"cross-check count n={n}",
                table.count(n),
                f"== fstar({n}) = {fstar(n)}",
                table.count(n) == fstar(n),
            )
        )
    return VerifyReport("fekete", {"n_max": n_max}, cases)


def verify_lemma3_bound(n_max: int = 10) -> VerifyReport:
    properties = [
        ("transitive", hereditary_closure(
            [make_T((1,) * 12)], n_max, seed_description="transitive(12)"
        )),
        ("two-blocks", hereditary_closure(
            [make_cyclic_blowup((12, 12, 1))], n_max,
            seed_description="blowup(12,12,1)",
        )),
        ("three-blocks", hereditary_closure(
            [make_cyclic_blowup((8, 8, 8))], n_max,
            seed_description="blowup(8,8,8)",
        )),
    ]
    cases = []
    for name, table in properties:
        m_plus_1 = max(
            block_count(t) for n in table.levels() for t in table.members(n)
        )
        m = m_plus_1 - 1
        for n in table.levels():
            bound = 2 ** (m_plus_1**2) * comb(n + m, m)
            cases.append(
                Case(
                    f"{name} n={n} (B={m_plus_1})",
                    table.count(n),
                    f"<= 2^(B^2)*C(n+B-1,B-1) = {bound}",
                    table.count(n) <= bound,
                )
            )
    return VerifyReport("lemma3-bound", {"n_max": n_max}, cases)


def verify_type1_count(n_max: int = 9) -> VerifyReport:
    cases = []
    for n in range(2, n_max + 1):
        got = type1_tn_classes(n)
        need = count_tn_lower(n)
        cases.append(
            Case(f"n={n}", got, f">= 2^(n-1) - 2*C(n-1,2) - n = {need}", got >= need)
        )
    return VerifyReport("type1-count", {"n_max": n_max}, cases)


def theorem2_slope(k: int) -> tuple[float, SpeedTable]:
    """Log-log growth slope over levels 6..12 of an engineered property
    with k+1 large blocks."""
    if k == 1:
        seed = make_cyclic_blowup((12, 12, 1))
    elif k == 2:
        seed = make_cyclic_blowup((11, 11, 11))
    else:
        raise ValueError("engineered seeds available for k in {1, 2}")
    table = hereditary_closure([seed], 12, seed_description=f"blowup k={k}")
    return property_slope(table, 6, 12), table


LEMMA_IDS: dict[str, Callable[..., VerifyReport]] = {
    "T-equals-Fstar": verify_t_equals_fstar,
    "Dn-bound": verify_dn_bound,
    "L111": verify_l111,
    "L-I2neqI3": verify_l_i2_neq_i3,
    "L-I1zero": verify_l_i1_zero,
    "cyclic-count": verify_cyclic_count,
    "olarge": verify_olarge,
    "osmall": verify_osmall,
    "moon-aut": verify_moon_aut,
    "fekete": verify_fekete,
    "lemma3-bound": verify_lemma3_bound,
    "type1-count": verify_type1_count,
}


def run_lemma(lemma_id: str, **params) -> VerifyReport:
    try:
        fn = LEMMA_IDS[lemma_id]
    except KeyError:
        raise ValueError(
            f"unknown verification id {lemma_id!r}; choose from "
            + ", ".join(sorted(LEMMA_IDS))
        ) from None
    accepted = list(inspect.signature(fn).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"{lemma_id} does not take {', '.join(unknown)}; it accepts "
            + (", ".join(accepted) if accepted else "no parameters")
        )
    for name, value in sorted(params.items()):
        if value < 1:
            raise ValueError(f"{lemma_id}: {name} must be at least 1, got {value}")
    return fn(**params)
