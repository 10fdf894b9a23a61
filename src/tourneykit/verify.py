"""The paper's counts, bounds and verification cases.

The counts (fstar; sub-tournaments of the layered hosts M_I(n), of the
cyclic hosts and of type-1 structures) and the bounds (i)-(iii) run on
speed's engine.  Each case id replays one finite-scale counting or
structure claim and reports observed vs. required values.

Reports are deterministic and carry no timings, so two runs of the same
case produce byte-identical output.
"""

from __future__ import annotations

import inspect
import json
import operator
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice
from math import ceil, comb, log
from typing import Callable, Iterator, Sequence

from .blocks import block_count
from .canon import automorphism_order, canonical_code
from .families import (
    FlagTriple,
    make_M,
    make_T,
    make_TS,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
)
from .speed import (
    SpeedTable,
    avoidance_closure,
    check_subset_budget,
    check_supermultiplicative,
    distinct_sub_classes,
    hereditary_closure,
)
from .structures import dn_membership
from .tournament import InfeasibleSizeError

# the largest n_max check_olarge takes: its cases grow with n_max and their
# sides with 2^n, so time and memory grow about 4x per doubling (verify
# olarge at 4,096 took 1.5 s and 128 MB and printed 29 MB on a 2-vCPU VM)
OLARGE_N_MAX = 4096


@dataclass(frozen=True)
class Case:
    name: str
    observed: object
    required: str
    passed: bool


_RELATIONS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le, "<": operator.lt}


def _case(name: str, observed, relation: str, want, what: str = "") -> Case:
    """A case whose required text and pass flag come from one relation:
    "<relation> <what> = <want>", or "<relation> <want>" without a what."""
    required = f"{relation} {what} = {want}" if what else f"{relation} {want}"
    return Case(name, observed, required, _RELATIONS[relation](observed, want))


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
                "cases": [asdict(c) for c in self.cases],
            },
            sort_keys=True,
            indent=2,
        )


def _fstar_terms() -> Iterator[int]:
    """fstar(0), fstar(1), fstar(2), ... without end."""
    a, b, c = 1, 1, 1  # f(0), f(1), f(2)
    while True:
        yield a
        a, b, c = b, c, c + a


def fstar(n: int) -> int:
    """Fibonacci-type sequence: 1, 1, 1 then f(n) = f(n-1) + f(n-3)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return next(islice(_fstar_terms(), n, None))


def count_sub_L(flags: FlagTriple | Sequence[int], n: int, m: int) -> int:
    """Number of distinct n-vertex sub-tournaments of the 3m-vertex layered
    flag tournament."""
    if n < 0:
        raise ValueError(f"sub-tournament size must be non-negative, got {n}")
    if m < 1:
        raise ValueError(f"host layer count m must be >= 1, got {m}")
    if 3 * m < n:
        raise ValueError(f"host on 3*{m} vertices has no {n}-subsets")
    flags = FlagTriple.coerce(flags)
    check_subset_budget(3 * m, n)
    return len(distinct_sub_classes(make_M(flags, m), n))


def count_sub_L_scan(
    flags: FlagTriple | Sequence[int],
    n: int,
    *,
    m_max: int = 12,
) -> tuple[list[tuple[int, int]], int | None]:
    """Counts for m = ceil(n/3).., stopping at the first m whose count
    repeats the previous one (the stabilization point), or at m_max.

    Returns (list of (m, count), stabilized_m or None).  Counts are
    checked to be non-decreasing; the hosts nest, so a decrease would be
    a bug.  An m_max below max(1, ceil(n/3)) leaves no host: ValueError.
    """
    m_min = max(1, ceil(n / 3))
    if m_max < m_min:
        raise ValueError(
            f"m_max = {m_max} is below the first host size "
            f"max(1, ceil(n/3)) = {m_min} for n = {n}: no host to count"
        )
    values: list[tuple[int, int]] = []
    prev: int | None = None
    for m in range(m_min, m_max + 1):
        c = count_sub_L(flags, n, m)
        if prev is not None and c < prev:
            raise AssertionError(
                f"sub-tournament count dropped from {prev} to {c} at m={m}"
            )
        values.append((m, c))
        if prev is not None and c == prev:
            return values, m
        prev = c
    return values, None


def count_cyclic_subs(n: int) -> int:
    """Distinct n-vertex sub-tournaments of the cyclic tournament on 2n."""
    check_subset_budget(2 * n, n)
    return len(distinct_sub_classes(make_cyclic(2 * n), n))


def count_tn_lower(n: int) -> int:
    """Closed-form lower bound 2^(n-1) - 2*C(n-1, 2) - n."""
    return 2 ** (n - 1) - 2 * comb(n - 1, 2) - n


def _i1zero_lower(n: int) -> int:
    """Lower bound (ii), 2^(n-3) - 2, for flags with I1 = 0 (float if n < 3)."""
    return 2 ** (n - 3) - 2


def _cyclic_lower(n: int) -> int:
    """Lower bound (iii), ceil(2^(n-1)/n), for the cyclic host's classes,
    in integers: a float quotient is wrong from n = 57 and overflows from
    n = 1,036."""
    return -(-(1 << (n - 1)) // n)


def type1_tn_classes(n: int) -> int:
    """Distinct classes among the chain-plus-y sub-tournaments carved out
    of an n-structure of flavor A (one x per chain pair, odd pick for
    positions in S).

    y beats the odd picks and loses to the even ones, and the picks keep
    chain order, so the sub-tournament for S is make_TS(n, S) itself.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return len({
        canonical_code(n, make_TS(n, [i for i in range(1, n) if bits >> (i - 1) & 1]).bits)
        for bits in range(1 << (n - 1))
    })


@dataclass(frozen=True)
class InequalityCase:
    label: str
    n: int
    lhs: int
    rhs: int
    holds: bool


def check_olarge(n_max: int = 30) -> list[InequalityCase]:
    """The three counting lower bounds against the Fibonacci-type sequence.

    (i) and (ii) are checked for 6 <= n <= n_max, (iii) for every
    1 <= n <= n_max except n = 4 (the documented exception); the left
    sides also dominate the recurrence step f(n+1) >= f(n) + f(n-2).
    An n_max over OLARGE_N_MAX is refused before any case is built.
    """
    if n_max > OLARGE_N_MAX:
        raise InfeasibleSizeError(
            f"olarge checks n_max up to {OLARGE_N_MAX}, got {n_max}"
        )
    cases: list[InequalityCase] = []
    f1, f2, f3 = count_tn_lower, _i1zero_lower, _cyclic_lower
    fs = list(islice(_fstar_terms(), n_max + 1))  # fs[n] is fstar(n)
    for n in range(6, n_max + 1):
        cases.append(InequalityCase("i", n, f1(n), fs[n], f1(n) >= fs[n]))
        strict = 2 ** (n - 2) > f2(n)
        cases.append(InequalityCase("ii", n, f2(n), fs[n], strict and f2(n) >= fs[n]))
    for n in range(1, n_max + 1):
        if n == 4:
            continue
        cases.append(InequalityCase("iii", n, f3(n), fs[n], f3(n) >= fs[n]))
    for n in range(6, n_max):
        for label, f in (("i-rec", f1), ("ii-rec", f2), ("iii-rec", f3)):
            lhs = f(n + 1)
            rhs = f(n) + f(n - 2)
            cases.append(InequalityCase(label, n + 1, lhs, rhs, lhs >= rhs))
    return cases


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
    return hereditary_closure(seeds, n_max)


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
        _case(f"n={n}", table.count(n), "==", fstar(n), f"fstar({n})")
        for n in range(1, n_max + 1)
    ]
    cases.append(_case("fstar(4)", fstar(4), "==", 3))
    cases.append(_case("fstar(5)", fstar(5), "==", 4))
    return VerifyReport("T-equals-Fstar", {"n_max": n_max}, cases)


def verify_dn_bound(n_max: int = 8) -> VerifyReport:
    cases = []
    for n in range(1, n_max + 1):
        members = [
            frozenset(s)
            for r in range(n + 1)
            for s in combinations(range(1, n + 1), r)
            if dn_membership(n, s)
        ]
        cases.append(_case(f"n={n} size", len(members), "<=", 2 * comb(n, 2) + n + 1))
        bad = [s for s in members if not _dn_shape(n, s)]
        cases.append(Case(f"n={n} shapes", len(bad), "== 0 members off-shape", not bad))
    return VerifyReport("Dn-bound", {"n_max": n_max}, cases)


def verify_l111(n_max: int = 9, m_max: int = 12) -> VerifyReport:
    cases = []
    for n in range(1, n_max + 1):
        values, stable = count_sub_L_scan((1, 1, 1), n, m_max=m_max)
        final = values[-1][1]
        cases.append(
            Case(f"n={n} stabilized", stable, "stabilization reached", stable is not None)
        )
        cases.append(_case(f"n={n} count", final, "==", fstar(n), f"fstar({n})"))
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
            # no stabilization in budget: monotonicity was asserted by the
            # scan, so the bound is required at the largest feasible m
            label = f"I={flags} n={n}" + (" (unstabilized)" if stable is None else "")
            cases.append(_case(label, values[-1][1], ">=", bound(n), bound_desc))
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
        lambda n: 2 ** (n - 2) if n >= 2 else 1,
        "2^(n-2)",
        n_max,
        m_max,
    )


def verify_l_i1_zero(n_max: int = 6, m_max: int = 10) -> VerifyReport:
    return _verify_flag_lower(
        "L-I1zero",
        [(0, 0, 0), (0, 1, 1)],
        lambda n: max(0, _i1zero_lower(n)),
        "2^(n-3) - 2",
        n_max,
        m_max,
    )


def verify_cyclic_count(n_max: int = 8) -> VerifyReport:
    cases = [
        _case(f"n={n}", count_cyclic_subs(n), ">=", _cyclic_lower(n), "ceil(2^(n-1)/n)")
        for n in range(1, n_max + 1)
    ]
    cases.append(_case("n=3 exact", count_cyclic_subs(3), "==", 2))
    return VerifyReport("cyclic-count", {"n_max": n_max}, cases)


def verify_olarge(n_max: int = 30) -> VerifyReport:
    cases = [
        Case(f"({c.label}) n={c.n}", c.lhs, f"vs fstar-side {c.rhs}", c.holds)
        for c in check_olarge(n_max)
    ]
    cases += [
        _case("i tight at 6", count_tn_lower(6), "==", fstar(6)),
        _case("ii tight at 6", _i1zero_lower(6), "==", fstar(6)),
        _case("iii tight at 6", _cyclic_lower(6), "==", fstar(6)),
        _case("iii exception at 4", _cyclic_lower(4), "<", fstar(4)),
    ]
    return VerifyReport("olarge", {"n_max": n_max}, cases)


def cyclic_family_table(m_max: int = 12, n_max: int = 5) -> SpeedTable:
    seeds = [make_cyclic(m) for m in range(1, m_max + 1)]
    return hereditary_closure(seeds, n_max)


def verify_osmall() -> VerifyReport:
    cyc = cyclic_family_table(12, 5)
    cases = [
        _case(f"(a) cyclic family n={n}", cyc.count(n), ">=", fstar(n), f"fstar({n})")
        for n in (1, 2, 3)
    ]
    cases.append(_case("(d) cyclic family n=4", cyc.count(4), "==", 2))
    t5 = {
        canonical_code(5, make_T(seq).bits)
        for seq in composition_seqs(5)
        if sum(seq) == 5
    }
    for flavor in (0, 1):
        tab = hereditary_closure([make_type1(3, flavor)], 5)
        lvl5 = tab.codes.get(5, frozenset())
        cases.append(_case(f"(b) type1(3,{flavor}) n=5", tab.count(5), ">=", 4))
        name = f"(b) type1(3,{flavor}) contains stacked family level 5"
        cases.append(_case(name, len(t5 & lvl5), "==", len(t5)))
    for flags in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
        tab = hereditary_closure([make_M(flags, 3)], 5)
        cases.append(
            _case(f"(c) M_I(3) I={flags} n=5", tab.count(5), ">=", fstar(5), "fstar(5)")
        )
    return VerifyReport("osmall", {}, cases)


def verify_moon_aut(level_max: int = 3) -> VerifyReport:
    cases = []
    # top level first, so a level past the tower's bound is refused as given
    # and before any search
    towers = [make_moon_tower(level) for level in range(level_max, 0, -1)][::-1]
    for level, tower in enumerate(towers, start=1):
        k = 3**level
        want = 3 ** ((k - 1) // 2)
        got = automorphism_order(tower)
        cases.append(_case(f"level={level} (k={k})", got, "==", want, "3^((k-1)/2)"))
    return VerifyReport("moon-aut", {"level_max": level_max}, cases)


def verify_fekete(n_max: int = 9) -> VerifyReport:
    c4 = make_cyclic(4)
    table = avoidance_closure([c4], n_max)
    report = check_supermultiplicative(table, forbidden=[c4])
    cases = [
        Case(f"m={m} n={n}", cnt, f">= product {prod}", ok)
        for m, n, prod, cnt, ok in report.inequalities
    ]
    failures = report.witness_failures
    cases.append(Case("witnesses", len(failures), "== 0 failures", not failures))
    cases += [
        _case(f"cross-check count n={n}", table.count(n), "==", fstar(n), f"fstar({n})")
        for n in range(1, n_max + 1)
    ]
    return VerifyReport("fekete", {"n_max": n_max}, cases)


def verify_lemma3_bound(n_max: int = 10) -> VerifyReport:
    properties = [
        ("transitive", hereditary_closure([make_T((1,) * 12)], n_max)),
        ("two-blocks", hereditary_closure([make_cyclic_blowup((12, 12, 1))], n_max)),
        ("three-blocks", hereditary_closure([make_cyclic_blowup((8, 8, 8))], n_max)),
    ]
    cases = []
    for name, table in properties:
        m_plus_1 = max(
            block_count(t) for n in table.levels() for t in table.members(n)
        )
        m = m_plus_1 - 1
        for n in table.levels():
            bound = 2 ** (m_plus_1**2) * comb(n + m, m)
            label = f"{name} n={n} (B={m_plus_1})"
            cases.append(
                _case(label, table.count(n), "<=", bound, "2^(B^2)*C(n+B-1,B-1)")
            )
    return VerifyReport("lemma3-bound", {"n_max": n_max}, cases)


def verify_type1_count(n_max: int = 9) -> VerifyReport:
    cases = []
    for n in range(2, n_max + 1):
        got = type1_tn_classes(n)
        need = count_tn_lower(n)
        cases.append(_case(f"n={n}", got, ">=", need, "2^(n-1) - 2*C(n-1,2) - n"))
    return VerifyReport("type1-count", {"n_max": n_max}, cases)


def property_slope(table: SpeedTable, n_lo: int, n_hi: int) -> float:
    """Least-squares log-log growth slope of the non-zero level counts; it
    needs two of them (ValueError otherwise)."""
    from statistics import linear_regression  # pulls in decimal: imported on use

    ns = [n for n in range(n_lo, n_hi + 1) if table.count(n) > 0]
    if len(ns) < 2:
        raise ValueError(
            f"levels {n_lo}..{n_hi} hold {len(ns)} non-zero counts; a slope needs two"
        )
    fit = linear_regression([log(n) for n in ns], [log(table.count(n)) for n in ns])
    return fit.slope


def theorem2_slope(k: int) -> tuple[float, SpeedTable]:
    """Log-log growth slope over levels 6..12 of an engineered property
    with k+1 large blocks."""
    if k == 1:
        seed = make_cyclic_blowup((12, 12, 1))
    elif k == 2:
        seed = make_cyclic_blowup((11, 11, 11))
    else:
        raise ValueError("engineered seeds available for k in {1, 2}")
    table = hereditary_closure([seed], 12)
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
        try:
            value = params[name] = operator.index(value)
        except TypeError:
            raise ValueError(f"{lemma_id}: {name} must be an integer, got {value!r}") from None
        if value < 1:
            raise ValueError(f"{lemma_id}: {name} must be at least 1, got {value}")
    return fn(**params)
