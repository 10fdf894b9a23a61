"""Hereditary-closure enumeration and unlabelled sub-tournament counting.

Two enumeration strategies back the speed tables.  Both keep levels as
canonical codes and render each level once, at the end, as sorted lines.

* deletion BFS (hereditary_closure): start from the canonical forms of
  large seed tournaments and repeatedly delete single vertices with
  per-level canonical dedup.  Right when seed families are given as a few
  large members and every level is wanted.  Each kept class carries
  automorphisms of its canonical representative, found by its canonical
  search.  Only one vertex per orbit of those automorphisms is deleted,
  since t - v and t - g(v) are isomorphic.  Each child's search is handed
  the automorphisms that fix the deleted vertex, which restrict to
  automorphisms of the child, so it need not rediscover them.  The
  search runs on out-masks: each kept class's are built once from its
  code, and each child's are derived from its parent's.

* extension BFS (avoidance_closure): grow members one vertex at a time
  inside a forbidden-pattern property, checking only subsets through the
  new vertex.  Right when the property is given by forbidden patterns and
  levels would otherwise be reached from unboundedly many seeds.  One
  pattern test per base decides all 2^k orientations of the new vertex
  at once, as a bitset over them: for each pattern size s it takes the
  base's code on every (s-1)-subset, asks which orientations of the
  joining pairs complete a forbidden pattern once per distinct code, and
  rejects the orientations that spell one, an AND of bit columns.  Of
  the survivors, only those whose new vertex is lex-least under
  (out-degree, sum of its out-neighbours' out-degrees), ties included,
  are canonicalised; the out-degree part is two mask tests, and the
  sums are taken only for the tied vertices.  No class is lost: a member
  C on k+1 vertices minus a lex-least vertex w is a member (the property
  is hereditary), so C is rebuilt from the canonical base of C - w with
  w as the new vertex, and that extension passes, since an isomorphism
  keeps any vertex invariant.  The dedup set absorbs the classes reached
  more than once.  The survivors rarely repeat, so each gets a fresh
  search rather than a slot in canonical_form's cache.

Counting the n-vertex sub-tournament classes of one big host
(distinct_sub_classes) grows n-subsets one vertex at a time, keeping
one copy of each partial state their completions depend on: a deletion
BFS from a 30-vertex host down to n = 6 would have to materialise the
combinatorially huge intermediate levels, while the bottom level alone
stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, comb, log
from typing import Iterable, Sequence

from .canon import (
    _canon_code,
    canonical_code,
    canonical_code_and_automorphisms,
    canonical_form,
    orbit_mask,
)
from .families import FlagTriple, make_M, make_cyclic, make_type1
from .tournament import (
    InfeasibleSizeError,
    Tournament,
    _delete_bits,
    _delete_out,
    _pack,
    bits_to_line,
    bits_to_out_masks,
    concat,
    line_to_bits,
    pair_count,
)

SEED_BOUND = 36
DEFAULT_MEM_BUDGET = 2 * 1024**3
PAIR_BUDGET = 200_000_000
_FORM_OVERHEAD = 64  # rough per-entry bookkeeping bytes for budget checks


class BudgetExceededError(InfeasibleSizeError):
    """A closure run outgrew its memory budget; partial results discarded."""


@dataclass
class SpeedTable:
    """Canonical forms of the n-vertex members of a property, per level."""

    seed: str
    forms: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def count(self, n: int) -> int:
        return len(self.forms.get(n, ()))

    @property
    def counts(self) -> dict[int, int]:
        return {n: len(v) for n, v in sorted(self.forms.items())}

    def levels(self) -> list[int]:
        return sorted(self.forms)

    def members(self, n: int) -> list[Tournament]:
        return [Tournament(n, line_to_bits(line)) for line in self.forms.get(n, ())]

    def to_json(self, include_forms: bool = False) -> str:
        levels = {}
        for n in self.levels():
            entry: dict = {"count": len(self.forms[n])}
            if include_forms:
                entry["forms"] = list(self.forms[n])
            levels[str(n)] = entry
        return json.dumps(
            {"seed": self.seed, "levels": levels}, sort_keys=True, indent=2
        )

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines += [f"{n},{len(self.forms[n])}" for n in self.levels()]
        return "\n".join(lines) + "\n"

    def is_downward_closed(self) -> bool:
        """Every one-vertex deletion of a member appears one level down
        (checked wherever the lower level is recorded)."""
        for n in self.levels():
            if n - 1 not in self.forms:
                continue
            lower = set(self.forms[n - 1])
            for t in self.members(n):
                for v in range(n):
                    if canonical_form(t.delete(v)).bits not in lower:
                        return False
        return True


class _Budget:
    """Running byte estimate of the classes a closure keeps (a line byte a
    pair, plus bookkeeping), checked each time a class is added."""

    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.what = what
        self.used = 0

    def charge(self, level: int, kept: int) -> None:
        self.used += pair_count(level) + _FORM_OVERHEAD
        if self.used > self.limit:
            raise BudgetExceededError(
                f"{self.what} exceeded the {self.limit}-byte budget while "
                f"building level {level} ({kept} classes kept so far); "
                f"partial results discarded"
            )


def _render(levels: dict, n_max: int) -> dict[int, tuple[str, ...]]:
    """Sorted lines of each level up to n_max.  Each level is emptied first,
    so its set or dict is freed before its lines are made."""
    forms = {}
    for n, level in levels.items():
        codes = list(level)
        level.clear()
        if n <= n_max:
            forms[n] = tuple(sorted(bits_to_line(n, c) for c in codes))
    return forms


def hereditary_closure(
    seeds: Sequence[Tournament],
    n_max: int,
    *,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    seed_description: str | None = None,
) -> SpeedTable:
    """Level-by-level deletion BFS from the seeds, recording levels <= n_max."""
    if not seeds:
        raise ValueError("need at least one seed tournament")
    for s in seeds:
        if s.n > SEED_BOUND:
            raise InfeasibleSizeError(
                f"seed on {s.n} vertices exceeds the bound {SEED_BOUND}"
            )
    # level -> canonical code -> automorphisms of its representative
    levels: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    budget = _Budget(mem_budget, "closure")
    for s in seeds:
        # decoded afresh: no out-masks cached on seeds that outlive the closure
        code, gens = canonical_code_and_automorphisms(bits_to_out_masks(s.n, s.bits))
        bucket = levels.setdefault(s.n, {})
        if code not in bucket:
            bucket[code] = gens
            budget.charge(s.n, len(bucket))

    top = max(levels)
    for size in range(top, 1, -1):
        cur = levels[size]  # not empty: the level above, or a seed, reached it
        child = levels.setdefault(size - 1, {})
        built: set[int] = set()  # labelled children already canonicalised
        for code, gens in cur.items():
            out = bits_to_out_masks(size, code)  # each child's is derived from it
            left = (1 << size) - 1
            while left:
                # one deletion per orbit: t - v and t - g(v) are isomorphic
                low = left & -left
                left &= ~orbit_mask(low, gens)
                v = low.bit_length() - 1
                sub = _delete_bits(size, code, v)
                if sub in built:
                    continue
                built.add(sub)
                # an automorphism fixing v restricts to one of t - v
                known = [
                    tuple([y - (y > v) for y in g[:v] + g[v + 1 :]])
                    for g in gens
                    if g[v] == v
                ]
                cc, cgens = canonical_code_and_automorphisms(_delete_out(out, v), known)
                if cc not in child:
                    child[cc] = cgens
                    budget.charge(size - 1, len(child))

    table = SpeedTable(
        seed=seed_description or f"{len(seeds)} seed(s), max size {top}",
        forms=_render(levels, n_max),
    )
    if not table.is_downward_closed():
        raise AssertionError(
            "self-check failed: a one-vertex deletion of a closure member "
            "is missing from the level below"
        )
    return table


def _rejected_masks(base: Tournament, forbidden: dict[int, frozenset[int]]) -> int:
    """Which of the 2^k one-vertex extensions of a k-vertex base contain a
    forbidden pattern (canonical codes by size) through the new vertex k:
    bit m of the result is set when extension m does.

    Bit i of an extension mask is set when k -> i.  For a vertex set S of
    the base, the sub-tournament on {k} + S, with k put first, is fixed by
    the base's code on S and by r, the mask bits on S read in increasing
    vertex order: its code is code(S) << |S| | r.  Each distinct code(S)
    has its forbidden r found once, and each forbidden (S, r) rejects the
    masks whose bits on S spell r: an AND of bit columns, col[v] being the
    set of masks with bit v set.
    """
    k = base.n
    every = (1 << (1 << k)) - 1
    # runs of 2^v clear then 2^v set bits, repeated
    col = [
        every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
        for v in range(k)
    ]
    out = base.out_masks
    rejected = 0
    for size, forms in forbidden.items():
        last = size - 1
        spelled: dict[int, list[int]] = {}  # code(S) -> the forbidden r
        for subset in combinations(range(k), last):
            # row a: bit b set when subset[a] -> subset[b]
            code = _pack([
                sum(1 << b for b, w in enumerate(subset) if out[v] >> w & 1)
                for v in subset
            ])
            bad = spelled.get(code)
            if bad is None:
                bad = spelled[code] = [
                    r for r in range(1 << last)
                    if _canon_code(size, code << last | r) in forms
                ]
            for r in bad:
                sel = every
                for a, v in enumerate(subset):
                    sel &= col[v] if r >> a & 1 else every ^ col[v]
                rejected |= sel
    return rejected


def _least_invariant_masks(base: Tournament, masks: Iterable[int]) -> list[int]:
    """The given one-vertex extension masks of a k-vertex base that make
    the new vertex k lex-least under (out-degree, sum of its
    out-neighbours' out-degrees), ties included.

    Bit i of a mask m is set when k -> i: k has out-degree D = popcount(m)
    and base vertex i has deg_base(i) + 1 - bit_i(m).  Base vertex i falls
    below D when deg_base(i) < D - 1, or deg_base(i) = D - 1 and bit i is
    set; it ties D when deg_base(i) = D - 1 and bit i is clear, or
    deg_base(i) = D and bit i is set.  k passes when none falls below and
    each tied one has a sum of at least k's, the sum of deg_base(j) over
    the set bits j.  A tied vertex's sum is its sum at mask 0, less one for
    each out-neighbour j with bit j set, plus D when it beats k.
    """
    k = base.n
    out = base.out_masks
    deg = [o.bit_count() for o in out]
    at = [0] * (k + 1)  # at[d]: the base vertices of out-degree d; at[k] is empty
    for i, d in enumerate(deg):
        at[d] |= 1 << i
    least = min(deg)
    # the sum of vertex i's base out-neighbours' out-degrees in the extension
    # with mask 0, where each of them beats k
    sums = [sum(deg[j] + 1 for j in range(k) if o >> j & 1) for o in out]
    keep = []
    for m in masks:
        d = m.bit_count()
        if d > least + 1 or m & at[d - 1]:  # at[d - 1] is at[k], empty, when d = 0
            continue
        tied = at[d - 1] | m & at[d]
        if tied:
            new_sum = sum(deg[j] for j in range(k) if m >> j & 1)
            if not all(
                sums[i] - (out[i] & m).bit_count() + (0 if m >> i & 1 else d) >= new_sum
                for i in range(k)
                if tied >> i & 1
            ):
                continue
        keep.append(m)
    return keep


def avoidance_closure(
    forbidden: Sequence[Tournament],
    n_max: int,
    *,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    seed_description: str | None = None,
) -> SpeedTable:
    """Extension BFS over the property of tournaments with no forbidden
    induced sub-tournament, recording levels <= n_max (see the module
    docstring)."""
    forb: dict[int, frozenset[int]] = {}
    for h in forbidden:
        if h.n < 1:
            raise ValueError("forbidden patterns must have at least one vertex")
        forb[h.n] = forb.get(h.n, frozenset()) | {_canon_code(h.n, h.bits)}

    budget = _Budget(mem_budget, "avoidance closure")
    levels: dict[int, set[int]] = {1: set()}
    if 1 not in forb:
        levels[1].add(_canon_code(1, 0))
        budget.charge(1, 1)
    for k in range(1, n_max):
        nxt: set[int] = set()
        for code in levels[k]:
            base = Tournament(k, code)
            # char m is bit m of the rejected set
            flags = format(_rejected_masks(base, forb), f"0{1 << k}b")[::-1]
            survivors = [m for m, c in enumerate(flags) if c == "0"]
            keep = set(_least_invariant_masks(base, survivors))
            out = base.out_masks
            for mask in range(1 << k):
                # extensions left out are built too: perfbench's traced run
                # checks from_beats calls against the extensions tried
                ext = Tournament.from_beats(
                    k + 1,
                    lambda i, j, o=out, m=mask, kk=k: (
                        (o[i] >> j) & 1 if j < kk else not ((m >> i) & 1)
                    ),
                )
                if mask not in keep:
                    continue
                cc = canonical_code(k + 1, ext.bits)
                if cc not in nxt:
                    nxt.add(cc)
                    budget.charge(k + 1, len(nxt))
        levels[k + 1] = nxt

    desc = seed_description or (
        "avoid " + ",".join(sorted(f"{h.n}:{canonical_form(h).bits}" for h in forbidden))
    )
    return SpeedTable(seed=desc, forms=_render(levels, n_max))


def fstar(n: int) -> int:
    """Fibonacci-type sequence: 1, 1, 1 then f(n) = f(n-1) + f(n-3)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b, c = 1, 1, 1  # f(0), f(1), f(2)
    if n < 3:
        return 1
    for _ in range(n - 2):
        a, b, c = b, c, c + a
    return c


def distinct_sub_classes(host: Tournament, k: int) -> tuple[str, ...]:
    """Sorted canonical lines of the k-vertex induced sub-tournaments.

    Subsets grow by prepending vertices in decreasing order, so each new
    vertex's row goes in front of the code.  A state is (the subset's
    least vertex, its row-major code, rel), where bit a of rel[w] says
    w -> the subset's a-th vertex, for each w below the subset: the
    completions' codes depend on nothing else, so one copy of each state
    is kept.  Only the distinct labelled codes are canonicalised.
    """
    n = host.n
    if k < 0 or k > n:
        return ()
    if k == 0:
        return ("",)
    cost = comb(n, k) * comb(k, 2)
    if cost > PAIR_BUDGET:
        raise InfeasibleSizeError(
            f"enumerating C({n},{k}) subsets needs ~{cost} pair extractions, "
            f"over the budget of {PAIR_BUDGET}"
        )
    out = host.out_masks
    states = {(n, 0, (0,) * n)}
    for j in range(k - 1):
        grown = (
            (
                w,
                code << j | rel[w],
                tuple([r << 1 | (out[u] >> w & 1) for u, r in enumerate(rel[:w])]),
            )
            for least, code, rel in states
            for w in range(k - 1 - j, least)
        )
        # the last level is streamed into the codes below (j is still k - 2),
        # not kept: where states collapse little it is the largest level
        states = grown if j == k - 2 else set(grown)
    codes_seen = {code << (k - 1) | r for _, code, rel in states for r in rel}
    lines = {canonical_form(Tournament(k, c)).bits for c in codes_seen}
    return tuple(sorted(lines))


def count_sub_L(flags: FlagTriple | Sequence[int], n: int, m: int) -> int:
    """Number of distinct n-vertex sub-tournaments of the 3m-vertex layered
    flag tournament."""
    if 3 * m < n:
        raise ValueError(f"host on 3*{m} vertices has no {n}-subsets")
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
    return len(distinct_sub_classes(make_cyclic(2 * n), n))


def count_tn_lower(n: int) -> int:
    """Closed-form lower bound 2^(n-1) - 2*C(n-1, 2) - n."""
    return 2 ** (n - 1) - 2 * comb(n - 1, 2) - n


def type1_tn_classes(n: int) -> int:
    """Distinct classes among the chain-plus-y sub-tournaments carved out
    of an n-structure of flavor A (one x per chain pair, odd pick for
    positions in S)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t = make_type1(n, 1)
    y = 2 * n
    lines = set()
    for bits in range(1 << (n - 1)):
        subset = [y]
        for i1 in range(1, n):
            picked = 2 * i1 - 2 if (bits >> (i1 - 1)) & 1 else 2 * i1 - 1
            subset.append(picked)
        lines.add(canonical_form(t.induced(subset)).bits)
    return len(lines)


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
    """
    cases: list[InequalityCase] = []
    f1 = count_tn_lower

    def f2(n: int) -> int:
        return 2 ** (n - 3) - 2

    def f3(n: int) -> int:
        return ceil(2 ** (n - 1) / n)

    for n in range(6, n_max + 1):
        cases.append(InequalityCase("i", n, f1(n), fstar(n), f1(n) >= fstar(n)))
        strict = 2 ** (n - 2) > f2(n)
        cases.append(
            InequalityCase("ii", n, f2(n), fstar(n), strict and f2(n) >= fstar(n))
        )
    for n in range(1, n_max + 1):
        if n == 4:
            continue
        cases.append(InequalityCase("iii", n, f3(n), fstar(n), f3(n) >= fstar(n)))
    for n in range(6, n_max):
        for label, f in (("i-rec", f1), ("ii-rec", f2), ("iii-rec", f3)):
            lhs = f(n + 1)
            rhs = f(n) + f(n - 2)
            cases.append(InequalityCase(label, n + 1, lhs, rhs, lhs >= rhs))
    return cases


@dataclass
class SupermultReport:
    """Outcome of the concatenation supermultiplicativity check."""

    inequalities: list[tuple[int, int, int, int, bool]]  # m, n, product, count, ok
    witness_failures: list[str]

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.inequalities) and not self.witness_failures


def check_supermultiplicative(
    table: SpeedTable, *, forbidden: Sequence[Tournament]
) -> SupermultReport:
    """count(m+n) >= count(m) * count(n) for all recorded m + n, with the
    concatenation witness checked member-by-member.

    The property's forbidden patterns must all be strongly connected (a
    strongly connected pattern cannot straddle the concatenation cut).
    """
    if not all(h.is_strongly_connected() for h in forbidden):
        raise ValueError("supermultiplicativity requires strongly connected forbidden patterns")
    depth = max(table.levels(), default=0)
    inequalities = []
    witness_failures: list[str] = []
    for m in range(1, depth):
        for n in range(1, depth - m + 1):
            cm, cn, cmn = table.count(m), table.count(n), table.count(m + n)
            inequalities.append((m, n, cm * cn, cmn, cmn >= cm * cn))
            target = set(table.forms.get(m + n, ()))
            seen: set[str] = set()  # each (m, n) pair of members is met once
            for g1 in table.members(m):
                for g2 in table.members(n):
                    w = canonical_form(concat(g1, g2)).bits
                    if w not in target:
                        witness_failures.append(
                            f"concat of ({m},{n}) pair lands outside level {m + n}"
                        )
                    if w in seen:
                        witness_failures.append(
                            f"concat witness collision at ({m},{n})"
                        )
                    seen.add(w)
    return SupermultReport(inequalities, witness_failures)


def all_classes(n_max: int) -> SpeedTable:
    """Every unlabelled tournament up to n_max (extension BFS, no patterns
    forbidden)."""
    return avoidance_closure([], n_max, seed_description="all tournaments")


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
