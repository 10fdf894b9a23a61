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
  at once: for each pattern size s it gathers, with numpy, the labelled
  codes of every (s-1)-subset of the base joined to the new vertex under
  every orientation of the joining pairs, canonicalises only the distinct
  codes, and rejects the orientations that spell a forbidden one.  Of
  the survivors, only those whose new vertex is lex-least under
  (out-degree, sum of its out-neighbours' out-degrees), ties included,
  are canonicalised; one numpy pass over the masks the pattern test
  keeps decides the whole condition.  No class is lost: a member C on
  k+1 vertices minus a lex-least vertex w is a member (the property is
  hereditary), so C is rebuilt from the canonical base of C - w with w
  as the new vertex, and that extension passes, since an isomorphism
  keeps any vertex invariant.  The dedup set absorbs the classes reached
  more than once.  The survivors rarely repeat, so each gets a fresh
  search rather than a slot in canonical_form's cache.

Counting the n-vertex sub-tournament classes of one big host
(distinct_sub_classes) enumerates n-subsets directly with canonical
dedup: a deletion BFS from a 30-vertex host down to n = 6 would have to
materialise the combinatorially huge intermediate levels, while the
bottom level alone stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb, ceil
from typing import Sequence

import numpy as np

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
    bits_to_line,
    bits_to_out_masks,
    concat,
    line_to_bits,
    pair_count,
    pair_index,
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


def _adjacency(t: Tournament, size: int) -> np.ndarray:
    """0/1 matrix with [i, j] = 1 iff i -> j, zero-padded to size x size."""
    adj = np.zeros((size, size), dtype=np.uint8)
    for i, o in enumerate(t.out_masks):
        for j in range(t.n):
            adj[i, j] = (o >> j) & 1
    return adj


def _code_dtype(size: int):
    """int64 while a size-vertex code fits, else Python ints."""
    return np.int64 if pair_count(size) < 63 else object


def _gather_codes(adj: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Row-major pair-bit code of the sub-tournament induced on each row of
    ``subsets`` (vertex indices in increasing order).  Codes wider than
    int64 fall back to Python ints."""
    s = subsets.shape[1]
    dtype = _code_dtype(s)
    codes = np.zeros(len(subsets), dtype=dtype)
    pos = 0
    for a in range(s):
        for b in range(a + 1, s):
            codes |= adj[subsets[:, a], subsets[:, b]].astype(dtype) << pos
            pos += 1
    return codes


def _tail_codes(size: int) -> np.ndarray:
    """Entry r: the pair bits joining the last of ``size`` vertices to the
    others when it beats vertex a exactly where bit a of r is set."""
    r = np.arange(1 << (size - 1)).astype(_code_dtype(size))
    tail = np.zeros_like(r)
    for a in range(size - 1):
        tail |= (1 - ((r >> a) & 1)) << pair_index(size, a, size - 1)
    return tail


def _rejected_masks(
    base: Tournament, forbidden: dict[int, frozenset[int]]
) -> np.ndarray:
    """Which of the 2^k one-vertex extensions of a k-vertex base contain a
    forbidden pattern (canonical codes by size) through the new vertex k.

    Bit i of an extension mask is set when k -> i.  For a vertex set S of
    the base, the sub-tournament on S + {k} is fixed by the base's pairs
    on S and by r, the mask bits on S read in increasing vertex order: its
    code is base_code(S) | tail(r).  These labelled codes are gathered for
    every S at once, only the distinct ones are canonicalised, and each
    forbidden (S, r) rejects the masks whose bits on S spell r.
    """
    k = base.n
    if 1 in forbidden:
        return np.ones(1 << k, dtype=bool)
    rejected = np.zeros(1 << k, dtype=bool)
    cube = rejected.reshape((2,) * k)  # axis k-1-v carries mask bit v
    adj = _adjacency(base, k + 1)
    for size, forms in forbidden.items():
        if size > k + 1:
            continue
        rows = np.array(
            [c + (k,) for c in combinations(range(k), size - 1)], dtype=np.intp
        )
        codes = (_gather_codes(adj, rows)[:, None] | _tail_codes(size)).tolist()
        bad = {c for c in set().union(*codes) if _canon_code(size, c) in forms}
        if not bad:
            continue
        for subset, spelled in zip(rows.tolist(), codes):
            for r, c in enumerate(spelled):
                if c in bad:
                    idx: list = [slice(None)] * k
                    for a, v in enumerate(subset[:-1]):
                        idx[k - 1 - v] = (r >> a) & 1
                    cube[tuple(idx)] = True
    return rejected


def _least_invariant_masks(base: Tournament, masks: np.ndarray) -> np.ndarray:
    """Which of the given one-vertex extension masks of a k-vertex base
    make the new vertex k lex-least under (out-degree, sum of its
    out-neighbours' out-degrees), ties included.

    Bit i of an extension mask m is set when k -> i.  In that extension k
    has out-degree D = popcount(m) and beats the base vertices i with bit
    i set, whose out-degrees deg_base(i) sum to S; base vertex i has
    out-degree deg_base(i) + 1 - bit_i(m), beats its base out-neighbours
    j, of out-degree deg_base(j) + 1 - bit_j(m), and beats k when bit i
    is clear.  k passes when every base vertex has a greater out-degree
    than D, or out-degree D and a sum of at least S.
    """
    k = base.n
    adj = _adjacency(base, k).astype(np.int16)
    deg = adj.sum(axis=1)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(np.int16)
    new_degree = bits.sum(axis=1)[:, None]
    new_sum = (bits @ deg)[:, None]
    degree = deg + 1 - bits
    sums = adj @ (deg + 1) - bits @ adj.T + (1 - bits) * new_degree
    return (
        (degree > new_degree) | ((degree == new_degree) & (sums >= new_sum))
    ).all(axis=1)


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
            wanted = ~_rejected_masks(base, forb)
            survivors = np.flatnonzero(wanted)
            wanted[survivors] = _least_invariant_masks(base, survivors)
            keep = wanted.tolist()
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
                if not keep[mask]:
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

    Enumerates the C(n, k) subsets in chunks, extracts each induced
    pair-bit code with vectorised gathers, then canonicalises the distinct
    labelled codes only.
    """
    n = host.n
    if k < 0 or k > n:
        return ()
    if k == n:
        return (canonical_form(host).bits,)
    if k <= 1:
        return ("",) if (k == 0 or n > 0) else ()
    cost = comb(n, k) * comb(k, 2)
    if cost > PAIR_BUDGET:
        raise InfeasibleSizeError(
            f"enumerating C({n},{k}) subsets needs ~{cost} pair extractions, "
            f"over the budget of {PAIR_BUDGET}"
        )
    adj = _adjacency(host, n)
    codes_seen: set[int] = set()
    it = combinations(range(n), k)
    chunk_size = 200_000
    while True:
        chunk = list(islice(it, chunk_size))
        if not chunk:
            break
        codes = _gather_codes(adj, np.array(chunk, dtype=np.intp))
        codes_seen.update(np.unique(codes).tolist())
    lines = {canonical_form(Tournament(k, int(c))).bits for c in codes_seen}
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


def property_slope(
    table: SpeedTable, n_lo: int, n_hi: int
) -> float:
    """Least-squares log-log growth slope of the level counts."""
    ns = [n for n in range(n_lo, n_hi + 1) if table.count(n) > 0]
    xs = np.log(np.array(ns, dtype=float))
    ys = np.log(np.array([table.count(n) for n in ns], dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])
