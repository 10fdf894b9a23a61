"""Hereditary-closure enumeration and unlabelled sub-tournament counting.

Two enumeration strategies back the speed tables:

* deletion BFS (hereditary_closure): start from the canonical forms of
  large seed tournaments and repeatedly delete single vertices with
  per-level canonical dedup.  Right when seed families are given as a few
  large members and every level is wanted.

* extension BFS (avoidance_closure): grow members one vertex at a time
  inside a forbidden-pattern property, checking only subsets through the
  new vertex.  Right when the property is given by forbidden patterns and
  levels would otherwise be reached from unboundedly many seeds.  One
  pattern test per base decides all 2^k orientations of the new vertex
  at once: for each pattern size s it gathers, with numpy, the labelled
  codes of every (s-1)-subset of the base joined to the new vertex under
  every orientation of the joining pairs, canonicalises only the distinct
  codes, and rejects the orientations that spell a forbidden one.  Only
  the surviving extensions are canonicalised.

Counting the n-vertex sub-tournament classes of one big host
(distinct_sub_classes) enumerates n-subsets directly with canonical
dedup: a deletion BFS from a 30-vertex host down to n = 6 would have to
materialise the combinatorially huge intermediate levels, while the
bottom level alone stays small.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb, ceil
from typing import Sequence

import numpy as np

from .canon import canonical_form
from .families import FlagTriple, make_M, make_cyclic, make_type1
from .tournament import (
    InfeasibleSizeError,
    Tournament,
    concat,
    line_to_bits,
    pair_count,
    pair_index,
)

DEFAULT_SEED_BOUND = 36
DEFAULT_MEM_BUDGET = 2 * 1024**3
DEFAULT_PAIR_BUDGET = 200_000_000
_FORM_OVERHEAD = 64  # rough per-entry bookkeeping bytes for budget checks


class BudgetExceededError(InfeasibleSizeError):
    """A closure run outgrew its memory budget; partial results discarded."""


@dataclass
class SpeedTable:
    """Canonical forms of the n-vertex members of a property, per level."""

    seed: str
    max_seed_size: int
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
    """Running byte estimate of the classes a closure keeps, checked each
    time a class is added."""

    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.what = what
        self.used = 0

    def charge(self, line: str, level: int, kept: int) -> None:
        self.used += len(line) + _FORM_OVERHEAD
        if self.used > self.limit:
            raise BudgetExceededError(
                f"{self.what} exceeded the {self.limit}-byte budget while "
                f"building level {level} ({kept} classes kept so far); "
                f"partial results discarded"
            )


def _deletion_children(args: tuple[int, str]) -> list[str]:
    n, line = args
    t = Tournament(n, line_to_bits(line))
    return [canonical_form(t.delete(v)).bits for v in range(n)]


def hereditary_closure(
    seeds: Sequence[Tournament],
    n_max: int,
    *,
    workers: int = 1,
    max_seed_size: int = DEFAULT_SEED_BOUND,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    seed_description: str | None = None,
) -> SpeedTable:
    """Level-by-level deletion BFS from the seeds, recording levels <= n_max."""
    if not seeds:
        raise ValueError("need at least one seed tournament")
    for s in seeds:
        if s.n > max_seed_size:
            raise InfeasibleSizeError(
                f"seed on {s.n} vertices exceeds the bound {max_seed_size}"
            )
    levels: dict[int, set[str]] = {}
    budget = _Budget(mem_budget, "closure")
    for s in seeds:
        line = canonical_form(s).bits
        bucket = levels.setdefault(s.n, set())
        if line not in bucket:
            bucket.add(line)
            budget.charge(line, s.n, len(bucket))

    top = max(levels)
    pool = None
    if workers > 1:
        pool = multiprocessing.Pool(workers)
    try:
        for size in range(top, 1, -1):
            cur = levels.get(size)
            if not cur:
                continue
            work = [(size, line) for line in sorted(cur)]
            if pool is not None:
                batches = pool.map(_deletion_children, work, chunksize=16)
            else:
                batches = map(_deletion_children, work)
            child = levels.setdefault(size - 1, set())
            for lines in batches:
                for line in lines:
                    if line not in child:
                        child.add(line)
                        budget.charge(line, size - 1, len(child))
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    table = SpeedTable(
        seed=seed_description or f"{len(seeds)} seed(s), max size {top}",
        max_seed_size=top,
        forms={n: tuple(sorted(v)) for n, v in levels.items() if n <= n_max},
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
    base: Tournament, forbidden: dict[int, frozenset[str]]
) -> np.ndarray:
    """Which of the 2^k one-vertex extensions of a k-vertex base contain a
    forbidden pattern (canonical lines by size) through the new vertex k.

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
    for size, lines in forbidden.items():
        if size > k + 1:
            continue
        rows = np.array(
            [c + (k,) for c in combinations(range(k), size - 1)], dtype=np.intp
        )
        codes = (_gather_codes(adj, rows)[:, None] | _tail_codes(size)).tolist()
        bad = {
            c
            for c in set().union(*codes)
            if canonical_form(Tournament(size, c)).bits in lines
        }
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


def avoidance_closure(
    forbidden: Sequence[Tournament],
    n_max: int,
    *,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    seed_description: str | None = None,
) -> SpeedTable:
    """Extension BFS over the property of tournaments with no forbidden
    induced sub-tournament.  A new vertex is appended with every possible
    orientation; one test per base decides which extensions contain a
    pattern through the new vertex, and only the others are canonicalised."""
    forb: dict[int, set[str]] = {}
    for h in forbidden:
        if h.n < 1:
            raise ValueError("forbidden patterns must have at least one vertex")
        forb.setdefault(h.n, set()).add(canonical_form(h).bits)
    forb_frozen = {size: frozenset(v) for size, v in forb.items()}

    budget = _Budget(mem_budget, "avoidance closure")
    levels: dict[int, set[str]] = {1: set()}
    if 1 not in forb_frozen:
        single = canonical_form(Tournament(1, 0)).bits
        levels[1].add(single)
        budget.charge(single, 1, 1)
    for k in range(1, n_max):
        nxt: set[str] = set()
        for line in sorted(levels[k]):
            base = Tournament(k, line_to_bits(line))
            rejected = _rejected_masks(base, forb_frozen).tolist()
            for mask in range(1 << k):
                # rejected extensions are built too: perfbench's traced run
                # checks from_beats calls against the extensions tried
                ext = Tournament.from_beats(
                    k + 1,
                    lambda i, j, o=base.out_masks, m=mask, kk=k: (
                        (o[i] >> j) & 1 if j < kk else not ((m >> i) & 1)
                    ),
                )
                if rejected[mask]:
                    continue
                cl = canonical_form(ext).bits
                if cl not in nxt:
                    nxt.add(cl)
                    budget.charge(cl, k + 1, len(nxt))
        levels[k + 1] = nxt

    desc = seed_description or (
        "avoid " + ",".join(sorted(f"{h.n}:{canonical_form(h).bits}" for h in forbidden))
    )
    return SpeedTable(
        seed=desc,
        max_seed_size=0,
        forms={n: tuple(sorted(v)) for n, v in levels.items() if n <= n_max},
    )


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


def distinct_sub_classes(
    host: Tournament,
    k: int,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> tuple[str, ...]:
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
    if cost > pair_budget:
        raise InfeasibleSizeError(
            f"enumerating C({n},{k}) subsets needs ~{cost} pair extractions, "
            f"over the budget of {pair_budget}"
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


def count_sub_L(
    flags: FlagTriple | Sequence[int],
    n: int,
    m: int,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> int:
    """Number of distinct n-vertex sub-tournaments of the 3m-vertex layered
    flag tournament."""
    if 3 * m < n:
        raise ValueError(f"host on 3*{m} vertices has no {n}-subsets")
    return len(distinct_sub_classes(make_M(flags, m), n, pair_budget=pair_budget))


def count_sub_L_scan(
    flags: FlagTriple | Sequence[int],
    n: int,
    *,
    m_max: int = 12,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> tuple[list[tuple[int, int]], int | None]:
    """Counts for m = ceil(n/3).., stopping at the first m whose count
    repeats the previous one (the stabilization point), or at m_max.

    Returns (list of (m, count), stabilized_m or None).  Counts are
    checked to be non-decreasing; the hosts nest, so a decrease would be
    a bug.
    """
    m_min = max(1, ceil(n / 3))
    values: list[tuple[int, int]] = []
    prev: int | None = None
    for m in range(m_min, m_max + 1):
        c = count_sub_L(flags, n, m, pair_budget=pair_budget)
        if prev is not None and c < prev:
            raise AssertionError(
                f"sub-tournament count dropped from {prev} to {c} at m={m}"
            )
        values.append((m, c))
        if prev is not None and c == prev:
            return values, m
        prev = c
    return values, None


def count_cyclic_subs(
    n: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> int:
    """Distinct n-vertex sub-tournaments of the cyclic tournament on 2n."""
    return len(distinct_sub_classes(make_cyclic(2 * n), n, pair_budget=pair_budget))


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

    def f1(n: int) -> int:
        return 2 ** (n - 1) - 2 * comb(n - 1, 2) - n

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
    table: SpeedTable,
    *,
    verify_witnesses: bool = True,
    forbidden: Sequence[Tournament] | None = None,
) -> SupermultReport:
    """count(m+n) >= count(m) * count(n) for all recorded m + n, with the
    concatenation witness checked member-by-member.

    The property's forbidden patterns must all be strongly connected (a
    strongly connected pattern cannot straddle the concatenation cut); if
    the caller supplies them they are checked, otherwise the caller
    asserts it.
    """
    if forbidden is not None:
        for h in forbidden:
            if not h.is_strongly_connected():
                raise ValueError(
                    "supermultiplicativity requires strongly connected "
                    "forbidden patterns"
                )
    depth = max(table.levels(), default=0)
    inequalities = []
    witness_failures: list[str] = []
    for m in range(1, depth):
        for n in range(1, depth - m + 1):
            cm, cn, cmn = table.count(m), table.count(n), table.count(m + n)
            inequalities.append((m, n, cm * cn, cmn, cmn >= cm * cn))
            if not verify_witnesses:
                continue
            target = set(table.forms.get(m + n, ()))
            seen: dict[str, tuple[str, str]] = {}
            for l1 in table.forms.get(m, ()):
                g1 = Tournament(m, line_to_bits(l1))
                for l2 in table.forms.get(n, ()):
                    g2 = Tournament(n, line_to_bits(l2))
                    w = canonical_form(concat(g1, g2)).bits
                    if w not in target:
                        witness_failures.append(
                            f"concat of ({m},{n}) pair lands outside level {m + n}"
                        )
                    prev = seen.get(w)
                    if prev is not None and prev != (l1, l2):
                        witness_failures.append(
                            f"concat witness collision at ({m},{n})"
                        )
                    seen[w] = (l1, l2)
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
