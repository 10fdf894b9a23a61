"""The enumeration engine: speed tables, closures, sub-tournament classes.

verify holds the paper's counts and bounds built on it, beside their cases.
Two enumeration strategies back the speed tables.  Both keep levels as
canonical codes, and so does a SpeedTable: only its forms are lines.

* deletion BFS (hereditary_closure): start from large seed tournaments
  and repeatedly delete single vertices with per-level dedup.  Right when
  seed families are given as a few large members and every level is
  wanted.  Each kept class carries automorphisms of its representative.
  Only one vertex per orbit of those automorphisms is deleted, since
  t - v and t - g(v) are isomorphic, and each child is handed the
  automorphisms that fix the deleted vertex, which restrict to
  automorphisms of the child.  A child with two or more strong
  components is named by its condensation key: the condensation is
  transitive, so the sequence of its components' classes names its
  class, and the key spells that sequence (_condensation_key) with no
  search unless a component has 4 or more vertices.  Its components are
  the parent's, with the one that held the deleted vertex replaced by the
  components of what is left of it, read off that component's out-degree
  buckets (_components_less).  On a recorded level (n <= n_max) such a child
  is searched only when its key is new on the level, and a strong child
  of a strong parent once per distinct labelled code.  A level above
  n_max is walked, not recorded: its non-strong classes are held under
  their keys with their out-masks and automorphisms, never searched, and
  a non-strong seed there takes its automorphisms from its components (a
  rotation per cyclic triangle, one search per larger component).  Its
  strong classes are still searched, since only a canonical code tells
  them apart.  The search runs on out-masks: each searched class's are
  built once from its code, and each child's are squeezed out of its
  parent's (_induced_out).

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
  search rather than a slot in the shared code cache.  The search runs on
  out-masks read off the base's: base vertex i keeps its mask when bit i
  of the extension mask is set and gains the new vertex k when it is
  clear, and k's mask is the extension mask itself.  A base's out-masks
  are decoded from its code once; no extension is packed and decoded.

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
from itertools import chain, combinations
from typing import Iterable, Sequence

from .canon import (
    _canon_code,
    _search,
    canonical_code,
    canonical_code_and_automorphisms,
    orbit_mask,
)
from .tournament import (
    InfeasibleSizeError,
    Tournament,
    _components_less,
    _condense,
    _degree_buckets,
    _delete_bits,
    _induced_out,
    _pack,
    _strong_components,
    bits_to_line,
    bits_to_out_masks,
    concat,
    pair_count,
)

SEED_BOUND = 36
DEFAULT_MEM_BUDGET = 2 * 1024**3
PAIR_BUDGET = 200_000_000
_FORM_OVERHEAD = 64  # rough per-entry bookkeeping bytes for budget checks
_GEN_OVERHEAD = 48  # a kept automorphism's tuple header and list slot


class BudgetExceededError(InfeasibleSizeError):
    """A closure run outgrew its memory budget; partial results discarded."""


@dataclass
class SpeedTable:
    """Canonical codes of the n-vertex members of a property, per level."""

    seed: str
    codes: dict[int, frozenset[int]] = field(default_factory=dict)

    def count(self, n: int) -> int:
        return len(self.codes.get(n, ()))

    @property
    def counts(self) -> dict[int, int]:
        return {n: len(self.codes[n]) for n in self.levels()}

    def levels(self) -> list[int]:
        return sorted(self.codes)

    @property
    def forms(self) -> dict[int, tuple[str, ...]]:
        """Sorted canonical lines of each level, rendered on each call."""
        return {
            n: tuple(sorted(bits_to_line(n, c) for c in codes))
            for n, codes in sorted(self.codes.items())
        }

    def members(self, n: int) -> list[Tournament]:
        """Canonical representatives of level n, in ascending code order."""
        return [Tournament(n, c) for c in sorted(self.codes.get(n, ()))]

    def to_json(self, include_forms: bool = False) -> str:
        levels = {str(n): {"count": c} for n, c in self.counts.items()}
        if include_forms:
            for n, lines in self.forms.items():
                levels[str(n)]["forms"] = lines
        return json.dumps(
            {"seed": self.seed, "levels": levels}, sort_keys=True, indent=2
        )

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines += [f"{n},{c}" for n, c in self.counts.items()]
        return "\n".join(lines) + "\n"

    def is_downward_closed(self) -> bool:
        """Every one-vertex deletion of a member appears one level down
        (checked wherever the lower level is recorded)."""
        for n in self.levels():
            lower = self.codes.get(n - 1)
            if lower is None:
                continue
            for c in self.codes[n]:
                for v in range(n):
                    if _canon_code(n - 1, _delete_bits(n, c, v)) not in lower:
                        return False
        return True


class _Budget:
    """Running byte estimate of what a closure keeps, checked each time a
    class is added: a byte a pair for its code (an int takes 4 bytes per 30
    pairs) plus bookkeeping, and for each automorphism kept beside it, its
    tuple (8 bytes an image) with header and list slot; a held class's
    out-masks count as one more such tuple.  A code held only while a level
    is built is charged the same and released after it, and so is a level
    the closure drops."""

    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.what = what
        self.used = 0

    def charge(self, level: int, kept: int, gens: int = 0) -> None:
        self.used += pair_count(level) + _FORM_OVERHEAD + gens * (_GEN_OVERHEAD + 8 * level)
        if self.used > self.limit:
            raise BudgetExceededError(
                f"{self.what} exceeded the {self.limit}-byte budget while "
                f"building level {level} ({kept} classes kept so far); "
                f"partial results discarded"
            )

    def release(self, level: int, codes: int, gens: int = 0) -> None:
        self.used -= codes * (pair_count(level) + _FORM_OVERHEAD) + gens * (
            _GEN_OVERHEAD + 8 * level
        )


def _key_segments(out: Sequence[int], parts: Iterable[int]) -> list[tuple[int, int]]:
    """(bits, width) of each strong component's segment of a condensation
    key (_condensation_key): its size in 6 bits, then for 4 or more
    vertices its canonical code in C(size, 2) bits.  ``parts`` are vertex
    masks of the tournament with out-masks ``out``."""
    segments = []
    for part in parts:
        size = part.bit_count()
        if size > 3:
            width = pair_count(size)
            code = _canon_code(size, _pack(_induced_out(out, part)))
            segments.append((size << width | code, 6 + width))
        else:
            segments.append((size, 6))
    return segments


def _condensation_key(segments: Iterable[tuple[int, int]], key: int = 1) -> int:
    """One int naming the class of a tournament, from the key segments of
    its strong components in condensation order (_key_segments); ``key``,
    the key of the components before them, is extended by them.

    The condensation is transitive, so the class is the sequence of the
    components' classes.  The key is a leading 1, then each component's
    segment: read from the top it decodes in one way, so equal keys mean
    equal sequences.  A strong component of 1 or 3 vertices has one class
    (a vertex, the cyclic triangle) and none has 2, so its size is its
    whole segment."""
    for bits, width in segments:
        key = key << width | bits
    return key


def _fixing(gens: Iterable[Sequence[int]], v: int) -> list[tuple[int, ...]]:
    """The automorphisms among ``gens`` that fix v, restricted to t - v
    (the other vertices relabelled in order): t - v's own."""
    return [tuple([y - (y > v) for y in g[:v] + g[v + 1 :]]) for g in gens if g[v] == v]


def _held_seed(out: Sequence[int], parts: Iterable[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Condensation key and automorphism generators of a non-strong seed
    with out-masks ``out`` and strong components ``parts``, with one
    search of each component of 4 or more vertices and none of the whole.

    An automorphism keeps each strong component, so the group is the
    product of the components' groups: a vertex has none, a cyclic
    triangle its rotation, and a larger component the generators its
    search finds, each lifted to fix every vertex outside it."""
    segments = []
    gens = []
    for part in parts:
        size = part.bit_count()
        verts = [v for v in range(len(out)) if part >> v & 1]
        if size > 3:
            width = pair_count(size)
            code, _, _, autos = _search(_induced_out(out, part))
            segments.append((size << width | code, 6 + width))
            local = [g for g, _ in autos]
        else:
            segments.append((size, 6))
            # shifting a cyclic triangle's vertices one place along their
            # label order is a rotation of it, whichever way its arcs run
            local = [(1, 2, 0)] if size == 3 else []
        for g in local:
            lifted = list(range(len(out)))
            for i, x in enumerate(verts):
                lifted[x] = verts[g[i]]
            gens.append(tuple(lifted))
    return _condensation_key(segments), gens


def hereditary_closure(
    seeds: Sequence[Tournament], n_max: int, *, mem_budget: int = DEFAULT_MEM_BUDGET
) -> SpeedTable:
    """Level-by-level deletion BFS from the seeds, recording levels <= n_max
    (see the module docstring).  A level above n_max holds its non-strong
    classes unsearched, and is dropped, its charge released, once its
    children are built."""
    if not seeds:
        raise ValueError("need at least one seed tournament")
    for s in seeds:
        if s.n > SEED_BOUND:
            raise InfeasibleSizeError(
                f"seed on {s.n} vertices exceeds the bound {SEED_BOUND}"
            )
    # level -> canonical code -> automorphisms of its representative
    levels: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    # level above n_max -> condensation key -> (out-masks, automorphisms)
    held: dict[int, dict[int, tuple[Sequence[int], list[tuple[int, ...]]]]] = {}
    budget = _Budget(mem_budget, "closure")

    def kept(n: int) -> int:
        return len(levels.get(n, ())) + len(held.get(n, ()))

    for s in seeds:
        parts = _strong_components(s.out_masks)
        if s.n > n_max and len(parts) > 1:
            key, gens = _held_seed(s.out_masks, parts)
            bucket = held.setdefault(s.n, {})
            if key not in bucket:
                bucket[key] = (s.out_masks, gens)
                # its out-masks are charged as one more tuple of n entries
                budget.charge(s.n, kept(s.n), len(gens) + 1)
        else:
            code, gens = canonical_code_and_automorphisms(s.out_masks)
            bucket = levels.setdefault(s.n, {})
            if code not in bucket:
                bucket[code] = gens
                budget.charge(s.n, kept(s.n), len(gens))

    top = max(levels.keys() | held.keys())
    for size in range(top, 1, -1):
        cur = levels.setdefault(size, {})
        cur_held = held.pop(size, {})
        child = levels.setdefault(size - 1, {})
        child_held = held.setdefault(size - 1, {})
        hold = size - 1 > n_max  # the children's level is walked, not recorded
        built: set[int] = set()  # labelled strong children already canonicalised
        keyed: set[int] = set()  # condensation keys of the other children searched
        full = (1 << size) - 1
        # one loop over the level: a searched class's out-masks are decoded
        # from its code, a held class's were kept, and each child's are
        # derived from them
        classes = chain(
            ((c, bits_to_out_masks(size, c), gens) for c, gens in cur.items()),
            ((None, out, gens) for out, gens in cur_held.values()),
        )
        for code, out, gens in classes:
            # the strong components, each with its out-degree buckets
            comps = _condense(_degree_buckets(out))
            strong = len(comps) == 1  # then it is a searched class, with a code
            # a strong parent's one segment, itself, is in no child's key
            segments = [(0, 0)] if strong else _key_segments(out, [p for p, _ in comps])
            # head: the key up to the part at hand; tail: the segments after it
            head = 1
            tail = _condensation_key(segments)
            tail_width = tail.bit_length() - 1
            for (part, buckets), (bits, width) in zip(comps, segments):
                tail_width -= width
                tail &= (1 << tail_width) - 1
                # an automorphism keeps each strong component, so its
                # orbits stay inside it
                left = part
                while left:
                    # one deletion per orbit: t - v and t - g(v) are isomorphic
                    low = left & -left
                    left &= ~orbit_mask(low, gens)
                    v = low.bit_length() - 1
                    if strong:
                        sub = _delete_bits(size, code, v)
                        if sub in built:
                            continue
                    # the child's components: the parent's, with this part
                    # replaced by the components of what is left of it
                    rest = _components_less(buckets, out[v], low)
                    if strong and len(rest) == 1:
                        built.add(sub)
                    else:
                        sub = _condensation_key(_key_segments(out, rest), head)
                        sub = sub << tail_width | tail
                        if sub in keyed or sub in child_held:
                            continue
                        if hold and len(comps) + len(rest) > 2:
                            # two or more components: its key names its class
                            known = _fixing(gens, v)
                            child_held[sub] = (_induced_out(out, full ^ low), known)
                            budget.charge(size - 1, kept(size - 1), len(known) + 1)
                            continue
                        keyed.add(sub)
                    budget.charge(size - 1, kept(size - 1))
                    # an automorphism fixing v restricts to one of t - v
                    cc, cgens = canonical_code_and_automorphisms(
                        _induced_out(out, full ^ low), _fixing(gens, v)
                    )
                    if cc not in child:
                        child[cc] = cgens
                        budget.charge(size - 1, kept(size - 1), len(cgens))
                head = head << width | bits
        budget.release(size - 1, len(built) + len(keyed))
        if size > n_max:  # never recorded: dropped, and its charge released
            del levels[size]
            budget.release(
                size,
                len(cur) + len(cur_held),
                sum(map(len, cur.values())) + sum(len(g) + 1 for _, g in cur_held.values()),
            )

    table = SpeedTable(
        seed=f"{len(seeds)} seed(s), max size {top}",
        codes={n: frozenset(lv) for n, lv in sorted(levels.items()) if n <= n_max},
    )
    del levels, held  # frees automorphisms before the self-check
    if not table.is_downward_closed():
        raise AssertionError(
            "self-check failed: a one-vertex deletion of a closure member "
            "is missing from the level below"
        )
    return table


def _rejected_masks(out: Sequence[int], forbidden: dict[int, frozenset[int]]) -> int:
    """Which of the 2^k one-vertex extensions of a k-vertex base (its
    out-masks) contain a forbidden pattern (canonical codes by size)
    through the new vertex k: bit m of the result is set when extension m
    does.

    Bit i of an extension mask is set when k -> i.  For a vertex set S of
    the base, the sub-tournament on {k} + S, with k put first, is fixed by
    the base's code on S and by r, the mask bits on S read in increasing
    vertex order: its code is code(S) << |S| | r.  Each distinct code(S)
    has its forbidden r found once, and each forbidden (S, r) rejects the
    masks whose bits on S spell r: an AND of bit columns, col[v] being the
    set of masks with bit v set.
    """
    k = len(out)
    every = (1 << (1 << k)) - 1
    # runs of 2^v clear then 2^v set bits, repeated
    col = [
        every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
        for v in range(k)
    ]
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


def _least_invariant_masks(out: Sequence[int], masks: Iterable[int]) -> list[int]:
    """The given one-vertex extension masks of a k-vertex base (its
    out-masks) that make the new vertex k lex-least under (out-degree, sum
    of its out-neighbours' out-degrees), ties included.

    Bit i of a mask m is set when k -> i: k has out-degree D = popcount(m)
    and base vertex i has deg_base(i) + 1 - bit_i(m).  Base vertex i falls
    below D when deg_base(i) < D - 1, or deg_base(i) = D - 1 and bit i is
    set; it ties D when deg_base(i) = D - 1 and bit i is clear, or
    deg_base(i) = D and bit i is set.  k passes when none falls below and
    each tied one has a sum of at least k's, the sum of deg_base(j) over
    the set bits j.  A tied vertex's sum is its sum at mask 0, less one for
    each out-neighbour j with bit j set, plus D when it beats k.
    """
    k = len(out)
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
    forbidden: Sequence[Tournament], n_max: int, *, mem_budget: int = DEFAULT_MEM_BUDGET
) -> SpeedTable:
    """Extension BFS over the property of tournaments with no forbidden
    induced sub-tournament, recording levels <= n_max (see the module
    docstring)."""
    forb: dict[int, frozenset[int]] = {}
    patterns: list[tuple[int, int]] = []  # (size, canonical code) of each, duplicates kept
    for h in forbidden:
        if h.n < 1:
            raise ValueError("forbidden patterns must have at least one vertex")
        code = _canon_code(h.n, h.bits)
        patterns.append((h.n, code))
        forb[h.n] = forb.get(h.n, frozenset()) | {code}

    budget = _Budget(mem_budget, "avoidance closure")
    levels: dict[int, frozenset[int]] = {1: frozenset()}
    if 1 not in forb:
        levels[1] = frozenset({_canon_code(1, 0)})
        budget.charge(1, 1)
    for k in range(1, n_max):
        nxt: set[int] = set()
        for code in levels[k]:
            out = bits_to_out_masks(k, code)
            # char m is bit m of the rejected set
            flags = format(_rejected_masks(out, forb), f"0{1 << k}b")[::-1]
            survivors = [m for m, c in enumerate(flags) if c == "0"]
            for mask in range(1 << k):
                # the result is not read: perfbench's traced run, this loop's
                # only reader, checks from_beats calls against the extensions
                # tried.  ROADMAP item 2 deletes it once item 1 moves that
                # check off from_beats.
                Tournament.from_beats(
                    k + 1,
                    lambda i, j, o=out, m=mask, kk=k: (
                        (o[i] >> j) & 1 if j < kk else not ((m >> i) & 1)
                    ),
                )
            new = 1 << k
            for m in _least_invariant_masks(out, survivors):  # ascending
                # base vertex i beats k unless bit i of m is set
                ext = [o if m >> i & 1 else o | new for i, o in enumerate(out)]
                ext.append(m)
                cc = _search(ext)[0]
                if cc not in nxt:
                    nxt.add(cc)
                    budget.charge(k + 1, len(nxt))
        levels[k + 1] = frozenset(nxt)

    desc = (
        "avoid " + ",".join(sorted(f"{k}:{bits_to_line(k, c)}" for k, c in patterns))
        if patterns
        else "all tournaments"
    )
    return SpeedTable(seed=desc, codes={n: c for n, c in levels.items() if n <= n_max})


def check_subset_budget(n: int, k: int) -> None:
    """Refuse to count the k-vertex classes of an n-vertex host when its
    C(n, k) * C(k, 2) pair extractions are over PAIR_BUDGET; verify's
    counts call it before they build their host.

    C(n, j) rises with j up to min(k, n - k), where it is C(n, k), so the
    product is built a factor at a time and refused once it is over: a
    huge host costs a few steps, not its whole binomial.
    """
    cost = k * (k - 1) // 2
    for j in range(1, min(k, n - k) + 1):
        cost = cost * (n - j + 1) // j  # C(n, j) * C(k, 2), exactly
        if cost > PAIR_BUDGET:
            raise InfeasibleSizeError(
                f"enumerating C({n},{k}) subsets needs more pair extractions "
                f"than the budget of {PAIR_BUDGET}"
            )


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
    check_subset_budget(n, k)
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
    classes = {_canon_code(k, c) for c in codes_seen}
    return tuple(sorted(bits_to_line(k, c) for c in classes))


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
    members = {n: table.members(n) for n in range(1, depth)}
    inequalities = []
    witness_failures: list[str] = []
    for m in range(1, depth):
        for n in range(1, depth - m + 1):
            cm, cn, cmn = table.count(m), table.count(n), table.count(m + n)
            inequalities.append((m, n, cm * cn, cmn, cmn >= cm * cn))
            target = table.codes.get(m + n, frozenset())
            seen: set[int] = set()  # each (m, n) pair of members is met once
            for g1 in members[m]:
                for g2 in members[n]:
                    w = canonical_code(m + n, concat(g1, g2).bits)
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
    return avoidance_closure([], n_max)
