"""Detection of the pivotal sub-structures.

A type-1 k-structure is a transitive chain x_1..x_2k plus one vertex y
whose relation to the chain alternates (y -> x_i iff x_{i+1} -> y); it
determines all of its edges, so detection reduces to induced containment
of the corresponding generator, in either of its two flavors.

A type-2 k-structure is a transitive chain x_1..x_2k plus distinct extra
vertices y_1..y_k with x_{2i} -> y_i -> x_{2i-1}; all other edges at the
y's are unconstrained, so it is a partial pattern.

Each witness kind (a transitive chain, either type-1 flavor, type-2, an
induced embedding) is one pattern, built by ``_pattern`` in witness order
as out-masks plus the pairs it fixes.  The search reads it to find a
witness and ``StructureWitness.validate`` reads it to check one.  The
search, ``_embed``, keeps its candidates as host bitmasks narrowed by the
choices already made (Ullmann, "An algorithm for subgraph isomorphism",
J. ACM 23, 1976).  Every witness is the lexicographically least
assignment vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .families import make_type1, make_TS
from .tournament import InfeasibleSizeError, Tournament, _transitive_on

DETECT_K_BOUND = 4


@dataclass(frozen=True)
class StructureWitness:
    """Vertex assignment certifying a detected pattern.

    kinds: "transitive" (chain in beat order), "type1-flavorA" (y beats
    x_1), "type1-flavorB" (x_1 beats y), "type2" (x_1..x_2k then y_1..y_k),
    "embedding" (assignment[q] hosts pattern vertex q).
    """

    kind: str
    assignment: tuple[int, ...]

    def validate(self, host: Tournament, pattern: Tournament | None = None) -> bool:
        a = self.assignment
        if len(set(a)) != len(a) or not all(0 <= v < host.n for v in a):
            return False
        found = _pattern(self.kind, len(a), pattern)
        if found is None:
            return False
        pout, care = found
        tout = host.out_masks
        return all(
            (tout[a[p]] >> a[q] & 1) == (pout[p] >> q & 1)
            for p in range(len(a))
            for q in range(p + 1, len(a))
            if care[p] >> q & 1
        )


def _pattern(
    kind: str, k: int, pattern: Tournament | None = None
) -> tuple[Sequence[int], list[int]] | None:
    """The pattern of a witness kind on k vertices, in witness order, as
    (pout, care): bit q of pout[p] means p -> q, and the symmetric masks
    care mark the fixed pairs.  None when no witness of that kind has k
    vertices; an embedding's pattern is the given tournament's."""
    if kind == "type2":
        if k % 3:
            return None
        m = 2 * k // 3  # the chain x_1..x_m, then y_1..y_{m/2}
        chain = (1 << m) - 1
        # x_a (0-based a) is y_{a//2}'s sandwich vertex; x_{2i+1} -> y_i -> x_{2i}
        # is fixed, and every other pair at the y's is free
        pout = [chain ^ ((2 << a) - 1) | (a & 1) << (m + a // 2) for a in range(m)]
        pout += [1 << 2 * i for i in range(m // 2)]
        care = [chain ^ (1 << a) | 1 << (m + a // 2) for a in range(m)]
        care += [3 << 2 * i for i in range(m // 2)]
        return pout, care
    every = (1 << k) - 1
    if kind == "transitive":
        pout = [every ^ ((2 << p) - 1) for p in range(k)]
    elif kind in ("type1-flavorA", "type1-flavorB") and k % 2 and k > 1:
        pout = make_type1(k // 2, int(kind == "type1-flavorA")).out_masks
    elif kind == "embedding" and pattern is not None and pattern.n == k:
        pout = pattern.out_masks
    else:
        return None
    return pout, [every ^ (1 << p) for p in range(k)]


def max_transitive(t: Tournament) -> StructureWitness:
    """A maximum-size transitive sub-tournament, as a chain in beat order.

    Chains are extended through the intersection of the out-sets of their
    members; candidate-count pruning cuts branches that cannot beat the
    incumbent.  Ties resolve to the lexicographically least chain.  The
    memoised search over candidate masks runs on an explicit stack (no
    recursion), so a chain may be as long as the tournament.
    """
    out = t.out_masks
    full = (1 << t.n) - 1
    # memo[avail]: the least longest chain inside avail, with its length
    memo: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
    # each frame: [avail, its untried first vertices, the best chain so far]
    stack = [[full, full, (0, ())]]
    while stack:
        frame = stack[-1]
        avail, m, best = frame
        while m:
            b = m & -m
            w = b.bit_length() - 1
            sub = avail & out[w]
            if 1 + sub.bit_count() > best[0]:
                got = memo.get(sub)
                if got is None:
                    break  # search sub first, then come back to w
                if 1 + got[0] > best[0]:
                    best = (1 + got[0], (w,) + got[1])
                    if best[0] == avail.bit_count():  # no later w does better
                        m = 0
                        break
            m ^= b
        frame[1], frame[2] = m, best
        if m:
            stack.append([sub, sub, (0, ())])
        else:
            memo[avail] = best
            stack.pop()
    return StructureWitness("transitive", memo[full][1])


def _embed(
    t: Tournament, pout: Sequence[int], care: Sequence[int]
) -> tuple[int, ...] | None:
    """Lexicographically least assignment of the pattern's vertices to
    distinct host vertices that keeps the pattern's fixed pairs, or None.

    Bit q of pout[p] means p -> q; the symmetric masks ``care`` mark the
    fixed pairs.  Vertices are placed in order 0..k-1 on an explicit
    cursor (no recursion), each trying in ascending order the unused host
    vertices that the images of its fixed earlier neighbours beat or lose
    to, as required.  Two exact cuts: a node is cut when p has fewer
    candidates than twins (the r >= p that relate to every vertex before p
    as p does, which need distinct images among them), or when it leaves
    no candidate to a later r whose fixed earlier neighbours are all
    placed (settled).
    """
    k, n = len(pout), t.n
    if k > n:
        return None
    if not k:
        return ()
    tout = t.out_masks
    full = (1 << n) - 1
    tin = [full ^ o ^ (1 << v) for v, o in enumerate(tout)]
    # below[r]: r's fixed earlier neighbours
    below = [care[r] & ((1 << r) - 1) for r in range(k)]
    # steps[r]: (host masks by vertex, q) for each fixed earlier neighbour q
    # of r; r's image lies in masks[image of q]
    steps = [
        [(tin if pout[r] >> q & 1 else tout, q) for q in range(r) if b >> q & 1]
        for r, b in enumerate(below)
    ]
    # fixed[r]: below[r] and, k bits up, which of those r beats
    fixed = [b | (pout[r] & b) << k for r, b in enumerate(below)]
    twins = []
    for p in range(k):
        before = ((1 << p) - 1) * (1 | 1 << k)  # fixed's bits for the vertices before p
        twins.append(sum(fixed[r] & before == fixed[p] for r in range(p, k)))
    # settled[p]: the r > p whose last fixed earlier neighbour is p - 1
    settled: list[list[int]] = [[] for _ in range(k)]
    for r, b in enumerate(below):
        if b.bit_length() < r:
            settled[b.bit_length()].append(r)

    def allowed(r: int) -> int:
        d = free
        for masks, q in steps[r]:
            d &= masks[img[q]]
        return d

    img = [0] * k
    cand = [0] * k
    cand[0] = free = full
    p = 0
    while True:
        m = cand[p]
        if m:
            low = m & -m
            cand[p] = m ^ low
            img[p] = low.bit_length() - 1
            free ^= low
            p += 1
            if p == k:
                return tuple(img)
            c = allowed(p)
            cut = c.bit_count() < twins[p] or not all(allowed(r) for r in settled[p])
            cand[p] = 0 if cut else c
        elif p:
            p -= 1
            free |= 1 << img[p]
        else:
            return None


def contains_induced(t: Tournament, h: Tournament) -> StructureWitness | None:
    """The lexicographically least induced embedding of h in t (pattern
    vertex q goes to host vertex assignment[q]), or None."""
    found = _embed(t, *_pattern("embedding", h.n, h))
    return None if found is None else StructureWitness("embedding", found)


def detect_type1(t: Tournament, k: int) -> StructureWitness | None:
    """First type-1 k-structure found, flavor A tried before flavor B."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    for kind in ("type1-flavorA", "type1-flavorB"):
        found = _embed(t, *_pattern(kind, 2 * k + 1))
        if found is not None:
            return StructureWitness(kind, found)
    return None


def detect_type2(t: Tournament, k: int) -> StructureWitness | None:
    """First type-2 k-structure found (lexicographically least assignment)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    found = _embed(t, *_pattern("type2", 3 * k))
    return None if found is None else StructureWitness("type2", found)


def dn_membership(n: int, s: Iterable[int]) -> bool:
    """True iff the chain-plus-y tournament for S has at least two
    transitive sub-tournaments on n vertices."""
    out = make_TS(n + 1, s).out_masks
    full = (1 << len(out)) - 1
    return sum(_transitive_on(out, full ^ 1 << v) for v in range(len(out))) >= 2
