"""Detection of the pivotal sub-structures.

A type-1 k-structure is a transitive chain x_1..x_2k plus one vertex y
whose relation to the chain alternates (y -> x_i iff x_{i+1} -> y); it
determines all of its edges, so detection reduces to induced containment
of the corresponding generator, in either of its two flavors.

A type-2 k-structure is a transitive chain x_1..x_2k plus distinct extra
vertices y_1..y_k with x_{2i} -> y_i -> x_{2i-1}; all other edges at the
y's are unconstrained, so it is a partial pattern.

Both kinds, and induced containment (``contains_induced``), are found by
one embedding search, ``_embed``: a pattern given as out-masks plus the
pairs it fixes, with candidates kept as host bitmasks narrowed by the
choices already made (Ullmann, "An algorithm for subgraph isomorphism",
J. ACM 23, 1976).  Every witness is the lexicographically least
assignment vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .families import make_type1, make_TS
from .tournament import InfeasibleSizeError, Tournament

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
        if len(set(a)) != len(a):
            return False
        if self.kind == "transitive":
            return _is_chain(host, a)
        if self.kind in ("type1-flavorA", "type1-flavorB"):
            k2 = len(a) - 1
            if k2 < 2 or k2 % 2:
                return False
            xs, y = a[:k2], a[-1]
            if not _is_chain(host, xs):
                return False
            flavor = 1 if self.kind.endswith("A") else 0
            for i1 in range(1, k2 + 1):
                want = (i1 % 2 == 1) == (flavor == 1)
                if host.beats(y, xs[i1 - 1]) != want:
                    return False
            return True
        if self.kind == "type2":
            if len(a) % 3:
                return False
            k = len(a) // 3
            xs, ys = a[: 2 * k], a[2 * k :]
            if not _is_chain(host, xs):
                return False
            return all(
                host.beats(xs[2 * i + 1], ys[i]) and host.beats(ys[i], xs[2 * i])
                for i in range(k)
            )
        if self.kind == "embedding":
            if pattern is None or pattern.n != len(a):
                return False
            return all(
                pattern.beats(q, r) == host.beats(a[q], a[r])
                for q in range(len(a))
                for r in range(q + 1, len(a))
            )
        return False


def _is_chain(t: Tournament, vs: tuple[int, ...]) -> bool:
    return all(
        t.beats(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))
    )


def max_transitive(t: Tournament) -> StructureWitness:
    """A maximum-size transitive sub-tournament, as a chain in beat order.

    Chains are extended through the intersection of the out-sets of their
    members; candidate-count pruning cuts branches that cannot beat the
    incumbent.  Ties resolve to the lexicographically least chain.
    """
    n = t.n
    out = t.out_masks
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def best_chain(avail: int) -> tuple[int, tuple[int, ...]]:
        if avail == 0:
            return (0, ())
        cached = memo.get(avail)
        if cached is not None:
            return cached
        best = (0, ())
        m = avail
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            if 1 + (avail & out[w]).bit_count() <= best[0]:
                continue
            ln, ch = best_chain(avail & out[w])
            if 1 + ln > best[0]:
                best = (1 + ln, (w,) + ch)
        memo[avail] = best
        return best

    _, chain = best_chain((1 << n) - 1)
    return StructureWitness("transitive", chain)


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
    every = (1 << h.n) - 1
    found = _embed(t, h.out_masks, [every ^ (1 << p) for p in range(h.n)])
    return None if found is None else StructureWitness("embedding", found)


def detect_type1(t: Tournament, k: int) -> StructureWitness | None:
    """First type-1 k-structure found, flavor A tried before flavor B."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    for flavor, kind in ((1, "type1-flavorA"), (0, "type1-flavorB")):
        found = contains_induced(t, make_type1(k, flavor))
        if found is not None:
            return StructureWitness(kind, found.assignment)
    return None


def detect_type2(t: Tournament, k: int) -> StructureWitness | None:
    """First type-2 k-structure found (lexicographically least assignment).

    The pattern, in witness order x_1..x_2k, y_1..y_k, fixes the chain
    pairs and the two sandwich pairs x_{2i} -> y_i -> x_{2i-1} of each y;
    every other pair at the y's is free.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    m = 2 * k
    chain = (1 << m) - 1
    # x_a (0-based a) is y_{a//2}'s sandwich vertex; x_{2i+1} -> y_i -> x_{2i}
    pout = [chain ^ ((2 << a) - 1) | (a & 1) << (m + a // 2) for a in range(m)]
    pout += [1 << 2 * i for i in range(k)]
    care = [chain ^ (1 << a) | 1 << (m + a // 2) for a in range(m)]
    care += [3 << 2 * i for i in range(k)]
    found = _embed(t, pout, care)
    return None if found is None else StructureWitness("type2", found)


def dn_membership(n: int, s: Iterable[int]) -> bool:
    """True iff the chain-plus-y tournament for S has at least two
    transitive sub-tournaments on n vertices."""
    t = make_TS(n + 1, s)
    transitive = sum(
        1 for v in range(t.n) if t.delete(v).is_transitive()
    )
    return transitive >= 2
