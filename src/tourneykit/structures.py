"""Detection of the pivotal sub-structures.

A type-1 k-structure is a transitive chain x_1..x_2k plus one vertex y
whose relation to the chain alternates (y -> x_i iff x_{i+1} -> y); it
determines all of its edges, so detection reduces to induced containment
of the corresponding generator, in either of its two flavors.

A type-2 k-structure is a transitive chain x_1..x_2k plus distinct extra
vertices y_1..y_k with x_{2i} -> y_i -> x_{2i-1}; all other edges at the
y's are unconstrained, so detection is a partial-pattern backtracking
search rather than containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import canon
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
            return all(
                host.beats(a[i], a[j])
                for i in range(len(a))
                for j in range(i + 1, len(a))
            )
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


def detect_type1(t: Tournament, k: int) -> StructureWitness | None:
    """First type-1 k-structure found, flavor A tried before flavor B."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    for flavor, kind in ((1, "type1-flavorA"), (0, "type1-flavorB")):
        found = canon.contains_induced(t, make_type1(k, flavor))
        if found is not None:
            return StructureWitness(kind, found.assignment)
    return None


def detect_type2(t: Tournament, k: int) -> StructureWitness | None:
    """First type-2 k-structure found (lexicographically least assignment).

    Chooses the transitive chain first (each new chain vertex taken from
    the running intersection of out-sets), then one sandwich vertex per
    chain pair.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DETECT_K_BOUND:
        raise InfeasibleSizeError(f"detection limited to k <= {DETECT_K_BOUND}")
    n = t.n
    if 3 * k > n:
        return None
    out = t.out_masks
    full = (1 << n) - 1
    xs: list[int] = []

    def in_mask(v: int) -> int:
        return full ^ out[v] ^ (1 << v)

    def place_y(i: int, used: int, ys: list[int]) -> tuple[int, ...] | None:
        if i == k:
            return tuple(xs + ys)
        cands = out[xs[2 * i + 1]] & in_mask(xs[2 * i]) & ~used
        m = cands
        while m:
            b = m & -m
            m ^= b
            ys.append(b.bit_length() - 1)
            found = place_y(i + 1, used | b, ys)
            if found is not None:
                return found
            ys.pop()
        return None

    def place_x(pos: int, avail: int, used: int) -> tuple[int, ...] | None:
        if pos == 2 * k:
            return place_y(0, used, [])
        if avail.bit_count() < 2 * k - pos:
            return None
        m = avail
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            xs.append(v)
            found = place_x(pos + 1, avail & out[v], used | b)
            if found is not None:
                return found
            xs.pop()
        return None

    assignment = place_x(0, full, 0)
    if assignment is None:
        return None
    return StructureWitness("type2", assignment)


def dn_membership(n: int, s: Iterable[int]) -> bool:
    """True iff the chain-plus-y tournament for S has at least two
    transitive sub-tournaments on n vertices."""
    t = make_TS(n + 1, s)
    transitive = sum(
        1 for v in range(t.n) if t.delete(v).is_transitive()
    )
    return transitive >= 2
