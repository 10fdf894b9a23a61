"""Homogeneous pairs, block decomposition, and the block separation step.

A pair {u, v} with u -> v is homogeneous when the forced candidate set
C(u, v) = {u, v} union {w : u -> w -> v} satisfies: the middle vertices
induce a transitive tournament, and every vertex outside C sees all of C
uniformly.  Blocks are the equivalence classes of this relation.

The relation is proved transitive, but decompose() does not assume it:
pairs are computed individually, closed by union-find, and the pairwise
relation is re-checked inside every class; a violation aborts loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .tournament import Tournament

if TYPE_CHECKING:  # pragma: no cover
    from .speed import SpeedTable


class BlockRelationError(RuntimeError):
    """The pairwise homogeneity relation failed to be an equivalence."""


class SeparationError(ValueError):
    """separate_blocks precondition violated: the blocks cannot separate."""


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition into homogeneous blocks plus the quotient tournament.

    Blocks are listed in increasing order of their minimum vertex;
    representatives are those minima; the quotient is the sub-tournament
    induced on the representatives (cross-block edges are uniform, so it
    is well-defined).  ``sequence`` is block sizes, non-increasing.
    """

    blocks: tuple[frozenset[int], ...]
    representatives: tuple[int, ...]
    quotient: Tournament
    sequence: tuple[int, ...]


def _middle_transitive(t: Tournament, mask: int) -> bool:
    out = t.out_masks
    degs = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        degs.append((out[b.bit_length() - 1] & mask).bit_count())
    degs.sort()
    return degs == list(range(len(degs)))


def is_homogeneous_pair(t: Tournament, u: int, v: int) -> frozenset[int] | None:
    """The homogeneous path C(u, v) as a vertex set, or None.

    For u == v returns {u}.  Otherwise the pair is oriented so u -> v and
    the forced candidate set is checked directly.
    """
    t._check_vertex(u)
    t._check_vertex(v)
    if u == v:
        return frozenset((u,))
    if not t.beats(u, v):
        u, v = v, u
    out = t.out_masks
    n = t.n
    full = (1 << n) - 1
    in_v = full ^ out[v] ^ (1 << v)
    mid = out[u] & in_v
    cmask = mid | (1 << u) | (1 << v)
    if mid and not _middle_transitive(t, mid):
        return None
    rest = full ^ cmask
    m = rest
    while m:
        b = m & -m
        m ^= b
        ox = out[b.bit_length() - 1] & cmask
        if ox != 0 and ox != cmask:
            return None
    return frozenset(i for i in range(n) if (cmask >> i) & 1)


def decompose(t: Tournament) -> BlockDecomposition:
    """Partition the vertices into homogeneous blocks.

    Raises BlockRelationError if the pairwise relation turns out not to be
    transitive (it provably is; this guards the implementation).
    """
    n = t.n
    hom = [[False] * n for _ in range(n)]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u in range(n):
        hom[u][u] = True
        for v in range(u + 1, n):
            if is_homogeneous_pair(t, u, v) is not None:
                hom[u][v] = hom[v][u] = True
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)

    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    blocks = tuple(
        frozenset(members[r]) for r in sorted(members)
    )
    for block in blocks:
        for u in block:
            for v in block:
                if not hom[u][v]:
                    raise BlockRelationError(
                        f"vertices {u} and {v} share a block via a chain but "
                        "are not pairwise homogeneous"
                    )
    reps = tuple(min(b) for b in blocks)
    quotient = t.induced(reps)
    sequence = tuple(sorted((len(b) for b in blocks), reverse=True))
    return BlockDecomposition(blocks, reps, quotient, sequence)


def block_count(t: Tournament) -> int:
    """Number of homogeneous blocks."""
    return len(decompose(t).blocks)


def _relation_to(t: Tournament, v: int, block: frozenset[int]) -> str:
    beats_all = all(t.beats(v, b) for b in block)
    if beats_all:
        return "out"
    if all(t.beats(b, v) for b in block):
        return "in"
    return "mixed"


def separate_blocks(
    t: Tournament,
    a: Iterable[int],
    bj: Iterable[int],
    bl: Iterable[int],
) -> frozenset[int]:
    """Grow A by at most three vertices so that Bj and Bl stop sharing a
    homogeneous block of the induced sub-tournament.

    Bj and Bl must be distinct homogeneous blocks of t with Bj -> Bl, both
    inside A.  The four cases are tried in order: a single interruptor u
    with Bl -> u -> Bj; a forward edge from the middle set M into the
    dominating set K; a forward edge from the dominated set L into M; a
    cyclic triangle inside M.  If all fail the precondition was violated
    (Bj, Bl and M would lie in one homogeneous block of t).
    """
    aset = frozenset(a)
    bjs = frozenset(bj)
    bls = frozenset(bl)
    if not bjs or not bls or (bjs & bls):
        raise SeparationError("Bj and Bl must be disjoint and non-empty")
    if not (bjs <= aset and bls <= aset):
        raise SeparationError("Bj and Bl must be subsets of A")
    if not all(t.beats(x, y) for x in bjs for y in bls):
        raise SeparationError("need all cross edges Bj -> Bl")

    both = bjs | bls
    outside = [v for v in range(t.n) if v not in both]
    k_set: list[int] = []
    l_set: list[int] = []
    m_set: list[int] = []
    case1: list[int] = []
    for v in outside:
        rj = _relation_to(t, v, bjs)
        rl = _relation_to(t, v, bls)
        if rj == "mixed" or rl == "mixed":
            raise SeparationError(
                f"vertex {v} sees a block non-uniformly; Bj/Bl are not "
                "homogeneous blocks of the host"
            )
        if rj == "out" and rl == "out":
            k_set.append(v)
        elif rj == "in" and rl == "in":
            l_set.append(v)
        elif rj == "in" and rl == "out":
            m_set.append(v)
        else:
            case1.append(v)

    if case1:
        return aset | {min(case1)}
    m_mask = _mask(m_set)
    k_mask = _mask(k_set)
    out = t.out_masks
    for u in m_set:
        hit = out[u] & k_mask
        if hit:
            return aset | {u, (hit & -hit).bit_length() - 1}
    for u in l_set:
        hit = out[u] & m_mask
        if hit:
            return aset | {u, (hit & -hit).bit_length() - 1}
    for i, u in enumerate(m_set):
        for v in m_set[i + 1 :]:
            for w in m_set:
                if w in (u, v):
                    continue
                if t.beats(u, v) and t.beats(v, w) and t.beats(w, u):
                    return aset | {u, v, w}
    raise SeparationError(
        "no separating configuration exists: Bj, Bl and the middle set lie "
        "in one homogeneous block of the host"
    )


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def estimate_k(table: "SpeedTable", n: int) -> int:
    """Finite-scale estimate of the polynomial-speed exponent.

    Scans ell = 0, 1, ... while some member at level n has its (ell+1)-st
    largest homogeneous block of size >= ceil(n / (ell + 2)), and returns
    the last passing ell.  The scan stops at the first failure: for
    larger ell the threshold bottoms out at 1, which any member with many
    singleton blocks would meet vacuously.  This is a heuristic estimate
    from finite data, never a certificate.
    """
    if not table.count(n):
        raise ValueError(f"speed table has no members at level {n}")
    seqs = [decompose(t).sequence for t in table.members(n)]
    best = 0
    for ell in range(n):
        need = math.ceil(n / (ell + 2))
        reach = max((s[ell] if len(s) > ell else 0) for s in seqs)
        if reach < need:
            break
        best = ell
    return best
