"""Homogeneous pairs, block decomposition, and the block separation step.

A pair {u, v} with u -> v is homogeneous when the forced candidate set
C(u, v) = {u, v} union {w : u -> w -> v} satisfies: the middle vertices
induce a transitive tournament, and every vertex outside C sees all of C
uniformly.  Blocks are the equivalence classes of this relation.

The relation is proved transitive, but decompose() does not assume it:
pairs are computed individually, each block is read off the homogeneous
set of its least vertex, and every member's set must equal the block; a
violation aborts loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .tournament import Tournament, _transitive_on

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


def _homogeneous(out: Sequence[int], u: int, v: int) -> int:
    """C(u, v) as a vertex mask when the pair {u, v} of the tournament
    with out-masks ``out`` is homogeneous, else 0.  Unchecked: u and v
    are assumed to be vertices; for u == v the mask is {u}."""
    if u == v:
        return 1 << u
    if not out[u] >> v & 1:
        u, v = v, u
    mid = out[u] & ~out[v] & ~(1 << v)  # u -> w -> v
    cmask = mid | (1 << u) | (1 << v)
    if not _transitive_on(out, mid):
        return 0
    # every vertex outside C must beat all of C or be beaten by all of it
    full = (1 << len(out)) - 1
    above = below = full
    m = cmask
    while m:
        low = m & -m
        m ^= low
        o = out[low.bit_length() - 1]
        above &= ~o
        below &= o
    return cmask if above | below | cmask == full else 0


def is_homogeneous_pair(t: Tournament, u: int, v: int) -> frozenset[int] | None:
    """The homogeneous path C(u, v) as a vertex set, or None.

    For u == v returns {u}.  Otherwise the pair is oriented so u -> v and
    the forced candidate set is checked directly.
    """
    t._check_vertex(u)
    t._check_vertex(v)
    cmask = _homogeneous(t.out_masks, u, v)
    return frozenset(i for i in range(t.n) if cmask >> i & 1) if cmask else None


def decompose(t: Tournament) -> BlockDecomposition:
    """Partition the vertices into homogeneous blocks.

    Raises BlockRelationError if the pairwise relation turns out not to be
    an equivalence (it provably is; this guards the implementation).
    """
    n = t.n
    out = t.out_masks
    hom = [1 << u for u in range(n)]  # the vertices homogeneous with u, u included
    for u in range(n):
        for v in range(u + 1, n):
            if _homogeneous(out, u, v):
                hom[u] |= 1 << v
                hom[v] |= 1 << u
    # each block is hom of its least vertex; under an equivalence every
    # member's hom is that same mask, so any other mask is a violation
    blocks = []
    left = (1 << n) - 1
    while left:
        u = (left & -left).bit_length() - 1
        block = hom[u]
        members = [v for v in range(n) if block >> v & 1]
        for v in members:
            odd = hom[v] ^ block
            if odd:
                raise BlockRelationError(
                    f"vertices {u} and {v} are homogeneous, but vertex "
                    f"{(odd & -odd).bit_length() - 1} is so with only one of them"
                )
        blocks.append(frozenset(members))
        left &= ~block
    reps = tuple(min(b) for b in blocks)
    quotient = t.induced(reps)
    sequence = tuple(sorted((len(b) for b in blocks), reverse=True))
    return BlockDecomposition(tuple(blocks), reps, quotient, sequence)


def block_count(t: Tournament) -> int:
    """Number of homogeneous blocks."""
    return len(decompose(t).blocks)


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
    for v in bjs | bls:
        t._check_vertex(v)
    out = t.out_masks
    j_mask = sum(1 << v for v in bjs)
    l_mask = sum(1 << v for v in bls)
    if any(out[x] & l_mask != l_mask for x in bjs):
        raise SeparationError("need all cross edges Bj -> Bl")

    both = j_mask | l_mask
    k_mask = m_mask = 0
    l_set: list[int] = []
    m_set: list[int] = []
    case1: list[int] = []
    for v in range(t.n):
        if both >> v & 1:
            continue
        sj, sl = out[v] & j_mask, out[v] & l_mask
        if sj not in (0, j_mask) or sl not in (0, l_mask):
            raise SeparationError(
                f"vertex {v} sees a block non-uniformly; Bj/Bl are not "
                "homogeneous blocks of the host"
            )
        if sj and sl:
            k_mask |= 1 << v
        elif not (sj or sl):
            l_set.append(v)
        elif sl:
            m_mask |= 1 << v
            m_set.append(v)
        else:
            case1.append(v)

    if case1:
        return aset | {case1[0]}
    for u in m_set:
        hit = out[u] & k_mask
        if hit:
            return aset | {u, (hit & -hit).bit_length() - 1}
    for u in l_set:
        hit = out[u] & m_mask
        if hit:
            return aset | {u, (hit & -hit).bit_length() - 1}
    for u in m_set:
        for v in m_set:
            if v > u and out[u] >> v & 1:
                hit = m_mask & out[v] & ~out[u]  # the w in M with v -> w -> u
                if hit:
                    return aset | {u, v, (hit & -hit).bit_length() - 1}
    raise SeparationError(
        "no separating configuration exists: Bj, Bl and the middle set lie "
        "in one homogeneous block of the host"
    )


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
