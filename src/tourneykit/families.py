"""Constructors for the named tournament families, plus their inverses.

Every family is built as out-mask rows packed by ``_pack``, directly or
through ``substitute``.  Every generator emits a fixed vertex order
(x-block then y-block, block-major), so repeated calls produce
byte-identical .trn output.  Isomorphism-level properties never depend
on that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .tournament import InfeasibleSizeError, Tournament, _pack, _strong_components, substitute

MAX_TOWER_LEVEL = 5
MAX_TOWER_VERTICES = 3**MAX_TOWER_LEVEL  # 243
_POINT = Tournament(1)
_TRIANGLE = Tournament(3, 0b101)  # 0 -> 1 -> 2 -> 0


class FamilyMembershipError(ValueError):
    """Input tournament is not a member of the family being inverted."""


@dataclass(frozen=True)
class CompositionSeq:
    """Finite sequence with entries in {1, 3}; sum = vertex count."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a not in (1, 3) for a in self.terms):
            raise ValueError("composition entries must be 1 or 3")


@dataclass(frozen=True)
class FlagTriple:
    """Three orientation flag bits (I1, I2, I3)."""

    i1: int
    i2: int
    i3: int

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in (self.i1, self.i2, self.i3)):
            raise ValueError("flags must be 0/1 bits")

    @classmethod
    def coerce(cls, value: "FlagTriple | Sequence[int]") -> "FlagTriple":
        if isinstance(value, FlagTriple):
            return value
        if len(value) != 3:
            raise ValueError(f"need the three flags I1, I2 and I3, got {len(value)}")
        a, b, c = value
        return cls(int(a), int(b), int(c))


@dataclass(frozen=True)
class ReversalSpec:
    """Transitive n-chain with t independent edges reversed.

    ``reversed_set`` holds the 2t endpoints (1-based, ascending); the
    reversed edges pair the ell-th endpoint with the (t + sigma(ell))-th.
    """

    n: int
    reversed_set: tuple[int, ...]
    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.reversed_set
        if list(s) != sorted(set(s)):
            raise ValueError("reversed_set must be strictly increasing")
        if len(s) % 2:
            raise ValueError("reversed_set must have even size")
        if s and (s[0] < 1 or s[-1] > self.n):
            raise ValueError("reversed_set must be a subset of 1..n")
        t = len(s) // 2
        if sorted(self.sigma) != list(range(1, t + 1)):
            raise ValueError("sigma must be a permutation of 1..t")

    @property
    def t(self) -> int:
        return len(self.reversed_set) // 2


def _transitive(n: int, reversed_pairs: Iterable[tuple[int, int]] = ()) -> Tournament:
    """The transitive tournament in which earlier vertices beat later ones,
    with each listed pair (i, j), i < j, turned round to j -> i."""
    full = (1 << n) - 1
    rows = [full ^ ((2 << i) - 1) for i in range(n)]
    for i, j in reversed_pairs:
        rows[i] ^= 1 << j
    return Tournament(n, _pack(rows))


def _coerce_seq(seq: "CompositionSeq | Iterable[int]") -> CompositionSeq:
    if isinstance(seq, CompositionSeq):
        return seq
    return CompositionSeq(tuple(int(a) for a in seq))


def make_T(seq: "CompositionSeq | Iterable[int]") -> Tournament:
    """Ordered stack of blocks of size 1 or 3.

    Earlier blocks beat later blocks; each size-3 block is internally the
    cyclic triangle first -> second -> third -> first.
    """
    terms = _coerce_seq(seq).terms
    parts = [_TRIANGLE if a == 3 else _POINT for a in terms]
    return substitute(_transitive(len(terms)), parts)


def reconstruct_seq(t: Tournament) -> CompositionSeq:
    """Invert make_T: its terms are the sizes of the strong components in
    domination order (a strong 3-vertex tournament is a cyclic triangle).
    Raises FamilyMembershipError if a component has another size."""
    terms = tuple(part.bit_count() for part in _strong_components(t.out_masks))
    if any(a not in (1, 3) for a in terms):
        raise FamilyMembershipError(
            "peeling failed: no dominant vertex or dominant cyclic triangle"
        )
    return CompositionSeq(terms)


def make_M(flags: "FlagTriple | Sequence[int]", n: int) -> Tournament:
    """Layered tournament on x_1..x_2n, y_1..y_n driven by three flag bits.

    Fixed edges: x_i -> x_j for i < j, and x_{2i} -> y_i -> x_{2i-1}.
    Flags orient the free classes: y_i -> y_j (i < j) iff I1; x_i -> y_j
    for i <= 2j-2 iff I2; y_j -> x_i for i >= 2j+1 iff I3.
    Vertex order: all x's, then all y's.
    """
    fl = FlagTriple.coerce(flags)
    if n < 1:
        raise ValueError("n must be >= 1")
    nn = 2 * n
    full = (1 << 3 * n) - 1
    rows = []
    for u in range(nn):
        # with b = u // 2, x_{u+1} is x_{2b+1} or x_{2b+2}: y_{b+1} is its
        # sandwich vertex, the y_j with j <= b lie in the I3 class and those
        # with j >= b+2 in the I2 class
        b = u // 2
        partner = 1 << (nn + b)  # y_{b+1}, beaten by x_{2b+2} only
        row = ((1 << nn) - 1) ^ ((2 << u) - 1)  # the later x's
        if not fl.i3:
            row |= partner - (1 << nn)  # y_1..y_b
        if u & 1:
            row |= partner
        if fl.i2:
            row |= full ^ ((partner << 1) - 1)  # y_{b+2}..y_n
        rows.append(row)
    rows += [full ^ ((2 << v) - 1) if fl.i1 else 0 for v in range(nn, 3 * n)]
    return Tournament(3 * n, _pack(rows))


def make_M_general(k: int, n: int) -> Tournament:
    """Transitive order on k*n vertices with the pairs (j-k+1, j) reversed
    for every j divisible by k (1-based indices)."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _transitive(k * n, [(a, a + k - 1) for a in range(0, k * n, k)])


def make_cyclic(n: int) -> Tournament:
    """Cyclic tournament: x_i -> x_j iff 1 <= (j - i mod n) < n/2, or the
    literal difference j - i equals n/2 (even n).

    For i < j that is j - i <= n//2, so the row ``_pack`` reads for u is
    the n//2 vertices after u."""
    if n < 1:
        raise ValueError("n must be >= 1")
    half = (1 << n // 2) - 1
    full = (1 << n) - 1
    return Tournament(n, _pack([half << (u + 1) & full for u in range(n)]))


def make_TS(n_plus_1: int, s: Iterable[int]) -> Tournament:
    """Transitive chain x_1..x_n plus one vertex y beating exactly
    {x_i : i in S} (S given 1-based).  Vertex order: x's then y."""
    n = n_plus_1 - 1
    if n < 0:
        raise ValueError("need at least one vertex")
    sset = frozenset(int(i) for i in s)
    if any(i < 1 or i > n for i in sset):
        raise ValueError("S must be a subset of 1..n")
    return _transitive(n + 1, [(i - 1, n) for i in sset])


def make_Tstar(spec: ReversalSpec) -> Tournament:
    """Transitive chain with the spec's t independent edges reversed."""
    a, t = spec.reversed_set, spec.t
    # the ell-th endpoint (0-based) pairs with the (t + sigma(ell))-th
    return _transitive(
        spec.n, [(a[ell] - 1, a[t + s - 1] - 1) for ell, s in enumerate(spec.sigma)]
    )


def reconstruct_S(t: Tournament, shape: tuple[int, int]) -> frozenset[int]:
    """Recover the reversed-endpoint set of a separated make_Tstar image.

    A separated image has at most 3 vertices of each out-degree and at
    most one such triple.  S is the set of positions i (1-based) at which
    the out-degrees, sorted in descending order, differ from the
    transitive profile n - i: the vertices sharing a degree can be put in
    any order without changing the degree read at a position.
    """
    n, tt = shape
    if t.n != n:
        raise ValueError(f"tournament has {t.n} vertices, shape says {n}")
    degs = sorted(t.out_degrees(), reverse=True)
    ties = Counter(degs)  # in descending order of degree
    for d, k in ties.items():
        if k > 3:
            raise FamilyMembershipError(
                f"{k} vertices share out-degree {d}; not a separated "
                "reversal tournament"
            )
    if list(ties.values()).count(3) > 1:
        raise FamilyMembershipError("more than one triple degree tie")
    s = frozenset(i for i, d in enumerate(degs, 1) if d != n - i)
    if len(s) != 2 * tt:
        raise FamilyMembershipError(
            f"recovered {len(s)} reversal endpoints, expected {2 * tt}"
        )
    return s


def make_type1(k: int, flavor: int) -> Tournament:
    """Alternating structure: transitive chain x_1..x_2k plus one vertex y
    with y -> x_i iff x_{i+1} -> y.  The flavor bit is the orientation of
    (y, x_1): flavor 1 means y -> x_1 (y beats odd positions).
    Vertex order: x's then y."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if flavor not in (0, 1):
        raise ValueError("flavor must be 0 or 1")
    return make_TS(2 * k + 1, range(2 - flavor, 2 * k + 1, 2))


def make_moon_tower(level: int) -> Tournament:
    """Recursive triple tower: level 1 is the cyclic triangle; each next
    level cycles three copies of the previous one (U -> V -> W -> U)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level > MAX_TOWER_LEVEL:  # before any power: 3**level of a huge level hangs
        raise InfeasibleSizeError(
            f"towers above level {MAX_TOWER_LEVEL} have {3 ** (MAX_TOWER_LEVEL + 1)} or "
            f"more vertices, over the bound {MAX_TOWER_VERTICES}; got level {level}"
        )
    cur = _TRIANGLE
    for _ in range(level - 1):
        cur = substitute(_TRIANGLE, (cur,) * 3)
    return cur


def make_cyclic_blowup(sizes: Sequence[int]) -> Tournament:
    """Transitive blocks arranged on a cyclic quotient.

    Block i beats block j exactly when i beats j in make_cyclic(len(sizes));
    inside a block earlier vertices beat later ones.  Used by the speed
    suite to engineer properties with a prescribed number of large
    homogeneous blocks.
    """
    if any(a < 0 for a in sizes):
        raise ValueError("block sizes must be non-negative")
    return substitute(make_cyclic(len(sizes)), [_transitive(a) for a in sizes])
