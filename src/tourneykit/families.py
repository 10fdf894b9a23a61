"""Constructors for the named tournament families, plus their inverses.

Every generator emits a fixed vertex order (x-block then y-block,
block-major), so repeated calls produce byte-identical .trn output.
Isomorphism-level properties never depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .tournament import InfeasibleSizeError, Tournament, pair_count, substitute

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

    @property
    def total(self) -> int:
        return sum(self.terms)


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


def _transitive(n: int) -> Tournament:
    """The transitive tournament in which earlier vertices beat later ones."""
    return Tournament(n, (1 << pair_count(n)) - 1)


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
    """Invert make_T by peeling: a dominant vertex emits 1, a dominant
    cyclic triangle emits 3.  Raises FamilyMembershipError otherwise."""
    terms: list[int] = []
    cur = t
    while cur.n:
        n = cur.n
        degs = cur.out_degrees()
        tops = [v for v in range(n) if degs[v] == n - 1]
        if tops:
            terms.append(1)
            cur = cur.delete(tops[0])
            continue
        cand = [v for v in range(n) if degs[v] == n - 2]
        if len(cand) == 3:
            a, b, c = cand
            cyclic = (
                cur.beats(a, b) == cur.beats(b, c) == cur.beats(c, a)
            )
            rest = [v for v in range(n) if v not in cand]
            dominant = all(
                cur.beats(w, v) for w in cand for v in rest
            )
            if cyclic and dominant:
                terms.append(3)
                cur = cur.induced(rest)
                continue
        raise FamilyMembershipError(
            "peeling failed: no dominant vertex or dominant cyclic triangle"
        )
    return CompositionSeq(tuple(terms))


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

    def beats(u: int, v: int) -> bool:
        # called with u < v; x's precede y's, so a mixed pair has u = x, v = y
        if v < nn:
            return True
        if u >= nn:
            return fl.i1 == 1
        i = u + 1  # 1-based x index
        j = v - nn + 1  # 1-based y index
        if i == 2 * j:
            return True
        if i == 2 * j - 1:
            return False
        if i <= 2 * j - 2:
            return fl.i2 == 1
        return fl.i3 == 0

    return Tournament.from_beats(3 * n, beats)


def make_M_general(k: int, n: int) -> Tournament:
    """Transitive order on k*n vertices with the pairs (j-k+1, j) reversed
    for every j divisible by k (1-based indices)."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n < 1:
        raise ValueError("n must be >= 1")

    def beats(u: int, v: int) -> bool:
        i, j = u + 1, v + 1
        if j % k == 0 and i == j - k + 1:
            return False
        return True

    return Tournament.from_beats(k * n, beats)


def make_cyclic(n: int) -> Tournament:
    """Cyclic tournament: x_i -> x_j iff 1 <= (j - i mod n) < n/2, or the
    literal difference j - i equals n/2 (even n)."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def beats(u: int, v: int) -> bool:
        d = (v - u) % n
        if 1 <= d and 2 * d < n:
            return True
        return 2 * (v - u) == n

    return Tournament.from_beats(n, beats)


def make_TS(n_plus_1: int, s: Iterable[int]) -> Tournament:
    """Transitive chain x_1..x_n plus one vertex y beating exactly
    {x_i : i in S} (S given 1-based).  Vertex order: x's then y."""
    n = n_plus_1 - 1
    if n < 0:
        raise ValueError("need at least one vertex")
    sset = frozenset(int(i) for i in s)
    if any(i < 1 or i > n for i in sset):
        raise ValueError("S must be a subset of 1..n")

    def beats(u: int, v: int) -> bool:
        if v < n:
            return True  # x chain, u < v
        return (u + 1) not in sset  # pair (x_{u+1}, y)

    return Tournament.from_beats(n + 1, beats)


def make_Tstar(spec: ReversalSpec) -> Tournament:
    """Transitive chain with the spec's t independent edges reversed."""
    a = spec.reversed_set
    t = spec.t
    reversed_pairs = {
        (a[ell - 1], a[t + spec.sigma[ell - 1] - 1]) for ell in range(1, t + 1)
    }

    def beats(u: int, v: int) -> bool:
        return (u + 1, v + 1) not in reversed_pairs

    return Tournament.from_beats(spec.n, beats)


def reconstruct_S(t: Tournament, shape: tuple[int, int]) -> frozenset[int]:
    """Recover the reversed-endpoint set of a separated make_Tstar image.

    Vertices are ordered by descending out-degree; a tied pair is ordered
    by the edge between them; the single permitted triple tie (adjacent
    reversal endpoints) is ordered by original index, which the recovery
    is invariant to.  Positions where the sorted degree differs from the
    transitive profile n - i make up S.
    """
    n, tt = shape
    if t.n != n:
        raise ValueError(f"tournament has {t.n} vertices, shape says {n}")
    degs = t.out_degrees()
    groups: dict[int, list[int]] = {}
    for v in range(t.n):
        groups.setdefault(degs[v], []).append(v)
    order: list[int] = []
    triples = 0
    for d in sorted(groups, reverse=True):
        g = sorted(groups[d])
        if len(g) == 1:
            order.extend(g)
        elif len(g) == 2:
            u, v = g
            order.extend([u, v] if t.beats(u, v) else [v, u])
        elif len(g) == 3:
            triples += 1
            order.extend(g)
        else:
            raise FamilyMembershipError(
                f"{len(g)} vertices share out-degree {d}; not a separated "
                "reversal tournament"
            )
    if triples > 1:
        raise FamilyMembershipError("more than one triple degree tie")
    s = frozenset(
        i + 1 for i, v in enumerate(order) if degs[v] != n - (i + 1)
    )
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
