"""Bit-packed tournaments and their elementary operations.

A tournament is a complete graph with an orientation on every edge.
Vertices are 0..n-1.  Orientations are stored one bit per unordered pair
{i, j} with i < j, in row-major order (0,1), (0,2), ..., (0,n-1), (1,2),
...; bit k of ``bits`` is 1 when the lower-indexed vertex beats the
higher-indexed one.

The ``.trn`` text format is: line 1 = decimal vertex count, line 2 = the
pair bits as a '0'/'1' string in the same row-major order ('1' meaning
i -> j), optional trailing newline.  An edge-list format ("u v" per line,
meaning u -> v) is accepted for human-authored inputs.

Tournament values are immutable and hashable; every operation here is a
pure function, so values can be shared freely between threads/processes.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence


class InfeasibleSizeError(ValueError):
    """An operation was asked to exceed its configured size or memory budget."""


def pair_count(n: int) -> int:
    """Number of vertex pairs of an n-vertex tournament."""
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Row-major bit position of the pair (i, j); requires i < j."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def bits_to_line(n: int, bits: int) -> str:
    """Render packed pair bits as the .trn body line."""
    return "".join("1" if (bits >> k) & 1 else "0" for k in range(pair_count(n)))


def line_to_bits(line: str) -> int:
    """Parse a .trn body line into packed pair bits."""
    bits = 0
    for k, ch in enumerate(line):
        if ch == "1":
            bits |= 1 << k
        elif ch != "0":
            raise ValueError(f"invalid pair-bit character {ch!r}")
    return bits


class Tournament:
    """An immutable tournament on vertices 0..n-1."""

    __slots__ = ("n", "bits", "_out")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not 0 <= bits < (1 << pair_count(n)):
            raise ValueError(f"bits out of range for n={n}")
        self.n = n
        self.bits = bits
        self._out: tuple[int, ...] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_beats(cls, n: int, beats: Callable[[int, int], bool]) -> "Tournament":
        """Build from an orientation predicate evaluated on pairs i < j."""
        bits = 0
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if beats(i, j):
                    bits |= 1 << k
                k += 1
        return cls(n, bits)

    @classmethod
    def from_out_masks(cls, n: int, masks: Sequence[int]) -> "Tournament":
        return cls.from_beats(n, lambda i, j: bool((masks[i] >> j) & 1))

    @classmethod
    def from_trn(cls, text: str) -> "Tournament":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty .trn input")
        n = int(lines[0].strip())
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        body = lines[1].strip() if len(lines) > 1 else ""
        m = pair_count(n)
        if len(body) != m:
            raise ValueError(f"expected {m} pair bits for n={n}, got {len(body)}")
        return cls(n, line_to_bits(body))

    # -- basic queries -----------------------------------------------------

    @property
    def out_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of beaten vertices (computed once, cached)."""
        if self._out is None:
            n = self.n
            out = [0] * n
            bits = self.bits
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if (bits >> k) & 1:
                        out[i] |= 1 << j
                    else:
                        out[j] |= 1 << i
                    k += 1
            self._out = tuple(out)
        return self._out

    def beats(self, u: int, v: int) -> bool:
        """True iff u -> v.  u and v must be distinct vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("no self-loops in a tournament")
        if u < v:
            return bool((self.bits >> pair_index(self.n, u, v)) & 1)
        return not ((self.bits >> pair_index(self.n, v, u)) & 1)

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.n - 1 - self.out_degree(v)

    def out_degrees(self) -> list[int]:
        return [m.bit_count() for m in self.out_masks]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- derived tournaments -----------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Tournament":
        """Sub-tournament on the given vertices, relabelled 0..k-1 in
        increasing order of original index."""
        vs = sorted(vertices)
        if any(v != int(v) for v in vs):
            raise ValueError("vertices must be integers")
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices in subset")
        for v in vs:
            self._check_vertex(v)
        k = len(vs)
        out = self.out_masks
        bits = 0
        idx = 0
        for a in range(k):
            oa = out[vs[a]]
            for b in range(a + 1, k):
                if (oa >> vs[b]) & 1:
                    bits |= 1 << idx
                idx += 1
        return Tournament(k, bits)

    def delete(self, v: int) -> "Tournament":
        """Sub-tournament with one vertex removed."""
        self._check_vertex(v)
        return self.induced([u for u in range(self.n) if u != v])

    def relabel(self, perm: Sequence[int]) -> "Tournament":
        """Apply a vertex relabelling: vertex i becomes perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabelling must be a permutation of 0..n-1")
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        return Tournament.from_beats(self.n, lambda i, j: self.beats(inv[i], inv[j]))

    def reverse(self) -> "Tournament":
        """Flip every edge."""
        m = pair_count(self.n)
        return Tournament(self.n, self.bits ^ ((1 << m) - 1) if m else 0)

    # -- structural predicates ----------------------------------------------

    def is_transitive(self) -> bool:
        """True iff the beat relation is a strict total order.

        A tournament is transitive exactly when its out-degree sequence is
        a permutation of 0..n-1 (the unique source dominates, recurse).
        """
        return sorted(self.out_degrees()) == list(range(self.n))

    def is_strongly_connected(self) -> bool:
        """True iff every ordered vertex pair is joined by a directed path.

        Equivalently, no bipartition (A, B) with all edges A -> B exists.
        By convention n = 0 and n = 1 are strongly connected.
        """
        n = self.n
        if n <= 1:
            return True
        out = self.out_masks
        full = (1 << n) - 1
        for masks in (out, None):
            seen = 1
            frontier = 1
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    b = m & -m
                    m ^= b
                    v = b.bit_length() - 1
                    nxt |= out[v] if masks is not None else (full ^ out[v] ^ (1 << v))
                frontier = nxt & ~seen
                seen |= frontier
            if seen != full:
                return False
        return True

    # -- serialization -------------------------------------------------------

    def body_line(self) -> str:
        return bits_to_line(self.n, self.bits)

    def to_trn(self) -> str:
        return f"{self.n}\n{self.body_line()}\n"

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, bits={self.bits:#x})"


def concat(g1: Tournament, g2: Tournament) -> Tournament:
    """Ordered concatenation: g1's block first, every cross pair g1 -> g2."""
    n1 = g1.n
    n = n1 + g2.n

    def beats(i: int, j: int) -> bool:
        if j < n1:
            return g1.beats(i, j)
        if i >= n1:
            return g2.beats(i - n1, j - n1)
        return True

    return Tournament.from_beats(n, beats)


def random_tournament(n: int, rng: random.Random | int | None = None) -> Tournament:
    """Uniform random tournament (used by fuzz tests and the CLI)."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    m = pair_count(n)
    return Tournament(n, rng.getrandbits(m) if m else 0)


def read_edge_list(text: str) -> Tournament:
    """Parse "u v" lines (u -> v) into a tournament.

    Vertex ids are 0-based; n is inferred as max id + 1.  Every pair must
    appear exactly once.
    """
    oriented: dict[tuple[int, int], bool] = {}
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        parts = s.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0 or u == v:
            raise ValueError(f"line {lineno}: invalid edge {u} -> {v}")
        key = (min(u, v), max(u, v))
        if key in oriented:
            raise ValueError(f"line {lineno}: pair {key} listed more than once")
        oriented[key] = u < v
        top = max(top, u, v)
    n = top + 1
    if len(oriented) != pair_count(n):
        raise ValueError(
            f"incomplete edge list: {len(oriented)} pairs given, "
            f"{pair_count(n)} needed for n={n}"
        )
    bits = 0
    for (i, j), forward in oriented.items():
        if forward:
            bits |= 1 << pair_index(n, i, j)
    return Tournament(n, bits)
