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
    """Render packed pair bits as the .trn body line (the numeral reversed)."""
    return format(bits, f"0{pair_count(n)}b")[::-1] if n > 1 else ""


def _delete_bits(n: int, bits: int, v: int) -> int:
    """Packed pair bits of the n-vertex tournament ``bits`` less vertex v,
    the others relabelled in order.  Unchecked: 0 <= v < n is assumed.

    Rows i < v lose their bit for the pair (i, v), row v goes, and the
    rows after it are already the new rows."""
    out = 0
    shift = 0
    for i in range(v):
        width = n - 1 - i
        row = bits & ((1 << width) - 1)
        bits >>= width
        k = v - i - 1  # the bit of the pair (i, v) within row i
        out |= ((row & ((1 << k) - 1)) | ((row >> (k + 1)) << k)) << shift
        shift += width - 1
    return out | (bits >> (n - 1 - v)) << shift


def bits_to_out_masks(n: int, bits: int) -> tuple[int, ...]:
    """Per-vertex bitmask of the vertices each vertex beats, decoded from
    the packed pair bits of an n-vertex tournament."""
    out = [0] * n
    for i in range(n - 1):
        # row i holds the pairs (i, i+1), ..., (i, n-1), lowest first
        width = n - 1 - i
        full = (1 << width) - 1
        row = bits & full
        bits >>= width
        out[i] |= row << (i + 1)
        lost = row ^ full
        while lost:
            low = lost & -lost
            lost ^= low
            out[i + low.bit_length()] |= 1 << i
    return tuple(out)


def _delete_out(out: Sequence[int], v: int) -> tuple[int, ...]:
    """Out-masks of the tournament with out-masks ``out`` less vertex v,
    the others relabelled in order.  Unchecked: 0 <= v < len(out) is
    assumed.

    Each row but v's keeps its bits below v and shifts those above v
    down by one, dropping bit v."""
    below = (1 << v) - 1
    return tuple(
        [(o & below) | ((o >> 1) & ~below) for i, o in enumerate(out) if i != v]
    )


def _pack(rows: Sequence[int]) -> int:
    """Packed pair bits from rows where bit j > i of rows[i] says i -> j
    (lower bits are not read, so out-masks do); one shift per row."""
    n = len(rows)
    bits = 0
    shift = 0
    for i in range(n - 1):
        bits |= (rows[i] >> (i + 1)) << shift
        shift += n - 1 - i
    return bits


def _transitive_on(out: Sequence[int], mask: int) -> bool:
    """True iff the vertices in ``mask`` induce a transitive tournament.

    They do exactly when their out-degrees inside the mask are distinct,
    hence a permutation of 0..k-1 (the unique source dominates, recurse).
    """
    degrees = set()
    m = mask
    while m:
        low = m & -m
        m ^= low
        degrees.add((out[low.bit_length() - 1] & mask).bit_count())
    return len(degrees) == mask.bit_count()


def _decimal(text: str, what: str) -> int:
    """A vertex count or id: ASCII decimal digits, maybe padded by
    whitespace (int() alone also takes '_', signs and other digits)."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be non-negative, in ASCII decimal digits, got {text!r}")
    return int(digits)


def line_to_bits(line: str) -> int:
    """Parse a .trn body line into packed pair bits.  Only '0' and '1' are
    accepted; int() alone would also take '_', signs, spaces and '0b'."""
    if line.strip("01"):
        raise ValueError(f"invalid pair-bit character {line.lstrip('01')[0]!r}")
    return int(line[::-1], 2) if line else 0


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
    def from_trn(cls, text: str) -> "Tournament":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty .trn input")
        n = _decimal(lines[0], "vertex count")
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
            self._out = bits_to_out_masks(self.n, self.bits)
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
        rows = [0] * k
        for a, v in enumerate(vs):
            o = out[v]
            for b in range(a + 1, k):
                if o >> vs[b] & 1:
                    rows[a] |= 1 << b
        return Tournament(k, _pack(rows))

    def delete(self, v: int) -> "Tournament":
        """Sub-tournament with one vertex removed."""
        self._check_vertex(v)
        return Tournament(self.n - 1, _delete_bits(self.n, self.bits, v))

    def relabel(self, perm: Sequence[int]) -> "Tournament":
        """Apply a vertex relabelling: vertex i becomes perm[i]."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError("relabelling must be a permutation of 0..n-1")
        out = [0] * n
        for i, o in enumerate(self.out_masks):
            image = 0
            while o:
                low = o & -o
                o ^= low
                image |= 1 << perm[low.bit_length() - 1]
            out[perm[i]] = image
        return Tournament(n, _pack(out))

    def reverse(self) -> "Tournament":
        """Flip every edge."""
        m = pair_count(self.n)
        return Tournament(self.n, self.bits ^ ((1 << m) - 1) if m else 0)

    # -- structural predicates ----------------------------------------------

    def is_transitive(self) -> bool:
        """True iff the beat relation is a strict total order."""
        return _transitive_on(self.out_masks, (1 << self.n) - 1)

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


def substitute(quotient: Tournament, parts: Sequence[Tournament]) -> Tournament:
    """Substitution: vertex a of ``quotient`` becomes the block ``parts[a]``,
    the blocks laid out in quotient order.  A pair inside a block keeps
    the block's orientation; a pair across blocks a and b takes the
    quotient's orientation of (a, b)."""
    if len(parts) != quotient.n:
        raise ValueError(
            f"need one part per quotient vertex: {quotient.n} vertices, {len(parts)} parts"
        )
    spans = []  # the vertices of each block, as a mask
    n = 0
    for p in parts:
        spans.append(((1 << p.n) - 1) << n)
        n += p.n
    rows: list[int] = []
    for p, qa in zip(parts, quotient.out_masks):
        across = 0
        while qa:
            low = qa & -qa
            qa ^= low
            across |= spans[low.bit_length() - 1]
        start = len(rows)
        rows += [(o << start) | across for o in p.out_masks]
    return Tournament(n, _pack(rows))


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
        u, v = (_decimal(x, f"line {lineno}: vertex id") for x in parts)
        if u == v:
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
    rows = [0] * n
    for (i, j), forward in oriented.items():
        if forward:
            rows[i] |= 1 << j
    return Tournament(n, _pack(rows))
