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

import operator
import random
from functools import lru_cache
from itertools import combinations, compress, starmap
from typing import Callable, Iterable, Sequence


class InfeasibleSizeError(ValueError):
    """An operation was asked to exceed its configured size or memory budget."""


def pair_count(n: int) -> int:
    """Number of vertex pairs of an n-vertex tournament."""
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Row-major bit position of the pair (i, j); requires i < j."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


# 1 << k for one chunk of pair positions, k < C(32, 2): from_beats sums
# these over each chunk of pairs in turn (about 30 KB, kept for good).
_PAIR_BITS = tuple(1 << k for k in range(pair_count(32)))


@lru_cache(maxsize=16)
def _row_major_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, of an n-vertex tournament in row-major
    order; O(n^2) small tuples, so from_beats keeps them for n <= 64 only."""
    return tuple(combinations(range(n), 2))


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


def _induced_out(out: Sequence[int], keep: int) -> tuple[int, ...]:
    """Out-masks of the sub-tournament on the vertex mask ``keep`` of the
    tournament with out-masks ``out``, relabelled in order.  Unchecked:
    keep < 1 << len(out).  The dropped rows go in one pass; then each
    maximal run of dropped vertices, highest first, is squeezed out of the
    kept rows (the bits below it stay, those above shift down its width)."""
    rows = [o for i, o in enumerate(out) if keep >> i & 1]
    drop = keep ^ ((1 << len(out)) - 1)
    while drop:
        top = drop.bit_length()
        bottom = (drop ^ ((1 << top) - 1)).bit_length()  # the run is bottom..top-1
        below, above, width = (1 << bottom) - 1, -1 << bottom, top - bottom
        rows = [(o & below) | (o >> width & above) for o in rows]
        drop &= below
    return tuple(rows)


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


def _strong_components(out: Sequence[int], keep: int = -1) -> list[int]:
    """The strong components of the sub-tournament on the vertex mask
    ``keep`` (every vertex by default) of the tournament with out-masks
    ``out``, as vertex masks in condensation order: each beats every later
    one.

    k vertices have out-degrees summing to at least C(k, 2), the arcs among
    them, with equality exactly when they lose to every other vertex.  Such
    a set is a prefix of the vertices in ascending out-degree, so the
    components are the runs between the prefixes that attain C(k, 2).  A
    vertex beats every vertex of each later component and at most all but
    itself of its own, so one of an earlier component has the larger
    out-degree: vertices of equal out-degree share a component, and the
    prefixes are read a whole out-degree at a time."""
    return [part for part, _ in _condense(_degree_buckets(out, keep))]


def _degree_buckets(out: Sequence[int], keep: int = -1) -> list[tuple[int, int]]:
    """(out-degree, the vertices with it) of the sub-tournament on the
    vertex mask ``keep``, in ascending out-degree."""
    at: dict[int, int] = {}
    for v, o in enumerate(out):
        if keep >> v & 1:
            d = (o & keep).bit_count()
            at[d] = at.get(d, 0) | 1 << v
    return sorted(at.items())


def _components_less(buckets: Sequence[tuple[int, int]], beaten: int, low: int) -> list[int]:
    """The strong components, as vertex masks in condensation order, of a
    tournament less its vertex ``low`` (a one-bit mask) that beats
    ``beaten``, read off the tournament's degree buckets (_condense): the
    vertices that beat it drop one out-degree, the others keep theirs.  A
    bucket's droppers follow the keepers of the bucket below, whose
    out-degree is at most theirs, so the prefixes are read as _condense
    reads them; two runs of one out-degree may stand side by side, and a
    prefix cut between them is still a run of whole components."""
    parts: list[int] = []
    part = total = k = 0
    drops = ~beaten & ~low
    for d, vs in buckets:
        # the two runs are unrolled: a loop over them costs half as much again
        run = vs & drops
        if run:
            part |= run
            size = run.bit_count()
            k += size
            total += size * (d - 1)
            if total == k * (k - 1) // 2:
                parts.append(part)
                part = 0
        run = vs & beaten
        if run:
            part |= run
            size = run.bit_count()
            k += size
            total += size * d
            if total == k * (k - 1) // 2:
                parts.append(part)
                part = 0
    return parts[::-1]


def _condense(buckets: Iterable[tuple[int, int]]) -> list[tuple[int, list[tuple[int, int]]]]:
    """Each strong component, in condensation order, of a tournament given
    by its nonempty degree buckets in ascending out-degree
    (_strong_components), with the component's own degree buckets.

    A prefix of k vertices whose out-degrees sum to C(k, 2) loses to every
    other vertex, so it is a run of whole components wherever it is cut.
    A vertex beats every vertex of the later components, the ones the scan
    met first, so its out-degree within its own is its out-degree less
    their size."""
    parts: list[tuple[int, list[tuple[int, int]]]] = []
    run: list[tuple[int, int]] = []
    part = total = k = below = 0
    for d, vs in buckets:
        run.append((d - below, vs))
        part |= vs
        size = vs.bit_count()
        k += size
        total += size * d
        if total == k * (k - 1) // 2:
            parts.append((part, run))
            run = []
            part = 0
            below = k
    return parts[::-1]


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
        """Build from an orientation predicate evaluated on pairs i < j.

        ``beats`` is called once per pair, in row-major order, and the
        truth value of call k sets bit k.  The calls run in C: ``starmap``
        over the row-major pairs (kept for each n <= 64 in a 16-entry LRU,
        generated on the fly above that), and ``compress`` sums the powers
        in ``_PAIR_BITS`` that the truthy calls pick.  ``compress`` stops
        when the powers run out, so pairs past the first C(32, 2) are
        summed chunk by chunk and shifted into place; no tuple of
        O(pairs^2) bits is built at any n.

        The families are built from out-mask rows.  The library still builds
        from a predicate where perfbench counts the calls against the work:
        every extension the extension BFS tries, and ``concat``."""
        calls = starmap(beats, _row_major_pairs(n) if n <= 64 else combinations(range(n), 2))
        bits = sum(compress(_PAIR_BITS, calls))
        for shift in range(len(_PAIR_BITS), pair_count(n), len(_PAIR_BITS)):
            bits |= sum(compress(_PAIR_BITS, calls)) << shift
        return cls(n, bits)

    @classmethod
    def _from_out_masks(cls, out: Sequence[int]) -> "Tournament":
        """The tournament whose full out-masks are ``out``, kept on it."""
        t = cls(len(out), _pack(out))
        t._out = tuple(out)
        return t

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
        for extra in filter(str.strip, lines[2:]):  # blank lines may trail
            raise ValueError(f"unexpected line after the pair bits: {extra!r}")
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
        return bool(self.out_masks[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.out_masks[v].bit_count()

    def out_degrees(self) -> list[int]:
        return [m.bit_count() for m in self.out_masks]

    def _check_vertex(self, v: int) -> None:
        try:
            operator.index(v)
        except TypeError:
            raise ValueError(f"vertices must be integers, got {v!r}") from None
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- derived tournaments -----------------------------------------------

    def induced(self, vertices: Iterable[int]) -> "Tournament":
        """Sub-tournament on the given vertices, relabelled 0..k-1 in
        increasing order of original index (see ``_induced_out``)."""
        keep = k = 0
        for v in vertices:
            self._check_vertex(v)
            keep |= 1 << operator.index(v)
            k += 1
        if keep.bit_count() != k:
            raise ValueError("duplicate vertices in subset")
        return Tournament._from_out_masks(_induced_out(self.out_masks, keep))

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
        return Tournament._from_out_masks(out)

    def reverse(self) -> "Tournament":
        """Flip every edge."""
        return Tournament(self.n, self.bits ^ ((1 << pair_count(self.n)) - 1))

    # -- structural predicates ----------------------------------------------

    def is_transitive(self) -> bool:
        """True iff the beat relation is a strict total order."""
        return _transitive_on(self.out_masks, (1 << self.n) - 1)

    def is_strongly_connected(self) -> bool:
        """True iff every ordered vertex pair is joined by a directed path.

        Equivalently, no bipartition (A, B) with all edges A -> B exists.
        By convention n = 0 and n = 1 are strongly connected.
        """
        return len(_strong_components(self.out_masks)) <= 1

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
    o1, o2 = g1.out_masks, g2.out_masks
    return Tournament.from_beats(
        n1 + g2.n,
        lambda i, j: o1[i] >> j & 1 if j < n1 else i < n1 or o2[i - n1] >> (j - n1) & 1,
    )


def substitute(quotient: Tournament, parts: Sequence[Tournament]) -> Tournament:
    """Substitution: vertex a of ``quotient`` becomes the block ``parts[a]``,
    the blocks laid out in quotient order.  A pair inside a block keeps
    the block's orientation; a pair across blocks a and b takes the
    quotient's orientation of (a, b)."""
    if len(parts) != quotient.n:
        raise ValueError(
            f"need one part per quotient vertex: {quotient.n} vertices, {len(parts)} parts"
        )
    start = [0]  # start[a]: the first vertex of block a; start[-1] = n
    for p in parts:
        start.append(start[-1] + p.n)
    rows: list[int] = []
    for p, qa, s in zip(parts, quotient.out_masks, start):
        across = 0
        while qa:  # one span per run a..b-1 of consecutive quotient vertices
            low = qa & -qa
            top = qa + low  # the run cleared, bit b set
            a, b = low.bit_length() - 1, (top & -top).bit_length() - 1
            across |= (1 << start[b]) - (1 << start[a])
            qa &= top
        rows += [(o << s) | across for o in p.out_masks]
    return Tournament._from_out_masks(rows)


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
