"""Canonical forms, isomorphism testing, automorphism counting.

The canonical form of a tournament is the lexicographically minimal
row-major pair-bit string over all n! vertex relabellings.  Two
tournaments are isomorphic exactly when their canonical forms coincide,
so sets of canonical codes (the ``Tournament.bits`` of the canonical
representative; only ``canonical_form`` renders the line) implement exact
unlabelled counting.

The search never enumerates all n! orders.  It grows the relabelling one
vertex at a time while maintaining an ordered partition of the remaining
vertices.  Placing vertex v fixes the next row of the string: within each
cell the still-free ordering puts v's in-neighbours (bit 0) before its
out-neighbours (bit 1), which both minimises the row and commits a cell
split.  Only the first cell's vertices that realise the minimal row are
children of a node, so every leaf whose line is lex-min is in the tree.
A row is one 0...01...1 segment per cell, of fixed width, so rows
compare as the vectors of out-counts per cell: the children are found by
narrowing the first cell one cell's count at a time, and only they get a
row and a refined partition.  The search runs on out-masks, which the
deletion closure derives for each child from its parent's.

The tree is walked depth first with an explicit stack of branch points,
the nodes with more than one tied child (no recursion), pruned in two
exact ways:

* prefix pruning: a node whose rows exceed the best leaf's rows at some
  depth is cut, since rows occupy earlier string positions than anything
  decided below it;
* orbit pruning: a leaf equal to the best leaf gives the automorphism
  gamma = leaf o best^-1, which fixes the common prefix pointwise and maps
  the best leaf's subtree onto the current one, so the current child is
  abandoned; the automorphisms fixing a node's prefix pointwise permute
  its tied children, so a child in the orbit of an explored sibling under
  the known and found automorphisms that fix the prefix is skipped.

The same walk counts the leaves that attain the canonical line, which
are exactly the automorphisms: each skipped or abandoned child counts as
its explored orbit mate, and the counts restart whenever a better leaf
is found.

The caller may hand the search automorphisms it already knows
(``canonical_code_and_automorphisms``); the deletion closure hands each
child the automorphisms of its parent that fix the deleted vertex.  The
search returns its canonical labelling (the best leaf's path) and the
automorphisms it knows, which generate the automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .tournament import Tournament, bits_to_line, bits_to_out_masks, line_to_bits


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Order-invariant fingerprint: equal forms <=> isomorphic tournaments.

    ``bits`` is exactly the .trn body line of the canonical representative,
    so forms are directly file-serializable.
    """

    n: int
    bits: str

    def to_tournament(self) -> Tournament:
        return Tournament(self.n, line_to_bits(self.bits))


def canonical_form(t: Tournament) -> CanonicalForm:
    return CanonicalForm(t.n, bits_to_line(t.n, _canon_code(t.n, t.bits)))


def is_isomorphic(t1: Tournament, t2: Tournament) -> bool:
    return canonical_form(t1) == canonical_form(t2)


def canonical_code(n: int, bits: int) -> int:
    """Canonical code of the tournament (n, bits), searched afresh.

    For callers whose inputs rarely repeat, such as the extension BFS's
    survivors, which would only fill the cache behind canonical_form.
    """
    return _search(bits_to_out_masks(n, bits))[0]


_canon_code = lru_cache(maxsize=1 << 17)(canonical_code)


def automorphism_order(t: Tournament) -> int:
    """Number of vertex permutations fixing the tournament.

    Counted by the canonical search as the leaves attaining the canonical
    line.
    """
    return _search(t.out_masks)[1]


def canonical_code_and_automorphisms(
    out: Sequence[int], known: Sequence[Sequence[int]] = ()
) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical code of the tournament with out-masks ``out`` and
    automorphisms of its canonical representative.

    ``known`` holds automorphisms of the tournament the caller already
    has, each as the tuple of vertex images; they prune the search and
    leave the code unchanged.  The automorphisms returned, the known ones
    among them, are written in the canonical labelling (vertex i is the
    i-th vertex of the line) and generate the automorphism group.
    """
    code, _, labelling, autos = _search(out, known)
    pos = [0] * len(out)
    for i, x in enumerate(labelling):
        pos[x] = i
    gens = dict.fromkeys(tuple([pos[g[x]] for x in labelling]) for g, _ in autos)
    return code, list(gens)


def orbit_mask(start: int, gens: Sequence[Sequence[int]]) -> int:
    """The vertices reached from the vertex mask ``start`` by the
    permutations ``gens``: its orbit under the group they generate."""
    orbit = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        x = low.bit_length() - 1
        for g in gens:
            y = 1 << g[x]
            if not orbit & y:
                orbit |= y
                frontier |= y
    return orbit


def _expand(
    out: Sequence[int], cells: tuple[int, ...]
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Minimal next row over the first cell's vertices, and each vertex
    attaining it, in ascending order, with the refined partition of the
    vertices left.

    A vertex's row is one 0...01...1 segment per cell (the first less the
    vertex) of fixed width, so rows compare as the vectors of the vertex's
    out-counts per cell.  The first cell's vertices are narrowed one cell
    at a time to those of least count, stopping once one is left; the row
    is built for the first survivor and the partitions for the survivors.
    """
    first = cells[0]
    rest = cells[1:]
    least = first.bit_count()
    cand: list[int] = []
    m = first
    while m:
        vbit = m & -m
        m ^= vbit
        v = vbit.bit_length() - 1
        c = (first & out[v]).bit_count()
        if c < least:
            least = c
            cand = [v]
        elif c == least:
            cand.append(v)
    if len(cand) > 1:
        for cell in rest:
            least = cell.bit_count() + 1
            keep: list[int] = []
            for v in cand:
                c = (cell & out[v]).bit_count()
                if c < least:
                    least = c
                    keep = [v]
                elif c == least:
                    keep.append(v)
            cand = keep
            if len(cand) == 1:
                break
    row = 0
    kids: list[tuple[int, tuple[int, ...]]] = []
    for v in cand:
        ov = out[v]
        op = first & ov
        ip = first ^ (1 << v) ^ op
        split = []
        if ip:
            split.append(ip)
        if op:
            split.append(op)
        if kids:
            for cell in rest:
                op = cell & ov
                ip = cell ^ op
                if ip:
                    split.append(ip)
                if op:
                    split.append(op)
        else:  # the first survivor also spells the row
            row = (1 << op.bit_count()) - 1
            for cell in rest:
                op = cell & ov
                ip = cell ^ op
                row = (row << cell.bit_count()) | ((1 << op.bit_count()) - 1)
                if ip:
                    split.append(ip)
                if op:
                    split.append(op)
        kids.append((v, tuple(split)))
    return row, kids


def _find(uf: list[int], x: int) -> int:
    while uf[x] != x:
        uf[x] = uf[uf[x]]
        x = uf[x]
    return x


class _Branch:
    """A search node whose tied children are explored one after another.

    Its kids are (vertex, refined cells); all of them have the row ``row``.
    ``total`` counts the leaves attaining the best line under finished
    kids and ``current`` those under the kid being explored; ``done``
    maps each finished kid to its count.  ``orbits`` is a union-find over
    vertices, joining kids that automorphisms fixing the node's prefix map
    onto each other.
    """

    __slots__ = ("depth", "kids", "row", "taken", "total", "current", "done", "orbits")

    def __init__(self, depth: int, kids: list, row: int):
        self.depth = depth
        self.kids = kids
        self.row = row
        self.taken = 1  # kids taken so far, the current one included
        self.total = 0
        self.current = 0
        self.done: dict[int | None, int] = {}
        self.orbits: list[int] | None = None

    def merge(self, gamma: Sequence[int]) -> None:
        """Join each kid's orbit with that of its image under gamma."""
        if self.orbits is None:
            self.orbits = list(range(len(gamma)))
        uf = self.orbits
        for kid in self.kids:
            a, b = _find(uf, kid[0]), _find(uf, gamma[kid[0]])
            if a != b:
                uf[max(a, b)] = min(a, b)


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _code(n: int, rows: list[int]) -> int:
    """The pair bits the rows spell: the rows' joint numeral, bit-reversed."""
    size = (n * (n - 1) // 2 + 7) // 8
    line = 0
    for width, row in zip(range(n - 1, 0, -1), rows):
        line = (line << width) | row
    line <<= 8 * size - n * (n - 1) // 2  # zeros below, to whole bytes
    return int.from_bytes(line.to_bytes(size, "big").translate(_REVERSED_BYTES), "little")


def _fixed_points(g: Sequence[int]) -> int:
    fixed = 0
    for x, y in enumerate(g):
        if x == y:
            fixed |= 1 << x
    return fixed


def _search(
    out: Sequence[int], known: Sequence[Sequence[int]] = ()
) -> tuple[int, int, list[int], list[tuple[Sequence[int], int]]]:
    """Canonical code, automorphism count, canonical labelling (the best
    leaf's path) and automorphisms of the tournament with out-masks
    ``out``, each as (images, mask of fixed points): the known ones, then
    those found."""
    n = len(out)
    if n <= 1:
        return 0, 1, list(range(n)), []
    last = n - 2  # depth of the final row; one vertex is left after it
    path: list[int] = []  # vertices placed so far
    rows: list[int] = []  # their rows
    best_rows: list[int] = []
    best_path: list[int] = []
    # (gamma, its fixed points)
    autos: list[tuple[Sequence[int], int]] = [(g, _fixed_points(g)) for g in known]
    # the bottom branch stands above the root and ends up holding |Aut|
    stack = [_Branch(-1, [(None, ())], 0)]
    better = True  # the path's rows beat the best leaf's (none yet)
    row, tied = _expand(out, ((1 << n) - 1,))
    while True:
        d = len(path)
        if not better and row != best_rows[d]:
            better = row < best_rows[d]
            if not better:
                tied = []  # cut: rows exceed the best leaf's
        if len(tied) > 1:
            branch = _Branch(d, tied, row)
            if autos:
                prefix = 0
                for p in path:
                    prefix |= 1 << p
                for gamma, fixed in autos:
                    if fixed & prefix == prefix:
                        branch.merge(gamma)
            stack.append(branch)
        if tied:
            v, cells = tied[0]
            rows.append(row)
            path.append(v)
            if d < last:
                row, tied = _expand(out, cells)
                continue
            path.append(cells[0].bit_length() - 1)  # a leaf
            if len(stack) == 1:  # no branch point above: the only leaf
                return _code(n, rows), 1, path, autos
            if better:
                better = False
                best_rows, best_path = rows[:], path[:]
                for b in stack:
                    b.total = b.current = 0
                    b.done = dict.fromkeys(b.done, 0)
                stack[-1].current = 1
            else:
                # gamma = leaf o best^-1 fixes the prefix the two leaves
                # share and maps the best leaf's kid at the branch point
                # where they part onto the current kid: abandon that kid,
                # counting it as its image.
                gamma = [0] * n
                for x, y in zip(best_path, path):
                    gamma[x] = y
                autos.append((gamma, _fixed_points(gamma)))
                div = 0
                while path[div] == best_path[div]:
                    div += 1
                while stack[-1].depth > div:
                    stack.pop()
                stack[-1].current = stack[-1].done[best_path[div]]
                for b in stack[1:]:
                    b.merge(gamma)
        # The deepest branch's current kid is finished: move on to its next
        # kid outside the orbits of the finished ones, popping spent branches.
        while True:
            b = stack[-1]
            b.total += b.current
            b.done[b.kids[b.taken - 1][0]] = b.current
            b.current = 0
            kid = None
            while b.taken < len(b.kids):
                kid = b.kids[b.taken]
                b.taken += 1
                uf = b.orbits
                if uf is None:
                    break
                r = _find(uf, kid[0])
                mate = next((c for u, c in b.done.items() if _find(uf, u) == r), None)
                if mate is None:
                    break
                b.total += mate
                kid = None
            if kid is not None:
                break
            stack.pop()
            if not stack:
                return _code(n, best_rows), b.total, best_path, autos
            stack[-1].current += b.total
        del path[b.depth :], rows[b.depth :]
        row, tied = b.row, [kid]
        better = False
