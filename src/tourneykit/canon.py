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
narrowing the first cell one cell's count at a time.  One function,
``_expand``, places a vertex: it builds the row and the refined
partition of a node's first child when the node is expanded, and of a
later child, handed to it as the resumed kid, when the walk takes that
child, so a skipped child costs none.  The search runs on
out-masks, which the deletion closure derives for each child from its
parent's, and the extension BFS for each kept extension from its base's.

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
  the known and found automorphisms that fix the prefix is skipped.  Each
  branch point keeps those that move one of its children, and the vertex
  mask of its finished children's orbits under them (``orbit_mask``),
  closed again whenever an equal leaf adds a generator.

Once every cell of a child's partition is a single vertex, every node
below it has one child and the rest of the path is forced.
``_forced_tail`` reads it off the cells in order without expanding the
nodes: each vertex's row is its out-bits to the vertices after it.  It
compares each row with the best leaf's as it reads it, so prefix pruning
still cuts the tail at its first larger row, and a tail that runs to the
end is a leaf like any other.

The same walk yields |Aut| by orbit-stabiliser: the product, over the
best leaf's branch points, of the size of the best child's orbit under
the finished branch's automorphisms, which is its orbit under all
automorphisms fixing the prefix (notes/decisions.md); a better leaf
restarts the product.

The caller may hand the search automorphisms it already knows
(``canonical_code_and_automorphisms``); the deletion closure hands each
child the automorphisms of its parent that fix the deleted vertex.  A
search handed none starts from the rotations of the module triangles
instead: rotating a cyclic triangle that every other vertex beats wholly
or loses to wholly is an automorphism, and ``_triangle_rotations`` finds
each such triangle with a few mask operations per vertex.  Stacked
triangles and moon towers owe most of their groups to these.  The
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
    return CanonicalForm(t.n, bits_to_line(t.n, _search(t.out_masks)[0]))


def is_isomorphic(t1: Tournament, t2: Tournament) -> bool:
    return t1.n == t2.n and _search(t1.out_masks)[0] == _search(t2.out_masks)[0]


def canonical_code(n: int, bits: int) -> int:
    """Canonical code of the tournament (n, bits), searched afresh.

    For callers whose inputs rarely repeat (the concatenation witnesses,
    the carved type-1 sub-tournaments); ``_canon_code`` caches it for the
    rest.
    """
    return _search(bits_to_out_masks(n, bits))[0]


_canon_code = lru_cache(maxsize=1 << 17)(canonical_code)


def automorphism_order(t: Tournament) -> int:
    """Number of vertex permutations fixing the tournament.

    The canonical search's product of the best leaf's orbit sizes.
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
    out: Sequence[int], cells: tuple[int, ...], kid: int | None = None
) -> tuple[int, list[int], tuple[int, ...]]:
    """Minimal next row over the first cell's vertices, the vertices
    attaining it in ascending order, and the first one's refined partition
    of the vertices left: each cell, the first less the vertex, split into
    its in-neighbours, then its out-neighbours.

    A vertex's row is one 0...01...1 segment per cell (the first less the
    vertex) of fixed width, so rows compare as the vectors of the vertex's
    out-counts per cell.  The first cell's vertices are narrowed one cell
    at a time to those of least count, stopping once one is left; the row
    and the partition are built for the first survivor, or, with no
    narrowing, for ``kid``, a tied vertex the walk resumes with.
    """
    first = cells[0]
    rest = cells[1:]
    if kid is None:
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
        kid = cand[0]
    else:
        cand = [kid]
    ov = out[kid]
    op = first & ov
    ip = first ^ (1 << kid) ^ op
    split = []
    if ip:
        split.append(ip)
    if op:
        split.append(op)
    row = (1 << op.bit_count()) - 1
    for cell in rest:
        op = cell & ov
        ip = cell ^ op
        row = (row << cell.bit_count()) | ((1 << op.bit_count()) - 1)
        if ip:
            split.append(ip)
        if op:
            split.append(op)
    return row, cand, tuple(split)


class _Branch:
    """A search node whose tied kids are explored one after another.

    ``kids`` is the mask of its tied vertices; a kid's row and partition
    are built from the node's ``cells`` when it is taken.  ``gens`` are
    the known automorphisms that fix the node's prefix and move some kid,
    and ``covered`` is the mask of the finished kids' orbits under them: a
    kid in it is skipped.
    """

    __slots__ = ("depth", "cells", "kids", "gens", "covered")

    def __init__(self, depth: int, cells: tuple[int, ...], kids: int, gens: list):
        self.depth = depth
        self.cells = cells
        self.kids = kids
        self.gens = gens
        self.covered = 0


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _code(n: int, rows: list[int]) -> int:
    """The pair bits the rows spell: the rows' joint numeral, bit-reversed."""
    size = (n * (n - 1) // 2 + 7) // 8
    line = 0
    for width, row in zip(range(n - 1, 0, -1), rows):
        line = (line << width) | row
    line <<= 8 * size - n * (n - 1) // 2  # zeros below, to whole bytes
    return int.from_bytes(line.to_bytes(size, "big").translate(_REVERSED_BYTES), "little")


def _triangle_rotations(out: Sequence[int]) -> list[tuple[int, ...]]:
    """The rotation a -> b -> c -> a, as the tuple of vertex images, of
    each cyclic triangle a -> b -> c -> a that is a module.

    Such a triangle dominates one set S of outside vertices, so out[a],
    out[b] and out[c] are S plus b, c and a: the three share an
    out-degree, ``out[a] ^ out[b]`` is {b, c} and ``out[c] ^ out[a]`` is
    {a, b}.  Conversely these two identities with b in out[a] force
    a -> b -> c -> a and equal out-sets outside the triangle, so each map
    returned is an automorphism.  Two module triangles never share a
    vertex, so each is found from its least vertex a, with b above a in
    a's out-degree class, and its other two vertices then leave the class.
    """
    group = [0] * len(out)  # the vertices of each out-degree
    vbit = 1
    for o in out:
        group[o.bit_count()] |= vbit
        vbit <<= 1
    rotations = []
    for left in group:
        if left.bit_count() < 3:
            continue
        while left:
            abit = left & -left
            left ^= abit
            a = abit.bit_length() - 1
            oa = out[a]
            cand = oa & left
            while cand:
                bbit = cand & -cand
                cand ^= bbit
                b = bbit.bit_length() - 1
                x = oa ^ out[b]  # holds b: in out[a], not in out[b]
                if x.bit_count() != 2:
                    continue
                c = (x ^ bbit).bit_length() - 1
                if out[c] ^ oa == abit | bbit:
                    g = list(range(len(out)))
                    g[a], g[b], g[c] = b, c, a
                    rotations.append(tuple(g))
                    left &= ~x
                    break
    return rotations


def _fixed_points(g: Sequence[int]) -> int:
    fixed = 0
    for x, y in enumerate(g):
        if x == y:
            fixed |= 1 << x
    return fixed


def _forced_tail(
    out: Sequence[int],
    cells: tuple[int, ...],
    rows: list[int],
    path: list[int],
    best_rows: list[int],
    better: bool,
) -> bool | None:
    """Finish the path whose partition ``cells`` is discrete.

    Each cell is one vertex, so each later node has one child, the
    vertex of its first cell, and the rest of the path is the cells in
    order.  The row of each is its out-bits to the vertices after it,
    first one most significant, as ``_expand`` spells it.  The rows go
    onto ``rows`` and the vertices onto ``path``.  Unless ``better``, each
    row is compared with the best leaf's at its depth as it is read, so a
    cut stops at the first larger row.  Returns None on a cut, else
    whether the leaf beats the best leaf.
    """
    d = len(rows)
    u = cells[0].bit_length() - 1
    for i in range(1, len(cells)):
        ou = out[u]
        row = 0
        for cell in cells[i:]:
            row <<= 1
            if ou & cell:
                row |= 1
        if not better and row != best_rows[d]:
            if row > best_rows[d]:
                return None
            better = True
        rows.append(row)
        path.append(u)
        d += 1
        u = cells[i].bit_length() - 1
    path.append(u)
    return better


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
    # (gamma, its fixed points); a cold search starts from the rotations of
    # the module triangles, a seeded one from what its caller knows
    autos: list[tuple[Sequence[int], int]] = [
        (g, _fixed_points(g)) for g in known or _triangle_rotations(out)
    ]
    stack: list[_Branch] = []  # the branch points on the path
    # |Aut| over the best leaf's finished branch points, and how many of the
    # stack's lowest branch points lie on the best leaf's path
    order, ancestors = 1, 0
    better = True  # the path's rows beat the best leaf's (none yet)
    node = ((1 << n) - 1,)  # the partition of the vertices left
    row, kids, cells = _expand(out, node)  # cells: kids[0]'s partition
    while True:
        d = len(path)
        if not better and row != best_rows[d]:
            better = row < best_rows[d]
            if not better:
                kids = []  # cut: rows exceed the best leaf's
        if len(kids) > 1:
            mask = 0
            for v in kids:
                mask |= 1 << v
            gens = []
            if autos:
                prefix = 0
                for p in path:
                    prefix |= 1 << p
                gens = [
                    g for g, fixed in autos if fixed & prefix == prefix and fixed & mask != mask
                ]
            stack.append(_Branch(d, node, mask, gens))
        if kids:
            rows.append(row)
            path.append(kids[0])
            if len(cells) <= last - d:
                node = cells
                row, kids, cells = _expand(out, node)
                continue
            # every cell is one vertex: the rest of the path is forced
            better = _forced_tail(out, cells, rows, path, best_rows, better)
            if better is not None:  # not cut: a leaf
                if not stack:  # no branch point above: the only leaf
                    return _code(n, rows), 1, path, autos
                if better:
                    better = False
                    best_rows, best_path = rows[:], path[:]
                    order, ancestors = 1, len(stack)
                else:
                    # gamma = leaf o best^-1 fixes the prefix the two leaves
                    # share and maps the best leaf's kid at the branch point
                    # where they part onto the current kid: abandon that kid.
                    gamma = [0] * n
                    for x, y in zip(best_path, path):
                        gamma[x] = y
                    fixed = _fixed_points(gamma)
                    autos.append((gamma, fixed))
                    div = 0
                    while path[div] == best_path[div]:
                        div += 1
                    while stack[-1].depth > div:
                        stack.pop()
                    for b in stack:
                        if fixed & b.kids != b.kids:  # gamma moves a kid of b
                            b.gens.append(gamma)
                            b.covered = orbit_mask(b.covered, b.gens)
        # The deepest branch's current kid is finished: its orbit joins the
        # covered kids, and the least kid outside them is taken next.  Spent
        # branches are popped; one on the best leaf's path multiplies in the
        # best kid's orbit.
        while True:
            b = stack[-1]
            b.covered |= orbit_mask(1 << path[b.depth], b.gens)
            left = b.kids & ~b.covered
            if left:
                break
            stack.pop()
            if len(stack) < ancestors:
                ancestors = len(stack)
                order *= orbit_mask(1 << best_path[b.depth], b.gens).bit_count()
            if not stack:
                return _code(n, best_rows), order, best_path, autos
        del path[b.depth :], rows[b.depth :]
        node = b.cells
        row, kids, cells = _expand(out, node, (left & -left).bit_length() - 1)
        better = False
