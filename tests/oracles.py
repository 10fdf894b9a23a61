"""Independent brute-force oracles used by the test suite.

Everything here except ``avoids_through_last`` and
``unfiltered_avoidance_forms`` avoids the library's canonical-form
machinery on purpose: permutation action, exhaustive subset
scans, and bipartition checks give second opinions for the fast
implementations.  ``avoids_through_last`` is the direct per-extension
pattern test (one induced sub-tournament and one canonical form per
subset), the reference for the extension BFS's per-base test.
``beam_canon_line`` is the breadth-first canonical search that keeps every
branch attaining the minimal row, the reference for the pruned depth-first
search; ``pair_out_masks`` is the per-pair decode of the pair bits.
``reference_expand`` expands a node of that search by building every
first-cell vertex's full row, the reference for the narrowing expansion;
``reference_tail`` walks a discrete partition's forced tail node by node
through it, the reference for the search's direct read of the tail.
``unfiltered_avoidance_forms`` is the extension BFS without the
least-out-degree filter: it canonicalises every extension the per-base
pattern test lets through.  ``cycle_index_tournament_count`` and
``brute_labelled_count`` count unlabelled and labelled tournaments without
listing classes.  ``unpruned_hereditary_closure`` is the deletion BFS that
deletes every vertex of every member, the reference for the closure that
deletes one vertex per automorphism orbit.  ``relabelled_code`` moves a
labelled code by one permutation, and ``brute_module_triangles`` scans
every vertex triple for the cyclic triangles that are modules.
``brute_canonical_codes`` names each labelled code's class by the least
code over its relabellings, and ``brute_first_embedding`` scans injective
maps in lexicographic order.
``all_seeds_t_family_table`` seeds the stacked-family closure with every
composition, not only those of the largest sum.  ``reference_bits_to_line``
and ``reference_line_to_bits`` convert between packed pair bits and the
'0'/'1' body line one character at a time.  ``brute_strong_components``
groups the vertices by mutual reachability, the reference for the
score-sequence kernel, and ``reference_substitute`` ORs in one block span
per quotient arc, the reference for the substitution by runs.
``reference_reconstruct_S`` orders the vertices group by group (a tied
pair by its edge, a triple by index) before reading S off the degrees,
and ``carved_type1_subs`` carves the chain-plus-y sub-tournaments out of a
type-1 structure with ``induced``: the references for ``reconstruct_S``
and ``type1_tn_classes``.  ``brute_witness_valid`` checks a witness of each
structure kind against its definition (``brute_is_chain``,
``brute_is_type1``, ``brute_is_type2``, or an induced embedding), the
reference for ``StructureWitness.validate``.  ``reference_from_beats``
packs a predicate's pair bits in a Python double loop, the reference for
``Tournament.from_beats``.  ``reference_induced`` reads a sub-tournament's
pair bits one ``beats`` call at a time, the reference for the out-mask
squeeze behind ``Tournament.induced``.  ``reference_blocks`` groups the
vertices into the classes of the homogeneous-pair relation, each C(u, v)
tested from its definition, the reference for ``decompose``'s chains of
twin pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd

import numpy as np

from tourneykit import (
    FamilyMembershipError,
    Tournament,
    canonical_form,
    make_T,
    make_type1,
    pair_count,
    pair_index,
)
from tourneykit.speed import SpeedTable, _rejected_masks, hereditary_closure
from tourneykit.tournament import _pack, line_to_bits
from tourneykit.verify import composition_seqs


def reference_bits_to_line(n: int, bits: int) -> str:
    """The .trn body line of packed pair bits, character k from bit k."""
    return "".join("1" if (bits >> k) & 1 else "0" for k in range(pair_count(n)))


def reference_line_to_bits(line: str) -> int:
    """Packed pair bits of a .trn body line, bit k from character k."""
    bits = 0
    for k, ch in enumerate(line):
        if ch == "1":
            bits |= 1 << k
        elif ch != "0":
            raise ValueError(f"invalid pair-bit character {ch!r}")
    return bits


def reference_from_beats(n: int, beats) -> int:
    """Packed pair bits of the predicate ``beats`` on pairs i < j, one call
    per pair in row-major order, bit k set when call k is truthy."""
    bits = 0
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if beats(i, j):
                bits |= 1 << k
            k += 1
    return bits


def reference_induced(t: Tournament, vs) -> Tournament:
    """The sub-tournament of t on the vertices vs, relabelled in increasing
    order: one ``t.beats`` call per pair, the pair bits joined as a line."""
    vs = sorted(vs)
    line = [
        "1" if t.beats(u, w) else "0" for a, u in enumerate(vs) for w in vs[a + 1 :]
    ]
    return Tournament(len(vs), int("".join(line)[::-1], 2) if line else 0)


def relabelled_code(n: int, code: int, p) -> int:
    """The labelled code with vertex i renamed p[i], moved one pair bit at
    a time; p is an automorphism exactly when this returns code."""
    t = 0
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            bit = (code >> k) & 1
            a, b = p[i], p[j]
            if a > b:
                a, b = b, a
                bit ^= 1
            t |= bit << pair_index(n, a, b)
            k += 1
    return t


def _relabelled_codes(n: int, code: int):
    """The labelled code under each of the n! relabellings, in turn."""
    for p in permutations(range(n)):
        yield relabelled_code(n, code, p)


def relabellings(n: int, code: int):
    """(p, the labelled code with vertex i renamed p[i]) for each of the
    n! permutations p, in turn."""
    return zip(permutations(range(n)), _relabelled_codes(n, code))


def brute_automorphism_group(n: int, code: int) -> list[tuple[int, ...]]:
    """Every permutation that maps the labelled code to itself."""
    return [p for p, img in relabellings(n, code) if img == code]


def perm_images(n: int, code: int) -> set[int]:
    """All labelled codes obtainable by relabelling."""
    return set(_relabelled_codes(n, code))


def brute_automorphism_order(n: int, code: int) -> int:
    """Number of permutations that map the labelled code to itself."""
    return sum(img == code for img in _relabelled_codes(n, code))


def backtrack_automorphism_order(t: Tournament) -> int:
    """Number of automorphisms, counted by extending partial vertex maps
    that keep out-degrees and every orientation among mapped vertices."""
    n = t.n
    out = pair_out_masks(t)
    img = [0] * n

    def extend(v: int, used: int) -> int:
        if v == n:
            return 1
        count = 0
        for w in range(n):
            if (used >> w) & 1 or out[w].bit_count() != out[v].bit_count():
                continue
            if all(((out[u] >> v) & 1) == ((out[img[u]] >> w) & 1) for u in range(v)):
                img[v] = w
                count += extend(v + 1, used | (1 << w))
        return count

    return extend(0, 0)


def labelled_orbit_class_count(n: int) -> int:
    """Unlabelled count by orbit sweep over every labelled tournament."""
    total = 1 << pair_count(n)
    seen = bytearray(total)
    classes = 0
    for code in range(total):
        if seen[code]:
            continue
        classes += 1
        for img in perm_images(n, code):
            seen[img] = 1
    return classes


def brute_isomorphic(t1: Tournament, t2: Tournament) -> bool:
    if t1.n != t2.n:
        return False
    return t2.bits in perm_images(t1.n, t1.bits)


def brute_contains_induced(t: Tournament, h: Tournament) -> bool:
    if h.n > t.n:
        return False
    return any(
        brute_isomorphic(t.induced(sub), h)
        for sub in combinations(range(t.n), h.n)
    )


def brute_first_embedding(t: Tournament, h: Tournament) -> tuple[int, ...] | None:
    """The lexicographically least assignment of host vertices to pattern
    vertices that induces h, by a scan of every injective map."""
    for img in permutations(range(t.n), h.n):
        if all(
            h.beats(p, q) == t.beats(img[p], img[q])
            for p, q in combinations(range(h.n), 2)
        ):
            return img
    return None


def brute_sub_classes(t: Tournament, k: int) -> tuple[str, ...]:
    """Sorted canonical lines of the k-vertex induced sub-tournaments, one
    canonical_form per subset."""
    return tuple(sorted({
        canonical_form(t.induced(s)).bits for s in combinations(range(t.n), k)
    }))


def brute_canonical_codes(n: int) -> list[int]:
    """Entry c: the least labelled code over the relabellings of code c.

    Codes are swept in increasing order, so the first code of an orbit
    not yet marked is its least member."""
    total = 1 << pair_count(n)
    least = [-1] * total
    for code in range(total):
        if least[code] < 0:
            for img in perm_images(n, code):
                least[img] = code
    return least


def brute_has_cyclic_triangle(t: Tournament) -> bool:
    for a, b, c in combinations(range(t.n), 3):
        ab, bc, ca = t.beats(a, b), t.beats(b, c), t.beats(c, a)
        if ab == bc == ca:
            return True
    return False


def brute_module_triangles(t: Tournament) -> set[tuple[int, int, int]]:
    """Each cyclic triangle a -> b -> c -> a that every outside vertex
    beats wholly or loses to wholly, as (a, b, c) with a its least vertex."""
    found = set()
    for a, b, c in combinations(range(t.n), 3):
        if not (t.beats(a, b) == t.beats(b, c) == t.beats(c, a)):
            continue
        if all(
            t.beats(x, a) == t.beats(x, b) == t.beats(x, c)
            for x in range(t.n)
            if x not in (a, b, c)
        ):
            found.add((a, b, c) if t.beats(a, b) else (a, c, b))
    return found


def brute_strongly_connected(t: Tournament) -> bool:
    """No bipartition (A, B), both non-empty, with all edges A -> B."""
    n = t.n
    if n <= 1:
        return True
    for amask in range(1, (1 << n) - 1):
        a = [v for v in range(n) if (amask >> v) & 1]
        b = [v for v in range(n) if not (amask >> v) & 1]
        if all(t.beats(x, y) for x in a for y in b):
            return False
    return True


def brute_strong_components(t: Tournament) -> list[int]:
    """The classes of mutual reachability, as vertex masks, each found by
    a closure over the per-pair decode; ordered by how many vertices a
    member reaches, most first, which puts each before those it beats."""
    out = pair_out_masks(t)
    reach = []
    for v in range(t.n):
        seen = 1 << v
        grown = True
        while grown:
            nxt = seen
            for u in range(t.n):
                if seen >> u & 1:
                    nxt |= out[u]
            grown, seen = nxt != seen, nxt
        reach.append(seen)
    classes = {}
    for v in range(t.n):
        key = sum(1 << u for u in range(t.n) if reach[v] >> u & 1 and reach[u] >> v & 1)
        classes[key] = reach[v].bit_count()
    return sorted(classes, key=lambda c: -classes[c])


def reference_blocks(t: Tournament) -> tuple[frozenset[int], ...]:
    """The classes of the homogeneous-pair relation, by least vertex.

    For u -> v, C(u, v) = {u, v} + {w : u -> w -> v}; the pair is
    homogeneous when no three vertices of the middle form a cyclic
    triangle and every vertex outside C beats all of C or loses to all
    of it.  Raises AssertionError if the relation is not an equivalence.
    """
    n = t.n
    beat = [[u != v and t.beats(u, v) for v in range(n)] for u in range(n)]

    def homogeneous(u: int, v: int) -> bool:
        if not beat[u][v]:
            u, v = v, u
        mid = [w for w in range(n) if beat[u][w] and beat[w][v]]
        if any(beat[a][b] == beat[b][c] == beat[c][a] for a, b, c in combinations(mid, 3)):
            return False
        cuv = [u, v, *mid]
        return all(len({beat[x][y] for y in cuv}) == 1 for x in range(n) if x not in cuv)

    related = [{u} for u in range(n)]
    for u, v in combinations(range(n), 2):
        if homogeneous(u, v):
            related[u].add(v)
            related[v].add(u)
    classes = []
    for u in range(n):
        if any(u in c for c in classes):
            continue
        if any(related[v] != related[u] for v in related[u]):
            raise AssertionError(f"the relation is not an equivalence at vertex {u}")
        classes.append(frozenset(related[u]))
    return tuple(classes)


def reference_substitute(quotient: Tournament, parts) -> Tournament:
    """Substitution with one block span ORed in per arc of the quotient."""
    spans = []
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


def _chain_order(t: Tournament, sub: tuple[int, ...]) -> list[int] | None:
    """Beat order of a subset if it induces a transitive tournament."""
    ordered = sorted(sub, key=lambda v: -sum(t.beats(v, w) for w in sub if w != v))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if not t.beats(ordered[i], ordered[j]):
                return None
    return ordered


def brute_type1(t: Tournament, k: int) -> bool:
    """Subset scan for a chain x_1..x_2k plus an alternating vertex y."""
    n = t.n
    if 2 * k + 1 > n:
        return False
    for sub in combinations(range(n), 2 * k + 1):
        for y in sub:
            xs = _chain_order(t, tuple(v for v in sub if v != y))
            if xs is None:
                continue
            if all(
                t.beats(y, xs[i]) != t.beats(y, xs[i + 1])
                for i in range(2 * k - 1)
            ):
                return True
    return False


def brute_type2(t: Tournament, k: int) -> bool:
    """Subset scan for a chain plus distinct sandwich vertices y_i with
    x_{2i} -> y_i -> x_{2i-1}."""
    n = t.n
    if 3 * k > n:
        return False
    for sub in combinations(range(n), 2 * k):
        xs = _chain_order(t, sub)
        if xs is None:
            continue
        rest = [v for v in range(n) if v not in sub]
        for ys in permutations(rest, k):
            if all(
                t.beats(xs[2 * i + 1], ys[i]) and t.beats(ys[i], xs[2 * i])
                for i in range(k)
            ):
                return True
    return False


def brute_first_type2(t: Tournament, k: int) -> tuple[int, ...] | None:
    """The lexicographically least assignment (x_1..x_2k, y_1..y_k) of a
    type-2 k-structure, by a scan of every injective map."""
    for img in permutations(range(t.n), 3 * k):
        xs, ys = img[: 2 * k], img[2 * k :]
        if all(t.beats(a, b) for a, b in combinations(xs, 2)) and all(
            t.beats(xs[2 * i + 1], ys[i]) and t.beats(ys[i], xs[2 * i])
            for i in range(k)
        ):
            return img
    return None


def brute_is_chain(t: Tournament, vs: tuple[int, ...]) -> bool:
    """Each vertex beats every later one: a transitive chain in beat order."""
    return all(t.beats(u, v) for u, v in combinations(vs, 2))


def brute_is_type1(t: Tournament, a: tuple[int, ...], flavor: int) -> bool:
    """a = (x_1..x_2k, y), k >= 1: a chain of the x's, y -> x_i iff
    x_{i+1} -> y, and y -> x_1 exactly when flavor is 1."""
    if len(a) < 3 or len(a) % 2 == 0:
        return False
    xs, y = a[:-1], a[-1]
    return (
        brute_is_chain(t, xs)
        and t.beats(y, xs[0]) == (flavor == 1)
        and all(t.beats(y, xs[i]) == t.beats(xs[i + 1], y) for i in range(len(xs) - 1))
    )


def brute_is_type2(t: Tournament, a: tuple[int, ...]) -> bool:
    """a = (x_1..x_2k, y_1..y_k): a chain of the x's and x_{2i} -> y_i ->
    x_{2i-1} for each i."""
    k = len(a) // 3
    xs, ys = a[: 2 * k], a[2 * k :]
    return (
        len(a) % 3 == 0
        and brute_is_chain(t, xs)
        and all(t.beats(xs[2 * i + 1], ys[i]) and t.beats(ys[i], xs[2 * i]) for i in range(k))
    )


def brute_witness_valid(
    t: Tournament, kind: str, a: tuple[int, ...], h: Tournament | None = None
) -> bool:
    """Whether the distinct host vertices a form a witness of that kind,
    each kind checked from its definition."""
    if len(set(a)) != len(a) or not all(0 <= v < t.n for v in a):
        return False
    if kind == "transitive":
        return brute_is_chain(t, a)
    if kind in ("type1-flavorA", "type1-flavorB"):
        return brute_is_type1(t, a, 1 if kind == "type1-flavorA" else 0)
    if kind == "type2":
        return brute_is_type2(t, a)
    if kind == "embedding":
        return h is not None and h.n == len(a) and all(
            h.beats(p, q) == t.beats(a[p], a[q]) for p, q in combinations(range(h.n), 2)
        )
    return False


def all_labelled(n: int):
    for code in range(1 << pair_count(n)):
        yield Tournament(n, code)


def avoids_through_last(t: Tournament, forbidden: dict[int, frozenset[int]]) -> bool:
    """No forbidden pattern (canonical codes by size) on a vertex set that
    contains the last vertex of t."""
    v = t.n - 1
    for size, codes in forbidden.items():
        if size > t.n:
            continue
        if size == 1:
            return False
        for rest in combinations(range(v), size - 1):
            if line_to_bits(canonical_form(t.induced(rest + (v,))).bits) in codes:
                return False
    return True


def extension(base: Tournament, mask: int) -> Tournament:
    """base plus a new last vertex that beats vertex i exactly when bit i
    of mask is set."""
    k = base.n
    return Tournament.from_beats(
        k + 1, lambda i, j: base.beats(i, j) if j < k else not (mask >> i) & 1
    )


def pair_out_masks(t: Tournament) -> tuple[int, ...]:
    """Out-neighbour masks decoded one pair bit at a time."""
    out = [0] * t.n
    k = 0
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if (t.bits >> k) & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            k += 1
    return tuple(out)


def beam_canon_line(t: Tournament) -> str:
    """Lex-min line by a breadth-first search over ordered partitions.

    Each depth keeps every partition whose placed vertex realises the
    minimal next row, merging identical partitions only, so its width
    grows with the automorphism group (3^k on make_T((3,) * k)).
    """
    n = t.n
    out = pair_out_masks(t)
    if n <= 1:
        return ""
    full = (1 << n) - 1
    states: set[tuple[int, ...]] = {(full,)}
    pieces: list[str] = []
    for depth in range(n - 1):
        width = n - 1 - depth
        best: int | None = None
        nxt: set[tuple[int, ...]] = set()
        for part in states:
            first = part[0]
            rest = part[1:]
            m = first
            while m:
                vbit = m & -m
                m ^= vbit
                ov = out[vbit.bit_length() - 1]
                row = 0
                cells: list[int] = []
                c0 = first ^ vbit
                scan = (c0, *rest) if c0 else rest
                for cell in scan:
                    op = cell & ov
                    ip = cell ^ op
                    row = (row << cell.bit_count()) | ((1 << op.bit_count()) - 1)
                    if ip:
                        cells.append(ip)
                    if op:
                        cells.append(op)
                if best is None or row < best:
                    best = row
                    nxt = {tuple(cells)}
                elif row == best:
                    nxt.add(tuple(cells))
        states = nxt
        pieces.append(format(best, f"0{width}b"))
    return "".join(pieces)


def reference_expand(
    out: tuple[int, ...], cells: tuple[int, ...]
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """The canonical search's node expansion with every candidate's full
    row: the minimal next row over the first cell's vertices, and each
    vertex attaining it, in ascending order, with the refined partition
    of the vertices left."""
    first = cells[0]
    rest = cells[1:]
    best = None
    kids: list[tuple[int, tuple[int, ...]]] = []
    m = first
    while m:
        vbit = m & -m
        m ^= vbit
        v = vbit.bit_length() - 1
        ov = out[v]
        op = first & ov
        ip = first ^ vbit ^ op
        row = (1 << op.bit_count()) - 1
        split = []
        if ip:
            split.append(ip)
        if op:
            split.append(op)
        for cell in rest:
            op = cell & ov
            ip = cell ^ op
            row = (row << cell.bit_count()) | ((1 << op.bit_count()) - 1)
            if ip:
                split.append(ip)
            if op:
                split.append(op)
        if best is None or row < best:
            best = row
            kids = [(v, tuple(split))]
        elif row == best:
            kids.append((v, tuple(split)))
    return best, kids


def reference_tail(
    out: tuple[int, ...],
    cells: tuple[int, ...],
    rows: list[int],
    path: list[int],
    best_rows: list[int],
    better: bool,
) -> bool | None:
    """The canonical search's forced tail walked one node at a time: each
    node expanded by ``reference_expand``, its only kid taken and its row
    compared with the best leaf's unless ``better``.  Rows and vertices go
    onto ``rows`` and ``path``.  Returns None when a row exceeds the best
    leaf's, else whether the leaf beats the best leaf."""
    while len(cells) > 1:
        row, kids = reference_expand(out, cells)
        if len(kids) != 1:
            raise ValueError(f"partition {cells} is not discrete")
        d = len(rows)
        if not better and row != best_rows[d]:
            if row > best_rows[d]:
                return None
            better = True
        v, cells = kids[0]
        rows.append(row)
        path.append(v)
    path.append(cells[0].bit_length() - 1)
    return better


def unfiltered_avoidance_forms(
    forbidden: list[Tournament], n_max: int
) -> dict[int, tuple[str, ...]]:
    """Level forms of the extension BFS that canonicalises every extension
    the per-base pattern test does not reject."""
    forb: dict[int, set[int]] = {}
    for h in forbidden:
        forb.setdefault(h.n, set()).add(line_to_bits(canonical_form(h).bits))
    forb_frozen = {size: frozenset(v) for size, v in forb.items()}
    levels = {1: set() if 1 in forb_frozen else {canonical_form(Tournament(1, 0)).bits}}
    for k in range(1, n_max):
        nxt = set()
        for line in sorted(levels[k]):
            base = Tournament(k, line_to_bits(line))
            rejected = _rejected_masks(base.out_masks, forb_frozen)
            for mask in range(1 << k):
                if not rejected >> mask & 1:
                    nxt.add(canonical_form(extension(base, mask)).bits)
        levels[k + 1] = nxt
    return {n: tuple(sorted(v)) for n, v in levels.items() if n <= n_max}


def all_seeds_t_family_table(sum_max: int, n_max: int) -> SpeedTable:
    """The stacked 1/3-block family's table with one seed per composition
    of every sum up to sum_max."""
    return hereditary_closure([make_T(seq) for seq in composition_seqs(sum_max)], n_max)


def unpruned_hereditary_closure(
    seeds: list[Tournament], n_max: int
) -> dict[int, tuple[str, ...]]:
    """Level forms of the deletion BFS that deletes every vertex of every
    member and canonicalises each deletion."""
    levels: dict[int, set[str]] = {}
    for s in seeds:
        levels.setdefault(s.n, set()).add(canonical_form(s).bits)
    for size in range(max(levels), 1, -1):
        child = levels.setdefault(size - 1, set())
        for line in levels.get(size, ()):
            t = Tournament(size, line_to_bits(line))
            for v in range(size):
                rest = [u for u in range(size) if u != v]
                child.add(canonical_form(t.induced(rest)).bits)
    return {n: tuple(sorted(v)) for n, v in levels.items() if n <= n_max}


def _odd_cycle_types(n: int, largest: int | None = None):
    """Cycle types {length: count} of the permutations of n points whose
    cycles all have odd length."""
    if n == 0:
        yield {}
        return
    top = n if largest is None else min(n, largest)
    for r in range(top if top % 2 else top - 1, 0, -2):
        for j in range(1, n // r + 1):
            for rest in _odd_cycle_types(n - j * r, r - 2):
                yield {r: j, **rest}


def cycle_index_tournament_count(n: int) -> int:
    """Unlabelled n-vertex tournaments, by Burnside over the symmetric group.

    A permutation fixes a tournament only if all its cycles are odd; then
    it fixes 2^e of them, e being its number of orbits on unordered pairs:
    (r - 1)/2 inside an r-cycle and gcd(r, s) between an r- and an
    s-cycle.  A type with j_r cycles of length r has n!/z members,
    z = prod r^j_r j_r!.
    """
    total = Fraction(0)
    for cycles in _odd_cycle_types(n):
        e = sum(jr * js * gcd(r, s) for r, jr in cycles.items() for s, js in cycles.items())
        e = (e - sum(cycles.values())) // 2
        z = 1
        for r, jr in cycles.items():
            z *= r**jr * factorial(jr)
        total += Fraction(2**e, z)
    if total.denominator != 1:
        raise ArithmeticError(f"Burnside sum {total} is not an integer")
    return int(total)


def brute_labelled_count(n: int, patterns: list[Tournament]) -> int:
    """Labelled n-vertex tournaments with no induced copy of any pattern,
    by a scan of all 2^C(n,2) codes against every relabelling of each
    pattern (n <= 7 keeps the scan small)."""
    codes = np.arange(1 << pair_count(n), dtype=np.int64)
    member = np.ones(len(codes), dtype=bool)
    for h in patterns:
        if h.n > n:
            continue
        bad = np.zeros(1 << pair_count(h.n), dtype=bool)
        bad[list(perm_images(h.n, h.bits))] = True
        for sub in combinations(range(n), h.n):
            induced = np.zeros_like(codes)
            for a, b in combinations(range(h.n), 2):
                bit = (codes >> pair_index(n, sub[a], sub[b])) & 1
                induced |= bit << pair_index(h.n, a, b)
            member &= ~bad[induced]
    return int(member.sum())


def reference_reconstruct_S(t: Tournament, shape: tuple[int, int]) -> frozenset[int]:
    """reconstruct_S with the vertex order spelled out: groups of one
    out-degree in descending order, a tied pair ordered by the edge between
    them, the single permitted triple by index; S is the positions whose
    vertex's degree differs from the transitive profile n - i."""
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
    s = frozenset(i + 1 for i, v in enumerate(order) if degs[v] != n - (i + 1))
    if len(s) != 2 * tt:
        raise FamilyMembershipError(
            f"recovered {len(s)} reversal endpoints, expected {2 * tt}"
        )
    return s


def carved_type1_subs(n: int) -> list[Tournament]:
    """The chain-plus-y sub-tournaments of make_type1(n, 1), one x per
    chain pair: for i = 1..n-1, pair i's odd pick x_{2i-1} when bit i - 1
    of the index is set, its even pick x_{2i} otherwise, then y."""
    t = make_type1(n, 1)
    y = 2 * n
    subs = []
    for bits in range(1 << (n - 1)):
        subset = [y]
        for i1 in range(1, n):
            picked = 2 * i1 - 2 if (bits >> (i1 - 1)) & 1 else 2 * i1 - 1
            subset.append(picked)
        subs.append(t.induced(subset))
    return subs
