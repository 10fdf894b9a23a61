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
first-cell vertex's full row, the reference for the narrowing expansion.
``unfiltered_avoidance_forms`` is the extension BFS without the
least-out-degree filter: it canonicalises every extension the per-base
pattern test lets through.  ``cycle_index_tournament_count`` and
``brute_labelled_count`` count unlabelled and labelled tournaments without
listing classes.  ``unpruned_hereditary_closure`` is the deletion BFS that
deletes every vertex of every member, the reference for the closure that
deletes one vertex per automorphism orbit.  ``brute_canonical_codes``
names each labelled code's class by the least code over its relabellings,
and ``brute_first_embedding`` scans injective maps in lexicographic order.
``all_seeds_t_family_table`` seeds the stacked-family closure with every
composition, not only those of the largest sum.  ``reference_bits_to_line``
and ``reference_line_to_bits`` convert between packed pair bits and the
'0'/'1' body line one character at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd

import numpy as np

from tourneykit import Tournament, canonical_form, make_T, pair_count, pair_index
from tourneykit.speed import SpeedTable, _rejected_masks, hereditary_closure
from tourneykit.tournament import line_to_bits
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


def _relabelled_codes(n: int, code: int):
    """The labelled code under each of the n! relabellings, in turn."""
    for p in permutations(range(n)):
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
        yield t


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
            rejected = _rejected_masks(base, forb_frozen)
            for mask in range(1 << k):
                if not rejected >> mask & 1:
                    nxt.add(canonical_form(extension(base, mask)).bits)
        levels[k + 1] = nxt
    return {n: tuple(sorted(v)) for n, v in levels.items() if n <= n_max}


def all_seeds_t_family_table(sum_max: int, n_max: int) -> SpeedTable:
    """The stacked 1/3-block family's table with one seed per composition
    of every sum up to sum_max."""
    return hereditary_closure(
        [make_T(seq) for seq in composition_seqs(sum_max)],
        n_max,
        seed_description=f"stacked 1/3 blocks, sums <= {sum_max}",
    )


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
    assert total.denominator == 1, total
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
