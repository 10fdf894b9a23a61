"""Independent brute-force oracles used by the test suite.

Everything here except ``avoids_through_last`` avoids the library's
canonical-form machinery on purpose: permutation action, exhaustive subset
scans, and bipartition checks give second opinions for the fast
implementations.  ``avoids_through_last`` is the direct per-extension
pattern test (one induced sub-tournament and one canonical form per
subset), the reference for the extension BFS's per-base test.
"""

from __future__ import annotations

from itertools import combinations, permutations

from tourneykit import Tournament, canonical_form, pair_count, pair_index


def perm_images(n: int, code: int) -> set[int]:
    """All labelled codes obtainable by relabelling."""
    images = set()
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
        images.add(t)
    return images


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


def all_labelled(n: int):
    for code in range(1 << pair_count(n)):
        yield Tournament(n, code)


def avoids_through_last(t: Tournament, forbidden: dict[int, frozenset[str]]) -> bool:
    """No forbidden pattern (canonical lines by size) on a vertex set that
    contains the last vertex of t."""
    v = t.n - 1
    for size, lines in forbidden.items():
        if size > t.n:
            continue
        if size == 1:
            return False
        for rest in combinations(range(v), size - 1):
            if canonical_form(t.induced(rest + (v,))).bits in lines:
                return False
    return True


def extension(base: Tournament, mask: int) -> Tournament:
    """base plus a new last vertex that beats vertex i exactly when bit i
    of mask is set."""
    k = base.n
    return Tournament.from_beats(
        k + 1, lambda i, j: base.beats(i, j) if j < k else not (mask >> i) & 1
    )
