"""Canonical forms, isomorphism, automorphisms, induced containment."""

import hashlib
import math
import random
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    backtrack_automorphism_order,
    beam_canon_line,
    brute_automorphism_group,
    brute_automorphism_order,
    brute_contains_induced,
    brute_first_embedding,
    brute_isomorphic,
    brute_module_triangles,
    perm_images,
    reference_expand,
    reference_tail,
    relabelled_code,
    relabellings,
)
from tourneykit import (
    Tournament,
    automorphism_order,
    canonical_form,
    contains_induced,
    is_isomorphic,
    make_M,
    make_T,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    pair_count,
    pair_index,
    random_tournament,
)
from tourneykit import canon
from tourneykit.canon import (
    _expand,
    _search,
    _triangle_rotations,
    canonical_code_and_automorphisms,
)
from tourneykit.tournament import bits_to_line, line_to_bits, substitute
from tourneykit.verify import composition_seqs


def paley(p):
    """Quadratic-residue tournament on Z_p, p = 3 mod 4; p(p-1)/2 automorphisms."""
    qr = {(x * x) % p for x in range(1, p)}
    return Tournament.from_beats(p, lambda i, j: (j - i) % p in qr)


def relabelled(t, seed):
    perm = list(range(t.n))
    random.Random(seed).shuffle(perm)
    return t.relabel(perm)


def conjugate(g, p):
    """The permutation g after vertex i is renamed p[i]."""
    h = [0] * len(g)
    for x, y in enumerate(g):
        h[p[x]] = p[y]
    return tuple(h)


def compose(g, h):
    """g after h."""
    return tuple(g[x] for x in h)


def group_order(gens, n):
    """Order of the permutation group the generators generate, by listing it."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                gh = compose(g, h)
                if gh not in seen:
                    seen.add(gh)
                    new.append(gh)
        frontier = new
    return len(seen)


def with_odd_automorphism(n, rng):
    """A random tournament fixed by a random permutation sigma whose cycles
    all have odd length, and sigma.  Odd cycles never swap the two ends of
    a pair, so orienting one pair of each sigma-orbit fixes the others."""
    order = list(range(n))
    rng.shuffle(order)
    sigma = list(range(n))
    i = 0
    while i < n:
        r = rng.choice([r for r in (1, 3, 5) if i + r <= n])
        cycle = order[i : i + r]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        i += r
    beats = {}
    for i, j in combinations(range(n), 2):
        forward = rng.random() < 0.5
        while (i, j) not in beats:
            beats[i, j], beats[j, i] = forward, not forward
            i, j = sigma[i], sigma[j]
    return Tournament.from_beats(n, lambda i, j: beats[i, j]), tuple(sigma)


def tournaments(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << pair_count(n)) - 1)
        )
    )


class TestCanonicalForm:
    def test_relabelling_invariance(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randrange(0, 9)
            t = random_tournament(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(t) == canonical_form(t.relabel(perm))

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(60):
            t = random_tournament(rng.randrange(0, 10), rng)
            form = canonical_form(t)
            assert canonical_form(form.to_tournament()) == form

    def test_three_vertex_classes(self):
        forms = {canonical_form(Tournament(3, b)) for b in range(8)}
        assert len(forms) == 2

    def test_four_vertex_classes(self):
        forms = {canonical_form(Tournament(4, b)) for b in range(64)}
        assert len(forms) == 4

    def test_line_is_lexicographic_minimum(self):
        # full brute-force check of the canonical target on all 4-vertex codes
        for code in range(64):
            line = canonical_form(Tournament(4, code)).bits
            best = min(
                Tournament(4, img).body_line() for img in perm_images(4, code)
            )
            assert line == best

    def test_line_is_lexicographic_minimum_n5(self):
        from itertools import permutations

        perms = [list(p) for p in permutations(range(5))]
        for code in range(1 << 10):
            t = Tournament(5, code)
            got = canonical_form(t).bits
            assert got == min(t.relabel(p).body_line() for p in perms)

    def test_dominates_random_relabellings_on_hard_hosts(self):
        rng = random.Random(3)
        for t in (make_cyclic(16), make_moon_tower(3)):
            line = canonical_form(t).bits
            for _ in range(2000):
                p = list(range(t.n))
                rng.shuffle(p)
                assert line <= t.relabel(p).body_line()

    def test_serializes_as_trn_body(self):
        t = make_cyclic(5)
        form = canonical_form(t)
        assert form.to_tournament().body_line() == form.bits


# sha256 of canonical_form(t).bits, and automorphism_order(t), for inputs
# past the sizes the other tests search, the same for each seeded
# relabelling; a change to the search must leave them as they are
PINNED_LARGE = {
    "paley59": (
        lambda: paley(59),
        "32fe48aaaff5861f4ad9bf37602afb467847b2587981bf1e6bf2c1ae0cf173d1",
        59 * 29,
    ),
    "paley83": (
        lambda: paley(83),
        "371453a1fc10d337033838052cd39f93433749c1b7171aa7fd6f740b423f05ce",
        83 * 41,
    ),
    "random256": (
        lambda: random_tournament(256, 0),
        "63953bef2dfd1f9791e0d65dd4441b36d054e96b9111b021942fb9669bd804f0",
        1,
    ),
    "moon4": (
        lambda: make_moon_tower(4),
        "b04051e19dbdf80d06536074eb670a4767a93883ffd27e8367f949c1bfd1a716",
        3**40,
    ),
    "cyclic101": (
        lambda: make_cyclic(101),
        "cd8bd396bb8068e7b058ea70af4600d76dd5767ceeae83dd2223a6b38dea2568",
        101,
    ),
    "T3x20": (
        lambda: make_T((3,) * 20),
        "b07df51f3cf884fd9b5e4ac185f1bd5afc8ca16124cba15381b828f174d539d4",
        3**20,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LARGE))
def test_large_inputs_match_their_pins(name):
    build, digest, order = PINNED_LARGE[name]
    base = build()
    for seed in (1, 2):
        t = relabelled(base, seed)
        bits = canonical_form(t).bits
        assert hashlib.sha256(bits.encode()).hexdigest() == digest, (name, seed)
        assert automorphism_order(t) == order, (name, seed)


class TestAgainstBeamSearch:
    """The pruned depth-first search against the breadth-first reference."""

    def test_every_code_up_to_six_vertices(self):
        for n in range(7):
            for code in range(1 << pair_count(n)):
                t = Tournament(n, code)
                assert canonical_form(t).bits == beam_canon_line(t), (n, code)

    def test_random_codes_seven_to_ten_vertices(self):
        # random inputs reach the branches where a later child loses to the
        # best leaf part-way down, which small n rarely does
        rng = random.Random(11)
        for n in range(7, 11):
            for _ in range(1000):
                t = random_tournament(n, rng)
                line, order = canonical_form(t).bits, automorphism_order(t)
                assert line == beam_canon_line(t), t
                assert order == backtrack_automorphism_order(t), t

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_T((3,) * 7),
            lambda: paley(23),
            lambda: make_moon_tower(3),
            lambda: make_cyclic(16),
            lambda: random_tournament(40, 0),
        ],
        ids=["T3x7", "paley23", "moon3", "cyclic16", "random40"],
    )
    def test_relabelled_hard_families(self, build):
        t = build()
        want = beam_canon_line(t)
        for seed in range(3):
            assert canonical_form(relabelled(t, seed)).bits == want


def checked_expand(out, cells, kid=None):
    """``_expand`` on a node, asserted equal to the full-row reference: the
    same minimal row, the same tied kids in the same order, the first
    kid's partition, and for every kid v, ``_expand(out, cells, v)`` gives
    the same row, [v] and v's partition.  Returns the node's expansion,
    or with ``kid`` (a tied kid) that kid's."""
    got = _expand(out, cells)
    row, kids, first = got
    want_row, want_kids = reference_expand(out, cells)
    assert row == want_row, (out, cells)
    assert kids == [v for v, _ in want_kids], (out, cells)
    assert first == want_kids[0][1], (out, cells)
    for v, part in want_kids:
        assert _expand(out, cells, v) == (want_row, [v], part), (out, cells, v)
    if kid is None:
        return got
    assert kid in kids, (out, cells, kid)
    return _expand(out, cells, kid)


class TestExpand:
    """The narrowing node expansion against the full-row reference: the
    same minimal row, the same tied kids in the same order, and the same
    partition below each kid."""

    def test_random_ordered_partitions(self):
        rng = random.Random(14)
        for trial in range(4000):
            n = rng.randrange(1, 13)
            if trial % 2:  # symmetric inputs tie on many cells
                t, _ = with_odd_automorphism(n, rng)
            else:
                t = random_tournament(n, rng)
            vs = [v for v in range(n) if rng.random() < 0.8] or [rng.randrange(n)]
            rng.shuffle(vs)
            cells = []
            while vs:
                k = rng.randrange(1, len(vs) + 1)
                cells.append(sum(1 << v for v in vs[:k]))
                vs = vs[k:]
            checked_expand(t.out_masks, tuple(cells))

    @pytest.mark.parametrize(
        "build, symmetric",
        [
            (lambda: make_T((3,) * 6), True),
            (lambda: paley(11), True),
            (lambda: paley(23), True),
            (lambda: make_moon_tower(2), True),
            (lambda: random_tournament(24, 7), False),
            (lambda: random_tournament(24, 8), False),
        ],
        ids=["T3x6", "paley11", "paley23", "moon2", "random24a", "random24b"],
    )
    def test_every_node_of_a_search(self, build, symmetric, monkeypatch):
        kids = []

        def checked(out, cells, kid=None):
            got = checked_expand(out, cells, kid)
            if kid is None:
                kids.append(len(got[1]))
            return got

        monkeypatch.setattr(canon, "_expand", checked)
        for seed in range(3):
            t = relabelled(build(), seed)
            canon.canonical_code(t.n, t.bits)
        assert kids
        if symmetric:  # automorphisms tie whole rows
            assert max(kids) > 1


class TestPartitionsOnTake:
    """The search builds a kid's partition only when it takes the kid: the
    first kid's with its node's expansion, a later kid's from ``_expand``
    handed that kid when the walk resumes its branch point with it."""

    @pytest.mark.parametrize(
        "build",
        [lambda: make_T((3,) * 6), lambda: paley(23), lambda: make_moon_tower(2)],
        ids=["T3x6", "paley23", "moon2"],
    )
    def test_one_partition_per_kid_taken(self, build, monkeypatch):
        expand, tail = canon._expand, canon._forced_tail
        # ("made", partition) for each node's expansion and ("resumed",
        # partition) for each kid handed to _expand, with the partition it
        # built; ("took", partition) for each node entered below a taken kid
        events = []
        tied = []  # the tied kids of each expansion

        def counted_expand(out, cells, kid=None):
            if kid is not None:
                got = expand(out, cells, kid)
                events.append(("resumed", got[2]))
                return got
            events.append(("took", cells))
            got = expand(out, cells)
            tied.append(len(got[1]))
            events.append(("made", got[2]))
            return got

        def counted_tail(out, cells, *args):
            events.append(("took", cells))
            return tail(out, cells, *args)

        monkeypatch.setattr(canon, "_expand", counted_expand)
        monkeypatch.setattr(canon, "_forced_tail", counted_tail)
        resumed = 0
        for seed in range(3):
            t = relabelled(build(), seed)
            codes = set()
            # cold, and seeded with the identity alone, which leaves the
            # search to find the triangle rotations as equal leaves
            for known in ((), [tuple(range(t.n))]):
                events.clear()
                tied.clear()
                codes.add(_search(t.out_masks, known)[0])
                assert events[0] == ("took", ((1 << t.n) - 1,))  # the root
                resumes = [i for i, (kind, _) in enumerate(events) if kind == "resumed"]
                # each partition built for a resumed kid is the next one the
                # walk enters: the resume loop hands _expand one kid per kid
                # it takes, and only then
                for i in resumes:
                    assert events[i + 1][0] == "took", (seed, known, i)
                    assert events[i + 1][1] is events[i][1], (seed, known, i)
                # and every kid taken enters the partition built just before
                # it, so a resumed kid's comes from _expand, not from a store
                for i, (kind, part) in enumerate(events[1:], 1):
                    if kind == "took":
                        assert events[i - 1][0] != "took", (seed, known, i)
                        assert part is events[i - 1][1], (seed, known, i)
                taken = sum(kind == "took" for kind, _ in events) - 1
                built = len(tied) + len(resumes)
                assert built <= taken + len(tied), (seed, known, built, taken)
                # building every tied kid's partition would cost more
                assert built < sum(tied), (seed, known, built, sum(tied))
                resumed += len(resumes)
            assert len(codes) == 1, seed
        assert resumed  # the walk resumed some branch point


class TestIsomorphism:
    def test_relabelled_copy(self):
        t = random_tournament(7, 5)
        assert is_isomorphic(t, t.relabel([3, 1, 0, 6, 2, 5, 4]))

    def test_different_three_vertex(self):
        assert not is_isomorphic(make_T((1, 1, 1)), make_T((3,)))

    def test_m_family_base_is_triangle(self):
        assert is_isomorphic(make_M((1, 1, 1), 1), make_T((3,)))

    @given(tournaments(5), tournaments(5))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_permutation_search(self, t1, t2):
        assert is_isomorphic(t1, t2) == brute_isomorphic(t1, t2)


class TestAutomorphisms:
    def test_rigid_linear_order(self):
        for n in range(1, 8):
            assert automorphism_order(make_T((1,) * n)) == 1

    def test_cyclic_triangle(self):
        assert automorphism_order(make_T((3,))) == 3

    def test_moon_tower_level_two(self):
        assert automorphism_order(make_moon_tower(2)) == 81

    def test_rotational_prime_tournament(self):
        # quadratic-residue tournament on 11 vertices has 55 automorphisms
        qr = {1, 3, 4, 5, 9}
        paley = Tournament.from_beats(11, lambda i, j: (j - i) % 11 in qr)
        assert automorphism_order(paley) == 55

    def test_divides_factorial(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randrange(1, 8)
            t = random_tournament(n, rng)
            assert math.factorial(n) % automorphism_order(t) == 0

    def test_counts_all_fixing_permutations(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 6)
            t = random_tournament(n, rng)
            brute = sum(
                1 for p in permutations(range(n)) if t.relabel(list(p)) == t
            )
            assert automorphism_order(t) == brute

    def test_every_code_up_to_five_vertices(self):
        for n in range(6):
            for code in range(1 << pair_count(n)):
                got = automorphism_order(Tournament(n, code))
                assert got == brute_automorphism_order(n, code), (n, code)

    def test_orbit_stabiliser_on_every_six_vertex_code(self):
        # |Aut T| times the number of labelled codes isomorphic to T is 6!
        codes = range(1 << pair_count(6))
        reps = [canon.canonical_code(6, code) for code in codes]
        isomorphs = Counter(reps)
        for code, rep in zip(codes, reps):
            order = automorphism_order(Tournament(6, code))
            assert order * isomorphs[rep] == 720, code

    def test_stacked_triangles(self):
        for k in range(1, 13):
            t = relabelled(make_T((3,) * k), k)
            assert automorphism_order(t) == 3**k

    @pytest.mark.parametrize("p", [7, 11, 19, 23, 31, 43])
    def test_paley(self, p):
        assert automorphism_order(relabelled(paley(p), p)) == p * (p - 1) // 2

    def test_odd_cyclic(self):
        for n in range(1, 22, 2):
            t = relabelled(make_cyclic(n), n)
            assert automorphism_order(t) == n

    def test_moon_tower_level_three(self):
        assert automorphism_order(make_moon_tower(3)) == 3**13

    def test_deep_search_does_not_recurse(self):
        # n = 60 with 3^20 automorphisms: the unpruned tree has 3^20 leaves
        t = make_T((3,) * 20)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            a, b = relabelled(t, 1), relabelled(t, 2)
            assert canonical_form(a) == canonical_form(b)
            assert automorphism_order(a) == 3**20
        finally:
            sys.setrecursionlimit(limit)


class TestSeededSearch:
    """Automorphisms handed to the search prune it and change neither the
    line nor |Aut|."""

    def test_full_group_every_code_up_to_six_vertices(self):
        for n in range(7):
            done = set()
            for code in range(1 << pair_count(n)):
                if code in done:
                    continue
                group = brute_automorphism_group(n, code)
                for p, img in relabellings(n, code):
                    if img in done:
                        continue
                    done.add(img)
                    known = [conjugate(g, p) for g in group]
                    t = Tournament(n, img)
                    out = t.out_masks
                    code, order = _search(out)[:2]
                    assert code == line_to_bits(canonical_form(t).bits), (n, img)
                    assert _search(out, known)[:2] == (code, order), (n, img)
                    assert order == len(group)
                    if n <= 5:
                        assert order == brute_automorphism_order(n, img)

    def test_random_subgroups_of_random_codes(self):
        rng = random.Random(12)
        for trial in range(2000):
            n = rng.randrange(7, 13)
            if trial % 2:
                t, sigma = with_odd_automorphism(n, rng)
                full = [sigma]
            else:
                t, full = random_tournament(n, rng), []
            code, order, _, autos = _search(t.out_masks)
            full += [tuple(g) for g, _ in autos]
            for g in full:
                assert t.relabel(list(g)) == t
            pool = full or [tuple(range(n))]  # the identity, on rigid codes
            known = []
            for _ in range(rng.randrange(4)):
                word = tuple(range(n))
                for _ in range(rng.randrange(1, 4)):
                    word = compose(rng.choice(pool), word)
                known.append(word)
            assert _search(t.out_masks, known)[:2] == (code, order), (t, known)
            assert _search(t.out_masks, full)[:2] == (code, order), (t, full)

    def test_matches_the_full_row_search(self, monkeypatch):
        # code, |Aut|, labelling and automorphisms equal those of the same
        # walk expanding each node by full rows, forced tails included,
        # with and without known automorphisms; the labelling spells the code
        rng = random.Random(15)
        cases = [(relabelled(make_T((3,) * 4), 1), []), (relabelled(paley(11), 2), [])]
        for trial in range(400):
            n = rng.randrange(2, 13)
            if trial % 2:
                t, sigma = with_odd_automorphism(n, rng)
                cases.append((t, [sigma]))
            else:
                cases.append((random_tournament(n, rng), []))
        got = [(_search(t.out_masks), _search(t.out_masks, known)) for t, known in cases]
        ends = Counter()

        def walked(out, cells, rows, path, best_rows, better):
            leaf = reference_tail(out, cells, rows, path, best_rows, better)
            if not better:  # rows compared with the best leaf's
                ends["cut" if leaf is None else "better" if leaf else "equal"] += 1
            return leaf

        def expanded(out, cells, kid=None):
            row, kids = reference_expand(out, cells)
            if kid is None:
                return row, [v for v, _ in kids], kids[0][1]
            return row, [kid], dict(kids)[kid]

        monkeypatch.setattr(canon, "_expand", expanded)
        monkeypatch.setattr(canon, "_forced_tail", walked)
        want = [(_search(t.out_masks), _search(t.out_masks, known)) for t, known in cases]
        assert got == want
        # tails end in each of the three ways: cut, a better leaf, and an
        # equal leaf that yields an automorphism
        assert min(ends[e] for e in ("cut", "better", "equal")) > 0, ends
        for (t, _), (plain, seeded) in zip(cases, got):
            code, _, labelling, _ = plain
            assert seeded[:3] == plain[:3], t
            pos = [0] * t.n
            for i, x in enumerate(labelling):
                pos[x] = i
            assert t.relabel(pos).bits == code, t

    def test_planted_odd_automorphisms_against_oracles(self):
        # random codes are mostly rigid; a planted sigma makes nearly every
        # input here branch with a nontrivial group, so the orbit skip and
        # the abandoned kids decide |Aut|
        rng = random.Random(13)
        for trial in range(600):
            t, sigma = with_odd_automorphism(7 + trial % 6, rng)
            code, order = _search(t.out_masks)[:2]
            assert bits_to_line(t.n, code) == beam_canon_line(t), t
            assert order == backtrack_automorphism_order(t), t
            assert _search(t.out_masks, [sigma])[:2] == (code, order), (t, sigma)

    @pytest.mark.parametrize(
        "build, order",
        [(lambda k=k: make_T((3,) * k), 3**k) for k in range(1, 9)]
        + [
            (lambda: paley(11), 55),
            (lambda: paley(23), 253),
            (lambda: make_moon_tower(2), 3**4),
            (lambda: make_moon_tower(3), 3**13),
            (lambda: make_cyclic(15), 15),
        ],
        ids=[f"T3x{k}" for k in range(1, 9)]
        + ["paley11", "paley23", "moon2", "moon3", "cyclic15"],
    )
    def test_symmetric_families(self, build, order):
        t = relabelled(build(), 5)
        code, gens = canonical_code_and_automorphisms(t.out_masks)
        assert code == line_to_bits(canonical_form(t).bits)
        rep = Tournament(t.n, code)
        for g in gens:
            assert rep.relabel(list(g)) == rep
        if order <= 10**4:
            assert group_order(gens, t.n) == order
        rng = random.Random(order)
        for seed in range(3):
            p = list(range(t.n))
            random.Random(seed).shuffle(p)
            copy = rep.relabel(p)
            moved = [conjugate(g, p) for g in gens]
            for known in (moved, moved[:1], rng.sample(moved, len(moved) // 2)):
                assert _search(copy.out_masks, known)[:2] == (code, order)

    def test_generators_generate_the_group_up_to_six_vertices(self, classes_by_n):
        for n, members in classes_by_n.items():
            if n > 6:
                continue
            for t in members:
                _, gens = canonical_code_and_automorphisms(t.out_masks)
                assert group_order(gens, n) == automorphism_order(t), t


class TestClosedFormOrders:
    """|Aut| against the closed forms of the two substitution families."""

    def test_stacked_family(self):
        # notes/decisions.md: |Aut make_T(seq)| = 3^(number of 3s)
        for seq in composition_seqs(15):
            t = make_T(seq)
            copy = relabelled(t, str(seq))
            code, order = _search(copy.out_masks)[:2]
            assert order == 3 ** seq.count(3), seq
            assert code == _search(t.out_masks)[0], seq

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_moon_towers(self, level):
        t = relabelled(make_moon_tower(level), level)
        assert automorphism_order(t) == 3 ** ((3**level - 1) // 2)

    @pytest.mark.parametrize("m", [7, 9])
    def test_triangles_planted_in_cyclic_hosts(self, m):
        # cyclic(m) is prime, so the planted triangles and the single
        # vertices are the maximal modules: |Aut| is 3^k times the number
        # of rotations of Z_m that keep the chosen set.  The rotations
        # handed to the cold search merge the kids of branch points off the
        # best leaf's path too; only the path's orbits may enter |Aut|.
        rng = random.Random(m)
        for mask in range(1, 1 << m):
            chosen = {v for v in range(m) if mask >> v & 1}
            t = planted(make_cyclic(m), chosen)
            keep = sum({(v + r) % m for v in chosen} == chosen for r in range(m))
            for _ in range(2):
                copy = relabelled(t, rng.random())
                assert automorphism_order(copy) == 3 ** len(chosen) * keep, copy


def planted(host, chosen):
    """host with each vertex in chosen replaced by a cyclic triangle."""
    parts = [make_T((3,)) if v in chosen else Tournament(1) for v in range(host.n)]
    return substitute(host, parts)


def flipped(t, a, b):
    """t with the pair {a, b} reversed."""
    a, b = min(a, b), max(a, b)
    return Tournament(t.n, t.bits ^ (1 << pair_index(t.n, a, b)))


class TestTriangleRotations:
    """The rotations handed to cold searches are exactly those of the
    module triangles, each an automorphism, and they change no output."""

    def assert_exact(self, t):
        got = _triangle_rotations(t.out_masks)
        triangles = set()
        for g in got:
            assert relabelled_code(t.n, t.bits, g) == t.bits, (t, g)
            moved = [x for x in range(t.n) if g[x] != x]
            assert len(moved) == 3, (t, g)
            a = moved[0]
            assert t.beats(a, g[a]), (t, g)
            triangles.add((a, g[a], g[g[a]]))
        assert len(triangles) == len(got)
        assert triangles == brute_module_triangles(t), t
        return triangles

    def test_stacked_family(self):
        for seq in composition_seqs(12):
            t = relabelled(make_T(seq), str(seq))
            assert len(self.assert_exact(t)) == seq.count(3), seq

    def test_cyclic_blowups(self):
        rng = random.Random(21)
        for _ in range(60):
            sizes = [rng.randrange(0, 4) for _ in range(rng.choice((3, 5, 7)))]
            self.assert_exact(relabelled(make_cyclic_blowup(sizes), str(sizes)))

    def test_planted_triangles(self):
        rng = random.Random(22)
        for _ in range(150):
            host = random_tournament(rng.randrange(1, 10), rng)
            chosen = set(rng.sample(range(host.n), rng.randrange(1, host.n + 1)))
            t = planted(host, chosen)
            found = self.assert_exact(relabelled(t, rng.random()))
            assert len(found) >= len(chosen)

    def test_random_tournaments(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(400):
            t = random_tournament(rng.randrange(0, 12), rng)
            hits += bool(self.assert_exact(t))
        assert hits

    def test_one_splitting_vertex_yields_no_map(self):
        # make_T((3, 3)) with 3 -> 0 reversed: 3 beats 0 of the first
        # triangle and loses to 1 and 2, and 0 resumes the second the same way
        t = flipped(make_T((3, 3)), 0, 3)
        assert _triangle_rotations(t.out_masks) == []
        assert brute_module_triangles(t) == set()
        rng = random.Random(24)
        for _ in range(150):
            host = random_tournament(rng.randrange(2, 9), rng)
            x = rng.randrange(host.n)
            t = planted(host, {x})
            outside = rng.choice([v for v in range(t.n) if not x <= v < x + 3])
            split = flipped(t, x + rng.randrange(3), outside)
            assert (x, x + 1, x + 2) not in self.assert_exact(split)

    def test_search_without_them_agrees(self, classes_by_n, monkeypatch):
        inputs = [t for members in classes_by_n.values() for t in members]
        inputs += [relabelled(t, 7) for t in inputs]
        families = [make_T((3,) * 2), make_T((3,) * 3), paley(7), paley(11)]
        families += [make_moon_tower(2), random_tournament(16, 0), make_cyclic(7)]
        inputs += [relabelled(t, seed) for t in families for seed in range(3)]
        assert sum(bool(_triangle_rotations(t.out_masks)) for t in inputs) > 100
        got = [_search(t.out_masks)[:2] for t in inputs]
        monkeypatch.setattr(canon, "_triangle_rotations", lambda out: [])
        assert [_search(t.out_masks)[:2] for t in inputs] == got

    def test_they_leave_no_automorphism_to_find(self):
        # the rotations of the triangles off a prefix fix it pointwise and
        # generate its stabiliser in Aut make_T((3,) * k), so every branch
        # point's tied kids are one orbit under them: the search skips every
        # kid after the first and finds no automorphism by an equal leaf
        for k in range(1, 11):
            t = relabelled(make_T((3,) * k), k)
            code, order, _, autos = _search(t.out_masks)
            assert order == 3**k
            assert [g for g, _ in autos] == _triangle_rotations(t.out_masks), k


class TestContainment:
    def test_self_containment_is_identity(self):
        t = random_tournament(6, 9)
        w = contains_induced(t, t)
        assert w is not None and w.assignment == tuple(range(6))

    def test_acyclic_host_has_no_triangle(self):
        assert contains_induced(make_T((1,) * 5), make_T((3,))) is None

    def test_cyclic_host_contains_cycle(self):
        for n in (2, 3, 4, 5):
            w = contains_induced(make_M((1, 0, 0), n), make_cyclic(2 * n))
            assert w is not None
            assert w.validate(make_M((1, 0, 0), n), pattern=make_cyclic(2 * n))

    def test_known_embedding_of_cyclic_in_flag_host(self):
        # x_2, x_4, ..., x_2n then y_1..y_n induce the cyclic tournament
        for n in (3, 4, 5):
            host = make_M((1, 0, 0), n)
            subset = [2 * i + 1 for i in range(n)] + [2 * n + i for i in range(n)]
            assert is_isomorphic(host.induced(subset), make_cyclic(2 * n))

    @given(tournaments(6), tournaments(4))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_subset_scan(self, t, h):
        got = contains_induced(t, h)
        assert (got is not None) == brute_contains_induced(t, h)
        if got is not None:
            assert got.validate(t, pattern=h)

    @given(tournaments(6), tournaments(4))
    @settings(max_examples=80, deadline=None)
    def test_witness_is_lexicographically_first(self, t, h):
        got = contains_induced(t, h)
        assert (got.assignment if got else None) == brute_first_embedding(t, h)

    def test_long_pattern_does_not_recurse(self):
        t = make_T((1,) * 300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = contains_induced(t, t)
        finally:
            sys.setrecursionlimit(limit)
        assert got is not None and got.assignment == tuple(range(300))

    def test_witness_subsets_match_canonical_scan(self):
        rng = random.Random(4)
        for _ in range(20):
            t = random_tournament(7, rng)
            h = random_tournament(4, rng)
            present = canonical_form(h).bits in {
                canonical_form(t.induced(c)).bits
                for c in combinations(range(7), 4)
            }
            assert (contains_induced(t, h) is not None) == present
