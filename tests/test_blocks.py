"""Homogeneous pairs, decomposition, separation, and the exponent estimate."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_labelled, reference_blocks, reference_substitute
from tourneykit import (
    BlockDecomposition,
    BlockRelationError,
    FlagTriple,
    SeparationError,
    Tournament,
    block_count,
    decompose,
    estimate_k,
    hereditary_closure,
    is_homogeneous_pair,
    make_M,
    make_T,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
    pair_count,
    random_tournament,
    separate_blocks,
    substitute,
)
from tourneykit import blocks
from tourneykit.verify import composition_seqs, t_family_table


def tournaments(max_n=8):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << pair_count(n)) - 1)
        )
    )


def transitive(n):
    return make_T((1,) * n)


class TestHomogeneousPair:
    def test_transitive_ends_join_through_middle(self):
        assert is_homogeneous_pair(transitive(3), 0, 2) == frozenset({0, 1, 2})

    def test_reflexive(self):
        assert is_homogeneous_pair(transitive(3), 1, 1) == frozenset({1})

    def test_triangle_has_none(self):
        cyc = make_T((3,))
        for u in range(3):
            for v in range(u + 1, 3):
                assert is_homogeneous_pair(cyc, u, v) is None

    def test_cyclic4_middle_pair(self):
        # vertices 0->1->2->3->0 with 0->2 and 1->3: {1, 2} is homogeneous
        t = make_cyclic(4)
        assert is_homogeneous_pair(t, 1, 2) == frozenset({1, 2})
        assert is_homogeneous_pair(t, 0, 1) is None

    def test_symmetric(self):
        rng = random.Random(0)
        for _ in range(50):
            t = random_tournament(rng.randrange(2, 8), rng)
            for u in range(t.n):
                for v in range(t.n):
                    assert is_homogeneous_pair(t, u, v) == is_homogeneous_pair(
                        t, v, u
                    )


class TestDecompose:
    def test_transitive_single_block(self):
        for n in range(1, 8):
            assert decompose(transitive(n)).sequence == (n,)

    def test_triangle_three_singletons(self):
        assert decompose(make_T((3,))).sequence == (1, 1, 1)

    def test_cyclic4_sequence(self):
        assert decompose(make_cyclic(4)).sequence == (2, 1, 1)

    def test_relation_transitive_exhaustively(self, classes_by_n):
        # decompose() raises if a chain of twin pairs is not C(u, v) of its ends
        for n in range(1, 7):
            for t in classes_by_n[n]:
                decompose(t)

    def test_quotient_all_singletons(self, classes_by_n):
        for n in range(1, 7):
            for t in classes_by_n[n]:
                q = decompose(t).quotient
                assert all(len(b) == 1 for b in decompose(q).blocks)

    def test_quotient_all_singletons_fuzz(self):
        rng = random.Random(5)
        for _ in range(300):
            t = random_tournament(rng.randrange(1, 9), rng)
            q = decompose(t).quotient
            assert decompose(q).sequence == (1,) * q.n

    def test_cross_block_uniformity(self):
        rng = random.Random(6)
        for _ in range(200):
            t = random_tournament(rng.randrange(1, 9), rng)
            dec = decompose(t)
            for i, b1 in enumerate(dec.blocks):
                for b2 in dec.blocks[i + 1 :]:
                    dirs = {t.beats(u, v) for u in b1 for v in b2}
                    assert len(dirs) == 1

    @given(tournaments(8), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_sequence_is_label_invariant(self, t, rnd):
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert decompose(t).sequence == decompose(t.relabel(perm)).sequence

    def test_blocks_induce_transitive(self):
        rng = random.Random(7)
        for _ in range(150):
            t = random_tournament(rng.randrange(1, 9), rng)
            for b in decompose(t).blocks:
                assert t.induced(sorted(b)).is_transitive()

    def test_a_relation_that_is_not_transitive_raises(self, monkeypatch):
        # 0 ~ 1 and 1 ~ 2 but not 0 ~ 2: 0 -> 1 -> 2 is a chain of twin
        # pairs whose ends the faulty kernel calls not homogeneous, and the
        # re-check must catch it
        chain = ({0, 1}, {1, 2})
        monkeypatch.setattr(
            blocks, "_homogeneous", lambda out, u, v: 1 if {u, v} in chain else 0
        )
        with pytest.raises(BlockRelationError):
            decompose(transitive(3))


def _assert_reference_blocks(t):
    # blocks, representatives, quotient and sequence, each rebuilt from
    # the oracle's classes
    blocks = reference_blocks(t)
    reps = tuple(min(b) for b in blocks)
    quotient = Tournament.from_beats(len(reps), lambda i, j: t.beats(reps[i], reps[j]))
    sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
    assert decompose(t) == BlockDecomposition(blocks, reps, quotient, sizes), t


def _relabelled(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    return t.relabel(perm)


class TestDecomposeEqualsReference:
    def test_every_labelled_tournament(self):
        for n in range(7):
            for t in all_labelled(n):
                _assert_reference_blocks(t)

    def test_every_class(self, all_classes_8):
        for n in all_classes_8.levels():
            for t in all_classes_8.members(n):
                _assert_reference_blocks(t)

    def test_relabelled_stacked_family(self):
        rng = random.Random(11)
        for seq in composition_seqs(14):
            _assert_reference_blocks(_relabelled(make_T(seq), rng))

    def test_relabelled_blowups(self):
        rng = random.Random(12)
        for _ in range(300):
            sizes = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 7))]
            _assert_reference_blocks(_relabelled(make_cyclic_blowup(sizes), rng))

    def test_random_tournaments(self):
        rng = random.Random(13)
        for _ in range(200):
            _assert_reference_blocks(random_tournament(rng.randrange(1, 65), rng))
        for n in (96, 128):
            _assert_reference_blocks(random_tournament(n, rng))

    def test_flag_moon_and_type1_families(self):
        rng = random.Random(14)
        for flags in product((0, 1), repeat=3):
            for n in range(1, 6):
                _assert_reference_blocks(_relabelled(make_M(FlagTriple(*flags), n), rng))
        for level in range(1, 4):
            _assert_reference_blocks(_relabelled(make_moon_tower(level), rng))
        for k in range(1, 8):
            for flavor in (0, 1):
                _assert_reference_blocks(_relabelled(make_type1(k, flavor), rng))


def _assert_round_trip(t):
    # the blocks are uniform across, and the quotient is induced on the
    # block minima, so substituting the blocks into it rebuilds t with
    # the vertices in block order
    dec = decompose(t)
    order = [v for b in dec.blocks for v in sorted(b)]
    perm = [0] * t.n
    for pos, v in enumerate(order):
        perm[v] = pos
    parts = [t.induced(sorted(b)) for b in dec.blocks]
    assert substitute(dec.quotient, parts) == t.relabel(perm)


class TestSubstitute:
    def test_round_trip_on_every_labelled_tournament(self):
        for n in range(7):
            for t in all_labelled(n):
                _assert_round_trip(t)

    def test_round_trip_on_random_tournaments_and_blowups(self):
        rng = random.Random(10)
        for _ in range(100):
            _assert_round_trip(random_tournament(rng.randrange(1, 31), rng))
        for _ in range(100):
            sizes = [rng.randrange(0, 7) for _ in range(rng.randrange(1, 6))]
            t = make_cyclic_blowup(sizes)
            perm = list(range(t.n))
            rng.shuffle(perm)
            _assert_round_trip(t.relabel(perm))

    def test_against_one_span_per_arc(self):
        # random quotients whose parts include 0-vertex ones, which make
        # runs of quotient vertices that span no vertex at all
        rng = random.Random(22)
        for _ in range(500):
            q = random_tournament(rng.randrange(0, 13), rng)
            parts = [random_tournament(rng.choice((0, 0, 1, 1, 2, 3, 5)), rng) for _ in range(q.n)]
            assert substitute(q, parts) == reference_substitute(q, parts), (q, parts)
        for k in (1, 2, 40, 300):
            parts = [Tournament(1)] * k
            assert substitute(transitive(k), parts) == reference_substitute(transitive(k), parts)

    def test_parts_must_match_the_quotient(self):
        with pytest.raises(ValueError):
            substitute(make_T((3,)), [Tournament(1)] * 2)


class TestSeparateBlocks:
    def test_single_interruptor_case(self):
        # two transitive blocks plus one vertex beaten by the second block
        # and beating the first; the merged pair splits after adding it
        t = make_cyclic_blowup((3, 3, 1))
        bj, bl = frozenset(range(3)), frozenset(range(3, 6))
        a = bj | bl
        merged = decompose(t.induced(sorted(a)))
        assert merged.sequence == (6,)
        grown = separate_blocks(t, a, bj, bl)
        assert len(grown - a) == 1
        _assert_separated(t, grown, bj, bl)

    def test_precondition_violation(self):
        with pytest.raises(SeparationError):
            separate_blocks(
                transitive(4), frozenset(range(4)), frozenset({0}), frozenset({3})
            )

    def test_orientation_checked(self):
        t = make_cyclic_blowup((3, 3, 1))
        with pytest.raises(SeparationError):
            separate_blocks(
                t, frozenset(range(6)), frozenset(range(3, 6)), frozenset(range(3))
            )

    def test_random_instances(self):
        rng = random.Random(8)
        done = 0
        while done < 150:
            t = random_tournament(rng.randrange(4, 11), rng)
            dec = decompose(t)
            if len(dec.blocks) < 2:
                continue
            bj, bl = rng.sample(dec.blocks, 2)
            if not t.beats(min(bj), min(bl)):
                bj, bl = bl, bj
            base = bj | bl
            extras = [v for v in range(t.n) if v not in base and rng.random() < 0.3]
            a = base | set(extras)
            if not _is_merged(t, a, bj, bl):
                a = base
            if not _is_merged(t, a, bj, bl):
                continue
            grown = separate_blocks(t, a, bj, bl)
            assert len(grown - a) <= 3
            _assert_separated(t, grown, bj, bl)
            done += 1

    def test_iteration_terminates_in_three_rounds(self):
        rng = random.Random(9)
        done = 0
        while done < 60:
            t = random_tournament(rng.randrange(5, 11), rng)
            dec = decompose(t)
            if len(dec.blocks) < 3:
                continue
            targets = rng.sample(dec.blocks, 3)
            a = frozenset().union(*targets)
            rounds = 0
            while True:
                merged_pair = _find_merged_pair(t, a, targets)
                if merged_pair is None:
                    break
                bj, bl = merged_pair
                if not t.beats(min(bj), min(bl)):
                    bj, bl = bl, bj
                a = separate_blocks(t, a, bj, bl)
                rounds += 1
                assert rounds <= 3
            done += 1


def _positions(a, block):
    order = sorted(a)
    return {order.index(v) for v in block}


def _is_merged(t, a, bj, bl):
    dec = decompose(t.induced(sorted(a)))
    pj, pl = _positions(a, bj), _positions(a, bl)
    return any(b & pj and b & pl for b in dec.blocks)


def _find_merged_pair(t, a, targets):
    for i, bj in enumerate(targets):
        for bl in targets[i + 1 :]:
            if _is_merged(t, a, bj, bl):
                return bj, bl
    return None


def _assert_separated(t, a, bj, bl):
    assert not _is_merged(t, a, bj, bl)


class TestEstimateK:
    def test_transitive_family(self):
        table = hereditary_closure([transitive(12)], 12)
        assert estimate_k(table, 12) == 0

    def test_two_large_blocks(self):
        table = hereditary_closure([make_cyclic_blowup((12, 12, 1))], 12)
        assert estimate_k(table, 12) == 1

    def test_three_large_blocks(self):
        table = hereditary_closure([make_cyclic_blowup((8, 8, 8))], 12)
        assert estimate_k(table, 12) == 2

    def test_stacked_family(self):
        # runs of dominant singletons merge into large blocks, so the
        # stacked family reaches estimate 1 at level 12 (e.g. a 5-run and a
        # 4-run separated by one triangle)
        assert estimate_k(t_family_table(12, 12), 12) == 1

    def test_empty_level_rejected(self):
        table = hereditary_closure([transitive(4)], 4)
        with pytest.raises(ValueError):
            estimate_k(table, 9)


class TestBlockCount:
    def test_single_vertex(self):
        assert block_count(Tournament(1)) == 1

    def test_lemma_bound_shape(self):
        # members of a bounded-block property stay under the counting bound
        from math import comb

        table = hereditary_closure([make_cyclic_blowup((8, 8, 1))], 9)
        m_plus_1 = max(
            block_count(t) for n in table.levels() for t in table.members(n)
        )
        m = m_plus_1 - 1
        for n in table.levels():
            assert table.count(n) <= 2 ** (m_plus_1**2) * comb(n + m, m)
