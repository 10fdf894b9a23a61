"""Generators for the named families and their reconstruction inverses."""

import random
from itertools import permutations

import pytest

from tourneykit import (
    FamilyMembershipError,
    ReversalSpec,
    Tournament,
    canonical_form,
    concat,
    dn_membership,
    is_isomorphic,
    make_M,
    make_M_general,
    make_T,
    make_TS,
    make_Tstar,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
    reconstruct_S,
    reconstruct_seq,
)
from tourneykit.verify import composition_seqs

ALL_FLAGS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


class TestStackedFamily:
    def test_single_vertex(self):
        assert make_T((1,)) == Tournament(1)

    def test_single_triangle_is_cyclic(self):
        t = make_T((3,))
        assert t.beats(0, 1) and t.beats(1, 2) and t.beats(2, 0)

    def test_pair_of_triangles_is_concat(self):
        got = make_T((3, 3))
        assert canonical_form(got) == canonical_form(
            concat(make_T((3,)), make_T((3,)))
        )

    def test_rejects_bad_entry(self):
        with pytest.raises(ValueError):
            make_T((1, 2))

    def test_prefix_nesting(self):
        seq = (1, 3, 3, 1)
        for cut in range(1, len(seq)):
            pre = seq[:cut]
            assert make_T(seq).induced(range(sum(pre))) == make_T(pre)

    def test_shorter_sum_is_a_deletion_of_a_longer_one(self):
        # why the stacked-family closure needs only the seeds of the largest sum
        for seq in composition_seqs(12):
            assert make_T(seq) == make_T(seq + (1,)).delete(sum(seq)), seq

    def test_reconstruct_round_trip(self):
        for seq in composition_seqs(10):
            assert reconstruct_seq(make_T(seq)).terms == seq

    def test_reconstruct_triangle(self):
        assert reconstruct_seq(make_T((3,))).terms == (3,)

    def test_reconstruct_rejects_cyclic4(self):
        with pytest.raises(FamilyMembershipError):
            reconstruct_seq(make_cyclic(4))

    def test_encoding_injective_up_to_isomorphism(self):
        # distinct sequences with sum <= 12 give non-isomorphic tournaments
        forms = {}
        for seq in composition_seqs(12):
            f = canonical_form(make_T(seq))
            assert f not in forms, (seq, forms[f])
            forms[f] = seq


class TestFlagFamily:
    def test_base_is_triangle(self):
        assert is_isomorphic(make_M((1, 1, 1), 1), make_T((3,)))

    def test_all_ones_is_stacked_triangles(self):
        for n in (2, 3, 4):
            assert is_isomorphic(make_M((1, 1, 1), n), make_T((3,) * n))

    def test_nesting(self):
        for flags in ALL_FLAGS:
            for n in (1, 2, 3):
                big = make_M(flags, n + 1)
                subset = list(range(2 * n)) + [
                    2 * (n + 1) + j for j in range(n)
                ]
                assert big.induced(subset) == make_M(flags, n)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            make_M((1, 1, 1), 0)


class TestGeneralizedFlagFamily:
    def test_k3_matches_flag_family(self):
        for n in (1, 2, 3):
            assert is_isomorphic(make_M_general(3, n), make_M((1, 1, 1), n))

    def test_k4_single_layer(self):
        t = make_M_general(4, 1)
        reversed_pairs = [
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if not t.beats(i, j)
        ]
        assert reversed_pairs == [(0, 3)]

    def test_one_reversal_per_layer(self):
        for k in (3, 4, 5):
            t = make_M_general(k, 1)
            backs = sum(
                not t.beats(i, j) for i in range(k) for j in range(i + 1, k)
            )
            assert backs == 1

    def test_nesting(self):
        for k in (3, 4):
            for n in (1, 2):
                assert make_M_general(k, n + 1).induced(range(k * n)) == (
                    make_M_general(k, n)
                )

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            make_M_general(2, 1)


class TestCyclicFamily:
    def test_three_is_triangle(self):
        assert is_isomorphic(make_cyclic(3), make_T((3,)))

    def test_four_edges(self):
        t = make_cyclic(4)
        wins = {(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)}
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    assert t.beats(i - 1, j - 1) == ((i, j) in wins)

    def test_even_cyclic_near_regular(self):
        for n in (2, 3, 4, 5):
            degs = set(make_cyclic(2 * n).out_degrees())
            assert degs <= {n - 1, n}

    def test_strongly_connected(self):
        for n in (3, 4, 5, 6, 9):
            assert make_cyclic(n).is_strongly_connected()


class TestChainPlusY:
    def test_interval_set_gives_transitive(self):
        for n in (3, 4, 5):
            for i in range(1, n + 2):
                t = make_TS(n + 1, range(i, n + 1))
                assert t.is_transitive()

    def test_empty_set_sink(self):
        assert make_TS(3, []).is_transitive()

    def test_singleton_one_is_triangle(self):
        assert is_isomorphic(make_TS(3, [1]), make_T((3,)))

    def test_distinct_outside_dn(self):
        # non-members of the two-transitive family are pairwise distinguishable
        from itertools import combinations

        for n in (4, 5, 6, 7, 8):
            outside = []
            for r in range(n + 1):
                for s in combinations(range(1, n + 1), r):
                    if not dn_membership(n, s):
                        outside.append(frozenset(s))
            forms = {
                frozenset(s): canonical_form(make_TS(n + 1, s)) for s in outside
            }
            assert len(set(forms.values())) == len(outside)


class TestReversalFamily:
    def test_empty_spec_is_transitive(self):
        assert make_Tstar(ReversalSpec(5, (), ())).is_transitive()

    def test_three_chain_single_reversal_is_triangle(self):
        t = make_Tstar(ReversalSpec(3, (1, 3), (1,)))
        assert is_isomorphic(t, make_T((3,)))

    def test_degree_profile(self):
        spec = ReversalSpec(9, (1, 3, 6, 8), (2, 1))
        t = make_Tstar(spec)
        s = set(spec.reversed_set)
        tt = spec.t
        for i in range(1, 10):
            d = t.out_degree(i - 1)
            if i not in s:
                assert d == 9 - i
            elif spec.reversed_set.index(i) < tt:
                assert d == 9 - i - 1
            else:
                assert d == 9 - i + 1

    def test_reconstruction_round_trip(self):
        rng = random.Random(11)
        trials = 0
        for n in range(1, 10):
            for _ in range(80):
                size = 2 * rng.randrange(0, n // 2 + 1)
                items = tuple(sorted(rng.sample(range(1, n + 1), size)))
                t_half = size // 2
                if t_half and items[t_half] <= items[t_half - 1] + 1:
                    continue  # separation condition
                sigma = tuple(rng.sample(range(1, t_half + 1), t_half))
                spec = ReversalSpec(n, items, sigma)
                got = reconstruct_S(make_Tstar(spec), (n, t_half))
                assert got == frozenset(items)
                trials += 1
        assert trials > 100

    def test_reconstruction_independent_of_sigma(self):
        n, items = 10, (2, 4, 7, 9)
        for sigma in permutations((1, 2)):
            spec = ReversalSpec(n, items, sigma)
            assert reconstruct_S(make_Tstar(spec), (n, 2)) == frozenset(items)

    def test_empty_set_round_trip(self):
        assert reconstruct_S(make_Tstar(ReversalSpec(6, (), ())), (6, 0)) == frozenset()

    def test_ambiguity_rejected(self):
        # four vertices share a degree in the cyclic tournament on 4
        with pytest.raises(FamilyMembershipError):
            reconstruct_S(make_cyclic(5), (5, 1))


class TestAlternating:
    def test_k1_flavors(self):
        forms = {
            canonical_form(make_type1(1, f)).bits for f in (0, 1)
        }
        assert forms == {
            canonical_form(make_T((3,))).bits,
            canonical_form(make_T((1, 1, 1))).bits,
        }

    def test_flavors_non_isomorphic_at_k2(self):
        assert not is_isomorphic(make_type1(2, 0), make_type1(2, 1))

    def test_nesting(self):
        for f in (0, 1):
            for k in (2, 3):
                big = make_type1(k, f)
                subset = list(range(2 * (k - 1))) + [2 * k]
                assert big.induced(subset) == make_type1(k - 1, f)

    def test_alternation_holds(self):
        for f in (0, 1):
            t = make_type1(3, f)
            y = 6
            for i in range(5):
                assert t.beats(y, i) != t.beats(y, i + 1)


class TestMoonTower:
    def test_base(self):
        assert make_moon_tower(1) == make_T((3,))

    def test_second_level_size(self):
        assert make_moon_tower(2).n == 9

    def test_nesting(self):
        assert make_moon_tower(2).induced(range(3)) == make_moon_tower(1)
        assert make_moon_tower(3).induced(range(9)) == make_moon_tower(2)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            make_moon_tower(6)


class TestCyclicBlowup:
    def test_all_singletons_is_cyclic(self):
        assert make_cyclic_blowup((1, 1, 1, 1, 1)) == make_cyclic(5)

    def test_block_structure(self):
        from tourneykit import decompose

        dec = decompose(make_cyclic_blowup((3, 2, 1)))
        assert dec.sequence == (3, 2, 1)
