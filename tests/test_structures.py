"""Maximal transitive sub-tournaments, type-1/2 detection, two-transitive sets."""

import random
from itertools import combinations
from math import comb

import pytest

from oracles import all_labelled, brute_first_type2, brute_type1, brute_type2
from tourneykit import (
    InfeasibleSizeError,
    Tournament,
    detect_type1,
    detect_type2,
    dn_membership,
    make_M,
    make_T,
    make_TS,
    make_type1,
    max_transitive,
    random_tournament,
)
from tourneykit.structures import _embed

ALL_FLAGS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def transitive(n):
    return make_T((1,) * n)


class TestMaxTransitive:
    def test_whole_linear_order(self):
        w = max_transitive(transitive(6))
        assert w.assignment == (0, 1, 2, 3, 4, 5)
        assert w.validate(transitive(6))

    def test_triangle_gives_pair(self):
        w = max_transitive(make_T((3,)))
        assert len(w.assignment) == 2
        assert w.validate(make_T((3,)))

    def test_eight_vertices_reach_three(self):
        rng = random.Random(0)
        for _ in range(200):
            t = random_tournament(8, rng)
            assert len(max_transitive(t).assignment) >= 3

    def test_matches_subset_scan(self):
        rng = random.Random(1)
        for _ in range(60):
            t = random_tournament(rng.randrange(1, 8), rng)
            best = max(
                (len(sub) for r in range(t.n, 0, -1)
                 for sub in combinations(range(t.n), r)
                 if t.induced(sub).is_transitive()),
                default=0,
            )
            assert len(max_transitive(t).assignment) == best


class TestDetectType1:
    def test_self_detection(self):
        for k in (1, 2, 3):
            for f in (0, 1):
                w = detect_type1(make_type1(k, f), k)
                assert w is not None
                assert w.validate(make_type1(k, f))

    def test_transitive_host(self):
        # flavor B at k=1 is itself transitive; k >= 2 forces a cycle
        assert detect_type1(transitive(7), 1) is not None
        for k in (2, 3):
            assert detect_type1(transitive(7), k) is None

    def test_flavor_reported(self):
        w = detect_type1(make_T((3,)), 1)
        assert w is not None and w.kind == "type1-flavorA"

    def test_k_bound(self):
        with pytest.raises(InfeasibleSizeError):
            detect_type1(transitive(11), 5)

    def test_monotone_in_k(self):
        rng = random.Random(2)
        for _ in range(40):
            t = random_tournament(7, rng)
            if detect_type1(t, 2) is not None:
                assert detect_type1(t, 1) is not None


class TestDetectType2:
    def test_flag_family_carries_structure(self):
        for flags in ALL_FLAGS:
            for k in (1, 2, 3):
                w = detect_type2(make_M(flags, k), k)
                assert w is not None
                assert w.validate(make_M(flags, k))

    def test_transitive_host_has_none(self):
        for n in (3, 5, 7):
            assert detect_type2(transitive(n), 1) is None

    def test_triangle_has_one(self):
        w = detect_type2(make_T((3,)), 1)
        assert w is not None
        assert w.validate(make_T((3,)))

    def test_monotone_in_k(self):
        rng = random.Random(3)
        for _ in range(40):
            t = random_tournament(8, rng)
            if detect_type2(t, 2) is not None:
                assert detect_type2(t, 1) is not None


class TestEmbed:
    def test_no_fixed_pairs_maps_to_the_first_vertices(self):
        t = random_tournament(7, 8)
        for k in range(8):
            assert _embed(t, [0] * k, [0] * k) == tuple(range(k))

    def test_pattern_larger_than_host(self):
        t = random_tournament(4, 9)
        assert _embed(t, [0] * 5, [0] * 5) is None
        assert _embed(t, transitive(5).out_masks, [31 ^ (1 << p) for p in range(5)]) is None

    def test_empty_pattern(self):
        assert _embed(random_tournament(5, 10), [], []) == ()
        assert _embed(Tournament(0), [], []) == ()


class TestDetectionOracles:
    def test_type1_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(40):
            t = random_tournament(rng.randrange(3, 8), rng)
            for k in (1, 2):
                assert (detect_type1(t, k) is not None) == brute_type1(t, k)

    def test_type2_witness_is_lexicographically_first(self):
        hosts = [t for n in range(6) for t in all_labelled(n)]
        rng = random.Random(6)
        hosts += [random_tournament(rng.choice((6, 7)), rng) for _ in range(60)]
        for t in hosts:
            for k in (1, 2):
                got = detect_type2(t, k)
                assert (got.assignment if got else None) == brute_first_type2(t, k), (t, k)

    def test_type2_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(30):
            t = random_tournament(rng.randrange(3, 8), rng)
            for k in (1, 2):
                assert (detect_type2(t, k) is not None) == brute_type2(t, k)


class TestDnMembership:
    def test_all_of_n2(self):
        members = [
            s
            for r in range(3)
            for s in combinations((1, 2), r)
            if dn_membership(2, s)
        ]
        assert len(members) == 4

    def test_intervals_are_members(self):
        for n in (3, 4, 5):
            for i in range(1, n + 2):
                assert dn_membership(n, range(i, n + 1))
                assert make_TS(n + 1, range(i, n + 1)).is_transitive()

    def test_bound(self):
        for n in range(1, 7):
            count = sum(
                1
                for r in range(n + 1)
                for s in combinations(range(1, n + 1), r)
                if dn_membership(n, s)
            )
            assert count <= 2 * comb(n, 2) + n + 1
