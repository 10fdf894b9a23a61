"""Maximal transitive sub-tournaments, type-1/2 detection, two-transitive sets."""

import hashlib
import random
from itertools import combinations, permutations
from math import comb

import pytest

from oracles import (
    all_labelled,
    brute_first_type2,
    brute_type1,
    brute_type2,
    brute_witness_valid,
)
from tourneykit import (
    InfeasibleSizeError,
    StructureWitness,
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

    def test_least_longest_chain_on_every_class(self, classes_by_n):
        for n in range(1, 8):
            for t in classes_by_n[n]:
                assert max_transitive(t).assignment == _least_longest_chain(t), t

    def test_chain_longer_than_the_recursion_limit(self):
        assert max_transitive(transitive(1500)).assignment == tuple(range(1500))

    def test_a_frame_stops_once_its_chain_covers_its_candidates(self):
        reads = 0

        class CountedRows(tuple):
            def __getitem__(self, v):
                nonlocal reads
                reads += 1
                return tuple.__getitem__(self, v)

        t = transitive(200)
        t._out = CountedRows(t.out_masks)
        assert max_transitive(t).assignment == tuple(range(200))
        assert reads <= 2 * 200


def _least_longest_chain(t):
    """Scan every vertex subset for a transitive one and return the least
    beat-ordered tuple among the largest."""
    for r in range(t.n, 0, -1):
        chains = [
            tuple(sorted(sub, key=lambda v: -sum(t.beats(v, w) for w in sub if w != v)))
            for sub in combinations(range(t.n), r)
            if all(t.beats(a, c) or not (t.beats(a, b) and t.beats(b, c))
                   for a, b, c in permutations(sub, 3))
        ]
        if chains:
            return min(chains)
    return ()


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


class TestWitnessValidate:
    @pytest.mark.parametrize(
        "kind, assignment",
        [
            ("transitive", (0, 5)),
            ("transitive", (-1, 0)),
            ("type1-flavorA", (0, 1, 5)),
            ("type1-flavorB", (0, 1, 5)),
            ("type2", (0, 1, 5)),
            ("embedding", (0, 5)),
        ],
    )
    def test_vertex_out_of_range_is_invalid(self, kind, assignment):
        host = Tournament(3, 0b111)  # transitive: 0 -> 1 -> 2, 0 -> 2
        pattern = transitive(len(assignment))
        assert StructureWitness(kind, assignment).validate(host, pattern) is False

    def test_matches_the_definitions_on_every_five_vertex_host(self):
        # every injective assignment: type-1 with k = 1, 2, type-2 with
        # k = 1, and 4-chains
        cases = [
            (kind, a)
            for size, kinds in (
                (3, ("type1-flavorA", "type1-flavorB", "type2")),
                (5, ("type1-flavorA", "type1-flavorB")),
                (4, ("transitive",)),
            )
            for a in permutations(range(5), size)
            for kind in kinds
        ]
        for t in all_labelled(5):
            for kind, a in cases:
                got = StructureWitness(kind, a).validate(t)
                assert got == brute_witness_valid(t, kind, a), (t, kind, a)

    def test_embedding_matches_the_definition(self):
        for t in all_labelled(4):
            for h in all_labelled(3):
                for a in permutations(range(4), 3):
                    got = StructureWitness("embedding", a).validate(t, h)
                    assert got == brute_witness_valid(t, "embedding", a, h), (t, h, a)

    @pytest.mark.parametrize(
        "kind, assignment, pattern",
        [
            ("type1-flavorA", (0, 1), None),
            ("type1-flavorB", (0, 1, 2, 3), None),
            ("type1-flavorA", (0,), None),
            ("type2", (0, 1), None),
            ("type2", (0, 1, 2, 3), None),
            ("type2", (0, 1, 2, 3, 4), None),
            ("type1", (0, 1, 2), None),
            ("chain", (0, 1), None),
            ("embedding", (0, 1, 2), None),
            ("embedding", (0, 1, 2), transitive(4)),
        ],
    )
    def test_wrong_shapes_are_invalid(self, kind, assignment, pattern):
        for host in all_labelled(5):
            assert StructureWitness(kind, assignment).validate(host, pattern) is False


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

    def test_matches_its_pin(self):
        # one 0/1 per S, n = 1..10; taken when the test built every
        # one-vertex deletion as a Tournament
        digest = hashlib.sha256()
        for n in range(1, 11):
            for r in range(n + 1):
                for s in combinations(range(1, n + 1), r):
                    digest.update(b"1" if dn_membership(n, s) else b"0")
        assert digest.hexdigest() == (
            "08e7f913037128a94491e42d1ffa81917e353df584e5c41585730d20956f5f8a"
        )

    def test_bound(self):
        for n in range(1, 7):
            count = sum(
                1
                for r in range(n + 1)
                for s in combinations(range(1, n + 1), r)
                if dn_membership(n, s)
            )
            assert count <= 2 * comb(n, 2) + n + 1
