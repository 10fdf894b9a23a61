"""The extension BFS's per-base pattern test against the per-extension
reference and against brute-force containment."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    avoids_through_last,
    brute_contains_induced,
    extension,
    pair_out_masks,
    unfiltered_avoidance_forms,
)
from tourneykit import (
    Tournament,
    all_classes,
    avoidance_closure,
    canonical_form,
    distinct_sub_classes,
    fstar,
    make_T,
    make_cyclic,
    random_tournament,
)
from tourneykit import canon, speed, tournament
from tourneykit.canon import _canon_code, _search
from tourneykit.speed import _least_invariant_masks, _rejected_masks
from tourneykit.tournament import bits_to_out_masks, line_to_bits

C3 = make_T((3,))
TT3 = make_T((1, 1, 1))
C4 = make_cyclic(4)
C5 = make_cyclic(5)

MIXED_PATTERN_SETS = [
    [C4],
    [TT3],
    [C3, C4],
    [Tournament(1, 0), C4],
    [Tournament(2, 0)],
    [C5, make_T((1, 3))],
    [make_T((3, 1, 1)), make_T((1, 1, 1, 1, 1))],
    [C4, C4, C4.relabel([2, 0, 3, 1])],
    [C5, make_cyclic(7)],
    [make_T((1, 3, 1)), make_T((3, 1)), make_cyclic(8)],
]


def by_size(patterns):
    forb = {}
    for h in patterns:
        forb.setdefault(h.n, set()).add(line_to_bits(canonical_form(h).bits))
    return {size: frozenset(codes) for size, codes in forb.items()}


def reference_rejected(base, forb):
    return [
        not avoids_through_last(extension(base, mask), forb)
        for mask in range(1 << base.n)
    ]


def brute_forms(classes_by_n, patterns, n_max):
    return {
        n: tuple(sorted(
            canonical_form(t).bits
            for t in classes_by_n[n]
            if not any(brute_contains_induced(t, h) for h in patterns)
        ))
        for n in range(1, n_max + 1)
    }


def pattern_sets(smallest: int):
    """One to three labelled patterns on smallest..5 vertices."""
    return st.lists(
        st.integers(smallest, 5).flatmap(
            lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
                lambda bits: Tournament(n, bits)
            )
        ),
        min_size=1,
        max_size=3,
    )


# sizes 1 and 2 empty every level past 1; the fixed sets above cover them
patterns_st = pattern_sets(3)


class TestPerBaseTest:
    def test_matches_reference_on_every_small_base(self, classes_by_n):
        for patterns in MIXED_PATTERN_SETS:
            forb = by_size(patterns)
            for k in range(1, 6):
                for base in classes_by_n[k]:
                    got = _rejected_masks(base.out_masks, forb)
                    got = [bool(got >> m & 1) for m in range(1 << k)]
                    assert got == reference_rejected(base, forb), (patterns, base)

    @given(
        st.integers(1, 7).flatmap(lambda n: st.integers(0, 2**32).map(
            lambda seed: random_tournament(n, seed)
        )),
        patterns_st,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_labelled_bases(self, base, patterns):
        forb = by_size(patterns)
        got = _rejected_masks(base.out_masks, forb)
        got = [bool(got >> m & 1) for m in range(1 << base.n)]
        assert got == reference_rejected(base, forb)


class TestClosureAgainstBruteForce:
    def test_mixed_pattern_sets(self, classes_by_n):
        for patterns in MIXED_PATTERN_SETS:
            table = avoidance_closure(patterns, 6)
            assert table.forms == brute_forms(classes_by_n, patterns, 6), patterns

    @given(patterns_st)
    @settings(max_examples=25, deadline=None)
    def test_random_pattern_sets(self, classes_by_n, patterns):
        table = avoidance_closure(patterns, 5)
        assert table.forms == brute_forms(classes_by_n, patterns, 5)

    def test_cyclic4_speed_is_fstar_to_twelve(self):
        table = avoidance_closure([C4], 12)
        assert table.counts == {n: fstar(n) for n in range(1, 13)}


class TestLeastDegreeFilter:
    """Only extensions whose new vertex has the least out-degree are
    canonicalised; every class is still reached."""

    @pytest.mark.parametrize(
        "patterns", [[C4], [TT3], []], ids=["cyclic4", "transitive3", "none"]
    )
    def test_matches_unfiltered_loop_to_eight(self, patterns):
        table = avoidance_closure(patterns, 8)
        assert table.forms == unfiltered_avoidance_forms(patterns, 8)

    @given(pattern_sets(4))
    @settings(max_examples=25, deadline=None)
    def test_random_pattern_sets_match_unfiltered_loop(self, patterns):
        table = avoidance_closure(patterns, 8)
        assert table.forms == unfiltered_avoidance_forms(patterns, 8)


def lex_least_invariant(base):
    """Per mask: does the new vertex attain the least (out-degree, sum of
    its out-neighbours' out-degrees) of the extension, ties included."""
    k = base.n
    expected = []
    for mask in range(1 << k):
        out = pair_out_masks(extension(base, mask))
        degree = [o.bit_count() for o in out]
        invariant = [
            (degree[v], sum(degree[w] for w in range(k + 1) if (out[v] >> w) & 1))
            for v in range(k + 1)
        ]
        expected.append(invariant[k] == min(invariant))
    return expected


class TestLeastInvariantFilter:
    """Only extensions whose new vertex is lex-least under (out-degree, sum
    of out-neighbours' out-degrees) are canonicalised; one pass over all
    2^k masks decides both components."""

    def test_keeps_exactly_the_lex_least_extensions(self, classes_by_n):
        for k in range(1, 6):
            for base in classes_by_n[k] + [random_tournament(k, k)]:
                got = _least_invariant_masks(base.out_masks, range(1 << k))
                got = [m in got for m in range(1 << k)]
                assert got == lex_least_invariant(base), base

    @given(
        st.integers(6, 8).flatmap(lambda n: st.integers(0, 2**32).map(
            lambda seed: random_tournament(n, seed)
        ))
    )
    @settings(max_examples=20, deadline=None)
    def test_keeps_exactly_the_lex_least_extensions_on_random_bases(self, base):
        got = _least_invariant_masks(base.out_masks, range(1 << base.n))
        got = [m in got for m in range(1 << base.n)]
        assert got == lex_least_invariant(base)

    def test_survivors_bypass_the_shared_cache(self):
        # only the one-vertex start goes through the shared code cache
        before = _canon_code.cache_info()
        all_classes(6)
        after = _canon_code.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1


class TestSurvivorSearch:
    """Each kept extension is searched once, on out-masks read off its
    base's, with no packed code built and decoded on the way."""

    @pytest.mark.parametrize(
        "patterns, n_max", [([], 6), ([C4], 8)], ids=["all-classes-6", "cyclic4-8"]
    )
    def test_each_kept_mask_is_searched_on_its_extension(
        self, monkeypatch, patterns, n_max
    ):
        calls = []  # (base, its kept masks, the out-masks searched)

        def least(out, masks):
            kept = _least_invariant_masks(out, masks)
            calls.append((Tournament._from_out_masks(out), kept, []))
            return kept

        def search(out, known=()):
            calls[-1][2].append(tuple(out))
            return _search(out, known)

        monkeypatch.setattr(speed, "_least_invariant_masks", least)
        monkeypatch.setattr(speed, "_search", search)
        table = avoidance_closure(patterns, n_max)
        forb = by_size(patterns)
        bases = [(base.n, base.bits) for base, _, _ in calls]
        assert sorted(bases) == sorted(
            (k, c) for k in range(1, n_max) for c in table.codes[k]
        )
        for base, kept, searched in calls:
            survivors = [
                m for m in range(1 << base.n)
                if avoids_through_last(extension(base, m), forb)
            ]
            assert kept == _least_invariant_masks(base.out_masks, survivors), base
            assert searched == [pair_out_masks(extension(base, m)) for m in kept], base

    def test_packed_bits_are_decoded_once_per_base(self, monkeypatch):
        _canon_code(1, 0)  # cache the one-vertex start: only the BFS's decodes count
        decoded = Counter()

        def counted(n, bits):
            decoded[n, bits] += 1
            return bits_to_out_masks(n, bits)

        for module in (tournament, canon, speed):
            monkeypatch.setattr(module, "bits_to_out_masks", counted)
        table = all_classes(7)
        # each base's out-masks once, and none for the 6880 - 1 kept extensions
        assert decoded == Counter((k, c) for k in range(1, 7) for c in table.codes[k])
        assert sum(decoded.values()) == 1 + 1 + 2 + 4 + 12 + 56  # A000568(1..6)


class TestWideCodes:
    """Patterns and subsets on 12+ vertices need codes wider than int64."""

    def test_twelve_vertex_pattern(self):
        table = avoidance_closure([C3, make_T((1,) * 12)], 12)
        assert table.counts == {**{n: 1 for n in range(1, 12)}, 12: 0}

    def test_twelve_vertex_subsets(self):
        host = make_cyclic(14)
        scan = {
            canonical_form(host.induced(s)).bits for s in combinations(range(14), 12)
        }
        assert distinct_sub_classes(host, 12) == tuple(sorted(scan))
