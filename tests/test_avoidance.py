"""The extension BFS's per-base pattern test against the per-extension
reference and against brute-force containment."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import avoids_through_last, brute_contains_induced, extension
from tourneykit import (
    Tournament,
    avoidance_closure,
    canonical_form,
    distinct_sub_classes,
    fstar,
    make_T,
    make_cyclic,
    random_tournament,
)
from tourneykit.speed import _rejected_masks

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
        forb.setdefault(h.n, set()).add(canonical_form(h).bits)
    return {size: frozenset(lines) for size, lines in forb.items()}


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


# sizes 1 and 2 empty every level past 1; the fixed sets above cover them
patterns_st = st.lists(
    st.integers(3, 5).flatmap(
        lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda bits: Tournament(n, bits)
        )
    ),
    min_size=1,
    max_size=3,
)


class TestPerBaseTest:
    def test_matches_reference_on_every_small_base(self, classes_by_n):
        for patterns in MIXED_PATTERN_SETS:
            forb = by_size(patterns)
            for k in range(1, 6):
                for base in classes_by_n[k]:
                    got = _rejected_masks(base, forb).tolist()
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
        assert _rejected_masks(base, forb).tolist() == reference_rejected(base, forb)


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
