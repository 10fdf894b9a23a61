"""Level counts against oracles that need no list of classes: the
cycle-index count of tournaments, the labelled-count identity
sum over level n of n!/|Aut T| = number of labelled members, and, for
Forb(cyclic 4), the stacked-family levels and the sum of 1/|Aut T|."""

from fractions import Fraction
from math import comb, factorial

import pytest

from oracles import (
    brute_canonical_codes,
    brute_labelled_count,
    cycle_index_tournament_count,
)
from tourneykit import (
    all_classes,
    automorphism_order,
    avoidance_closure,
    make_T,
    make_cyclic,
)
from tourneykit.tournament import line_to_bits
from tourneykit.verify import cyclic_family_table, t_family_table

# OEIS A000568, n = 0..12
A000568 = (
    1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056, 903753248, 154108311168,
)


def labelled_total(table, n):
    return sum(factorial(n) // automorphism_order(t) for t in table.members(n))


@pytest.fixture(scope="module")
def avoid_c4():
    return avoidance_closure([make_cyclic(4)], 11)


class TestCycleIndex:
    def test_matches_a000568_to_twelve(self):
        assert [cycle_index_tournament_count(n) for n in range(13)] == list(A000568)

    def test_matches_all_classes_to_eight(self, all_classes_8):
        assert all_classes_8.counts == {
            n: cycle_index_tournament_count(n) for n in range(1, 9)
        }


class TestLabelledIdentity:
    def test_all_classes_to_eight(self, all_classes_8):
        for n in all_classes_8.levels():
            assert labelled_total(all_classes_8, n) == 2 ** comb(n, 2), n

    @pytest.mark.parametrize(
        "patterns",
        [
            [make_cyclic(4)],
            [make_T((1, 1, 1))],
            [make_T((3,)), make_cyclic(4)],
            [make_cyclic(5), make_T((1, 3))],
        ],
        ids=["cyclic4", "transitive3", "triangle+cyclic4", "cyclic5+T13"],
    )
    def test_avoidance_to_six(self, patterns):
        table = avoidance_closure(patterns, 6)
        for n in range(1, 7):
            assert labelled_total(table, n) == brute_labelled_count(n, patterns), n

    @pytest.mark.parametrize(
        "build",
        [lambda: t_family_table(9, 6), lambda: cyclic_family_table(12, 6)],
        ids=["T-family", "cyclic-family"],
    )
    def test_deletion_closure_to_six(self, build):
        table = build()
        for n in range(1, 7):
            least = brute_canonical_codes(n)
            level = {least[line_to_bits(line)] for line in table.forms[n]}
            members = sum(1 for c in least if c in level)
            assert labelled_total(table, n) == members, n


class TestAvoidCyclic4:
    """Forb(cyclic 4) is the stacked 1/3-block family, and |Aut make_T(seq)|
    = 3^(number of 3s), so sum of 1/|Aut T| over level n obeys
    g(n) = g(n-1) + g(n-3)/3 with g(0) = 1 and g(n) = 0 for n < 0."""

    def test_levels_equal_the_stacked_family(self, avoid_c4):
        for n in range(1, 12):
            assert set(avoid_c4.forms[n]) == set(t_family_table(n + 3, n).forms[n]), n

    def test_inverse_automorphism_sum(self, avoid_c4):
        g = [Fraction(1)] * 3  # g(0), g(1), g(2)
        for n in range(3, 12):
            g.append(g[n - 1] + g[n - 3] / 3)
        for n in range(1, 12):
            total = sum(Fraction(1, automorphism_order(t)) for t in avoid_c4.members(n))
            assert total == g[n], n


@pytest.mark.slow
def test_all_classes_nine():
    assert all_classes(9).count(9) == A000568[9] == 191536
