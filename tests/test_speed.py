"""Closure enumeration, sub-tournament counting, and the counting checks."""

import inspect
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import ceil, comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_labelled,
    all_seeds_t_family_table,
    brute_sub_classes,
    carved_type1_subs,
    unpruned_hereditary_closure,
)
from tourneykit import canon, speed, verify
from tourneykit import (
    BudgetExceededError,
    InfeasibleSizeError,
    SpeedTable,
    Tournament,
    all_classes,
    avoidance_closure,
    canonical_form,
    check_olarge,
    check_supermultiplicative,
    concat,
    count_cyclic_subs,
    count_sub_L,
    count_sub_L_scan,
    count_tn_lower,
    distinct_sub_classes,
    fstar,
    hereditary_closure,
    make_M,
    make_T,
    make_TS,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    pair_count,
    random_tournament,
    substitute,
    type1_tn_classes,
)
from tourneykit.tournament import _strong_components
from tourneykit.verify import composition_seqs, t_family_table


def transitive(n):
    return make_T((1,) * n)


def _budget_stop(exc):
    """(level, classes kept) named by a budget error."""
    m = re.search(r"level (\d+) \((\d+) classes kept so far\)", str(exc))
    assert m, str(exc)
    return int(m.group(1)), int(m.group(2))


class TestFstar:
    def test_base_values(self):
        assert [fstar(n) for n in range(3)] == [1, 1, 1]

    def test_quoted_values(self):
        assert fstar(4) == 3
        assert fstar(5) == 4

    def test_unrolled(self):
        assert [fstar(n) for n in range(6, 11)] == [6, 9, 13, 19, 28]

    def test_recurrence(self):
        for n in range(3, 40):
            assert fstar(n) == fstar(n - 1) + fstar(n - 3)


class TestHereditaryClosure:
    def test_transitive_only(self):
        table = hereditary_closure([transitive(10)], 10)
        assert all(table.count(n) == 1 for n in range(1, 11))

    def test_stacked_family_speed(self):
        table = t_family_table(12, 10)
        assert [table.count(n) for n in range(1, 11)] == [
            fstar(n) for n in range(1, 11)
        ]

    @pytest.mark.parametrize("sum_max", range(1, 14))
    def test_stacked_family_matches_all_seeds(self, sum_max):
        table = t_family_table(sum_max, sum_max)
        want = all_seeds_t_family_table(sum_max, sum_max)
        assert table.codes == want.codes

    def test_cyclic_family_level_four(self):
        seeds = [make_cyclic(m) for m in range(1, 13)]
        table = hereditary_closure(seeds, 4)
        assert table.count(4) == 2

    def test_downward_closed(self):
        table = hereditary_closure([make_cyclic(7), transitive(6)], 7)
        assert table.is_downward_closed()

    def test_downward_closed_fails_with_a_class_missing(self):
        table = hereditary_closure([make_cyclic(7), transitive(6)], 7)
        # every level-4 class is a deletion of some level-5 member
        for code in table.codes[4]:
            codes = {**table.codes, 4: table.codes[4] - {code}}
            assert not SpeedTable(table.seed, codes).is_downward_closed(), code

    def test_seed_bound(self):
        with pytest.raises(InfeasibleSizeError):
            hereditary_closure([transitive(40)], 5)

    def test_memory_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([make_cyclic(12)], 6, mem_budget=512)
        # 66 + 64 bytes for the seed, then 55 + 64 for each labelled child
        # held while level 11 is built and as much for each class of it
        # kept: the second child's class takes the total to 606
        assert _budget_stop(exc.value) == (11, 2)

    def test_memory_budget_stops_part_way_through_a_level(self):
        seed = random_tournament(9, 5)
        full = hereditary_closure([seed], 9)
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([seed], 9, mem_budget=400)
        level, kept = _budget_stop(exc.value)
        assert 0 < kept < full.count(level)
        # 36 + 64 bytes for the seed, then 28 + 64 for each labelled child
        # held while level 8 is built and as much for each class of it
        # kept: the second child's class takes the total to 468
        assert (level, kept) == (8, 2)

    def test_memory_budget_charges_kept_automorphisms(self):
        # the classes alone are charged 481,056 bytes over the whole
        # closure; each also keeps generators of its group, 48 + 8n bytes
        # apiece (the seed its eight triangle rotations: 8 * 240 bytes on
        # top of 276 + 64).  Each condensation key held while a level is
        # built is charged as a class, 153 + 64 bytes on level 18, until
        # the level ends; every child here has two or more strong
        # components, so a level holds one key per class: 981,315 bytes of
        # classes and generators down to level 18 and 88 held keys take
        # the total to 1,000,411
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([make_T((3,) * 8)], 24, mem_budget=1_000_000)
        assert _budget_stop(exc.value) == (18, 88)

    def test_memory_budget_releases_held_children(self):
        # classes and generators take 2,058,144 bytes over the whole
        # closure, and each level's held keys are released when it ends,
        # so the charge peaks at 2,058,208 on level 1: every class and the
        # key of the last, 0 + 64 bytes; kept to the end, the 480,716
        # bytes of held keys would stop the run
        table = hereditary_closure([make_T((3,) * 8)], 24, mem_budget=2_058_208)
        assert table.count(24) == 1
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([make_T((3,) * 8)], 24, mem_budget=2_058_207)
        assert _budget_stop(exc.value) == (1, 1)

    def test_memory_budget_stops_on_a_held_level(self):
        # the seed is held on level 18: 153 + 64 bytes, and its six
        # triangle rotations and out-masks as seven tuples of 48 + 8 * 18
        # bytes, 1,561 in all.  Each child held on level 17 keeps the five
        # rotations that fix the deleted vertex: 136 + 64 + 6 * 184 =
        # 1,304 bytes, and the second takes the total to 4,169
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([make_T((3,) * 6)], 10, mem_budget=4168)
        assert _budget_stop(exc.value) == (17, 2)
        hereditary_closure([make_T((3,) * 6)], 10, mem_budget=1 << 20)

    def test_one_search_per_class(self, monkeypatch):
        # every child of a stacked-triangle member below level 4 or above
        # has two or more strong components, so the closure searches each
        # class it records once: the 404 classes of levels 1-14.  The seeds
        # (level 17) and levels 15-16 are held under their keys, and their
        # components have 1 or 3 vertices, so nothing is searched there
        real = speed.canonical_code_and_automorphisms
        calls = []

        def counted(out, known=()):
            calls.append(len(out))
            return real(out, known)

        monkeypatch.setattr(speed, "canonical_code_and_automorphisms", counted)
        monkeypatch.setattr(speed, "_search", lambda *a: pytest.fail("a seed component searched"))
        t_family_table(17, 14)
        assert len(calls) == sum(fstar(n) for n in range(1, 15)) == 404
        assert all(calls.count(n) == fstar(n) for n in range(1, 15))

    def test_self_check_survives_optimize(self):
        code = (
            "from tourneykit import make_cyclic\n"
            "from tourneykit.speed import SpeedTable, hereditary_closure\n"
            "assert False, 'asserts are stripped under -O'\n"
            "SpeedTable.is_downward_closed = lambda self: False\n"
            "try:\n"
            "    hereditary_closure([make_cyclic(5)], 5)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONOPTIMIZE", None)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: self-check failed")

    def test_json_shape(self):
        table = hereditary_closure([transitive(4)], 4)
        data = json.loads(table.to_json(include_forms=True))
        assert data["seed"] == "1 seed(s), max size 4"
        assert data["levels"]["4"]["count"] == 1
        assert data["levels"]["4"]["forms"] == ["000000"]

    def test_csv_shape(self):
        table = hereditary_closure([transitive(3)], 3)
        assert table.to_csv() == "n,count\n1,1\n2,1\n3,1\n"


def paley(p):
    qr = {(x * x) % p for x in range(1, p)}
    return Tournament.from_beats(p, lambda i, j: (j - i) % p in qr)


def triangle_of(block):
    """The cyclic triangle with its first vertex replaced by ``block``."""
    one = make_T((1,))
    return substitute(make_cyclic(3), [block, one, one])


def condensation_key(t):
    """The deletion BFS's key of t, or None when t is strong."""
    parts = _strong_components(t.out_masks)
    if len(parts) == 1:
        return None
    return speed._condensation_key(speed._key_segments(t.out_masks, parts))


def assert_keys_name_classes(tournaments):
    """Among the non-strong tournaments given, equal condensation keys
    hold exactly when the canonical codes are equal."""
    classes_of_key, keys_of_class = {}, {}
    for t in tournaments:
        key = condensation_key(t)
        if key is None:
            continue
        code = (t.n, canon.canonical_code(t.n, t.bits))
        classes_of_key.setdefault(key, set()).add(code)
        keys_of_class.setdefault(code, set()).add(key)
    assert classes_of_key
    assert all(len(codes) == 1 for codes in classes_of_key.values())
    assert all(len(keys) == 1 for keys in keys_of_class.values())


class TestCondensationKey:
    """A non-strong tournament's key is a leading 1, then per strong
    component its size in 6 bits and, from 4 vertices, its canonical code."""

    def test_every_labelled_tournament_up_to_six(self):
        assert_keys_name_classes(t for n in range(7) for t in all_labelled(n))

    def test_two_relabellings_of_every_class_up_to_eight(self, all_classes_8):
        rng = random.Random(33)

        def relabellings():
            for n in all_classes_8.levels():
                for t in all_classes_8.members(n):
                    for _ in range(2):
                        perm = list(range(n))
                        rng.shuffle(perm)
                        yield t.relabel(perm)

        assert_keys_name_classes(relabellings())

    def test_layout(self):
        # cyclic(4) above a vertex above a cyclic triangle
        t = concat(make_cyclic(4), make_T((1, 3)))
        c4 = canon.canonical_code(4, make_cyclic(4).bits)
        assert condensation_key(t) == ((1 << 6 | 4) << 6 | c4) << 12 | 1 << 6 | 3

    def test_strong_tournaments_get_none(self):
        assert condensation_key(make_cyclic(5)) is None
        assert condensation_key(make_T((3,))) is None


class TestClosureAgainstUnpruned:
    """One deletion per automorphism orbit, with the stabilisers handed
    down, finds the classes that deleting every vertex finds."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: [make_T(seq) for seq in composition_seqs(12)],
            lambda: [make_cyclic_blowup((11, 11, 11))],
            lambda: [make_cyclic_blowup((12, 12, 1))],
            lambda: [make_cyclic_blowup((8, 8, 8))],
            lambda: [make_moon_tower(2)],
            lambda: [paley(11)],
            lambda: [paley(19)],
            lambda: [make_cyclic(m) for m in range(1, 13)],
            # children whose strong components have 4 or more vertices
            lambda: [concat(paley(7), concat(make_cyclic(5), make_T((3, 1))))],
            lambda: [concat(make_T((1, 3)), concat(paley(7), make_cyclic(4)))],
            lambda: [concat(random_tournament(6, 1), concat(make_cyclic(4), random_tournament(6, 2)))],
        ],
        ids=[
            "T-sums-12", "blowup-11-11-11", "blowup-12-12-1", "blowup-8-8-8",
            "moon2", "paley11", "paley19", "cyclic-12",
            "paley7+cyclic5+T31", "T13+paley7+cyclic4", "random6+cyclic4+random6",
        ],
    )
    def test_every_level(self, build):
        seeds = build()
        top = max(s.n for s in seeds)
        assert hereditary_closure(seeds, top).forms == unpruned_hereditary_closure(
            seeds, top
        )

    @given(
        st.lists(
            st.integers(1, 10).flatmap(
                lambda n: st.builds(
                    Tournament, st.just(n), st.integers(0, (1 << pair_count(n)) - 1)
                )
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_seeds(self, seeds):
        top = max(s.n for s in seeds)
        assert hereditary_closure(seeds, top).forms == unpruned_hereditary_closure(
            seeds, top
        )

    @pytest.mark.parametrize(
        "build, n_max",
        [
            # held seeds with a component of 4 or more vertices, searched
            # once each for its generators
            (lambda: [concat(paley(7), concat(make_cyclic(5), make_T((3, 1))))], 9),
            (lambda: [concat(make_T((1, 3)), concat(paley(7), make_cyclic(4)))], 8),
            (lambda: [concat(random_tournament(6, 1), concat(make_cyclic(4), random_tournament(6, 2)))], 10),
            (lambda: [concat(paley(11), paley(11))], 14),
            # components whose groups are not transitive: a cyclic
            # triangle with one vertex replaced by a strong block
            (lambda: [concat(make_T((1,)), triangle_of(paley(7)))], 8),
            (lambda: [concat(triangle_of(make_cyclic(5)), make_T((3,)))], 6),
            (lambda: [concat(triangle_of(make_T((3, 3))), make_cyclic(4))], 6),
            # held classes with a strong child: a strong H with one or two
            # vertices above or below it leaves H once they are deleted
            (lambda: [concat(make_T((1,)), paley(7))], 6),
            (lambda: [concat(make_T((1,)), paley(11))], 8),
            (lambda: [concat(paley(7), make_T((1, 1)))], 5),
            # seeds on both sides of n_max, strong and not
            (
                lambda: [
                    concat(make_cyclic(5), make_T((1, 3))),
                    concat(paley(7), make_T((1,))),
                    paley(7),
                    make_T((1, 3)),
                    make_cyclic(3),
                ],
                7,
            ),
        ],
        ids=[
            "paley7+cyclic5+T31", "T13+paley7+cyclic4", "random6+cyclic4+random6",
            "paley11+paley11", "vertex+tri(paley7)", "tri(cyclic5)+T3", "tri(T33)+cyclic4",
            "vertex+paley7", "vertex+paley11", "paley7+T11",
            "both-sides",
        ],
    )
    def test_levels_below_held_ones(self, build, n_max):
        seeds = build()
        assert max(s.n for s in seeds) > n_max
        assert hereditary_closure(seeds, n_max).forms == unpruned_hereditary_closure(
            seeds, n_max
        )

    @given(
        st.lists(
            st.integers(1, 5).flatmap(
                lambda n: st.builds(
                    Tournament, st.just(n), st.integers(0, (1 << pair_count(n)) - 1)
                )
            ),
            min_size=2,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
        st.integers(1, 11),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabelled_non_strong_seeds_below_top(self, blocks, rng, n_max):
        seed = blocks[0]
        for b in blocks[1:]:
            seed = concat(seed, b)
        perm = list(range(seed.n))
        rng.shuffle(perm)
        seed = seed.relabel(perm)
        n_max = min(n_max, seed.n - 1)
        assert hereditary_closure([seed], n_max).forms == unpruned_hereditary_closure(
            [seed], n_max
        )


class TestAvoidanceClosure:
    def test_forbidding_triangle_leaves_linear_orders(self):
        table = avoidance_closure([make_T((3,))], 6)
        assert all(table.count(n) == 1 for n in range(1, 7))

    def test_forbidding_cyclic4_matches_stacked_family(self):
        table = avoidance_closure([make_cyclic(4)], 8)
        assert [table.count(n) for n in range(1, 9)] == [
            fstar(n) for n in range(1, 9)
        ]

    def test_no_patterns_counts_all_classes(self):
        table = avoidance_closure([], 6)
        assert [table.count(n) for n in range(1, 7)] == [1, 1, 2, 4, 12, 56]

    def test_avoidance_table_downward_closed(self):
        table = avoidance_closure([make_cyclic(4)], 6)
        assert table.is_downward_closed()

    def test_default_seed_names_each_pattern(self):
        # isomorphic patterns are each listed, by their canonical line
        c4 = make_cyclic(4)
        table = avoidance_closure([c4, make_T((3,)), c4.relabel([2, 0, 3, 1])], 5)
        assert table.seed == "avoid 3:010,4:001000,4:001000"

    def test_default_seed_makes_no_search_of_its_own(self, monkeypatch):
        # each search is a miss of the shared code cache or a kept
        # extension's: naming the patterns adds none
        real_search, real_least = canon._search, speed._least_invariant_masks
        calls = []
        kept = []

        def counted(*args):
            calls.append(args)
            return real_search(*args)

        def least(*args):
            masks = real_least(*args)
            kept.append(len(masks))
            return masks

        monkeypatch.setattr(canon, "_search", counted)
        monkeypatch.setattr(speed, "_search", counted)
        monkeypatch.setattr(speed, "_least_invariant_masks", least)
        canon._canon_code.cache_clear()
        table = avoidance_closure([make_cyclic(4).relabel([2, 0, 3, 1]), make_T((3,))], 5)
        assert table.seed == "avoid 3:010,4:001000"
        assert sum(kept) > 0
        assert len(calls) == canon._canon_code.cache_info().misses + sum(kept)

    @pytest.mark.parametrize("closure", [hereditary_closure, avoidance_closure])
    def test_closure_takes_one_keyword_option(self, closure):
        params = inspect.signature(closure).parameters
        assert "seed_description" not in params
        assert [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY] == ["mem_budget"]

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_all_classes_is_the_plain_closure(self, n_max):
        table = all_classes(n_max)
        assert table.seed == "all tournaments"
        assert table == avoidance_closure([], n_max)

    def test_memory_budget_stops_part_way_through_a_level(self):
        with pytest.raises(BudgetExceededError) as exc:
            avoidance_closure([], 6, mem_budget=2000)
        level, kept = _budget_stop(exc.value)
        assert level == 6
        assert 0 < kept < 56
        # levels 1-5 take 20 classes, 1,431 bytes, then 15 + 64 a class of
        # level 6: the eighth takes the total to 2,063
        assert kept == 8


class TestSubCounting:
    def test_whole_host(self):
        t = make_cyclic(5)
        assert distinct_sub_classes(t, 5) == (canonical_form(t).bits,)

    def test_single_vertex_level(self):
        assert count_sub_L((0, 1, 0), 1, 4) == 1

    def test_negative_size_refused(self):
        with pytest.raises(ValueError, match="must be non-negative, got -2"):
            count_sub_L((1, 1, 1), -2, 1)
        with pytest.raises(ValueError, match="must be non-negative, got -2"):
            count_sub_L_scan((1, 1, 1), -2, m_max=3)

    def test_all_ones_equals_fstar(self):
        for n in range(1, 8):
            values, stable = count_sub_L_scan((1, 1, 1), n)
            assert stable is not None
            assert values[-1][1] == fstar(n)

    def test_scan_monotone(self):
        values, _ = count_sub_L_scan((0, 1, 0), 5, m_max=6)
        counts = [c for _, c in values]
        assert counts == sorted(counts)

    def test_mixed_flag_lower_bound(self):
        for flags in ((0, 1, 0), (1, 0, 1)):
            for n in (4, 5):
                values, stable = count_sub_L_scan(flags, n, m_max=8)
                assert values[-1][1] >= 2 ** (n - 2)

    def test_pair_budget(self):
        with pytest.raises(InfeasibleSizeError):
            distinct_sub_classes(make_cyclic(30), 15)

    def test_pair_budget_is_the_cost_formula(self):
        # hosts on either side of the budget, for every subset size
        for n in (0, 1, 2, 5, 27, 28, 29, 60, 200, 1000):
            for k in range(n + 1):
                over = comb(n, k) * comb(k, 2) > speed.PAIR_BUDGET
                try:
                    speed.check_subset_budget(n, k)
                except InfeasibleSizeError as exc:
                    assert over, (n, k)
                    assert str(exc) == (
                        f"enumerating C({n},{k}) subsets needs more pair "
                        f"extractions than the budget of {speed.PAIR_BUDGET}"
                    )
                else:
                    assert not over, (n, k)

    def test_pair_budget_refuses_before_building_the_host(self, monkeypatch):
        # either host would take gigabytes of out-masks
        def unbuilt(*args):
            raise AssertionError("host built before the budget check")

        monkeypatch.setattr(verify, "make_M", unbuilt)
        monkeypatch.setattr(verify, "make_cyclic", unbuilt)
        with pytest.raises(InfeasibleSizeError, match=r"C\(3000000,3\)"):
            count_sub_L((1, 1, 1), 3, 10**6)
        with pytest.raises(InfeasibleSizeError, match=r"C\(2000000,1000000\)"):
            count_cyclic_subs(10**6)

    @pytest.mark.parametrize("flags", list(product((0, 1), repeat=3)))
    def test_matches_subset_scan_on_flag_hosts(self, flags):
        # equal partial states are common on flag hosts, so dedup is exercised
        for m in range(1, 5):
            host = make_M(flags, m)
            for k in range(8):
                assert distinct_sub_classes(host, k) == brute_sub_classes(host, k), (m, k)

    @given(
        st.integers(1, 12).flatmap(lambda n: st.tuples(
            st.integers(0, 2**32).map(lambda seed: random_tournament(n, seed)),
            st.integers(0, n),
        ))
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_subset_scan_on_random_hosts(self, case):
        host, k = case
        assert distinct_sub_classes(host, k) == brute_sub_classes(host, k)

    def test_cyclic_small(self):
        assert count_cyclic_subs(1) == 1
        assert count_cyclic_subs(3) == 2

    def test_cyclic_bound(self):
        for n in range(1, 8):
            assert count_cyclic_subs(n) >= ceil(2 ** (n - 1) / n)


class TestCountingChecks:
    def test_olarge_all_pass(self):
        assert all(c.holds for c in check_olarge(30))

    def test_cyclic_lower_is_the_exact_ceiling(self):
        # a float quotient is off from n = 57 and overflows from n = 1,036
        for n in range(1, 2001):
            assert verify._cyclic_lower(n) == ceil(Fraction(2 ** (n - 1), n)), n

    def test_olarge_tightness_at_six(self):
        assert 2**5 - 2 * comb(5, 2) - 6 == fstar(6)
        assert 2**3 - 2 == fstar(6)
        assert ceil(2**5 / 6) == fstar(6)

    def test_four_is_the_exception(self):
        assert ceil(2**3 / 4) < fstar(4)
        assert ceil(2**4 / 5) >= fstar(5)

    def test_tn_lower_formula(self):
        assert count_tn_lower(2) == 0
        assert count_tn_lower(6) == 6
        assert count_tn_lower(8) == 78

    def test_type1_subs_are_TS(self):
        # the sub-tournament carved for S is make_TS(n, S), labelled
        for n in range(2, 13):
            for bits, sub in enumerate(carved_type1_subs(n)):
                s = [i for i in range(1, n) if bits >> (i - 1) & 1]
                assert sub == make_TS(n, s), (n, bits)

    def test_type1_classes_match_the_carved_subs(self):
        for n in range(2, 11):
            want = {canonical_form(sub) for sub in carved_type1_subs(n)}
            assert type1_tn_classes(n) == len(want), n

    def test_type1_classes_bypass_the_shared_cache(self):
        # every carved sub-tournament is a distinct labelled code, so cached
        # codes would only fill the cache the closures share
        before = canon._canon_code.cache_info()
        assert type1_tn_classes(10) == 475
        assert canon._canon_code.cache_info() == before

    def test_type1_class_counts(self):
        got = [type1_tn_classes(n) for n in range(2, 13)]
        assert got == [1, 2, 4, 9, 21, 48, 106, 227, 475, 978, 1992]

    def test_type1_carries_enough_classes(self):
        assert type1_tn_classes(8) >= 78
        for n in range(2, 9):
            assert type1_tn_classes(n) >= count_tn_lower(n)

    def test_supermultiplicative_trivial_property(self):
        table = avoidance_closure([make_T((3,))], 6)
        report = check_supermultiplicative(table, forbidden=[make_T((3,))])
        assert report.passed

    def test_supermultiplicative_rejects_disconnected_pattern(self):
        with pytest.raises(ValueError):
            check_supermultiplicative(
                avoidance_closure([transitive(3)], 4), forbidden=[transitive(3)]
            )

    def test_supermultiplicative_needs_the_forbidden_patterns(self):
        # the strong-connectivity check always runs, so the patterns are required
        with pytest.raises(TypeError):
            check_supermultiplicative(avoidance_closure([make_cyclic(4)], 5))

    def test_supermultiplicative_finds_a_missing_concatenation(self):
        c4 = make_cyclic(4)
        table = avoidance_closure([c4], 5)
        w = canonical_form(concat(make_T((1,)), make_T((3,)))).to_tournament().bits
        assert w in table.codes[4]
        codes = {**table.codes, 4: table.codes[4] - {w}}
        report = check_supermultiplicative(SpeedTable(table.seed, codes), forbidden=[c4])
        assert not report.passed
        assert "concat of (1,3) pair lands outside level 4" in report.witness_failures

    def test_supermultiplicative_cyclic4(self):
        c4 = make_cyclic(4)
        table = avoidance_closure([c4], 7)
        report = check_supermultiplicative(table, forbidden=[c4])
        assert report.passed
        for m, n, prod, count, ok in report.inequalities:
            assert count >= prod and ok


class TestDichotomyAtDeskScale:
    """Every bundled example property either tracks a polynomial fit or its
    counts dominate the Fibonacci-type sequence on 5 <= n <= 10 (n = 4 is
    the one documented exception, for the cyclic closure)."""

    POLY = {"transitive-only": 0, "two-blocks": 1, "three-blocks": 2}

    def _bundled(self):
        from tourneykit import make_cyclic_blowup
        from tourneykit.verify import t_family_table

        yield "transitive-only", hereditary_closure([transitive(13)], 12)
        yield "two-blocks", hereditary_closure(
            [make_cyclic_blowup((12, 12, 1))], 12
        )
        yield "three-blocks", hereditary_closure(
            [make_cyclic_blowup((11, 11, 11))], 12
        )
        yield "stacked", t_family_table(13, 10)
        yield "cyclic", hereditary_closure(
            [make_cyclic(m) for m in range(1, 17)], 10
        )
        yield "avoid-strong-4", avoidance_closure([make_cyclic(4)], 9)

    def test_poly_or_fstar(self):
        from tourneykit import property_slope

        for name, table in self._bundled():
            hi = max(table.levels())
            if name in self.POLY:
                slope = property_slope(table, 6, hi)
                assert abs(slope - self.POLY[name]) <= 0.5, (name, slope)
            else:
                for n in range(5, hi + 1):
                    assert table.count(n) >= fstar(n), (name, n)

    def test_slope_needs_two_levels(self):
        from tourneykit import property_slope

        table = hereditary_closure([transitive(13)], 12)
        assert property_slope(table, 6, 7) == pytest.approx(0.0)
        for lo, hi in ((6, 6), (13, 20)):
            with pytest.raises(ValueError, match="a slope needs two"):
                property_slope(table, lo, hi)

    def test_cyclic_n4_exception(self):
        table = hereditary_closure([make_cyclic(m) for m in range(1, 17)], 4)
        assert table.count(4) == 2 < fstar(4)


class TestEngineBoundary:
    """speed is the enumeration engine; the paper's counts and bounds live
    in verify, beside the cases that check them."""

    MOVED = (
        "fstar", "count_sub_L", "count_sub_L_scan", "count_cyclic_subs",
        "count_tn_lower", "_i1zero_lower", "_cyclic_lower", "type1_tn_classes",
        "InequalityCase", "check_olarge", "property_slope",
    )

    def test_speed_binds_nothing_from_families_or_verify(self):
        from tourneykit import speed

        homes = {"tourneykit.families", "tourneykit.verify"}
        borrowed = sorted(
            name
            for name, value in vars(speed).items()
            if getattr(value, "__module__", None) in homes
            or getattr(value, "__name__", None) in homes
        )
        assert borrowed == []

    def test_the_counts_are_verify_s(self):
        from tourneykit import speed, verify

        assert [n for n in self.MOVED if hasattr(speed, n)] == []
        assert [n for n in self.MOVED if not hasattr(verify, n)] == []

    def test_the_engine_keeps_the_names_perfbench_reads(self):
        from tourneykit import speed

        for name in (
            "hereditary_closure",
            "avoidance_closure",
            "check_supermultiplicative",
            "SupermultReport",
            "all_classes",
            "distinct_sub_classes",
        ):
            assert callable(getattr(speed, name)), name
        assert callable(speed.SpeedTable.is_downward_closed)
