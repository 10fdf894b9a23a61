"""Closure enumeration, sub-tournament counting, and the counting checks."""

import json
import os
import re
import subprocess
import sys
from math import ceil, comb
from pathlib import Path

import pytest

from tourneykit import (
    BudgetExceededError,
    InfeasibleSizeError,
    avoidance_closure,
    canonical_form,
    check_olarge,
    check_supermultiplicative,
    count_cyclic_subs,
    count_sub_L,
    count_sub_L_scan,
    count_tn_lower,
    distinct_sub_classes,
    fstar,
    hereditary_closure,
    make_T,
    make_cyclic,
    random_tournament,
    type1_tn_classes,
)
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

    def test_cyclic_family_level_four(self):
        seeds = [make_cyclic(m) for m in range(1, 13)]
        table = hereditary_closure(seeds, 4)
        assert table.count(4) == 2

    def test_downward_closed(self):
        table = hereditary_closure([make_cyclic(7), transitive(6)], 7)
        assert table.is_downward_closed()

    def test_worker_pool_matches_serial(self):
        seeds = [make_T(s) for s in composition_seqs(9)]
        serial = hereditary_closure(seeds, 9, workers=1)
        parallel = hereditary_closure(seeds, 9, workers=2)
        assert serial.forms == parallel.forms

    def test_seed_bound(self):
        with pytest.raises(InfeasibleSizeError):
            hereditary_closure([transitive(40)], 5)

    def test_memory_budget(self):
        with pytest.raises(BudgetExceededError):
            hereditary_closure([make_cyclic(12)], 6, mem_budget=512)

    def test_memory_budget_stops_part_way_through_a_level(self):
        seed = random_tournament(9, 5)
        full = hereditary_closure([seed], 9)
        with pytest.raises(BudgetExceededError) as exc:
            hereditary_closure([seed], 9, mem_budget=400)
        level, kept = _budget_stop(exc.value)
        assert 0 < kept < full.count(level)

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
        table = hereditary_closure([transitive(4)], 4, seed_description="t4")
        data = json.loads(table.to_json(include_forms=True))
        assert data["seed"] == "t4"
        assert data["levels"]["4"]["count"] == 1
        assert data["levels"]["4"]["forms"] == ["000000"]

    def test_csv_shape(self):
        table = hereditary_closure([transitive(3)], 3)
        assert table.to_csv() == "n,count\n1,1\n2,1\n3,1\n"


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

    def test_memory_budget_stops_part_way_through_a_level(self):
        with pytest.raises(BudgetExceededError) as exc:
            avoidance_closure([], 6, mem_budget=2000)
        level, kept = _budget_stop(exc.value)
        assert level == 6
        assert 0 < kept < 56


class TestSubCounting:
    def test_whole_host(self):
        t = make_cyclic(5)
        assert distinct_sub_classes(t, 5) == (canonical_form(t).bits,)

    def test_single_vertex_level(self):
        assert count_sub_L((0, 1, 0), 1, 4) == 1

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
            distinct_sub_classes(make_cyclic(30), 15, pair_budget=1000)

    def test_cyclic_small(self):
        assert count_cyclic_subs(1) == 1
        assert count_cyclic_subs(3) == 2

    def test_cyclic_bound(self):
        for n in range(1, 8):
            assert count_cyclic_subs(n) >= ceil(2 ** (n - 1) / n)


class TestCountingChecks:
    def test_olarge_all_pass(self):
        assert all(c.holds for c in check_olarge(30))

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

    def test_cyclic_n4_exception(self):
        table = hereditary_closure([make_cyclic(m) for m in range(1, 17)], 4)
        assert table.count(4) == 2 < fstar(4)
