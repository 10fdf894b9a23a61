"""Acceptance suite: every top-level counting/structure claim at its stated
tolerance, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on passing runs as well).
"""

import random
import time
from itertools import combinations, groupby
from math import ceil, comb

from oracles import (
    brute_type1,
    brute_type2,
    labelled_orbit_class_count,
)
from tourneykit import (
    Tournament,
    all_classes,
    automorphism_order,
    avoidance_closure,
    canonical_form,
    check_olarge,
    check_supermultiplicative,
    count_cyclic_subs,
    count_sub_L_scan,
    decompose,
    detect_type1,
    detect_type2,
    dn_membership,
    fstar,
    hereditary_closure,
    make_M,
    make_T,
    make_cyclic,
    make_moon_tower,
    make_type1,
    pair_count,
    random_tournament,
    separate_blocks,
)
from tourneykit.verify import _dn_shape, composition_seqs, t_family_table, theorem2_slope

_started = time.monotonic


def report(criterion: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_canonical_counting_oracle():
    t0 = _started()
    expected = [1, 1, 2, 4, 12, 56]
    oracle = [labelled_orbit_class_count(n) for n in range(1, 7)]
    via_canon = [
        len({canonical_form(Tournament(n, b)) for b in range(1 << pair_count(n))})
        for n in range(1, 7)
    ]
    elapsed = _started() - t0
    ok = oracle == expected == via_canon and elapsed < 10.0
    report(
        "01",
        ok,
        elapsed,
        f"orbit oracle {oracle}, canonical dedup {via_canon}, want {expected}",
    )


def test_c02_stacked_family_speed_equals_fstar():
    t0 = _started()
    table = t_family_table(13, 10)
    counts = [table.count(n) for n in range(1, 11)]
    want = [fstar(n) for n in range(1, 11)]
    elapsed = _started() - t0
    ok = counts == want and fstar(4) == 3 and fstar(5) == 4 and elapsed < 60
    report("02", ok, elapsed, f"counts {counts}, fstar {want}")


def test_c03_all_ones_flag_family_exact():
    t0 = _started()
    results = {}
    ok = True
    for n in range(1, 10):
        values, stable = count_sub_L_scan((1, 1, 1), n, m_max=12)
        results[n] = (values[-1][1], stable)
        ok = ok and stable is not None and values[-1][1] == fstar(n)
    elapsed = _started() - t0
    ok = ok and elapsed < 300
    report("03", ok, elapsed, f"(count, stabilized_m) per n: {results}")


def test_c04_mixed_flag_lower_bound():
    t0 = _started()
    detail = []
    ok = True
    for flags in [(i1, i2, 1 - i2) for i1 in (0, 1) for i2 in (0, 1)]:
        for n in range(2, 7):
            values, stable = count_sub_L_scan(flags, n, m_max=10)
            count = values[-1][1]
            need = 2 ** (n - 2)
            # unstabilized scans degrade to the bound at the largest m;
            # monotonicity in m is asserted inside the scan
            good = count >= need
            ok = ok and good
            if n == 6:
                detail.append(f"I={flags}: {count}>={need} m*={stable}")
    elapsed = _started() - t0
    ok = ok and elapsed < 600
    report("04", ok, elapsed, "; ".join(detail))


def test_c05_zero_flag_lower_bound():
    t0 = _started()
    detail = []
    ok = True
    for flags in ((0, 0, 0), (0, 1, 1)):
        for n in range(2, 7):
            values, stable = count_sub_L_scan(flags, n, m_max=10)
            count = values[-1][1]
            need = max(0, 2 ** (n - 3) - 2)
            ok = ok and count >= need
            if n == 6:
                detail.append(f"I={flags}: {count}>={need} m*={stable}")
    elapsed = _started() - t0
    ok = ok and elapsed < 600
    report("05", ok, elapsed, "; ".join(detail))


def test_c06_cyclic_host_lower_bound():
    t0 = _started()
    counts = {n: count_cyclic_subs(n) for n in range(1, 9)}
    ok = all(counts[n] >= ceil(2 ** (n - 1) / n) for n in counts)
    ok = ok and counts[3] == 2
    elapsed = _started() - t0
    ok = ok and elapsed < 60
    report("06", ok, elapsed, f"counts {counts}")


def test_c07_two_transitive_sets_bound_and_shapes():
    t0 = _started()
    ok = True
    sizes = {}
    for n in range(1, 9):
        members = [
            frozenset(s)
            for r in range(n + 1)
            for s in combinations(range(1, n + 1), r)
            if dn_membership(n, s)
        ]
        sizes[n] = len(members)
        ok = ok and len(members) <= 2 * comb(n, 2) + n + 1
        ok = ok and all(_dn_shape(n, s) for s in members)
    elapsed = _started() - t0
    ok = ok and elapsed < 120
    report("07", ok, elapsed, f"member counts {sizes}")


def test_c08_small_level_counts():
    t0 = _started()
    cyc = hereditary_closure([make_cyclic(m) for m in range(1, 13)], 4)
    got4 = cyc.count(4)
    ok = got4 == 2
    t1_counts = []
    for flavor in (0, 1):
        tab = hereditary_closure([make_type1(3, flavor)], 5)
        t1_counts.append(tab.count(5))
        ok = ok and tab.count(5) >= 4
    m_counts = []
    for flags in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
        tab = hereditary_closure([make_M(flags, 3)], 5)
        m_counts.append(tab.count(5))
        ok = ok and tab.count(5) >= 4
    elapsed = _started() - t0
    ok = ok and elapsed < 60
    report(
        "08",
        ok,
        elapsed,
        f"cyclic level4={got4}, type1 level5={t1_counts}, M_I level5={m_counts}",
    )


def test_c09_moon_tower_automorphisms():
    t0 = _started()
    got = [automorphism_order(make_moon_tower(level)) for level in (1, 2, 3)]
    elapsed = _started() - t0
    ok = got == [3, 81, 3**13] and elapsed < 5
    report("09", ok, elapsed, f"orders {got}, want [3, 81, {3**13}]")


def test_c10_counting_inequalities():
    t0 = _started()
    cases = check_olarge(30)
    ok = all(c.holds for c in cases)
    tight = (
        2**5 - 2 * comb(5, 2) - 6 == fstar(6)
        and 2**3 - 2 == fstar(6)
        and ceil(2**5 / 6) == fstar(6)
    )
    exception = ceil(2**3 / 4) < fstar(4)
    elapsed = _started() - t0
    ok = ok and tight and exception and elapsed < 1.0
    report(
        "10",
        ok,
        elapsed,
        f"{len(cases)} inequality cases, tight at n=6: {tight}, "
        f"n=4 exception: {exception}",
    )


def test_c11_concatenation_supermultiplicativity():
    t0 = _started()
    c4 = make_cyclic(4)
    table = avoidance_closure([c4], 9)
    rep = check_supermultiplicative(table, forbidden=[c4])
    elapsed = _started() - t0
    ok = rep.passed and elapsed < 120
    report(
        "11",
        ok,
        elapsed,
        f"{len(rep.inequalities)} (m,n) inequalities, "
        f"{len(rep.witness_failures)} witness failures",
    )


def test_c12a_relation_is_equivalence():
    t0 = _started()
    table = all_classes(6)
    for n in table.levels():
        for t in table.members(n):
            decompose(t)  # raises BlockRelationError on any violation
    rng = random.Random(20260810)
    for _ in range(10_000):
        decompose(random_tournament(rng.randrange(1, 9), rng))
    elapsed = _started() - t0
    report(
        "12a",
        True,
        elapsed,
        "pairwise relation closed under union-find with no violation "
        "(classes n<=6 exhaustive + 10^4 random n<=8)",
    )


def test_c12b_quotient_has_singleton_blocks():
    t0 = _started()
    table = all_classes(6)
    ok = True
    for n in table.levels():
        for t in table.members(n):
            q = decompose(t).quotient
            ok = ok and decompose(q).sequence == (1,) * q.n
    rng = random.Random(1)
    for _ in range(2_000):
        t = random_tournament(rng.randrange(1, 9), rng)
        q = decompose(t).quotient
        ok = ok and decompose(q).sequence == (1,) * q.n
    elapsed = _started() - t0
    report("12b", ok, elapsed, "every quotient decomposes into singletons")


def _run_triangle_partition(seq) -> set[frozenset[int]]:
    """Blocks of make_T(seq) read off seq: each maximal run of 1-terms is one
    block, each vertex of a 3-term (cyclic triangle) is a block of its own."""
    blocks: set[frozenset[int]] = set()
    v = 0
    for a, group in groupby(seq):
        size = a * len(list(group))
        if a == 1:
            blocks.add(frozenset(range(v, v + size)))
        else:
            blocks.update(frozenset({w}) for w in range(v, v + size))
        v += size
    return blocks


def test_c12c_block_count_of_stacked_family():
    t0 = _started()
    seqs = list(composition_seqs(10))
    mismatches = []
    for seq in seqs:
        got = set(decompose(make_T(seq)).blocks)
        if got != _run_triangle_partition(seq):
            mismatches.append((seq, sorted(sorted(b) for b in got)))
    elapsed = _started() - t0
    ok = len(seqs) == 86 and not mismatches
    report(
        "12c",
        ok,
        elapsed,
        f"blocks of make_T(seq) for all {len(seqs)} seqs over {{1, 3}} with "
        "sum <= 10 are the maximal runs of 1-terms plus each triangle vertex "
        "alone, so B = #runs of 1s + 3 x #3s (see notes/decisions.md); "
        f"{len(mismatches)} mismatches, first: {mismatches[:3]}",
    )


def test_c13_separation_procedure():
    t0 = _started()
    rng = random.Random(13)
    singles = 0
    while singles < 1_000:
        t = random_tournament(rng.randrange(4, 13), rng)
        dec = decompose(t)
        if len(dec.blocks) < 2:
            continue
        bj, bl = rng.sample(dec.blocks, 2)
        if not t.beats(min(bj), min(bl)):
            bj, bl = bl, bj
        base = bj | bl
        extras = {v for v in range(t.n) if v not in base and rng.random() < 0.3}
        a = frozenset(base | extras)
        if not _merged(t, a, bj, bl):
            a = frozenset(base)
            if not _merged(t, a, bj, bl):
                continue
        grown = separate_blocks(t, a, bj, bl)
        assert len(grown - a) <= 3, "separation added more than 3 vertices"
        assert not _merged(t, grown, bj, bl), "blocks still merged"
        singles += 1

    iterated = 0
    max_rounds = 0
    while iterated < 100:
        t = random_tournament(rng.randrange(5, 13), rng)
        dec = decompose(t)
        if len(dec.blocks) < 3:
            continue
        targets = rng.sample(dec.blocks, 3)
        a = frozenset().union(*targets)
        rounds = 0
        while True:
            pair = _first_merged_pair(t, a, targets)
            if pair is None:
                break
            bj, bl = pair
            if not t.beats(min(bj), min(bl)):
                bj, bl = bl, bj
            a = separate_blocks(t, a, bj, bl)
            rounds += 1
            assert rounds <= 3, "iterated separation exceeded 3 rounds"
        max_rounds = max(max_rounds, rounds)
        iterated += 1
    elapsed = _started() - t0
    report(
        "13",
        True,
        elapsed,
        f"1000 single separations ok; 100 iterated runs, max rounds {max_rounds}",
    )


def _merged(t, a, bj, bl):
    order = sorted(a)
    pj = {order.index(v) for v in bj}
    pl = {order.index(v) for v in bl}
    return any(b & pj and b & pl for b in decompose(t.induced(order)).blocks)


def _first_merged_pair(t, a, targets):
    for i, bj in enumerate(targets):
        for bl in targets[i + 1 :]:
            if _merged(t, a, bj, bl):
                return bj, bl
    return None


def test_c14_detection_matches_exhaustive_search():
    t0 = _started()
    table = all_classes(7)
    checked = 0
    for n in table.levels():
        for t in table.members(n):
            for k in (1, 2):
                assert (detect_type1(t, k) is not None) == brute_type1(t, k)
                assert (detect_type2(t, k) is not None) == brute_type2(t, k)
                checked += 1
    elapsed = _started() - t0
    ok = elapsed < 300
    report("14", ok, elapsed, f"{checked} (tournament, k) comparisons, all equal")


def test_c15_engineered_block_slopes():
    t0 = _started()
    slopes = {}
    ok = True
    for k in (1, 2):
        slope, table = theorem2_slope(k)
        slopes[k] = round(slope, 3)
        ok = ok and abs(slope - k) <= 0.35
    elapsed = _started() - t0
    ok = ok and elapsed < 600
    report("15", ok, elapsed, f"log-log slopes {slopes}, tolerance +-0.35")
