"""Core tournament type: encoding, elementary operations, serialization."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_has_cyclic_triangle,
    brute_strongly_connected,
    pair_out_masks,
    reference_bits_to_line,
    reference_line_to_bits,
)
from tourneykit import (
    Tournament,
    canonical_form,
    concat,
    make_T,
    make_cyclic,
    pair_count,
    random_tournament,
    read_edge_list,
)
from tourneykit.tournament import _delete_bits, _delete_out, bits_to_line, line_to_bits


def tournaments(max_n=8):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            Tournament,
            st.just(n),
            st.integers(0, (1 << pair_count(n)) - 1),
        )
    )


def transitive(n):
    return make_T((1,) * n)


class TestEncoding:
    def test_every_pair_oriented_once(self):
        rng = random.Random(0)
        for _ in range(200):
            t = random_tournament(rng.randrange(0, 9), rng)
            for u in range(t.n):
                for v in range(u + 1, t.n):
                    assert t.beats(u, v) != t.beats(v, u)

    def test_out_masks_match_per_pair_decode(self):
        for n in range(7):
            for code in range(1 << pair_count(n)):
                t = Tournament(n, code)
                assert t.out_masks == pair_out_masks(t), (n, code)
        rng = random.Random(5)
        for n in range(7, 41):
            for _ in range(5):
                t = random_tournament(n, rng)
                assert t.out_masks == pair_out_masks(t), (n, t)

    def test_out_degrees_sum(self):
        for n in range(9):
            t = random_tournament(n, 42)
            assert sum(t.out_degrees()) == n * (n - 1) // 2

    def test_no_self_loops(self):
        t = random_tournament(5, 1)
        with pytest.raises(ValueError):
            t.beats(2, 2)

    def test_small_sizes_are_legal(self):
        assert Tournament(0).is_transitive()
        assert Tournament(0).is_strongly_connected()
        assert Tournament(1).is_transitive()
        assert Tournament(1).is_strongly_connected()


class TestInduced:
    def test_restriction_of_linear_order(self):
        assert transitive(5).induced([0, 2, 4]) == transitive(3)

    def test_identity_subset(self):
        t = random_tournament(7, 3)
        assert t.induced(range(7)) == t

    def test_two_subsets_of_triangle(self):
        cyc = make_T((3,))
        # only one tournament on 2 vertices, up to isomorphism
        forms = {canonical_form(cyc.induced(pair)) for pair in ([0, 1], [0, 2], [1, 2])}
        assert len(forms) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            transitive(3).induced([0, 3])
        with pytest.raises(ValueError):
            transitive(3).induced([0, 0, 1])

    def test_induced_at_the_random_cap(self):
        # 2048 vertices, the largest `gen random` allows
        t = random_tournament(2048, 1)
        start = time.perf_counter()
        assert t.induced(range(2048)) == t
        evens = t.induced(range(0, 2048, 2))
        assert time.perf_counter() - start < 5.0
        rng = random.Random(7)
        for _ in range(500):
            a, b = rng.sample(range(1024), 2)
            assert evens.beats(a, b) == t.beats(2 * a, 2 * b)

    def test_delete_bits_every_code_up_to_six_vertices(self):
        for n in range(1, 7):
            for code in range(1 << pair_count(n)):
                t = Tournament(n, code)
                for v in range(n):
                    rest = [u for u in range(n) if u != v]
                    assert _delete_bits(n, code, v) == t.induced(rest).bits, (n, code, v)

    def test_delete_bits_random_codes(self):
        rng = random.Random(5)
        for n in range(7, 41):
            for _ in range(20):
                t = random_tournament(n, rng)
                for v in (0, rng.randrange(n), n - 1):
                    rest = [u for u in range(n) if u != v]
                    assert _delete_bits(n, t.bits, v) == t.induced(rest).bits, (t, v)

    def test_delete_out_matches_delete_bits(self):
        rng = random.Random(6)
        for n in range(1, 25):
            for _ in range(8):
                t = random_tournament(n, rng)
                for v in range(n):
                    want = Tournament(n - 1, _delete_bits(n, t.bits, v)).out_masks
                    assert _delete_out(t.out_masks, v) == want, (t, v)

    def test_delete_checks_its_vertex(self):
        assert transitive(4).delete(2) == transitive(3)
        for v in (-1, 4):
            with pytest.raises(ValueError):
                transitive(4).delete(v)

    @given(tournaments(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_composition(self, t, data):
        outer = sorted(
            data.draw(st.sets(st.integers(0, max(t.n - 1, 0)), max_size=t.n))
        ) if t.n else []
        inner_idx = sorted(
            data.draw(st.sets(st.integers(0, max(len(outer) - 1, 0)),
                              max_size=len(outer)))
        ) if outer else []
        via_two = t.induced(outer).induced(inner_idx)
        composed = t.induced([outer[i] for i in inner_idx])
        assert via_two == composed


class TestRelabel:
    def test_matches_predicate_relabelling(self):
        rng = random.Random(21)
        for n in range(31):
            for _ in range(4):
                t = random_tournament(n, rng)
                perm = list(range(n))
                rng.shuffle(perm)
                inv = [0] * n
                for i, p in enumerate(perm):
                    inv[p] = i
                want = Tournament.from_beats(n, lambda i, j: t.beats(inv[i], inv[j]))
                assert t.relabel(perm) == want, (t, perm)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            make_cyclic(3).relabel([0, 0, 1])


class TestDegreesAndPredicates:
    def test_source_degree(self):
        assert transitive(4).out_degree(0) == 3

    def test_triangle_degrees(self):
        cyc = make_T((3,))
        assert [cyc.out_degree(v) for v in range(3)] == [1, 1, 1]

    def test_cyclic4_first_vertex(self):
        assert make_cyclic(4).out_degree(0) == 2

    def test_transitive_predicate(self):
        assert transitive(6).is_transitive()
        assert not make_T((3,)).is_transitive()
        assert not make_cyclic(6).is_transitive()

    def test_transitive_iff_no_cyclic_triangle_exhaustive(self):
        for n in range(6):
            for code in range(1 << pair_count(n)):
                t = Tournament(n, code)
                assert t.is_transitive() == (not brute_has_cyclic_triangle(t))

    @given(tournaments(7))
    @settings(max_examples=150, deadline=None)
    def test_transitive_iff_no_cyclic_triangle(self, t):
        assert t.is_transitive() == (not brute_has_cyclic_triangle(t))

    def test_strong_connectivity_examples(self):
        assert make_T((3,)).is_strongly_connected()
        assert make_cyclic(4).is_strongly_connected()
        for n in range(2, 7):
            assert not transitive(n).is_strongly_connected()

    @given(tournaments(7))
    @settings(max_examples=120, deadline=None)
    def test_strong_connectivity_vs_bipartition(self, t):
        assert t.is_strongly_connected() == brute_strongly_connected(t)


class TestConcat:
    def test_two_singles(self):
        assert concat(Tournament(1), Tournament(1)) == transitive(2)

    def test_transitive_blocks(self):
        assert concat(transitive(3), transitive(4)) == transitive(7)

    def test_triangles_give_stacked_pair(self):
        got = concat(make_T((3,)), make_T((3,)))
        assert canonical_form(got) == canonical_form(make_T((3, 3)))

    @given(tournaments(5), tournaments(5))
    @settings(max_examples=60, deadline=None)
    def test_restrictions_recover_parts(self, g1, g2):
        w = concat(g1, g2)
        assert w.induced(range(g1.n)) == g1
        assert w.induced(range(g1.n, g1.n + g2.n)) == g2
        for i in range(g1.n):
            for j in range(g1.n, w.n):
                assert w.beats(i, j)


class TestSerialization:
    def test_trn_round_trip(self):
        for n in (0, 1, 2, 5, 9):
            t = random_tournament(n, n)
            assert Tournament.from_trn(t.to_trn()) == t

    def test_trn_shape(self):
        text = make_T((1, 3)).to_trn()
        lines = text.splitlines()
        assert lines[0] == "4"
        assert len(lines[1]) == 6 and set(lines[1]) <= {"0", "1"}

    def test_trn_rejects_bad_body(self):
        with pytest.raises(ValueError):
            Tournament.from_trn("3\n01")
        with pytest.raises(ValueError):
            Tournament.from_trn("2\n2")

    @pytest.mark.parametrize(
        "body, bad",
        [("1_0", "_"), ("+10", "+"), ("1 0", " "), ("1\t0", "\t"), ("0b1", "b")],
        ids=["underscore", "plus", "space", "tab", "prefix"],
    )
    def test_trn_names_a_bad_character_inside_the_body(self, body, bad):
        # int(s, 2) alone would accept each of these
        named = re.escape(f"character {bad!r}")
        with pytest.raises(ValueError, match=named):
            Tournament.from_trn(f"3\n{body}")
        with pytest.raises(ValueError, match=named):
            reference_line_to_bits(body)

    def test_converters_match_the_per_character_reference(self):
        for n in range(7):
            for code in range(1 << pair_count(n)):
                line = bits_to_line(n, code)
                assert line == reference_bits_to_line(n, code), (n, code)
                assert line_to_bits(line) == code, (n, code)
        rng = random.Random(16)
        for _ in range(500):
            n = rng.randrange(7, 65)
            code = rng.getrandbits(pair_count(n))
            line = bits_to_line(n, code)
            assert line == reference_bits_to_line(n, code), (n, code)
            assert line_to_bits(line) == reference_line_to_bits(line) == code, (n, code)

    def test_trn_round_trip_at_the_random_cap(self):
        # 2048 vertices, the largest `gen random` allows: 2,096,128 pair bits
        t = random_tournament(2048, 1)
        start = time.perf_counter()
        assert Tournament.from_trn(t.to_trn()) == t
        assert time.perf_counter() - start < 2.0

    def test_edge_list(self):
        t = read_edge_list("0 1\n2 0\n1 2\n")
        assert canonical_form(t) == canonical_form(make_T((3,)))

    def test_edge_list_rejects_incomplete(self):
        with pytest.raises(ValueError):
            read_edge_list("0 1\n1 2\n")

    @pytest.mark.parametrize(
        "count", ["1_0", "+3", "\u0663", "3\u0663", "0x3", "-0", ""],
        ids=["underscore", "plus", "arabic-indic", "mixed", "hex", "minus-zero", "empty"],
    )
    def test_trn_vertex_count_takes_ascii_digits_only(self, count):
        # int() alone would accept the first three
        with pytest.raises(ValueError, match=re.escape(repr(count))):
            Tournament.from_trn(f"{count}\n010")

    def test_trn_vertex_count_may_carry_surrounding_whitespace(self):
        assert Tournament.from_trn(" 3\t\n010") == Tournament(3, line_to_bits("010"))

    @pytest.mark.parametrize("vid", ["+1", "1_0", "\u0661", "-1"])
    def test_edge_list_ids_take_ascii_digits_only(self, vid):
        named = "line 1: vertex id must be non-negative, in ASCII decimal digits, got "
        named = re.escape(named + repr(vid))
        with pytest.raises(ValueError, match=named):
            read_edge_list(f"0 {vid}\n")

    def test_edge_list_of_random_tournaments(self):
        for n in (2, 5, 60):
            t = random_tournament(n, n)
            text = "".join(
                f"{u} {v}\n" for u, o in enumerate(t.out_masks) for v in range(n) if o >> v & 1
            )
            assert read_edge_list(text) == t

    def test_edge_list_rejects_double_orientation(self):
        with pytest.raises(ValueError):
            read_edge_list("0 1\n1 0\n")
