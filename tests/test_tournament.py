"""Core tournament type: encoding, elementary operations, serialization."""

import random
import re
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_labelled,
    brute_has_cyclic_triangle,
    brute_strong_components,
    brute_strongly_connected,
    pair_out_masks,
    reference_bits_to_line,
    reference_from_beats,
    reference_induced,
    reference_line_to_bits,
)
from tourneykit import (
    Tournament,
    canonical_form,
    concat,
    make_T,
    make_cyclic,
    pair_count,
    pair_index,
    random_tournament,
    read_edge_list,
    substitute,
)
from tourneykit.tournament import (
    _PAIR_BITS,
    _components_less,
    _condense,
    _degree_buckets,
    _delete_bits,
    _induced_out,
    _row_major_pairs,
    _strong_components,
    bits_to_line,
    bits_to_out_masks,
    line_to_bits,
)


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

    def test_beats_reads_the_pair_bit(self):
        for n in range(6):
            for t in all_labelled(n):
                for u in range(n):
                    for v in range(n):
                        if u != v:
                            bit = t.bits >> pair_index(n, min(u, v), max(u, v)) & 1
                            assert t.beats(u, v) == bool(bit ^ (u > v)), (t, u, v)

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

    def test_one_run_squeeze_matches_delete_bits(self):
        rng = random.Random(6)
        for n in range(1, 25):
            full = (1 << n) - 1
            for _ in range(8):
                t = random_tournament(n, rng)
                for v in range(n):
                    want = Tournament(n - 1, _delete_bits(n, t.bits, v)).out_masks
                    assert _induced_out(t.out_masks, full ^ 1 << v) == want, (t, v)

    def test_every_subset_up_to_five_vertices(self):
        for n in range(6):
            for t in all_labelled(n):
                for keep in range(1 << n):
                    vs = [v for v in range(n) if keep >> v & 1]
                    assert t.induced(vs) == reference_induced(t, vs), (t, vs)

    def test_random_subsets_of_every_class_up_to_seven_vertices(self, classes_by_n):
        rng = random.Random(8)
        for n, members in classes_by_n.items():
            for t in members:
                for _ in range(6):
                    vs = rng.sample(range(n), rng.randrange(n + 1))
                    assert t.induced(vs) == reference_induced(t, vs), (t, vs)

    @pytest.mark.parametrize("n", [9, 64, 257, 2048])
    def test_few_runs_and_alternating_subsets_of_relabelled_random(self, n):
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        t = random_tournament(n, rng).relabel(perm)
        # a few long runs dropped, and every other vertex dropped
        cuts = sorted(rng.sample(range(1, n), 6))
        few = [v for v in range(n) if sum(c <= v for c in cuts) % 2 == 0]
        for vs in (few, range(0, n, 2), range(1, n, 2)):
            assert t.induced(vs) == reference_induced(t, vs), (n, vs)

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


class TestKeptOutMasks:
    """``relabel``, ``substitute`` and ``induced`` keep the full out-masks
    they build on their result, so searches need not decode its pair bits
    again."""

    def test_they_equal_the_decoded_masks(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randrange(0, 20)
            t = random_tournament(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            k = rng.randrange(0, 6)
            parts = [random_tournament(rng.randrange(0, 5), rng) for _ in range(k)]
            sub = rng.sample(range(n), rng.randrange(n + 1))
            quotient = random_tournament(k, rng)
            for got in (t.relabel(perm), substitute(quotient, parts), t.induced(sub)):
                assert got._out == bits_to_out_masks(got.n, got.bits), got


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

    def test_strong_connectivity_vs_bipartition_exhaustive(self):
        for n in range(7):
            for t in all_labelled(n):
                assert t.is_strongly_connected() == brute_strongly_connected(t), t

    @given(tournaments(7))
    @settings(max_examples=120, deadline=None)
    def test_strong_connectivity_vs_bipartition(self, t):
        assert t.is_strongly_connected() == brute_strongly_connected(t)


class TestStrongComponents:
    def test_against_reachability_exhaustive(self):
        for n in range(7):
            for t in all_labelled(n):
                assert _strong_components(t.out_masks) == brute_strong_components(t), t

    def test_against_reachability_on_relabelled_substitutions(self):
        # parts strong or not on a transitive quotient: the components are
        # those of the parts, in quotient order
        rng = random.Random(21)
        for _ in range(400):
            k = rng.randrange(1, 12)
            parts = [random_tournament(rng.randrange(0, 7), rng) for _ in range(k)]
            t = substitute(transitive(k), parts)
            perm = list(range(t.n))
            rng.shuffle(perm)
            t = t.relabel(perm)
            assert _strong_components(t.out_masks) == brute_strong_components(t), t

    def test_within_a_vertex_mask(self):
        # the components of the sub-tournament on keep, in the host's labels
        for n in range(6):
            for t in all_labelled(n):
                for keep in range(1 << n):
                    vs = [v for v in range(n) if keep >> v & 1]
                    want = [
                        sum(1 << v for i, v in enumerate(vs) if part >> i & 1)
                        for part in brute_strong_components(t.induced(vs))
                    ]
                    assert _strong_components(t.out_masks, keep) == want, (t, keep)

    def test_each_component_gets_its_own_buckets(self):
        # a component's out-degrees within it are its out-degrees less the
        # size of the components after it
        for n in range(7):
            for t in all_labelled(n):
                out = t.out_masks
                for part, buckets in _condense(_degree_buckets(out)):
                    assert buckets == _degree_buckets(out, part), (t, part)

    def test_less_a_vertex_from_the_buckets(self):
        # every vertex of every component, on every labelled n <= 6 and on
        # relabelled substitutions whose components reach 7 vertices
        rng = random.Random(34)
        hosts = [t for n in range(7) for t in all_labelled(n)]
        for _ in range(300):
            k = rng.randrange(1, 5)
            t = substitute(transitive(k), [random_tournament(rng.randrange(1, 8), rng) for _ in range(k)])
            perm = list(range(t.n))
            rng.shuffle(perm)
            hosts.append(t.relabel(perm))
        for t in hosts:
            out = t.out_masks
            for part, buckets in _condense(_degree_buckets(out)):
                for v in range(t.n):
                    if part >> v & 1:
                        got = _components_less(buckets, out[v], 1 << v)
                        assert got == _strong_components(out, part ^ 1 << v), (t, v)


class _Truthy:
    """Truthy or not by a flag, through ``__bool__``."""

    def __init__(self, flag):
        self.flag = flag

    def __bool__(self):
        return bool(self.flag)


# n = 0..40 and 100: one chunk of pair bits, several chunks, and beyond the
# sizes whose pairs are kept
FROM_BEATS_SIZES = (*range(41), 100)


class _Recorder:
    """A predicate that records its calls, returns ``values[k]`` on call k
    and raises on call ``stop``."""

    def __init__(self, values, stop=None):
        self.values = values
        self.stop = stop
        self.calls = []

    def __call__(self, i, j):
        if len(self.calls) == self.stop:
            raise RuntimeError(f"stop at pair {self.stop}")
        self.calls.append((i, j))
        return self.values[len(self.calls) - 1]


class TestFromBeats:
    @pytest.mark.parametrize(
        "kind",
        [
            lambda b: b,
            bool,
            np.bool_,
            _Truthy,
            lambda b: [0] * b,
            lambda b: "x" if b else "",
            lambda b: 7 if b else None,
        ],
        ids=["int", "bool", "numpy.bool_", "__bool__", "list", "str", "None"],
    )
    def test_bits_match_reference(self, kind):
        rng = random.Random(7)
        for n in FROM_BEATS_SIZES:
            values = [kind(rng.getrandbits(1)) for _ in range(pair_count(n))]
            got = Tournament.from_beats(n, _Recorder(values))
            assert got.bits == reference_from_beats(n, _Recorder(values)), n

    def test_calls_once_per_pair_in_row_major_order(self):
        # so a chunk of pair bits shorter than the pairs drops none of them
        for n in FROM_BEATS_SIZES:
            got = _Recorder([1] * pair_count(n))
            want = _Recorder([1] * pair_count(n))
            Tournament.from_beats(n, got)
            reference_from_beats(n, want)
            assert got.calls == want.calls == list(combinations(range(n), 2)), n

    def test_a_raise_propagates_after_the_same_calls(self):
        chunk = len(_PAIR_BITS)
        for n in (2, 5, 12, 33, 40, 100):
            m = pair_count(n)
            for stop in sorted({0, 1, m // 2, m - 1, chunk - 1, chunk, chunk + 1} & set(range(m))):
                got = _Recorder([1] * m, stop)
                want = _Recorder([1] * m, stop)
                with pytest.raises(RuntimeError, match=f"stop at pair {stop}$"):
                    Tournament.from_beats(n, got)
                with pytest.raises(RuntimeError, match=f"stop at pair {stop}$"):
                    reference_from_beats(n, want)
                assert got.calls == want.calls == list(combinations(range(n), 2))[:stop]

    def test_nothing_kept_above_64_vertices(self):
        before = _row_major_pairs.cache_info()
        Tournament.from_beats(100, lambda i, j: (i ^ j) & 1)
        assert _row_major_pairs.cache_info() == before


class TestReverseHashRepr:
    def test_reverse_flips_every_pair(self):
        for n in range(6):
            for t in all_labelled(n):
                r = t.reverse()
                assert r.n == n and r.reverse() == t
                assert all(
                    r.beats(v, u) == t.beats(u, v)
                    for u in range(n)
                    for v in range(n)
                    if u != v
                )

    def test_equal_values_hash_equal(self):
        t = random_tournament(9, 4)
        same = Tournament(9, t.bits)
        assert hash(same) == hash(t)
        assert len({t, same, t.reverse()}) == 2
        assert Tournament(0) != Tournament(1) and hash(Tournament(0)) == hash(Tournament(0))

    def test_repr_names_size_and_bits(self):
        assert repr(Tournament(3, 5)) == "Tournament(n=3, bits=0x5)"
        assert repr(Tournament(0)) == "Tournament(n=0, bits=0x0)"


class TestConcat:
    def test_two_singles(self):
        assert concat(Tournament(1), Tournament(1)) == transitive(2)

    def test_transitive_blocks(self):
        assert concat(transitive(3), transitive(4)) == transitive(7)

    def test_triangles_give_stacked_pair(self):
        got = concat(make_T((3,)), make_T((3,)))
        assert canonical_form(got) == canonical_form(make_T((3, 3)))

    def test_matches_the_pairwise_predicate(self):
        for n1 in range(4):
            for g1 in all_labelled(n1):
                for n2 in range(4):
                    for g2 in all_labelled(n2):
                        want = reference_from_beats(
                            n1 + n2,
                            lambda i, j: (
                                g1.beats(i, j)
                                if j < n1
                                else i < n1 or g2.beats(i - n1, j - n1)
                            ),
                        )
                        assert concat(g1, g2).bits == want

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

    def test_trn_rejects_trailing_lines(self):
        with pytest.raises(ValueError, match="'this is not a tournament'"):
            Tournament.from_trn("3\n010\n\nthis is not a tournament\n")
        with pytest.raises(ValueError, match="'1'"):
            Tournament.from_trn("1\n\n1\n")

    def test_trn_allows_trailing_blank_lines(self):
        want = Tournament(3, line_to_bits("010"))
        assert Tournament.from_trn("3\n010\n\n \t\n\n") == want

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
