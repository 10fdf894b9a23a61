"""Argument checks: each bad input raises with its own message."""

import re

import pytest

from tourneykit import (
    FlagTriple,
    InfeasibleSizeError,
    ReversalSpec,
    SeparationError,
    Tournament,
    avoidance_closure,
    count_sub_L,
    detect_type1,
    detect_type2,
    fstar,
    hereditary_closure,
    is_homogeneous_pair,
    make_cyclic,
    make_cyclic_blowup,
    make_M_general,
    make_moon_tower,
    make_T,
    make_TS,
    make_type1,
    reconstruct_S,
    separate_blocks,
    type1_tn_classes,
)
from tourneykit.verify import run_lemma, theorem2_slope

T5 = make_T((1,) * 5)  # transitive: 0 -> 1 -> ... -> 4

CASES = {
    "flag-bits": (lambda: FlagTriple(0, 2, 1), ValueError, "flags must be 0/1 bits"),
    "reversal-order": (
        lambda: ReversalSpec(4, (2, 1), (1,)),
        ValueError,
        "reversed_set must be strictly increasing",
    ),
    "reversal-odd": (
        lambda: ReversalSpec(4, (1, 2, 3), (1,)),
        ValueError,
        "reversed_set must have even size",
    ),
    "reversal-range": (
        lambda: ReversalSpec(4, (1, 5), (1,)),
        ValueError,
        "reversed_set must be a subset of 1..n",
    ),
    "reversal-sigma": (
        lambda: ReversalSpec(4, (1, 2, 3, 4), (1, 1)),
        ValueError,
        "sigma must be a permutation of 1..t",
    ),
    "M-general-n": (lambda: make_M_general(3, 0), ValueError, "n must be >= 1"),
    "cyclic-n": (lambda: make_cyclic(0), ValueError, "n must be >= 1"),
    "TS-n": (lambda: make_TS(0, ()), ValueError, "need at least one vertex"),
    "TS-S": (lambda: make_TS(3, (3,)), ValueError, "S must be a subset of 1..n"),
    "reconstruct-S-shape": (
        lambda: reconstruct_S(T5, (6, 0)),
        ValueError,
        "tournament has 5 vertices, shape says 6",
    ),
    "type1-k": (lambda: make_type1(0, 0), ValueError, "k must be >= 1"),
    "type1-flavor": (lambda: make_type1(1, 2), ValueError, "flavor must be 0 or 1"),
    "moon-level": (lambda: make_moon_tower(0), ValueError, "level must be >= 1"),
    "blowup-size": (
        lambda: make_cyclic_blowup((2, -1, 2)),
        ValueError,
        "block sizes must be non-negative",
    ),
    "closure-seeds": (
        lambda: hereditary_closure([], 3),
        ValueError,
        "need at least one seed tournament",
    ),
    "empty-pattern": (
        lambda: avoidance_closure([Tournament(0)], 3),
        ValueError,
        "forbidden patterns must have at least one vertex",
    ),
    "fstar-index": (lambda: fstar(-1), ValueError, "index must be non-negative"),
    "sub-L-host": (
        lambda: count_sub_L((1, 1, 1), 7, 2),
        ValueError,
        "host on 3*2 vertices has no 7-subsets",
    ),
    "sub-L-layers": (
        lambda: count_sub_L((1, 1, 1), 0, 0),
        ValueError,
        "host layer count m must be >= 1, got 0",
    ),
    "type1-count-n": (lambda: type1_tn_classes(1), ValueError, "n must be >= 2"),
    "detect-type1-k": (lambda: detect_type1(T5, 0), ValueError, "k must be >= 1"),
    "detect-type2-k": (lambda: detect_type2(T5, 0), ValueError, "k must be >= 1"),
    "detect-type2-bound": (
        lambda: detect_type2(T5, 5),
        InfeasibleSizeError,
        "detection limited to k <= 4",
    ),
    "separate-empty": (
        lambda: separate_blocks(T5, range(5), (), (1,)),
        SeparationError,
        "Bj and Bl must be disjoint and non-empty",
    ),
    "separate-outside": (
        lambda: separate_blocks(T5, (0, 1), (0,), (2,)),
        SeparationError,
        "Bj and Bl must be subsets of A",
    ),
    "separate-a-outside-host": (
        lambda: separate_blocks(
            make_cyclic_blowup((3, 3, 1)), [0, 1, 2, 3, 4, 5, 99], [0, 1, 2], [3, 4, 5]
        ),
        ValueError,
        "vertex 99 out of range for n=7",
    ),
    "separate-cross": (
        lambda: separate_blocks(T5, range(5), (3,), (1,)),
        SeparationError,
        "need all cross edges Bj -> Bl",
    ),
    "theorem2-k": (
        lambda: theorem2_slope(3),
        ValueError,
        "engineered seeds available for k in {1, 2}",
    ),
    "lemma-id": (
        lambda: run_lemma("no-such-lemma"),
        ValueError,
        "unknown verification id 'no-such-lemma'; choose from ",
    ),
    "tournament-n": (
        lambda: Tournament(-1),
        ValueError,
        "vertex count must be non-negative",
    ),
    "tournament-bits": (
        lambda: Tournament(3, 1 << 3),
        ValueError,
        "bits out of range for n=3",
    ),
    "induced-integers": (
        lambda: T5.induced([0.5]),
        ValueError,
        "vertices must be integers",
    ),
    # operator.index refuses a float even when it is integral
    "beats-float": (
        lambda: T5.beats(0, 1.0),
        ValueError,
        "vertices must be integers, got 1.0",
    ),
    "out-degree-float": (
        lambda: T5.out_degree(1.0),
        ValueError,
        "vertices must be integers, got 1.0",
    ),
    "induced-float": (
        lambda: T5.induced([0, 1.0]),
        ValueError,
        "vertices must be integers, got 1.0",
    ),
    "homogeneous-float": (
        lambda: is_homogeneous_pair(T5, 0, 1.0),
        ValueError,
        "vertices must be integers, got 1.0",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
