"""Command-line surface: verbs, formats, exit codes, reproducibility."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneykit import (
    Tournament,
    canonical_form,
    fstar,
    make_T,
    make_moon_tower,
    pair_count,
)
import tourneykit
from tourneykit.cli import run


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_canon_pipeline(tmp_path, capsys):
    path = tmp_path / "t.trn"
    code, _, _ = _run(capsys, ["gen", "T", "1,3,1", "-o", str(path)])
    assert code == 0
    code, out, _ = _run(capsys, ["canon", str(path)])
    assert code == 0
    line = out.strip()
    assert line == canonical_form(make_T((1, 3, 1))).bits
    # canonical output is a fixed point under re-canonicalization
    canonical = tmp_path / "c.trn"
    canonical.write_text(f"5\n{line}\n")
    code, out2, _ = _run(capsys, ["canon", str(canonical)])
    assert out2.strip() == line


def test_gen_writes_parseable_trn(tmp_path, capsys):
    for family, params in [
        ("M", ["1,0,1", "3"]),
        ("Mk", ["4", "2"]),
        ("cyclic", ["8"]),
        ("TS", ["5", "1,3"]),
        ("Tstar", ["9", "2,3,7,8", "2,1"]),
        ("type1", ["3", "1"]),
        ("moon", ["2"]),
        ("blowup", ["3,3,1"]),
        ("random", ["6"]),
    ]:
        path = tmp_path / f"{family}.trn"
        code, _, _ = _run(capsys, ["gen", family, *params, "-o", str(path)])
        assert code == 0, family
        Tournament.from_trn(path.read_text())


def test_iso_verb(tmp_path, capsys):
    a = tmp_path / "a.trn"
    b = tmp_path / "b.trn"
    a.write_text(make_T((3,)).to_trn())
    b.write_text(make_T((3,)).relabel([2, 0, 1]).to_trn())
    code, out, _ = _run(capsys, ["iso", str(a), str(b)])
    assert code == 0
    assert json.loads(out) == {"isomorphic": True}


def test_aut_verb_on_moon_towers(tmp_path, capsys):
    small = tmp_path / "m2.trn"
    small.write_text(make_moon_tower(2).to_trn())
    code, out, _ = _run(capsys, ["aut", str(small)])
    assert code == 0 and json.loads(out)["automorphism_order"] == 81
    big = tmp_path / "m3.trn"
    big.write_text(make_moon_tower(3).to_trn())
    code, out, _ = _run(capsys, ["aut", str(big)])
    assert code == 0 and json.loads(out)["automorphism_order"] == 1594323


def test_blocks_verb(tmp_path, capsys):
    path = tmp_path / "c4.trn"
    path.write_text(make_T((1, 3)).to_trn())
    code, out, _ = _run(capsys, ["blocks", str(path)])
    assert code == 0
    data = json.loads(out)
    assert sorted(map(len, data["blocks"])) == sorted(data["sequence"], reverse=False)
    assert data["quotient"]["n"] == len(data["blocks"])


def test_detect_exit_codes(tmp_path, capsys):
    cyc = tmp_path / "cyc.trn"
    cyc.write_text(make_T((3,)).to_trn())
    code, out, _ = _run(capsys, ["detect", "--type", "2", "--k", "1", str(cyc)])
    assert code == 0 and json.loads(out)["found"]
    trans = tmp_path / "t.trn"
    trans.write_text(make_T((1, 1, 1, 1)).to_trn())
    code, out, _ = _run(capsys, ["detect", "--type", "2", "--k", "1", str(trans)])
    assert code == 1 and not json.loads(out)["found"]


def test_speed_csv(tmp_path, capsys):
    seed = tmp_path / "seed.trn"
    seed.write_text(make_T((1, 1, 1, 1, 1)).to_trn())
    code, out, _ = _run(
        capsys, ["speed", "--seeds", str(seed), "--n-max", "5", "--csv"]
    )
    assert code == 0
    assert out == "n,count\n1,1\n2,1\n3,1\n4,1\n5,1\n"


def test_speed_avoid(tmp_path, capsys):
    patt = tmp_path / "c4.trn"
    from tourneykit import make_cyclic

    patt.write_text(make_cyclic(4).to_trn())
    code, out, _ = _run(capsys, ["speed", "--avoid", str(patt), "--n-max", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["levels"]["5"]["count"] == 4


def test_subcount_scan(capsys):
    code, out, _ = _run(
        capsys, ["subcount", "--flags", "1,1,1", "--n", "5", "--scan", "8"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["stabilized_m"] is not None
    assert data["values"][-1]["count"] == 4


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_speed_without_levels_is_usage_error(tmp_path, capsys, n_max):
    seed = tmp_path / "seed.trn"
    seed.write_text(make_T((1, 1, 1)).to_trn())
    code, out, err = _run(capsys, ["speed", "--seeds", str(seed), "--n-max", n_max])
    assert code == 2
    assert out == ""
    assert "--n-max must be at least 1" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_mem_budget_below_one_is_usage_error(tmp_path, capsys, budget):
    patt = tmp_path / "patt.trn"
    patt.write_text(make_T((1, 3)).to_trn())
    with pytest.raises(SystemExit) as exc:
        run(["--mem-budget", budget, "speed", "--avoid", str(patt), "--n-max", "5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "usage:" in out.err
    assert f"--mem-budget must be at least 1 byte, got {budget}" in out.err


@pytest.mark.parametrize("scan", ["1", "-1"])
def test_subcount_scan_below_first_host_is_usage_error(capsys, scan):
    # n = 5 needs hosts of at least ceil(5/3) = 2 layers
    code, out, err = _run(
        capsys, ["subcount", "--flags", "1,1,1", "--n", "5", "--scan", scan]
    )
    assert code == 2
    assert out == ""
    assert "below the first host size" in err


@pytest.mark.parametrize(
    "argv", [["--m", "1"], ["--scan", "3"], ["--scan", "3", "--csv"]],
    ids=["m", "scan", "scan-csv"],
)
def test_subcount_negative_n_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, ["subcount", "--flags", "1,1,1", "--n", "-2", *argv])
    assert code == 2
    assert out == ""
    assert "sub-tournament size must be non-negative, got -2" in err


def test_gen_moon_past_the_tower_bound_is_infeasible(tmp_path, capsys):
    # one bound for the family, the tower's own: never the gen cap, and
    # never 3 ** level of a huge level
    path = tmp_path / "t.trn"
    for level in ("6", "7", "100000000"):
        code, out, err = _run(capsys, ["gen", "moon", level, "-o", str(path)])
        assert code == 3
        assert out == ""
        assert "infeasible" in err and "729" in err and "243" in err
        assert f"got level {level}" in err and "capped" not in err
        assert not path.exists()


def test_subcount_scan_to_first_host(capsys):
    code, out, _ = _run(
        capsys, ["subcount", "--flags", "1,1,1", "--n", "5", "--scan", "2"]
    )
    assert code == 0
    assert [v["m"] for v in json.loads(out)["values"]] == [2]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_python_m_tourneykit(capsys, flags):
    argv = ["verify", "T-equals-Fstar", "--n-max", "8"]
    src = str(Path(tourneykit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "tourneykit", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, out, _ = _run(capsys, argv)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


def test_library_imports_without_numpy():
    src = str(Path(tourneykit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, tourneykit, tourneykit.cli, tourneykit.verify; "
            "print('numpy' in sys.modules)",
        ],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_pass_and_reproducible(capsys):
    code, out1, err = _run(capsys, ["verify", "olarge", "--n-max", "12"])
    assert code == 0
    assert "pass" in err
    code, out2, _ = _run(capsys, ["verify", "olarge", "--n-max", "12"])
    assert out1 == out2  # byte-identical JSON across runs


def test_verify_moon(capsys):
    code, out, _ = _run(capsys, ["verify", "moon-aut"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_stacked_family_counts(capsys):
    code, out, _ = _run(capsys, ["verify", "T-equals-Fstar", "--n-max", "10"])
    assert code == 0
    data = json.loads(out)
    observed = [
        c["observed"] for c in data["cases"] if c["name"].startswith("n=")
    ]
    assert observed == [1, 1, 2, 3, 4, 6, 9, 13, 19, 28]


@pytest.mark.slow
def test_verify_stacked_family_to_sixteen(capsys):
    code, out, _ = _run(capsys, ["verify", "T-equals-Fstar", "--n-max", "16"])
    assert code == 0
    data = json.loads(out)
    observed = [
        c["observed"] for c in data["cases"] if c["name"].startswith("n=")
    ]
    assert observed == [fstar(n) for n in range(1, 17)]
    assert observed[-1] == 277


def test_verify_with_no_cases_fails(capsys):
    # type1-count starts at n = 2, so n_max = 1 leaves nothing to check
    code, out, err = _run(capsys, ["verify", "type1-count", "--n-max", "1"])
    assert code == 1
    data = json.loads(out)
    assert data["cases"] == [] and data["passed"] is False
    assert "FAIL (0 cases" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["osmall", "--n-max", "5"], "osmall does not take n_max"),
        (["moon-aut", "--n-max", "3"], "it accepts level_max"),
        (["olarge", "--m-max", "3"], "olarge does not take m_max; it accepts n_max"),
        (["fekete", "--n-max", "-1"], "n_max must be at least 1"),
        (["L111", "--m-max", "0"], "m_max must be at least 1"),
    ],
    ids=["osmall-n-max", "moon-aut-n-max", "olarge-m-max", "negative", "zero"],
)
def test_verify_bad_parameter_is_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, ["verify", *argv])
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["L111", "--m-max", "1"], ["L-I1zero", "--n-max", "4", "--m-max", "1"]],
    ids=["L111", "L-I1zero"],
)
def test_verify_m_max_below_first_host_names_the_cause(capsys, argv):
    # n = 4 needs hosts of at least ceil(4/3) = 2 layers
    code, out, err = _run(capsys, ["verify", *argv])
    assert code == 2
    assert out == ""
    assert "below the first host size" in err and "m_max = 1" in err
    assert "n = 4" in err and "missing family parameters" not in err


@pytest.mark.parametrize("argv", [["gen", "T"], ["gen", "M", "1,0,0"]])
def test_gen_missing_parameters_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "missing family parameters" in err


def test_internal_index_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(lemma_id, **params):
        raise IndexError("list index out of range")

    monkeypatch.setattr(tourneykit.cli.verify_mod, "run_lemma", broken)
    with pytest.raises(IndexError):
        run(["verify", "L111"])


@pytest.mark.parametrize(
    "argv",
    [["canon", "--csv", "f.trn"], ["aut", "--json", "f.trn"], ["iso", "--csv", "a", "b"]],
    ids=["canon-csv", "aut-json", "iso-csv"],
)
def test_output_flags_a_verb_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--cyclic", "--n", "4"], ["--flags", "1,1,1", "--n", "5", "--m", "3"]],
    ids=["cyclic", "flags-m"],
)
def test_subcount_csv_without_scan_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, ["subcount", *argv, "--csv"])
    assert code == 2
    assert out == ""
    assert "--csv needs --scan" in err


def test_subcount_scan_csv(capsys):
    code, out, _ = _run(
        capsys, ["subcount", "--flags", "1,1,1", "--n", "5", "--scan", "8", "--csv"]
    )
    assert code == 0
    head, *rows = out.splitlines()
    assert head == "m,count" and rows[-1].endswith(",4")


def test_unknown_verb_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_edge_list_input(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = _run(capsys, ["canon", str(path)])
    assert code == 0
    assert out.strip() == canonical_form(make_T((3,))).bits


def test_subcount_without_host_is_usage_error(capsys):
    code, out, err = _run(capsys, ["subcount", "--n", "5"])
    assert code == 2
    assert out == ""
    assert "--flags or --cyclic" in err


def test_subcount_flags_without_m_or_scan_is_usage_error(capsys):
    code, out, err = _run(capsys, ["subcount", "--flags", "1,1,1", "--n", "5"])
    assert code == 2
    assert out == ""
    assert "--m or --scan" in err


def test_negative_vertex_count_in_trn(tmp_path, capsys):
    path = tmp_path / "neg.trn"
    path.write_text("-3\n000000\n")
    code, _, err = _run(capsys, ["canon", str(path)])
    assert code == 2
    assert "vertex count must be non-negative" in err


@pytest.mark.parametrize(
    "text, bad",
    [("+3\n010\n", "+3"), ("1_0\n" + "0" * 45 + "\n", "1_0"), ("0 +1\n", "+1")],
    ids=["signed-count", "underscore-count", "signed-edge-id"],
)
def test_non_ascii_digit_numbers_are_usage_errors(tmp_path, capsys, text, bad):
    path = tmp_path / "bad.trn"
    path.write_text(text)
    code, out, err = _run(capsys, ["canon", str(path)])
    assert code == 2
    assert out == ""
    assert repr(bad) in err


def test_gen_random_size_cap(tmp_path, capsys):
    from tourneykit.cli import RANDOM_MAX_N

    path = tmp_path / "r.trn"
    code, _, err = _run(
        capsys, ["gen", "random", str(RANDOM_MAX_N + 1), "-o", str(path)]
    )
    assert code == 3
    assert "infeasible" in err and str(RANDOM_MAX_N) in err
    assert not path.exists()


@pytest.mark.parametrize(
    "params, n",
    [
        (["T", ",".join(["3"] * 683)], 2049),
        (["M", "1,0,1", "683"], 2049),
        (["Mk", "3", "3000"], 9000),
        (["cyclic", "5000"], 5000),
        (["TS", "3000"], 3000),
        (["Tstar", "2049"], 2049),
        (["type1", "1024", "1"], 2049),
        (["moon", "7"], "level 7"),
        (["moon", "100000000"], "level 100000000"),
        (["blowup", "900,900,900"], 2700),
        (["blowup", ",".join(["0"] * 2049)], 2049),
        (["blowup", ",".join(["1"] * 1024 + ["0"] * 1025)], 2049),
    ],
    ids=[
        "T", "M", "Mk", "cyclic", "TS", "Tstar", "type1", "moon", "moon-huge",
        "blowup", "blowup-empty-blocks", "blowup-some-empty-blocks",
    ],
)
def test_gen_size_cap_covers_every_family(tmp_path, capsys, params, n):
    from tourneykit.cli import RANDOM_MAX_N
    from tourneykit.families import MAX_TOWER_VERTICES

    # a tower is bounded by its own, smaller bound; every other family by
    # the gen cap
    bound = MAX_TOWER_VERTICES if params[0] == "moon" else RANDOM_MAX_N
    path = tmp_path / "t.trn"
    code, out, err = _run(capsys, ["gen", *params, "-o", str(path)])
    assert code == 3
    assert out == ""
    assert "infeasible" in err and str(bound) in err
    assert f"got {n}" in err
    assert not path.exists()


def _edge_list(t, drop, repeat):
    lines = [
        f"{u} {v}" if t.beats(u, v) else f"{v} {u}"
        for u in range(t.n)
        for v in range(u + 1, t.n)
    ]
    if lines and drop:
        del lines[drop % len(lines)]
    if lines and repeat:
        lines.append(lines[repeat % len(lines)])
    return "\n".join(lines)


def _tournaments(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << pair_count(n)) - 1)
        )
    )


_fuzz_inputs = st.one_of(
    _tournaments(20).map(Tournament.to_trn),
    # .trn-shaped: a header line, a pair-bit line, trailing lines
    st.builds(
        lambda head, body, tail: f"{head}\n{body}{tail}",
        st.integers(-3, 12).map(str) | st.text("0123456789-+ x", max_size=4),
        st.text("01", max_size=70) | st.text("012 \t", max_size=70),
        st.sampled_from(["", "\n", "\n\n", "\n0 1\n"]),
    ),
    # edge lists: whole tournaments, some with a pair dropped or repeated
    st.builds(
        _edge_list,
        _tournaments(8),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.lists(
        st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map("{0[0]} {0[1]}".format)
        | st.text("0123456789 -x", max_size=8),
        max_size=30,
    ).map("\n".join),
    st.text(max_size=80).map(str.encode),
    st.binary(max_size=80),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=_fuzz_inputs, verb=st.sampled_from(["canon", "aut"]))
@settings(max_examples=300, deadline=None)
def test_fuzzed_input_exits_with_a_status(fuzz_dir, data, verb):
    # any input gives a result (0), a usage error (2) or an infeasible size
    # (3) with a message, never a traceback
    path = fuzz_dir / "input"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([verb, str(path)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().strip() and not out.getvalue()
    else:
        assert out.getvalue()
