"""Command-line surface: verbs, formats, exit codes, reproducibility."""

import json

import pytest

from tourneykit import Tournament, canonical_form, make_T, make_moon_tower
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


def test_aut_verb_and_infeasible_exit(tmp_path, capsys):
    small = tmp_path / "m2.trn"
    small.write_text(make_moon_tower(2).to_trn())
    code, out, _ = _run(capsys, ["aut", str(small)])
    assert code == 0 and json.loads(out)["automorphism_order"] == 81
    big = tmp_path / "m3.trn"
    big.write_text(make_moon_tower(3).to_trn())
    code, _, err = _run(capsys, ["aut", str(big)])
    assert code == 3
    assert "infeasible" in err


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


def test_gen_random_size_cap(tmp_path, capsys):
    from tourneykit.cli import RANDOM_MAX_N

    path = tmp_path / "r.trn"
    code, _, err = _run(
        capsys, ["gen", "random", str(RANDOM_MAX_N + 1), "-o", str(path)]
    )
    assert code == 3
    assert "infeasible" in err and str(RANDOM_MAX_N) in err
    assert not path.exists()
