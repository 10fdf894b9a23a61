"""The scripts under scripts/, run as subprocesses at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import tourneykit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(tourneykit.__file__).resolve().parents[1])


def _script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
    )


def test_run_verification_one_id():
    proc = _script("run_verification.py", "--ids", "T-equals-Fstar")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["T-equals-Fstar", "pass"]


def test_speed_tables_small():
    proc = _script("speed_tables.py", "--n-max", "6")
    assert proc.returncode == 0, proc.stderr
    # each label is the script's own, not the closure's seed text
    headers = [line for line in proc.stdout.splitlines() if line.startswith("# ")]
    assert headers == [
        "# stacked-1/3-blocks (seed: stacked 1/3 blocks, sums <= 9; slope[6,6] = nan)",
        "# cyclic-closure (seed: cyclic m<=12; slope[6,6] = nan)",
        "# avoid-strong-4 (seed: avoid 4:001000; slope[6,6] = nan)",
        "# transitive-only (seed: transitive(13); slope[6,6] = nan)",
        "# two-large-blocks (seed: blowup(12,12,1); slope[6,6] = nan)",
        "# three-large-blocks (seed: blowup(11,11,11); slope[6,6] = nan)",
    ]
    assert proc.stdout.count("n,count\n") == 6


def test_speed_tables_rejects_n_max_below_one():
    proc = _script("speed_tables.py", "--n-max", "0")
    assert proc.returncode == 2
    assert "--n-max must be at least 1" in proc.stderr
