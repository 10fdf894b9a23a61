"""Every verification report at its defaults, pinned byte for byte; each
case's pass flag agrees with the relation its required text states, and a
wrong count fails the case it feeds."""

import hashlib
import operator
import re
from functools import cache

import pytest

from tourneykit import InfeasibleSizeError, fstar, verify
from tourneykit.cli import run
from tourneykit.verify import LEMMA_IDS, run_lemma

# sha256 of run_lemma(id).to_json() at the defaults; a change to a report
# must come with new digests here
PINNED = {
    "T-equals-Fstar": "38a916bc54a6b278f02b7ef09eb00b98e917abc78e93dd727ef9c3b70d92ea9a",
    "Dn-bound": "4a6801f04e1a4a1cb374d72283e11b6cbf69d6f8993ff2dd81e70c50d2f28442",
    "L111": "829273b917a02724989215189564a430d8d518e9b7f696dbff0c431953464d20",
    "L-I2neqI3": "81b388471766d574afa793f3a898ded39887f27bb373d31ebfcf8f366b9e858b",
    "L-I1zero": "0b0b1e4fde633ac468a6ccec71cc3969bab9cfd52be6da46a56b8297b065f3bd",
    "cyclic-count": "f1acfb94a057ff3995d3d5d40658140d12df37186ef01cc164788704dda37820",
    "olarge": "9213a9d1d27971133671088a0eaba5d08338f2184caa48e5f3b4bd53855bce94",
    "osmall": "e6974f7987a88727f73ba3909fd28f6fe8624112cee1bdd117d56aaf7697800e",
    "moon-aut": "ba5960693a208a251a2ab3c04e5bdffc4689fbaf2631511501957ad74e90493d",
    "fekete": "7a7b1afd81e30e5a6dd25e946af6d16e80075e61d094b031f95427d2e4e66073",
    "lemma3-bound": "bcf19bbf5b7a3e207ba3aa7ea606e691c7fedfb763746115f6f232b31547ec7f",
    "type1-count": "c733e471ca1ac69ecdfe5b31503406d738e72f29b0d1fad55d463e21ba1cb1ef",
}


@cache
def _report(lemma_id):
    """The report at the defaults, built once for the pin and agreement tests."""
    return run_lemma(lemma_id)


def test_every_id_is_pinned():
    assert sorted(PINNED) == sorted(LEMMA_IDS)


@pytest.mark.parametrize("lemma_id", sorted(PINNED))
def test_report_matches_its_pin(lemma_id):
    text = _report(lemma_id).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[lemma_id], text


RELATIONS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le, "<": operator.lt}
# "<rel> <int>" or "<rel> <what> = <int>"
STATED = re.compile(r"(==|>=|<=|<) (?:.+ = )?(-?\d+)")


@pytest.mark.parametrize("lemma_id", sorted(PINNED))
def test_passed_agrees_with_the_stated_relation(lemma_id):
    stated = 0
    for case in _report(lemma_id).cases:
        m = STATED.fullmatch(case.required)
        if m:
            stated += 1
            want = int(m.group(2))
            assert case.passed == RELATIONS[m.group(1)](case.observed, want), case
    assert stated, f"{lemma_id} states no relation against a number"


class _OnePastFstar:
    """A stand-in speed table whose every level counts fstar(n) + 1."""

    def count(self, n):
        return fstar(n) + 1


# relation -> (id, its --n-max, counting call to replace, wrong stand-in,
# the case that must fail)
FAULTS = {
    "==": ("T-equals-Fstar", 4, "t_family_table", lambda s, n: _OnePastFstar(), "n=4"),
    ">=": ("cyclic-count", 4, "count_cyclic_subs", lambda n: 0, "n=4"),
    "<=": ("Dn-bound", 5, "dn_membership", lambda n, s: True, "n=5 size"),
    "<": ("olarge", 6, "_cyclic_lower", fstar, "iii exception at 4"),
}


@pytest.mark.parametrize("relation", sorted(FAULTS))
def test_a_wrong_count_fails_its_case(relation, monkeypatch, capsys):
    lemma_id, n_max, name, wrong, case_name = FAULTS[relation]

    def case():
        (c,) = [c for c in run_lemma(lemma_id, n_max=n_max).cases if c.name == case_name]
        return c

    honest = case()
    monkeypatch.setattr(verify, name, wrong)
    faulty = case()
    assert honest.required.startswith(relation + " ")
    assert honest.passed and not faulty.passed
    assert faulty.observed != honest.observed
    assert faulty.required == honest.required
    assert run(["verify", lemma_id, "--n-max", str(n_max)]) == 1
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lemma_id, params, message",
    [
        ("fekete", {"n_max": 2.5}, "fekete: n_max must be an integer, got 2.5"),
        ("olarge", {"n_max": 3.0}, "olarge: n_max must be an integer, got 3.0"),
        ("moon-aut", {"level_max": "2"}, "moon-aut: level_max must be an integer, got '2'"),
    ],
    ids=["fekete-float", "olarge-integral-float", "moon-aut-str"],
)
def test_a_non_integer_parameter_is_named(lemma_id, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_lemma(lemma_id, **params)


def test_olarge_over_its_cap_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a case was built past the cap")

    monkeypatch.setattr(verify, "_fstar_terms", no_work)
    monkeypatch.setattr(verify, "count_tn_lower", no_work)
    # CI runs olarge at n_max 1,100
    assert verify.OLARGE_N_MAX >= 1100
    message = f"olarge checks n_max up to {verify.OLARGE_N_MAX}, got {verify.OLARGE_N_MAX + 1}"
    with pytest.raises(InfeasibleSizeError, match=re.escape(message)):
        run_lemma("olarge", n_max=verify.OLARGE_N_MAX + 1)
    with pytest.raises(InfeasibleSizeError):
        verify.check_olarge(10**9)
