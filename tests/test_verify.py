"""Every verification report at its defaults, pinned byte for byte."""

import hashlib

import pytest

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


def test_every_id_is_pinned():
    assert sorted(PINNED) == sorted(LEMMA_IDS)


@pytest.mark.parametrize("lemma_id", sorted(PINNED))
def test_report_matches_its_pin(lemma_id):
    text = run_lemma(lemma_id).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[lemma_id], text
