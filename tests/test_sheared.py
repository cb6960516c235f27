"""A2 written in the sheared basis U = [[1, k], [0, 1]] of X: the same root
datum, so every count that depends only on the datum must match A2."""

import itertools
import json
from pathlib import Path

import pytest

from hsw.affine import min_rep, omega_elements
from hsw.cli import main
from hsw.rootdata import datum_preset, load_datum, pair
from hsw.verify import weights_by_length

DATA = Path(__file__).parent / "data" / "a2_sheared.json"


@pytest.fixture(params=[5, 9])
def sheared(request, tmp_path):
    """(k, path) of the sheared A2: k = 9 is checked in, k = 5 is written here."""
    k = request.param
    obj = {"simple_roots": [[2 - k, -1], [2 * k - 1, 2]], "simple_coroots": [[1, -k], [0, 1]]}
    if k == 9:
        assert {key: json.loads(DATA.read_text())[key] for key in obj} == obj
        return k, str(DATA)
    path = tmp_path / f"a2_sheared_{k}.json"
    path.write_text(json.dumps(obj))
    return k, str(path)


def test_weights_by_length_match_a2(sheared):
    k, path = sheared
    datum = load_datum(path)
    counts = [3, 6, 12, 18, 27]
    assert [len(weights_by_length(datum_preset("A2"), n)) for n in range(5)] == counts
    for max_len, count in enumerate(counts):
        got = weights_by_length(datum, max_len)
        assert len(got) == count
        # every weight of length <= max_len has pairings in -(max_len+1)..max_len+1,
        # so its coordinates are at most (k + 1)(max_len + 1) in absolute value
        bound = (k + 1) * (max_len + 1)
        box = itertools.product(range(-bound, bound + 1), repeat=2)
        assert got == [lam for lam in box if min_rep(datum, lam).length <= max_len]


def test_omega_elements(sheared):
    datum = load_datum(sheared[1])
    oms = omega_elements(datum)
    assert len(oms) == 3 and all(om.length == 0 for om in oms)


def test_verify_matches_a2(sheared, capsys):
    rc = main(["verify", "--datum", sheared[1], "--checks", "length,canonical,kato",
               "--output", "json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert rc == 0
    assert {r["name"]: r["checked"] for r in reports} == {"length": 57, "canonical": 18,
                                                         "kato": 64}


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1",
                                  pytest.param(str(DATA), id="A2sheared")])
def test_weight_from_pairings(name):
    datum = load_datum(name)
    box = list(itertools.product(range(-3, 4), repeat=datum.rank))
    for p in box:
        lam = datum.weight_from_pairings(p)
        assert tuple(pair(lam, c) for c in datum.simple_coroots) == p
    for lam in box:
        assert datum.weight_from_pairings([pair(lam, c) for c in datum.simple_coroots]) == lam


def test_weight_from_pairings_needs_a_finite_fundamental_group():
    with pytest.raises(ValueError):
        datum_preset("GL3").weight_from_pairings((0, 0))
