import os
from pathlib import Path

import pytest

import hsw.verify
from hsw.laurent import v_power
from hsw.rootdata import datum_preset, load_datum
from hsw.spherical import SphElt
from hsw.verify import (CHECKS, FAST_CHECKS, MODULE_CHECKS, check_canonical,
                        check_oracle, run_suite, weights_by_length)

SHEARED = str(Path(__file__).parent / "data" / "a2_sheared.json")


def test_registry_names():
    assert set(FAST_CHECKS) <= set(CHECKS)
    assert MODULE_CHECKS < set(CHECKS)
    assert "bernstein" in CHECKS and "kato" in CHECKS and "oracle" in CHECKS


def test_report_shape(a1):
    r = check_canonical(a1, max_len=3)
    assert set(r) == {"name", "pass", "checked", "failures", "seconds", "detail"}
    assert r["pass"] is True
    assert r["checked"] > 0
    assert r["failures"] == []


def test_canonical_check_compares_with_reference():
    a2 = datum_preset("A2")
    clean = check_canonical(a2, max_len=3)
    assert clean["pass"] is True
    # corrupt a lower coefficient at the first weight of the grid; no other
    # element depends on the table entry once the grid is filled
    lam = weights_by_length(a2, 3)[0]
    table = a2._sph_state.canonical
    table[lam] = table[lam] + SphElt.basis(a2, (0, 0)).scale(v_power(-9))
    r = check_canonical(a2, max_len=3)
    assert r["pass"] is False
    assert r["failures"][0] == f"{lam}: differs from the full-chain reference"
    assert (r["checked"], r["detail"]) == (clean["checked"], clean["detail"])


def test_weights_by_length(a1, a2, b2, g2):
    assert weights_by_length(a1, 2) == [(-3,), (-2,), (-1,), (0,), (1,), (2,)]
    got = weights_by_length(a2, 2)
    assert (0, 0) in got and (0, 1) in got and (1, 0) in got
    assert len(got) == 12
    for datum, count in ((b2, 10), (g2, 4), (datum_preset("A1xA1"), 40)):
        got = weights_by_length(datum, 3)
        assert len(got) == count
        assert got == sorted(got)


def test_fast_suite_passes(a1):
    reports = run_suite(a1, FAST_CHECKS)
    assert [r["name"] for r in reports] == list(FAST_CHECKS)
    assert all(r["pass"] for r in reports)


def test_oracle_check_small(a2):
    r = check_oracle(a2, max_word=1, cutoff=12)
    assert r["pass"] is True
    # rank two: three zero-length twists plus the two finite one-step chains
    assert r["checked"] == 25


def test_knobs_reach_checks(a1):
    reports = run_suite(a1, ["length"], length={"max_len": 2})
    assert reports[0]["checked"] > 0
    assert reports[0]["pass"] is True


def _suite(monkeypatch, spec, cpus, names=None):
    """run_suite on a fresh datum with the CPU query patched, and how often
    it forked; the reports lose their timings."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(hsw.verify, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted)
    datum = load_datum(spec)
    if names is None:
        names = [n for n in CHECKS if datum.fundamental_group_order() is not None
                 or n not in ("canonical", "kato")]
    reports = run_suite(datum, names)
    for r in reports:
        del r["seconds"]
    return reports, len(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A1xA1", "GL3",
                                  pytest.param(SHEARED, id="a2_sheared")])
def test_worker_matches_one_cpu(monkeypatch, spec):
    forked, forks = _suite(monkeypatch, spec, 2)
    alone, none = _suite(monkeypatch, spec, 1)
    assert (forks, none) == (1, 0)
    assert forked == alone
    assert all(r["pass"] for r in forked)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("names", [["bernstein", "bernstein"],
                                   ["kato", "bernstein", "kato", "quadratic"]])
def test_repeated_checks_keep_their_rows(monkeypatch, names):
    forked, _ = _suite(monkeypatch, "A1", 2, names)
    alone, _ = _suite(monkeypatch, "A1", 1, names)
    assert [r["name"] for r in forked] == names
    assert forked == alone
