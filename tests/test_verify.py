from hsw.rootdata import datum_preset
from hsw.verify import (CHECKS, FAST_CHECKS, check_canonical, check_oracle,
                        run_suite, weights_by_length)


def test_registry_names():
    assert set(FAST_CHECKS) <= set(CHECKS)
    assert "bernstein" in CHECKS and "kato" in CHECKS and "oracle" in CHECKS


def test_report_shape(a1):
    r = check_canonical(a1, max_len=3)
    assert set(r) == {"name", "pass", "checked", "failures", "seconds", "detail"}
    assert r["pass"] is True
    assert r["checked"] > 0
    assert r["failures"] == []


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
