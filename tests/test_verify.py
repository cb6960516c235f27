import ast
import inspect
import json
import os
from pathlib import Path

import pytest

import hsw.verify
from hsw.cli import main
from hsw.laurent import LaurentPoly, v_power
from hsw.rootdata import datum_preset, load_datum
from hsw.spherical import SphElt, canonical_basis
from hsw.verify import (CHECKS, MODULE_CHECKS, check_bernstein, check_canonical, check_kato,
                        check_length_bfs, check_modules, check_multiplicity, check_oracle,
                        check_projection, check_pushforward, check_quadratic, run_suite,
                        weights_by_length)

SHEARED = str(Path(__file__).parent / "data" / "a2_sheared.json")
SPECS = ["A1", "A2", "B2", "G2", "A1xA1", "GL3", pytest.param(SHEARED, id="a2_sheared")]
FAST_CHECKS = ("quadratic", "length", "projection", "pushforward", "modules")


def test_registry_names():
    assert set(FAST_CHECKS) <= set(CHECKS)
    assert MODULE_CHECKS < set(CHECKS)
    assert "bernstein" in CHECKS and "kato" in CHECKS and "oracle" in CHECKS


# every check with its parameters and defaults after the datum, in registration order
REGISTERED = {
    "quadratic": (check_quadratic, {}),
    "bernstein": (check_bernstein, {"box": 1}),
    "length": (check_length_bfs, {"max_len": 3}),
    "canonical": (check_canonical, {"max_len": 3}),
    "kato": (check_kato, {"max_len": 3}),
    "multiplicity": (check_multiplicity, {"box": 1}),
    "projection": (check_projection, {"n_random": 50, "max_len": 3, "seed": 7}),
    "pushforward": (check_pushforward, {"max_word": 3}),
    "oracle": (check_oracle, {"max_word": None, "cutoff": 16}),
    "modules": (check_modules, {"seed": 7}),
}


def test_registry_order():
    assert list(CHECKS) == list(REGISTERED)
    for name, (fn, _) in REGISTERED.items():
        assert CHECKS[name] is fn and getattr(hsw.verify, fn.__name__) is fn


@pytest.mark.parametrize("name", list(REGISTERED))
def test_each_report_carries_its_registered_name(a1, name):
    fn, defaults = REGISTERED[name]
    params = list(inspect.signature(fn).parameters.values())
    assert params[0].name == "datum"
    assert {p.name: p.default for p in params[1:]} == defaults
    assert fn.__doc__ and fn.__name__.startswith("check_")
    r = fn(a1)
    assert r["name"] == name
    assert list(r) == ["name", "pass", "checked", "failures", "seconds", "detail"]
    assert r["pass"] is True and r["failures"] == []


def test_registration_makes_the_report(monkeypatch):
    monkeypatch.setattr(hsw.verify, "CHECKS", {})

    @hsw.verify._check("probe")
    def probe(n, detail="d"):
        """A probe."""
        return n, list(range(n)), detail

    assert hsw.verify.CHECKS == {"probe": probe}
    assert (probe.__name__, probe.__doc__) == ("probe", "A probe.")
    r = probe(10, detail="x")
    assert (r["name"], r["pass"], r["checked"], r["detail"]) == ("probe", False, 10, "x")
    assert r["failures"] == [str(i) for i in range(8)]
    assert r["seconds"] >= 0 and r["seconds"] == round(r["seconds"], 3)
    assert probe(0) | {"seconds": 0} == {"name": "probe", "pass": True, "checked": 0,
                                         "failures": [], "seconds": 0, "detail": "d"}


def test_one_function_reads_the_clock():
    # the per-check timing lives in _check alone
    path = Path(hsw.verify.__file__)
    readers = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        for sub in ast.walk(node):
            if "perf_counter" in (getattr(sub, "attr", None), getattr(sub, "id", None),
                                  getattr(sub, "name", None)):
                readers.add(getattr(node, "name", f"line {node.lineno}"))
    assert readers == {"_check"}


def test_report_shape(a1):
    r = check_canonical(a1, max_len=3)
    assert set(r) == {"name", "pass", "checked", "failures", "seconds", "detail"}
    assert r["pass"] is True
    assert r["checked"] > 0
    assert r["failures"] == []


def _corrupted_check(corrupt):
    """check_canonical on A2 after the table entry at the first weight of the
    grid is replaced by corrupt(datum, lam, entry); the failures are listed
    by weight in grid order, so the first one belongs to that weight."""
    a2 = datum_preset("A2")
    clean = check_canonical(a2, max_len=3)
    assert clean["pass"] is True
    lam = weights_by_length(a2, 3)[0]
    table = a2._sph_state.canonical
    table[lam] = corrupt(a2, lam, table[lam])
    r = check_canonical(a2, max_len=3)
    assert r["pass"] is False
    assert (r["checked"], r["detail"]) == (clean["checked"], clean["detail"])
    return lam, table[lam], r["failures"][0]


def test_canonical_check_compares_with_reference():
    # a lower coefficient in v^-1 Z[v^-1] that breaks bar-invariance
    lam, _, first = _corrupted_check(
        lambda a2, lam, b: b + SphElt.basis(a2, (0, 0)).scale(v_power(-9)))
    assert first == f"{lam}: not bar invariant"


def test_canonical_check_catches_a_bar_invariant_lower_term():
    # (v + v^-1) C(mu) at the highest lower weight mu keeps the element bar
    # invariant; only the v^-1 Z[v^-1] test can see it
    def corrupt(a2, lam, b):
        return b + canonical_basis(a2, b.support()[1]).scale(LaurentPoly({1: 1, -1: 1}))

    lam, bad, first = _corrupted_check(corrupt)
    mu = bad.support()[1]
    assert first == f"{lam}: coefficient at {mu} is {bad.coeff(mu)}"


def test_canonical_check_catches_a_negated_element():
    lam, _, first = _corrupted_check(lambda a2, lam, b: -b)
    assert first == f"{lam}: leading coefficient -1"


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


def test_default_checks_are_those_that_apply():
    """With no names, a datum with central directions runs every check but
    the two whose grid of weights is then infinite."""
    reports = run_suite(datum_preset("GL3"))
    assert [r["name"] for r in reports] == ["quadratic", "bernstein", "length",
                                            "multiplicity", "projection",
                                            "pushforward", "oracle", "modules"]
    assert all(r["pass"] for r in reports)


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
    reports = run_suite(load_datum(spec), names)
    for r in reports:
        del r["seconds"]
    return reports, len(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("spec", SPECS)
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


@pytest.mark.parametrize("spec", SPECS)
def test_library_and_command_share_defaults(capsys, spec):
    # the check signatures hold the only defaults: run_suite with no knobs
    # runs what hsw verify runs with no flags
    library = run_suite(load_datum(spec))
    assert main(["verify", "--datum", spec, "--output", "json"]) == 0
    command = json.loads(capsys.readouterr().out)["reports"]
    for r in library + command:
        del r["seconds"]
    assert library == command
