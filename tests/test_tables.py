"""The per-datum memo tables: the names the benchmark's tracer reads, and
copying or pickling a datum whose tables are filled, or a lone element, and a
misspelt table."""

import copy
import importlib.util
import pickle
from pathlib import Path

import pytest

from hsw.affine import (min_rep, mul_simple, omega_elements, reduced_word, simple_reflections,
                        translation)
from hsw.hecke import hecke_theta
from hsw.qanalogue import (_invariant_form, freudenthal_mult, kostant_q, lusztig_q,
                           root_coords_int, weights_of_irrep)
from hsw.rootdata import datum_preset
from hsw.soergel import bs_module, fundamental_invariants
from hsw.spherical import canonical_basis

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.MEMO_TABLES + mod.SIZE_TABLES


@pytest.mark.parametrize("name", ["A1", "A2", "GL3"])
def test_tracer_tables_fill(name):
    # a renamed table would make the tracer read zero entries silently
    datum = datum_preset(name)
    s = simple_reflections(datum)[0]
    calls = {
        "affine.mul_simple": lambda: mul_simple(translation(datum, (1,) * datum.rank), s),
        "affine.min_rep": lambda: min_rep(datum, (1,) + (0,) * (datum.rank - 1)),
        "affine.reduced_word": lambda: reduced_word(min_rep(datum, (-1,) * datum.rank)),
        "hecke.hecke_theta": lambda: hecke_theta(datum, (-1,) + (0,) * (datum.rank - 1)),
        "spherical.canonical_basis": lambda: canonical_basis(datum, (2,) + (0,) * (datum.rank - 1)),
        "spherical.canonical": lambda: canonical_basis(datum, (0,) * datum.rank),
        "qanalogue.kostant_q": lambda: kostant_q(datum, datum.simple_roots[0]),
        "affine.elts": lambda: translation(datum, (3,) * datum.rank),
    }
    tables = _tracer_tables()
    assert {prefix for prefix, _, _ in tables} <= set(calls)
    for prefix, _, _ in tables:
        calls[prefix]()
    for prefix, state, table in tables:
        got = getattr(getattr(datum, state), table)
        assert type(got) is dict and got, (prefix, state, table)


def _filled_a2():
    datum = datum_preset("A2")
    for lam in ((3, 0), (-1, 2), (0, -2)):
        canonical_basis(datum, lam)
        hecke_theta(datum, lam)
        kostant_q(datum, lam)
    for chi in weights_of_irrep(datum, (2, 1)):
        lusztig_q(datum, chi, (2, 1))
        freudenthal_mult(datum, (2, 1), chi)
    bs_module(datum, min_rep(datum, (0, 0)), simple_reflections(datum)[:2])
    return datum


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                         ids=["deepcopy", "pickle"])
def test_copy_and_pickle_keep_the_tables(clone):
    datum = _filled_a2()
    twin = clone(datum)
    assert twin is not datum and twin.name == datum.name
    for lam in ((3, 0), (-1, 2), (0, -2), (2, -3)):
        assert canonical_basis(twin, lam) == canonical_basis(datum, lam), lam
        assert canonical_basis(twin, lam).datum is twin
    assert hecke_theta(twin, (1, 1)).to_json() == hecke_theta(datum, (1, 1)).to_json()
    for table in ("weights", "orbits", "freud"):
        held = getattr(datum._q_state, table)
        assert getattr(twin._q_state, table) == held and list(held) == [(2, 1)], table
    for eta in ((2, 1), (1, 1)):   # held weight and orbit tables, then new ones
        weights = weights_of_irrep(twin, eta)
        assert weights == weights_of_irrep(datum, eta)
        for chi in weights + ((1, 0), (5, 5)):
            assert freudenthal_mult(twin, eta, chi) == freudenthal_mult(datum, eta, chi)
            assert lusztig_q(twin, chi, eta) == lusztig_q(datum, chi, eta)
    held = datum._mod_state.validated
    assert held and twin._mod_state.validated.keys() == held.keys()
    m, n = (bs_module(d, min_rep(d, (0, 0)), simple_reflections(d)[:2] * 2) for d in (datum, twin))
    assert (m.gens, m.theta, m.left) == (n.gens, n.theta, n.left)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copy_and_pickle_a_lone_element(clone):
    # the datum's tables hold the element itself, so the copy must hash
    # before its datum's tables are rebuilt
    datum = datum_preset("A2")
    x = min_rep(datum, (1, -1))
    mul_simple(x, simple_reflections(datum)[0])
    s = datum.simple_reflection(0)
    twin, s_twin = clone(x), clone(s)
    assert twin.datum is not datum and s_twin.datum is not datum
    assert (twin.w.matrix, twin.lam) == (x.w.matrix, x.lam)
    assert hash(twin) == hash(x) and twin.length == x.length
    assert twin == min_rep(twin.datum, (1, -1))
    assert s_twin.matrix == s.matrix and hash(s_twin) == hash(s)
    assert s_twin.length == 1 and s_twin == s_twin.datum.simple_reflection(0)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copy_of_a_lone_element_is_the_interned_one(clone):
    # the copied datum's tables hold a copy of each interned element; the
    # copy of the element is that object, not a second one equal to it
    datum = datum_preset("A2")
    x = min_rep(datum, (1, -1))
    mul_simple(x, simple_reflections(datum)[0])
    twin = clone(x)
    assert twin is twin.datum._affine_state.elts[twin.w, twin.lam]
    assert twin is min_rep(twin.datum, (1, -1))
    assert twin.w is twin.datum._weyl_state.intern[twin.w.matrix]
    s = datum.simple_reflection(1)
    s_twin = clone(s)
    assert s_twin.datum is not datum
    assert s_twin is s_twin.datum._weyl_state.intern[s.matrix]
    assert s_twin is s_twin.datum.simple_reflection(1)
    pair = clone((x, s))      # two elements of one datum share the copied datum
    assert pair[0].datum is pair[1].datum
    assert pair[1] is pair[0].datum._weyl_state.intern[s.matrix]


def test_per_datum_constants_live_in_one_table():
    # every layer keeps its values computed once per datum in ``_once``, and
    # a second call returns the held object
    datum = datum_preset("A1")
    calls = {
        "affine_simples": lambda: simple_reflections(datum),
        "omegas": lambda: omega_elements(datum),
        "root_solve": lambda: root_coords_int(datum, (2,)),
        "form": lambda: _invariant_form(datum),
        "invariants": lambda: fundamental_invariants(datum),
    }
    for key, call in calls.items():
        first = call()
        assert key in datum._once, key
        if key != "root_solve":
            assert call() is first is datum._once[key], key


def test_misspelt_table_is_an_error():
    # each layer declares its tables; any other name is not a new, empty table
    datum = datum_preset("A1")
    assert type(datum._affine_state.elts) is dict
    # the deleted ``once`` tables (per-datum constants live in ``_once``) and
    # the deleted ``inv_T`` and ``coset`` memo tables are gone, not empty
    for state, name in (("_affine_state", "elt"), ("_sph_state", "once"), ("_q_state", "orbit"),
                        ("_affine_state", "once"), ("_q_state", "once"), ("_mod_state", "once"),
                        ("_hecke_state", "inv_T"), ("_sph_state", "coset")):
        with pytest.raises(AttributeError):
            getattr(getattr(datum, state), name)
