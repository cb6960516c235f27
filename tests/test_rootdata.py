import itertools
import json

import pytest

from hsw.affine import affine_elt, min_rep, omega_elements, translation
from hsw.hecke import hecke_theta, theta_factors
from hsw.qanalogue import (freudenthal_mult, kato_check, kostant_q, lusztig_q,
                           root_coords_int, weights_of_irrep, weyl_dim)
from hsw.rootdata import (RootDatum, datum_from_file, datum_from_json,
                          datum_preset, load_datum, mat_identity)
from hsw.spherical import SphElt, canonical_basis

PRESETS = ["A1", "A2", "B2", "G2", "A1xA1", "GL3"]


def test_preset_counts(a1, a2, b2, g2):
    for datum, nroots, order, w0len, pi1 in (
        (a1, 1, 2, 1, 2),
        (a2, 3, 6, 3, 3),
        (b2, 4, 8, 4, 2),
        (g2, 6, 12, 6, 1),
    ):
        assert len(datum.positive_roots()) == nroots
        assert len(datum.weyl_elements()) == order
        assert datum.longest_element().length == w0len
        assert datum.fundamental_group_order() == pi1


def test_general_linear():
    gl2 = datum_preset("GL2")
    gl3 = datum_preset("GL3")
    assert len(gl2.positive_roots()) == 1
    assert gl2.fundamental_group_order() is None
    assert len(gl3.positive_roots()) == 3
    assert len(gl3.weyl_elements()) == 6


def test_products():
    d = datum_preset("A1xA1")
    assert d.rank == 2 and d.nsimples == 2
    assert len(d.positive_roots()) == 2
    assert len(d.weyl_elements()) == 4
    assert d.fundamental_group_order() == 4
    mixed = datum_preset("A2xA1")
    assert len(mixed.positive_roots()) == 4
    assert mixed.fundamental_group_order() == 6


def test_cartan_matrices(a2, b2, g2):
    assert a2.cartan_matrix() == ((2, -1), (-1, 2))
    # the two off-diagonal entries differ for the non-simply-laced types
    b = b2.cartan_matrix()
    g = g2.cartan_matrix()
    assert sorted((b[0][1], b[1][0])) == [-2, -1]
    assert sorted((g[0][1], g[1][0])) == [-3, -1]


def test_two_rho(a2):
    total = [0, 0]
    for r in a2.positive_roots():
        total = [x + y for x, y in zip(total, r.vec)]
    assert tuple(total) == a2.two_rho()


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "GL3"])
def test_values_kept_per_datum(name):
    d = datum_preset(name)
    two_rho, w0, order = d.two_rho(), d.longest_element(), d.fundamental_group_order()
    assert d.two_rho() is two_rho
    assert two_rho == tuple(map(sum, zip(*(r.vec for r in d.positive_roots()))))
    assert w0.length == len(d.positive_roots())
    assert [w for w in d.weyl_elements() if w.length == w0.length] == [w0]
    if order is None:
        assert d.nsimples < d.rank
    else:
        assert order == len(omega_elements(d))


def test_highest_dual_root(a2, b2, g2):
    # dual height is maximal at the short dominant root
    assert a2.highest_dual_root((0, 1)).dual_height == 2
    assert b2.highest_dual_root((0, 1)).dual_height == 3
    assert g2.highest_dual_root((0, 1)).dual_height == 5


def test_weyl_group_laws(b2):
    w0 = b2.longest_element()
    assert (w0 * w0).length == 0
    for w in b2.weyl_elements():
        assert w.inverse().length == w.length
        word = w.reduced_word()
        assert len(word) == w.length
        acc = b2.weyl_identity()
        for i in word:
            acc = acc * b2.simple_reflection(i)
        assert acc == w


def test_dominant_rep(b2):
    for w in b2.weyl_elements():
        lam = (2, -1)
        moved = w.act(lam)
        assert b2.chamber_walk(moved)[0] == b2.chamber_walk(lam)[0]
    assert b2.is_dominant(b2.chamber_walk((-3, 1))[0])


@pytest.mark.parametrize("name", PRESETS)
def test_chamber_walk(name):
    d = datum_preset(name)
    r = 2 if name == "GL3" else 4
    for lam in itertools.product(range(-r, r + 1), repeat=d.rank):
        dom, word = d.chamber_walk(lam)
        u = d.weyl_identity()
        for i in word:
            u = u * d.simple_reflection(i)
        assert d.is_dominant(dom) and u.act(dom) == lam
        assert len(word) == u.length
        assert u.length == min(w.length for w in d.weyl_elements() if w.act(dom) == lam)


@pytest.mark.parametrize("name", PRESETS)
def test_inversion_sets(name):
    d = datum_preset(name)
    neg = {tuple(-x for x in r.vec) for r in d.positive_roots()}
    ident = d.weyl_identity()
    assert ident is d.weyl_identity() and ident.matrix == mat_identity(d.rank)
    for w in d.weyl_elements():
        assert w.inversions == tuple(int(w.act(r.vec) in neg) for r in d.positive_roots())
        assert w.length == sum(w.act(r.vec) in neg for r in d.positive_roots())
        assert w.descents() == [i for i, a in enumerate(d.simple_roots) if w.act(a) in neg]
        assert w.is_identity() == (w.matrix == ident.matrix)
        for v in d.weyl_elements():
            wv = w * v
            assert wv is w * v
            assert all(wv.act(e) == w.act(v.act(e)) for e in ident.matrix)


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        # diagonal must be 2
        RootDatum("bad", [(1,)], [(2,)])
    with pytest.raises(ValueError):
        # positive off-diagonal entry
        datum_from_json({"name": "bad", "simple_roots": [[2, 1], [1, 2]],
                         "simple_coroots": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        # zero entries must be symmetric in the pairing matrix
        datum_from_json({"name": "bad", "simple_roots": [[2, 0], [-1, 2]],
                         "simple_coroots": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        # dependent simple roots
        datum_from_json({"name": "bad", "simple_roots": [[2], [-2]],
                         "simple_coroots": [[1], [-1]]})


@pytest.mark.parametrize("entry", [2.9, "2", True])
def test_non_integer_entry_rejected(entry):
    # int() would read 2.9 and "2" as 2 and true as 1, a valid A1
    with pytest.raises(ValueError, match="integers"):
        datum_from_json({"simple_roots": [[entry]], "simple_coroots": [[1]]})
    with pytest.raises(ValueError, match="integers"):
        datum_from_json({"simple_roots": [[2]], "simple_coroots": [[entry]]})


def test_affine_cartan_diverges():
    # the closure of a rank-2 affine diagram never stabilizes; the builder
    # must refuse instead of looping
    with pytest.raises(ValueError):
        datum_from_json({"name": "bad", "simple_roots": [[2, -2], [-2, 2]],
                         "simple_coroots": [[1, -1], [-1, 1]]})


def test_torsion_rejected():
    # adjoint-type lattice: coweights mod coroots has 2-torsion
    with pytest.raises(ValueError):
        datum_from_json({"name": "bad", "simple_roots": [[1]],
                         "simple_coroots": [[2]]})


def test_file_roundtrip(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_preset("B2").to_json()))
    loaded = datum_from_file(str(path))
    assert loaded.to_json()["simple_roots"] == datum_preset("B2").to_json()["simple_roots"]
    assert len(loaded.positive_roots()) == 4
    via_load = load_datum(str(path))
    assert via_load.cartan_matrix() == loaded.cartan_matrix()


def test_load_datum_dispatch():
    assert load_datum("G2").name == "G2"
    with pytest.raises(ValueError):
        load_datum("E9")


# every public entry that reads a weight, on A2 with the other weight
# argument (if any) the dominant (1, 1)
WEIGHT_READERS = {
    "weight": lambda d, w: d.weight(w),
    "chamber_walk": lambda d, w: d.chamber_walk(w),
    "affine_elt": lambda d, w: affine_elt(d, d.weyl_identity(), w),
    "translation": translation,
    "min_rep": min_rep,
    "hecke_theta": hecke_theta,
    "theta_factors": theta_factors,
    "SphElt.basis": SphElt.basis,
    "SphElt.coeff": lambda d, w: SphElt.basis(d, (1, 1)).coeff(w),
    "canonical_basis": canonical_basis,
    "root_coords_int": root_coords_int,
    "kostant_q": kostant_q,
    "lusztig_q chi": lambda d, w: lusztig_q(d, w, (1, 1)),
    "freudenthal_mult chi": lambda d, w: freudenthal_mult(d, (1, 1), w),
}
# the entries whose weight is a highest weight, which must be dominant
HIGHEST_WEIGHT_READERS = {
    "highest_weight": lambda d, w: d.highest_weight(w),
    "lusztig_q eta": lambda d, w: lusztig_q(d, (0, 0), w),
    "freudenthal_mult eta": lambda d, w: freudenthal_mult(d, w, (0, 0)),
    "weyl_dim": weyl_dim,
    "weights_of_irrep": weights_of_irrep,
    "kato_check lambda": lambda d, w: kato_check(d, w, (1, 1)),
    "kato_check mu": lambda d, w: kato_check(d, (1, 1), w),
}
READERS = {**WEIGHT_READERS, **HIGHEST_WEIGHT_READERS}
BAD_WEIGHTS = {"short": (1,), "long": (1, 0, 0), "2.9": (2.9, 0), "'2'": ("2", 0),
               "text": "10", "number": 1}


@pytest.mark.parametrize("bad", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_bad_weight_is_value_error(hang_guard, reader, bad):
    # a wrong length once sent weights_of_irrep and freudenthal_mult into a
    # search without end, and let kato_check pass with both sides empty
    with pytest.raises(ValueError, match="weight"):
        reader(datum_preset("A2"), bad)


@pytest.mark.parametrize("reader", HIGHEST_WEIGHT_READERS.values(),
                         ids=HIGHEST_WEIGHT_READERS.keys())
def test_non_dominant_highest_weight_is_value_error(reader):
    with pytest.raises(ValueError, match="must be dominant"):
        reader(datum_preset("A2"), (-1, 1))


@pytest.mark.parametrize("form", [[1, 0], (True, False), (1.0, 0.0), [1.0, False]],
                         ids=["list", "bools", "floats", "mixed"])
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_integral_weight_forms_read_as_ints(reader, form):
    datum = datum_preset("A2")
    by_ints = reader(datum, (1, 0))
    other = reader(datum, form)
    assert other == by_ints and repr(other) == repr(by_ints)
