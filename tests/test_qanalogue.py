import sys

import pytest

from hsw.laurent import ONE, ZERO, LaurentPoly
from hsw.qanalogue import (_symmetrizer, dominant_weights_by_length, freudenthal_mult,
                           kato_check, kato_grid, kostant_q, lusztig_q,
                           root_coords_int, weights_of_irrep, weyl_dim)
from hsw.rootdata import datum_preset
from hsw.verify import weights_by_length


def test_kostant_goldens(a1, a2):
    assert kostant_q(a1, (0,)) == ONE
    assert kostant_q(a1, (2,)) == LaurentPoly({1: 1})
    assert kostant_q(a1, (4,)) == LaurentPoly({2: 1})
    # highest root of the rank-two case splits as theta or as two simples
    assert kostant_q(a2, (1, 1)) == LaurentPoly({1: 1, 2: 1})
    assert kostant_q(a2, (2, 2)) == LaurentPoly({2: 1, 3: 1, 4: 1})


def test_kostant_vanishes_off_cone(a1, a2):
    assert kostant_q(a1, (1,)) == ZERO       # not in the root lattice
    assert kostant_q(a1, (-2,)) == ZERO      # negative root direction
    assert kostant_q(a2, (1, -2)) == ZERO


def test_root_coords(a2):
    assert root_coords_int(a2, (2, -1)) == (1, 0)
    assert root_coords_int(a2, (1, 1)) == (1, 1)
    assert root_coords_int(a2, (1, 0)) is None


def test_lusztig_goldens(a1, a2):
    assert lusztig_q(a1, (0,), (2,)) == LaurentPoly({1: 1})
    assert lusztig_q(a1, (2,), (2,)) == ONE
    assert lusztig_q(a1, (-2,), (2,)) == LaurentPoly({2: 1})
    assert lusztig_q(a2, (0, 0), (1, 1)) == LaurentPoly({1: 1, 2: 1})


def test_lusztig_rejects_nondominant(a1):
    with pytest.raises(ValueError):
        lusztig_q(a1, (0,), (-1,))


def test_weyl_dims(a1, a2, b2, g2):
    assert [weyl_dim(a1, (k,)) for k in range(4)] == [1, 2, 3, 4]
    assert weyl_dim(a2, (1, 0)) == 3
    assert weyl_dim(a2, (1, 1)) == 8
    assert weyl_dim(a2, (2, 1)) == 15
    assert weyl_dim(b2, (1, 0)) == 5
    assert weyl_dim(b2, (0, 1)) == 4
    assert weyl_dim(b2, (1, 1)) == 16
    assert weyl_dim(g2, (1, 0)) == 14
    assert weyl_dim(g2, (0, 1)) == 7


def test_freudenthal_against_dimension(a1, a2, b2, g2):
    assert freudenthal_mult(a2, (1, 1), (0, 0)) == 2
    for datum, eta in ((a1, (3,)), (a2, (1, 1)), (a2, (2, 1)), (b2, (1, 1)), (g2, (1, 1))):
        values = [freudenthal_mult(datum, eta, w) for w in weights_of_irrep(datum, eta)]
        assert all(type(m) is int for m in values)
        assert sum(values) == weyl_dim(datum, eta)


@pytest.mark.parametrize("name, want", [("A1", (1,)), ("A2", (1, 1)), ("B2", (2, 1)),
                                        ("G2", (3, 1)), ("A1xA1", (1, 1)), ("GL3", (1, 1))])
def test_symmetrizer_goldens(name, want):
    assert _symmetrizer(datum_preset(name)) == want


def test_deep_freudenthal_needs_no_recursion():
    a1 = datum_preset("A1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert freudenthal_mult(a1, (400,), (0,)) == 1
    finally:
        sys.setrecursionlimit(limit)


def test_lusztig_at_one_is_multiplicity(a2, b2):
    for datum, eta in ((a2, (1, 1)), (b2, (1, 0))):
        for w in weights_of_irrep(datum, eta):
            assert lusztig_q(datum, w, eta).at_one() == \
                freudenthal_mult(datum, eta, w)


def test_lusztig_zero_outside_irrep(a1):
    assert lusztig_q(a1, (4,), (2,)) == ZERO
    assert lusztig_q(a1, (1,), (2,)) == ZERO


def test_kato_single(a2):
    row = kato_check(a2, (1, 1), (0, 0))
    assert row["pass"] is True
    assert row["lhs"] == row["rhs"] == {"-4": 1, "-2": 1}


def test_kato_rejects_nondominant(a1):
    with pytest.raises(ValueError):
        kato_check(a1, (1,), (-1,))


def test_kato_grid_small(a1):
    rows = kato_grid(a1, 2)
    assert len(rows) == 16
    assert all(r["pass"] for r in rows)


def test_dominant_weights_by_length(a1, a2, b2, g2):
    assert dominant_weights_by_length(a1, 6) == [(k,) for k in range(8)]
    assert dominant_weights_by_length(a2, 4) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
        (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
    assert dominant_weights_by_length(b2, 3) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert dominant_weights_by_length(g2, 3) == [(0, 0), (0, 1)]
    assert dominant_weights_by_length(datum_preset("A1xA1"), 3) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (1, 3),
        (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (4, 0),
        (4, 1)]


def test_grid_rejects_central_directions():
    gl2 = datum_preset("GL2")
    with pytest.raises(ValueError):
        dominant_weights_by_length(gl2, 2)
    with pytest.raises(ValueError):
        weights_by_length(gl2, 2)
