import pytest

from hsw.affine import affine_identity, simple_reflections, word_elt
from hsw.laurent import LaurentPoly
from hsw.mpoly import MPoly
from hsw.rootdata import datum_preset
from hsw.soergel import (CutoffError, GradedCModule, atom_D_finite, atom_E,
                         atom_for, bs_module, fundamental_invariants,
                         hom_graded_rank, modules_equal, oracle_vs_hecke,
                         tensor)
from hsw.spherical import hom_rank


def test_invariant_degrees():
    want = {"A1": [2], "A2": [2, 3], "B2": [2, 4], "G2": [2, 6],
            "GL2": [1, 2], "GL3": [1, 2, 3], "A1xA1": [2, 2]}
    for name, degs in want.items():
        d = datum_preset(name)
        assert [y.total_degree() for y in fundamental_invariants(d)] == degs


def test_invariant_polynomials_golden():
    # the exact generators depend on how each kernel vector is reduced
    # modulo the products of lower generators, so they are pinned here
    want = {
        "A1": ["u1^2"],
        "A2": ["u2^2 + u1*u2 + u1^2",
               "-2*u2^3 - 3*u1*u2^2 + 3*u1^2*u2 + 2*u1^3"],
        "B2": ["u2^2 + 2*u1*u2 + 2*u1^2", "u2^4 + 4*u1*u2^3 + 4*u1^2*u2^2"],
        "G2": ["u2^2 + 3*u1*u2 + 3*u1^2",
               "4*u2^6 + 36*u1*u2^5 + 117*u1^2*u2^4 + 162*u1^3*u2^3 + 81*u1^4*u2^2"],
        "GL2": ["u2 + u1", "u1*u2"],
        "GL3": ["u3 + u2 + u1", "u2*u3 + u1*u3 + u1*u2", "u1*u2*u3"],
        "A1xA1": ["u1^2", "u2^2"],
    }
    for name, polys in want.items():
        assert [str(y) for y in fundamental_invariants(datum_preset(name))] == polys


def test_invariants_are_invariant(a2, b2):
    for datum in (a2, b2):
        for y in fundamental_invariants(datum):
            for i in range(datum.nsimples):
                mat = datum.simple_reflection(i).matrix
                assert y.substitute_linear(mat) == y


def test_atom_shapes(a1):
    s, s0 = simple_reflections(a1)
    assert atom_E(a1, affine_identity(a1)).gens == (0,)
    assert atom_for(a1, s).gens == (-1, 1)
    assert atom_for(a1, s0).gens == (-1, 1)
    assert bs_module(a1, affine_identity(a1), (s0, s)).gens == (-2, 0, 0, 2)


def test_grk_matches_character_size(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    assert atom_for(a1, s).grk() == LaurentPoly({-1: 1, 1: 1})
    assert bs_module(a1, e, (s0, s)).grk() == LaurentPoly({-2: 1, 0: 2, 2: 1})


def test_bs_module_rejects_nonidentity_twist(a1):
    s, _ = simple_reflections(a1)
    with pytest.raises(ValueError):
        bs_module(a1, s.elt, ())


def test_affine_atom_rank_guard(a2):
    affine_gen = simple_reflections(a2)[2]
    with pytest.raises(ValueError):
        atom_for(a2, affine_gen)


def test_hom_goldens_rank_one(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    cases = [
        (((e, (s,))), ((e, (s,))), {-2: 1, 0: 2, 2: 1}),
        (((e, (s0,))), ((e, (s0,))), {0: 1, 2: 1}),
        (((e, (s,))), ((e, (s0,))), {0: 1, 2: 1}),
        (((e, (s, s0))), ((e, (s, s0))), {-2: 1, 0: 3, 2: 3, 4: 1}),
        (((e, (s, s0))), ((e, (s0, s))), {0: 2, 2: 3, 4: 1}),
        (((e, ())), ((e, (s, s0))), {0: 1, 2: 1}),
    ]
    for left, right, coeffs in cases:
        got = hom_graded_rank(bs_module(a1, *left), bs_module(a1, *right))
        assert got == LaurentPoly(coeffs)
        assert got == hom_rank(a1, left, right)


def test_hom_matches_prediction_rank_two(a2):
    e = affine_identity(a2)
    s1, s2, _ = simple_reflections(a2)
    words = [(), (s1,), (s2,), (s1, s2), (s2, s1), (s1, s2, s1)]
    for lw in words:
        for rw in words:
            got = hom_graded_rank(bs_module(a2, e, lw), bs_module(a2, e, rw))
            assert got == hom_rank(a2, (e, lw), (e, rw))


def test_cutoff_guard(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    m = bs_module(a1, e, (s, s0, s))
    with pytest.raises(CutoffError):
        hom_graded_rank(m, m, cutoff=4)
    # a generous cutoff succeeds on the same pair
    assert hom_graded_rank(m, m, cutoff=16) == hom_rank(a1, (e, (s, s0, s)),
                                                        (e, (s, s0, s)))


def test_tensor_unit_and_associativity(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    u = atom_E(a1, e)
    ds, d0 = atom_for(a1, s), atom_for(a1, s0)
    assert modules_equal(tensor(u, ds), ds)
    assert modules_equal(tensor(ds, u), ds)
    assert modules_equal(tensor(tensor(ds, d0), ds), tensor(ds, tensor(d0, ds)))


def test_twist_atoms_compose(a1):
    s, s0 = simple_reflections(a1)
    x = word_elt(a1, (s, s0))
    y = word_elt(a1, (s0,))
    assert modules_equal(tensor(atom_E(a1, x), atom_E(a1, y)), atom_E(a1, x * y))


def test_validation_rejects_tampering(a1):
    s, _ = simple_reflections(a1)
    m = atom_D_finite(a1, s)
    theta = [[list(row) for row in mat] for mat in m.theta]
    theta[0][0][0] = theta[0][0][0] + MPoly.const(1, 1)
    with pytest.raises(ValueError):
        GradedCModule(a1, m.gens, theta, m.left)
    with pytest.raises(ValueError):
        GradedCModule(a1, m.gens, [], m.left)
    with pytest.raises(ValueError):
        GradedCModule(a1, (0,) + m.gens, m.theta, m.left)


def test_modules_equal_discriminates(a1):
    s, s0 = simple_reflections(a1)
    assert modules_equal(atom_for(a1, s), atom_for(a1, s))
    assert not modules_equal(atom_for(a1, s), atom_for(a1, s0))


def test_oracle_row(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    row = oracle_vs_hecke(a1, (e, (s0,)), (e, (s0, s)))
    assert row["pass"] is True
    assert row["oracle"] == row["predicted"] == {"1": 2, "3": 1}
    assert row["left"] == {"omega": [0], "word": ["s0"]}
    assert row["cutoff"] == 16
