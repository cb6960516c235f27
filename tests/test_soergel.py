import random

import pytest

import hsw.soergel as soergel
from hsw.affine import affine_identity, simple_reflections, word_elt
from hsw.laurent import LaurentPoly
from hsw.mpoly import MPoly
from hsw.rootdata import _simply_connected, datum_preset
from hsw.soergel import (CutoffError, GradedCModule, _flat, _pm_mul,
                         atom_D_finite, atom_E, atom_for, bs_module,
                         fundamental_invariants, hom_graded_rank,
                         modules_equal, oracle_vs_hecke, tensor)
from hsw.spherical import hom_rank
from hsw.worklist import fill


# simply connected rank-three data, with the Cartan convention of the presets
_RANK_THREE = {"B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
               "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2))}


def _datum(name):
    if name in _RANK_THREE:
        return _simply_connected(_RANK_THREE[name], name)
    return datum_preset(name)


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
        "GL4": ["u4 + u3 + u2 + u1",
                "u3*u4 + u2*u4 + u2*u3 + u1*u4 + u1*u3 + u1*u2",
                "u2*u3*u4 + u1*u3*u4 + u1*u2*u4 + u1*u2*u3",
                "u1*u2*u3*u4"],
        "B3": ["3*u3^2 + 8*u2*u3 + 8*u2^2 + 4*u1*u3 + 8*u1*u2 + 4*u1^2",
               "3*u3^4 + 16*u2*u3^3 + 32*u2^2*u3^2 + 32*u2^3*u3 + 16*u2^4"
               " + 8*u1*u3^3 + 32*u1*u2*u3^2 + 48*u1*u2^2*u3 + 32*u1*u2^3"
               " + 8*u1^2*u3^2 + 16*u1^2*u2*u3 + 16*u1^2*u2^2",
               "u3^6 + 8*u2*u3^5 + 24*u2^2*u3^4 + 32*u2^3*u3^3 + 16*u2^4*u3^2"
               " + 4*u1*u3^5 + 24*u1*u2*u3^4 + 48*u1*u2^2*u3^3 + 32*u1*u2^3*u3^2"
               " + 4*u1^2*u3^4 + 16*u1^2*u2*u3^3 + 16*u1^2*u2^2*u3^2"],
        "C3": ["3*u3^2 + 4*u2*u3 + 2*u2^2 + 2*u1*u3 + 2*u1*u2 + u1^2",
               "3*u3^4 + 8*u2*u3^3 + 8*u2^2*u3^2 + 4*u2^3*u3 + u2^4"
               " + 4*u1*u3^3 + 8*u1*u2*u3^2 + 6*u1*u2^2*u3 + 2*u1*u2^3"
               " + 2*u1^2*u3^2 + 2*u1^2*u2*u3 + u1^2*u2^2",
               "u3^6 + 4*u2*u3^5 + 6*u2^2*u3^4 + 4*u2^3*u3^3 + u2^4*u3^2"
               " + 2*u1*u3^5 + 6*u1*u2*u3^4 + 6*u1*u2^2*u3^3 + 2*u1*u2^3*u3^2"
               " + u1^2*u3^4 + 2*u1^2*u2*u3^3 + u1^2*u2^2*u3^2"],
    }
    for name, polys in want.items():
        assert [str(y) for y in fundamental_invariants(_datum(name))] == polys


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
    theta = _tables(m.theta, 2, 1)
    theta[0][0][0] = theta[0][0][0] + MPoly.const(1, 1)
    with pytest.raises(ValueError):
        GradedCModule(a1, m.gens, [_flat(t) for t in theta], m.left)
    with pytest.raises(ValueError):
        GradedCModule(a1, m.gens, [], m.left)
    with pytest.raises(ValueError):
        GradedCModule(a1, (0,) + m.gens, m.theta, m.left)


def test_modules_equal_discriminates(a1):
    s, s0 = simple_reflections(a1)
    fresh = atom_D_finite(a1, s)
    assert fresh is not atom_for(a1, s)
    assert modules_equal(atom_for(a1, s), fresh)
    assert not modules_equal(atom_for(a1, s), atom_for(a1, s0))


def test_oracle_row(a1):
    e = affine_identity(a1)
    s, s0 = simple_reflections(a1)
    row = oracle_vs_hecke(a1, (e, (s0,)), (e, (s0, s)))
    assert row["pass"] is True
    assert row["oracle"] == row["predicted"] == {"1": 2, "3": 1}
    assert row["left"] == {"omega": [0], "word": ["s0"]}
    assert row["cutoff"] == 16


# -- matrix kernels against naive products written here ---------------------------------


def _dense(op, nrows, ncols, nv):
    """The rows of MPoly entries of an operator map: a dense view of the
    flat format, written here."""
    rows = [[{} for _ in range(ncols)] for _ in range(nrows)]
    for (a, i, e), c in op.items():
        rows[a][i][e] = c
    return [[MPoly(nv, cell) for cell in row] for row in rows]


def _tables(ops, size, nv):
    return [_dense(op, size, size, nv) for op in ops]


def _naive_mul(a, b):
    """Entrywise sum of MPoly products, the textbook matrix product."""
    nv = a[0][0].nvars
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = MPoly.zero(nv)
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def _rand_poly(rng, nv):
    if rng.random() < 0.4:
        return MPoly.zero(nv)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(0, 3) for _ in range(nv))
        terms[e] = terms.get(e, 0) + rng.randrange(-3, 4)
    return MPoly(nv, terms)


def test_pm_mul_matches_naive_product(a2, g2):
    rng = random.Random(5)
    for datum in (a2, g2):
        nv = datum.rank
        e = affine_identity(datum)
        s1, s2 = simple_reflections(datum)[:2]
        chain = bs_module(datum, e, (s1, s2))
        atom1, atom2 = atom_for(datum, s1), atom_for(datum, s2)
        for a, b, size in [(chain.left[0], chain.left[1], chain.size()),
                           (chain.left[1], chain.left[0], chain.size()),
                           (atom2.left[0], atom1.left[1], 2)]:
            want = _naive_mul(_dense(a, size, size, nv), _dense(b, size, size, nv))
            assert _dense(_pm_mul(a, b), size, size, nv) == want
        for n, m, k in [(1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 3, 4), (4, 1, 2)]:
            for _ in range(8):
                a = [[_rand_poly(rng, nv) for _ in range(m)] for _ in range(n)]
                b = [[_rand_poly(rng, nv) for _ in range(k)] for _ in range(m)]
                got = _pm_mul(_flat(a), _flat(b))
                assert all(0 <= i < n and 0 <= j < k for i, j, _ in got)
                assert _dense(got, n, k, nv) == _naive_mul(a, b)
                # cancelled monomials are dropped, so no zero is stored
                assert all(got.values())
    # a product whose only entry cancels to zero
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    assert _pm_mul(_flat([[x, -x]]), _flat([[y], [y]])) == {}


def test_monomial_matrix_matches_product_from_identity(g2):
    b3 = _datum("B3")
    # the G2 chain (s1, s2) and the B3 chain (s2, s3), across the double bond
    for datum, word in ((g2, simple_reflections(g2)[:2]), (b3, simple_reflections(b3)[1:3])):
        nv = datum.rank
        m = bs_module(datum, affine_identity(datum), word)
        one, zero = MPoly.const(nv, 1), MPoly.zero(nv)
        size = m.size()
        identity = [[one if i == j else zero for j in range(size)] for i in range(size)]
        left = _tables(m.left, size, nv)
        powers = {}   # shared over every monomial, so lower powers are reused
        monos = [exps for y in fundamental_invariants(datum) for exps in y._c]
        assert max(sum(exps) for exps in monos) == 6
        assert any(all(exps) for exps in monos)
        for exps in monos:
            want = identity
            for c, k in enumerate(exps):
                for _ in range(k):
                    want = _naive_mul(want, left[c])
            assert _dense(fill(powers, exps, m._power_steps), size, size, nv) == want
            assert _dense(fill({}, exps, m._power_steps), size, size, nv) == want
        # every power built on the way is a correct power too
        for exps, mat in powers.items():
            want = identity
            for c, k in enumerate(exps):
                for _ in range(k):
                    want = _naive_mul(want, left[c])
            assert _dense(mat, size, size, nv) == want


# -- each atom and chain is built once per datum -------------------------------------------


def test_bs_module_is_built_once(a2):
    e = affine_identity(a2)
    s1, s2, _ = simple_reflections(a2)
    word = (s1, s2, s1)
    m = bs_module(a2, e, word)
    assert bs_module(a2, e, word) is m
    assert atom_for(a2, s1) is atom_for(a2, s1)
    assert atom_E(a2, e) is atom_E(a2, e)
    fresh = atom_E(a2, e)
    for s in word:
        fresh = tensor(fresh, atom_D_finite(a2, s))
    assert fresh is not m
    assert modules_equal(fresh, m)


def test_chain_extends_longest_held_prefix(monkeypatch):
    datum = datum_preset("A2")   # a fresh datum with empty tables
    e = affine_identity(datum)
    s1, s2, _ = simple_reflections(datum)
    calls = []
    real = soergel.tensor

    def counting(m, n):
        calls.append(n)
        return real(m, n)

    monkeypatch.setattr(soergel, "tensor", counting)
    bs_module(datum, e, (s1, s2))
    assert len(calls) == 2
    bs_module(datum, e, (s1, s2, s1))
    assert len(calls) == 3 and calls[-1] is atom_for(datum, s1)
    bs_module(datum, e, (s1,))
    assert len(calls) == 3
    bs_module(datum, e, (s2,))
    assert len(calls) == 4
    bs_module(datum, e, ())
    assert len(calls) == 4


def test_equal_content_is_validated_once(monkeypatch):
    datum = datum_preset("A2")   # a fresh datum with empty tables
    e = affine_identity(datum)
    s1, s2, _ = simple_reflections(datum)
    m = bs_module(datum, e, (s1, s2))
    a, b = atom_for(datum, s1), atom_for(datum, s2)
    ab = tensor(a, b)
    ba = tensor(b, a)
    aba = tensor(ab, a)
    validated = []
    real = GradedCModule._validate

    def counting(self):
        validated.append(self)
        real(self)

    monkeypatch.setattr(GradedCModule, "_validate", counting)
    # the unit on the left, and the right side of an associativity triple
    again = tensor(atom_E(datum, e), m)
    assert again is not m and modules_equal(again, m)
    right = tensor(a, ba)
    assert modules_equal(right, aba)
    assert validated == []
    # a copy with one tampered entry is validated in full, every time
    left = _tables(m.left, m.size(), 2)
    left[0][0][0] = left[0][0][0] + MPoly.var(2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="do not commute"):
            GradedCModule(datum, m.gens, m.theta, [_flat(t) for t in left])
    assert len(validated) == 2
    # so is new content, once
    tensor(aba, b)
    tensor(aba, b)
    assert len(validated) == 3


# -- every branch of the constructor's validation -----------------------------------------


def test_validate_rejects_each_branch(g2):
    e = affine_identity(g2)
    s1, s2 = simple_reflections(g2)[:2]
    m = bs_module(g2, e, (s1, s2))
    assert m.gens == (-2, 0, 0, 2)
    u1, u2 = MPoly.var(2, 0), MPoly.var(2, 1)
    zero = MPoly.zero(2)
    size = m.size()
    # the untampered tables pass
    GradedCModule(g2, m.gens, m.theta, m.left)

    # entries outside the generators or the variables, and stored zeros
    for key, c in [((size, 0, (0, 0)), 1), ((0, -1, (0, 0)), 1),
                   ((1, 2, (2, -1)), 1), ((1, 2, (1,)), 1), ((1, 2, (1, 0)), 0)]:
        with pytest.raises(ValueError, match=r"left\[0\] has an entry out of range"):
            GradedCModule(g2, m.gens, m.theta, [{**m.left[0], key: c}, m.left[1]])

    # degrees: a constant where a linear form belongs, and an entry from the
    # top generator to the bottom one
    left = _tables(m.left, size, 2)
    left[0][1][2] = left[0][1][2] + MPoly.const(2, 1)
    with pytest.raises(ValueError, match=r"left\[0\]\[1\]\[2\] has wrong degree"):
        GradedCModule(g2, m.gens, m.theta, [_flat(t) for t in left])
    left = _tables(m.left, size, 2)
    left[1][3][0] = MPoly.const(2, 1)
    with pytest.raises(ValueError, match=r"left\[1\]\[3\]\[0\] must vanish by degree"):
        GradedCModule(g2, m.gens, m.theta, [_flat(t) for t in left])

    # left tables: a linear term between the two degree-0 generators
    left = _tables(m.left, size, 2)
    left[0][1][2] = left[0][1][2] + u1
    with pytest.raises(ValueError, match="left tables 0 and 1 do not commute"):
        GradedCModule(g2, m.gens, m.theta, [_flat(t) for t in left])

    # invariants: add a summand on two degree-0 generators where u_c acts as
    # u_c + n_c * E12; the vector field n kills the quadratic invariant y0
    # but not the sextic y1, so only the power-table evaluation of y1 fails
    y0, y1 = fundamental_invariants(g2)
    n = (y0.deriv(1), -y0.deriv(0))
    assert n[0] * y0.deriv(0) + n[1] * y0.deriv(1) == zero
    assert not (n[0] * y1.deriv(0) + n[1] * y1.deriv(1)).is_zero()

    def with_summand(op, block):
        rows = [row + [zero, zero] for row in _dense(op, size, size, 2)]
        rows.append([zero] * size + list(block[0]))
        rows.append([zero] * size + list(block[1]))
        return _flat(rows)

    coords = (u1, u2)
    left = [with_summand(m.left[c], [[coords[c], n[c]], [zero, coords[c]]])
            for c in range(2)]
    theta = [with_summand(t, [[zero, zero], [zero, zero]]) for t in m.theta]
    with pytest.raises(ValueError, match="does not reproduce invariant 1"):
        GradedCModule(g2, m.gens + (0, 0), theta, left)

    # wall operators: matrix units between the degree-0 generators, of the
    # operator degrees 2 and 10, do not commute with each other
    theta = _tables(m.theta, size, 2)
    theta[0][1][2] = u1
    theta[1][2][1] = u1 * y0 * y0
    with pytest.raises(ValueError, match="wall operators 0 and 1 do not commute"):
        GradedCModule(g2, m.gens, [_flat(t) for t in theta], m.left)

    # wall operator against the left tables
    theta = _tables(m.theta, size, 2)
    theta[0][1][2] = u1
    with pytest.raises(ValueError, match=r"theta\[0\] does not commute with left"):
        GradedCModule(g2, m.gens, [_flat(t) for t in theta], m.left)


def test_validated_key_keeps_theta_and_left_apart(g2):
    # the same operators, one moved from the left tables to the wall
    # operators, are new content and fail validation
    e = affine_identity(g2)
    s1, s2 = simple_reflections(g2)[:2]
    m = bs_module(g2, e, (s1, s2))
    GradedCModule(g2, m.gens, m.theta, m.left)
    with pytest.raises(ValueError, match="need one wall operator per fundamental invariant"):
        GradedCModule(g2, m.gens, m.theta + m.left[:1], m.left[1:])


def dense_hom_dim(m, n, invs, d):
    """The degree-d Hom dimension with one dense row per equation, ranked by
    Bareiss elimination: the oracle of the sparse rows of ``_hom_dim``."""
    from operator import add

    from hsw import linalg
    from hsw.mpoly import monomials_of_degree
    r = m.nvars
    m_theta = _tables(m.theta, m.size(), r)
    n_theta = _tables(n.theta, n.size(), r)
    unknowns = []
    by_pair = {}
    for i, gi in enumerate(m.gens):
        for a, ha in enumerate(n.gens):
            t2 = gi + d - ha
            if t2 < 0 or t2 % 2:
                continue
            lst = by_pair.setdefault((i, a), [])
            for mono in monomials_of_degree(r, t2 // 2):
                lst.append((mono, len(unknowns)))
                unknowns.append((i, a, mono))
    if not unknowns:
        return 0
    rows = []
    for j, y in enumerate(invs):
        opdeg = 2 * y.total_degree() - 2
        for i, gi in enumerate(m.gens):
            for b, hb in enumerate(n.gens):
                t2 = gi + opdeg + d - hb
                if t2 < 0 or t2 % 2:
                    continue
                contrib = {}
                for a in range(n.size()):
                    pc = n_theta[j][b][a]._c
                    if not pc:
                        continue
                    for mono, uidx in by_pair.get((i, a), ()):
                        acc = contrib.setdefault(uidx, {})
                        for e, c in pc.items():
                            e = tuple(map(add, e, mono))
                            acc[e] = acc.get(e, 0) + c
                for a2 in range(m.size()):
                    pc = m_theta[j][a2][i]._c
                    if not pc:
                        continue
                    for mono, uidx in by_pair.get((a2, b), ()):
                        acc = contrib.setdefault(uidx, {})
                        for e, c in pc.items():
                            e = tuple(map(add, e, mono))
                            acc[e] = acc.get(e, 0) - c
                if not contrib:
                    continue
                for mono_out in monomials_of_degree(r, t2 // 2):
                    row = [0] * len(unknowns)
                    touched = False
                    for uidx, acc in contrib.items():
                        cc = acc.get(mono_out, 0)
                        if cc:
                            row[uidx] = cc
                            touched = True
                    if touched:
                        rows.append(row)
    return len(unknowns) - linalg.rank(rows)


@pytest.mark.parametrize("name,max_word", [("A1", 2), ("A2", 1), ("B2", 1), ("G2", 1),
                                           ("A1xA1", 1), ("GL3", 1)])
def test_sparse_hom_rows_match_the_dense_oracle(name, max_word):
    # every degree system of the check_oracle grid, at the default cutoff
    import itertools

    from hsw.soergel import atom_alphabet
    from hsw.verify import _twists
    datum = datum_preset(name)
    e = affine_identity(datum)
    chains = [(om, ()) for om in _twists(datum)]
    for k in range(1, max_word + 1):
        chains += [(e, w) for w in itertools.product(atom_alphabet(datum), repeat=k)]
    modules = [bs_module(datum, om, w) for om, w in chains]
    invs = fundamental_invariants(datum)
    nonzero = 0
    for m in modules:
        for n in modules:
            for d in range(-16, 17):
                got = soergel._hom_dim(m, n, d)
                assert got == dense_hom_dim(m, n, invs, d), (m, n, d)
                nonzero += got > 0
    assert nonzero
