import itertools
import math
import sys
from pathlib import Path

import pytest

from hsw import linalg, qanalogue
from hsw.laurent import ONE, ZERO, LaurentPoly
from hsw.qanalogue import (_invariant_form, dominant_weights_by_length, freudenthal_mult,
                           kato_check, kato_grid, kostant_q, lusztig_q,
                           root_coords_int, weights_of_irrep, weyl_dim)
from hsw.rootdata import datum_preset, load_datum, mat_vec, pair, vec_add, vec_scale, vec_sub
from hsw.verify import weights_by_length
from hsw.worklist import fill


SHEARED_A2 = str(Path(__file__).parent / "data" / "a2_sheared.json")


def _symmetrizer(datum):
    """Minimal positive integers d_i with d_i a_ij = d_j a_ji."""
    a = datum.cartan_matrix()
    n = datum.nsimples
    d = [None] * n   # d_i as (numerator, denominator)
    for comp in datum.components():
        d[comp[0]] = (1, 1)
        queue = [comp[0]]
        while queue:
            i = queue.pop()
            for j in comp:
                if d[j] is None and a[i][j]:
                    p, q = d[i][0] * a[i][j], d[i][1] * a[j][i]
                    g = math.gcd(p, q) * (-1 if q < 0 else 1)
                    d[j] = (p // g, q // g)
                    queue.append(j)
    denom_lcm = math.lcm(*(q for _, q in d))
    ints = [p * denom_lcm // q for p, q in d]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    for i in range(n):
        for j in range(n):
            assert ints[i] * a[i][j] == ints[j] * a[j][i]
    return tuple(ints)


def _form(datum, x_coords, y):
    """The invariant form of the symmetrized Cartan matrix, B(x, y) with x
    given in root coordinates: the reference walk's own form."""
    d = _symmetrizer(datum)
    return sum(c * d[j] * pair(y, datum.simple_coroots[j])
               for j, c in enumerate(x_coords) if c)


def _freudenthal_walk(datum, eta, chi, memo):
    """Reference Freudenthal recursion: each dominant value walks every
    positive-root string above it, solving root coordinates per step."""
    two_rho = datum.two_rho()
    eta2 = vec_scale(2, eta)

    def below(mu):
        gap = root_coords_int(datum, vec_sub(eta, mu))
        return None if gap is None or any(x < 0 for x in gap) else gap

    def mult(chip):
        gap = below(chip)
        if gap is None:
            return 0
        denom = _form(datum, vec_scale(2, gap),
                      vec_add(vec_add(eta2, vec_scale(2, chip)), vec_scale(2, two_rho)))
        if denom == 0:
            return 0
        total = 0
        for r in datum.positive_roots():
            k = 1
            while True:
                mu = vec_add(chip, vec_scale(k, r.vec))
                mup = datum.dominant_rep(mu)
                if below(mup) is None:
                    break
                m = yield mup
                if m:
                    total += m * _form(datum, vec_scale(2, r.root_coords), vec_scale(2, mu))
                k += 1
        val, rem = divmod(2 * total, denom)
        assert rem == 0
        return val

    memo.setdefault(eta, 1)
    return fill(memo, datum.dominant_rep(chi), mult)


def _kostant_reference(datum, rc, memo):
    """q-Kostant value at root coordinates rc, by recursion over the positive
    roots, memoised in memo by (root index, remainder)."""
    roots = [r.root_coords for r in datum.positive_roots()]

    def count(i, rem):
        if not any(rem):
            return ONE
        if i == len(roots):
            return ZERO
        if (i, rem) not in memo:
            out, k, cur = ZERO, 0, rem
            while all(x >= 0 for x in cur):
                out = out + count(i + 1, cur) * LaurentPoly({k: 1})
                cur = vec_sub(cur, roots[i])
                k += 1
            memo[i, rem] = out
        return memo[i, rem]

    return count(0, rc)


def _lusztig_reference(datum, chi, eta, memo):
    """The alternating Weyl sum with root coordinates solved per term."""
    two_rho = datum.two_rho()
    top = vec_add(vec_scale(2, eta), two_rho)
    target = vec_add(vec_scale(2, chi), two_rho)
    out = ZERO
    for w in datum.weyl_elements():
        half = tuple(x // 2 for x in vec_sub(w.act(top), target))
        rc = root_coords_int(datum, half)
        if rc is None or any(x < 0 for x in rc):
            continue
        term = _kostant_reference(datum, rc, memo)
        out = out - term if w.length % 2 else out + term
    return out


def _weights_by_simple_steps(datum, eta):
    """Reference weight set: a breadth-first walk by simple-root steps up and
    down from eta, keeping a weight when eta minus its dominant
    representative is a nonnegative integral combination of simple roots."""
    def inside(chi):
        gap = root_coords_int(datum, vec_sub(eta, datum.dominant_rep(chi)))
        return gap is not None and all(x >= 0 for x in gap)

    seen = {eta}
    queue = [eta]
    head = 0
    while head < len(queue):
        chi = queue[head]
        head += 1
        for a in datum.simple_roots:
            for nxt in (vec_sub(chi, a), vec_add(chi, a)):
                if nxt not in seen and inside(nxt):
                    seen.add(nxt)
                    queue.append(nxt)
    return tuple(sorted(seen))


def _dominant_box(datum, box):
    """The dominant weights of a box: by coordinates when X has central
    directions, otherwise by their simple-coroot pairings (the same box on
    the presets, whose X is written in fundamental weights)."""
    if datum.fundamental_group_order() is None:
        return [eta for eta in itertools.product(range(box + 1), repeat=datum.rank)
                if datum.is_dominant(eta)]
    return [datum.weight_from_pairings(p)
            for p in itertools.product(range(box + 1), repeat=datum.rank)]


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


def test_kostant_accepts_a_list():
    a2 = datum_preset("A2")
    assert kostant_q(a2, [2, 2]) == LaurentPoly({2: 1, 3: 1, 4: 1})
    assert kostant_q(a2, (2, 2)) is kostant_q(a2, [2, 2])
    assert kostant_q(a2, [1, 0]) == ZERO


@pytest.mark.parametrize("name, beta", [("A1", (1,)), ("A2", (1, 0)), ("GL3", (1, 1, 1)),
                                        ("GL3", (1, 0, 0)), ("G2", (-3, 2))])
def test_kostant_zero_off_cone_is_remembered(monkeypatch, name, beta):
    datum = datum_preset(name)
    assert kostant_q(datum, beta) == ZERO
    solves = []
    monkeypatch.setattr(qanalogue, "root_coords_int",
                        lambda *args: solves.append(args) or root_coords_int(*args))
    assert kostant_q(datum, beta) == ZERO
    assert kostant_q(datum, list(beta)) == ZERO
    assert solves == []


@pytest.mark.parametrize("name, box", [("A1", 12), ("A2", 4), ("B2", 4), ("G2", 3),
                                       ("A1xA1", 3), ("GL3", 3)])
def test_kostant_two_term_fill_matches_reference(name, box):
    # every root-coordinate vector of the box, one negative layer included,
    # and on GL3 the same shifted along its central direction (1, 1, 1)
    datum = datum_preset(name)
    shifts = [(0,) * datum.rank] + ([(1, 1, 1), (-2, -2, -2)] if name == "GL3" else [])
    memo = {}
    want = {}
    for rc in itertools.product(range(-1, box + 1), repeat=datum.nsimples):
        beta = tuple(sum(c * a[k] for c, a in zip(rc, datum.simple_roots))
                     for k in range(datum.rank))
        for z in shifts:
            want[vec_add(beta, z)] = ZERO if any(z) else _kostant_reference(datum, rc, memo)
    for _ in range(2):   # cold, then warm
        for beta, value in want.items():
            assert kostant_q(datum, beta) == value, beta
    # the base cases P(i, 0) = 1 and P(n, rem) = 0 are never stored
    n = len(datum.positive_roots())
    assert all(i < n and any(rem) for i, rem in datum._q_state.partial)


def test_deep_kostant_needs_no_recursion():
    a1 = datum_preset("A1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert kostant_q(a1, (4000,)) == LaurentPoly({2000: 1})
    finally:
        sys.setrecursionlimit(limit)


def test_root_coords(a2):
    assert root_coords_int(a2, (2, -1)) == (1, 0)
    assert root_coords_int(a2, (1, 1)) == (1, 1)
    assert root_coords_int(a2, (1, 0)) is None
    # GL3: the pairings of (1, 1, 1) with both coroots vanish, so only the
    # check of the combination tells a central part from zero
    gl3 = datum_preset("GL3")
    assert root_coords_int(gl3, (0, 0, 0)) == (0, 0)
    assert root_coords_int(gl3, (1, -1, 0)) == (1, 0)
    for vec in ((1, 1, 1), (-2, -2, -2), (2, 0, 1), (1, 0, 0)):
        assert root_coords_int(gl3, vec) is None, vec


def _pivot_search_coords(datum, vec):
    """Reference root coordinates by the former solver: pick rows of the
    simple-root matrix that raise its rank, invert that square block, then
    check the combination in every coordinate."""
    rows = [[root[i] for root in datum.simple_roots] for i in range(datum.rank)]
    pivots = []
    for i in range(datum.rank):
        if linalg.rank([rows[k] for k in pivots] + [rows[i]]) == len(pivots) + 1:
            pivots.append(i)
            if len(pivots) == datum.nsimples:
                break
    det, adj = linalg.inverse([rows[i] for i in pivots])
    coords = []
    for row in adj:
        q, r = divmod(sum(a * vec[i] for a, i in zip(row, pivots)), det)
        if r:
            return None
        coords.append(q)
    for i in range(datum.rank):
        if sum(c * root[i] for c, root in zip(coords, datum.simple_roots)) != vec[i]:
            return None
    return tuple(coords)


@pytest.mark.parametrize("name, box", [("A1", 8), ("A2", 5), ("B2", 5), ("G2", 5),
                                       ("A1xA1", 5), ("GL3", 3), ("GL4", 2),
                                       ("B2xA1", 3), (SHEARED_A2, 5)])
def test_root_coords_match_pivot_search(name, box):
    # every vector of the box in X, cold then warm; only the reference
    # searches for pivot rows
    datum = load_datum(name)
    vecs = list(itertools.product(range(-box, box + 1), repeat=datum.rank))
    want = {vec: _pivot_search_coords(datum, vec) for vec in vecs}
    assert any(c is not None for c in want.values())
    for _ in range(2):
        for vec, coords in want.items():
            assert root_coords_int(datum, vec) == coords, vec


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
    # the reference walk's symmetrizer
    assert _symmetrizer(datum_preset(name)) == want


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "GL3", "B2xA1"])
def test_invariant_form(name):
    datum = datum_preset(name)
    gram, root_images = _invariant_form(datum)

    def form(x, y):
        return pair(mat_vec(gram, x), y)

    box = list(itertools.product(range(-1, 2), repeat=datum.rank))
    for w in datum.weyl_elements():
        images = {x: w.act(x) for x in box}
        for x in box:
            for y in box:
                assert form(images[x], images[y]) == form(x, y), (w, x, y)
    for r, image in zip(datum.positive_roots(), root_images):
        assert form(r.vec, r.vec) > 0
        assert image == mat_vec(gram, r.vec)


def test_deep_freudenthal_needs_no_recursion():
    a1 = datum_preset("A1")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert freudenthal_mult(a1, (400,), (0,)) == 1
        assert freudenthal_mult(a1, (3000,), (0,)) == 1
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("name, box", [("A1", 3), ("A2", 3), ("B2", 3), ("G2", 2),
                                       ("A1xA1", 2), ("GL3", 1), ("B2xA1", 1),
                                       pytest.param(SHEARED_A2, 3, id="A2sheared-3")])
def test_freudenthal_matches_root_string_walk(name, box):
    datum = load_datum(name)
    for eta in _dominant_box(datum, box):
        memo = {}
        for chi in weights_of_irrep(datum, eta):
            assert freudenthal_mult(datum, eta, chi) == _freudenthal_walk(datum, eta, chi, memo)


@pytest.mark.parametrize("name, box", [("B2", 2), ("G2", 1), ("A2", 2), ("A1xA1", 1),
                                       ("GL3", 1)])
def test_lusztig_matches_per_term_solve(name, box):
    ref = datum_preset(name)
    around = tuple(itertools.product(range(-3, 4), repeat=ref.rank))
    cases = [(eta, chi) for eta in itertools.product(range(box + 1), repeat=ref.rank)
             if ref.is_dominant(eta) for chi in weights_of_irrep(ref, eta) + around]
    memo = {}
    want = {case: _lusztig_reference(ref, case[1], case[0], memo) for case in cases}
    off_lattice = [case for case in cases
                   if root_coords_int(ref, vec_sub(case[0], case[1])) is None]
    assert off_lattice or name == "G2"   # G2 has no weights off the root lattice
    for datum in (datum_preset(name), datum_preset(name)):   # each datum starts cold
        for _ in range(2):                                    # then warm
            for eta, chi in cases:
                assert lusztig_q(datum, chi, eta) == want[eta, chi]
            for eta, chi in off_lattice:
                assert lusztig_q(datum, chi, eta) is ZERO


@pytest.mark.parametrize("name, eta", [("A2", (1, 1)), ("B2", (2, 1)), ("G2", (1, 1)),
                                       ("GL3", (2, 1, 0))])
def test_lusztig_solves_once_and_skips_terms_off_the_cone(monkeypatch, name, eta):
    datum = datum_preset(name)
    chis = weights_of_irrep(datum, eta) + tuple(
        itertools.product(range(-2, 3), repeat=datum.rank))
    for chi in chis:
        lusztig_q(datum, chi, eta)                     # warm the tables
    two_rho = datum.two_rho()
    top = vec_add(vec_scale(2, eta), two_rho)
    solves, seen = [], []
    monkeypatch.setattr(qanalogue, "root_coords_int",
                        lambda *args: solves.append(args) or root_coords_int(*args))
    monkeypatch.setattr(qanalogue, "kostant_q",
                        lambda d, beta: seen.append(tuple(beta)) or kostant_q(d, beta))
    for chi in chis:
        solves.clear()
        seen.clear()
        lusztig_q(datum, chi, eta)
        assert len(solves) == 1, chi
        # exactly the Weyl terms whose argument lies in the cone spanned by
        # the positive roots are looked up
        want = []
        for w in datum.weyl_elements():
            beta = tuple(x // 2 for x in vec_sub(w.act(top),
                                                 vec_add(vec_scale(2, chi), two_rho)))
            rc = root_coords_int(datum, beta)
            if rc is not None and all(x >= 0 for x in rc):
                want.append(beta)
        assert sorted(seen) == sorted(want), chi


@pytest.mark.parametrize("name, box", [("A1", 12), ("A2", 7), ("B2", 7), ("G2", 6),
                                       ("A1xA1", 5), ("GL3", 3), ("B2xA1", 3),
                                       pytest.param(SHEARED_A2, 7, id="A2sheared-7")])
def test_weight_table_matches_simple_step_walk(name, box):
    datum = load_datum(name)
    for eta in _dominant_box(datum, box):
        got = weights_of_irrep(datum, eta)
        assert got == _weights_by_simple_steps(datum, eta), eta
        reps, keys = qanalogue._weight_table(datum, eta)
        assert keys is got
        assert all(reps[chi] == datum.dominant_rep(chi) for chi in got), eta


@pytest.mark.parametrize("name, eta", [("A2", (1, 1)), ("B2", (2, 1)), ("G2", (1, 1)),
                                       ("GL3", (2, 1, 0))])
def test_warm_paths_keep_their_guards(name, eta):
    datum = datum_preset(name)
    weights = weights_of_irrep(datum, eta)
    for _ in range(2):                       # cold, then warm
        for chi in weights:
            assert lusztig_q(datum, chi, eta).at_one() == freudenthal_mult(datum, eta, chi)
    assert list(datum._q_state.freud) == list(datum._q_state.orbits) == [eta]
    # a Weyl conjugate of the warm highest weight is not dominant
    bad = datum.simple_reflection(0).act(eta)
    assert not datum.is_dominant(bad)
    for chi in (weights[0], bad, eta):
        with pytest.raises(ValueError):
            freudenthal_mult(datum, bad, chi)
        with pytest.raises(ValueError):
            lusztig_q(datum, chi, bad)
    # weights outside the table: above the highest weight, and (where X has
    # them) off the root lattice of eta
    outside = [vec_add(eta, a) for a in datum.simple_roots]
    outside += [chi for chi in itertools.product(range(-2, 3), repeat=datum.rank)
                if root_coords_int(datum, vec_sub(eta, chi)) is None]
    for chi in outside:
        assert chi not in weights
        assert freudenthal_mult(datum, eta, chi) == 0
        assert lusztig_q(datum, chi, eta) == ZERO
    assert list(datum._q_state.freud) == list(datum._q_state.orbits) == [eta]


def test_freudenthal_outside_the_weights_is_zero(a2):
    assert freudenthal_mult(a2, (1, 1), (1, 0)) == 0     # eta - chi off the root lattice
    assert freudenthal_mult(a2, (1, 1), (2, 2)) == 0     # above the highest weight
    assert freudenthal_mult(a2, (1, 1), (-4, 2)) == 0    # conjugate of (2, 2)


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
