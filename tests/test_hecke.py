import itertools
import random

import pytest

from hsw.affine import (affine_identity, min_rep, mul_simple, omega_elements,
                        reduced_word, simple_reflections, translation)
from hsw.hecke import (HeckeElt, _dominant_split, _rmul_simple, hecke_bar, hecke_bar_T,
                       hecke_inv_T, hecke_mul, hecke_mul_factors, hecke_T, hecke_theta,
                       verify_bernstein, verify_quadratic_affine,
                       verify_quadratic_all)
from hsw.laurent import ONE, XI, ZERO, LaurentPoly, v_power
from hsw.rootdata import datum_preset


def rand_elt(datum, rng, max_len=4):
    if datum.fundamental_group_order() is None:
        # the length-zero subgroup is infinite: start from a coset representative
        x = min_rep(datum, tuple(rng.randrange(-1, 2) for _ in range(datum.rank)))
    else:
        x = rng.choice(omega_elements(datum))
    for _ in range(rng.randrange(max_len + 1)):
        x = x * rng.choice(simple_reflections(datum)).elt
    return x


def test_quadratic_all(a1, a2, b2):
    for datum in (a1, a2, b2, datum_preset("A1xA1")):
        rows = verify_quadratic_all(datum)
        assert all(r["pass"] for r in rows)
        assert all(r["pass"] for r in verify_quadratic_affine(datum))
        # affine generators are the ones labeled s0 or s0:k
        affine_rows = [r for r in rows if r["generator"].startswith("s0")]
        assert verify_quadratic_affine(datum) == affine_rows
        assert len(affine_rows) == len(datum.components())


def test_t_basis_multiplication_golden(a1):
    s = simple_reflections(a1)[0]
    ts = hecke_T(s.elt)
    sq = hecke_mul(ts, ts)
    # T_s^2 = 1 + (v - v^-1) T_s
    assert sq.coeff(affine_identity(a1)) == ONE
    assert sq.coeff(s.elt) == LaurentPoly({1: 1, -1: -1})


def test_inverses_random(a2, g2):
    rng = random.Random(42)
    for datum in (a2, g2, datum_preset("GL3")):
        one = HeckeElt.one(datum)
        for _ in range(25):
            x = rand_elt(datum, rng)
            assert hecke_mul(hecke_T(x), hecke_inv_T(x)) == one
            assert hecke_mul(hecke_inv_T(x), hecke_T(x)) == one


def inverse_by_word(x):
    """T_x^{-1} through hecke_mul alone, from T_s^{-1} = T_s - (v - v^-1)."""
    one = HeckeElt.one(x.datum)
    om, word = reduced_word(x)
    out = one
    for s in reversed(word):
        out = hecke_mul(out, hecke_T(s.elt) - one.scale(v_power(1) - v_power(-1)))
    return hecke_mul(out, hecke_T(om.inverse()))


def _rmul_simple_termwise(m, s, sign):
    """m * T_s^sign by the rule for one term, summed term by term."""
    out = {}

    def add(key, c):
        total = out.get(key, ZERO) + c
        if total:
            out[key] = total
        else:
            out.pop(key, None)

    for y, c in m.items():
        ys = mul_simple(y, s)
        add(ys, c)
        if (ys.length < y.length) == (sign == 1):
            add(y, c * XI * sign)
    return out


@pytest.mark.parametrize("name", ["A2", "G2", "GL3"])
def test_rmul_simple_matches_termwise_expansion(name):
    datum = datum_preset(name)
    rng = random.Random(2718)
    gens = simple_reflections(datum)
    for _ in range(25):
        m = {}
        for _ in range(rng.randrange(1, 6)):
            m[rand_elt(datum, rng)] = LaurentPoly(
                {rng.randrange(-3, 4): rng.choice((-2, -1, 1, 3)) for _ in range(2)}) or ONE
        s = rng.choice(gens)
        # hold both members of a pair {y, ys}
        y = rng.choice(list(m))
        m[mul_simple(y, s)] = rng.choice((ONE, -XI, XI + v_power(2)))
        for sign in (1, -1):
            assert _rmul_simple(m, s, sign) == _rmul_simple_termwise(m, s, sign)
    # a coefficient that cancels, for each sign: s is hi, e is lo
    s = gens[0]
    lo, hi = affine_identity(datum), s.elt
    assert _rmul_simple({lo: -XI, hi: ONE}, s) == {lo: ONE}
    assert _rmul_simple({lo: ONE, hi: XI}, s, -1) == {hi: ONE}


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "GL3"])
def test_mul_factors_matches_expanded_product(name):
    datum = datum_preset(name)
    rng = random.Random(name)
    coeffs = [ONE, LaurentPoly({1: 1, -1: -1}), LaurentPoly({-2: 3, 1: -1})]
    for _ in range(12):
        a = HeckeElt.zero(datum)
        for _ in range(rng.randrange(1, 4)):
            a = a + hecke_T(rand_elt(datum, rng, 3)).scale(rng.choice(coeffs))
        factors = [(rand_elt(datum, rng, 3), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 4))]
        expected = a
        for x, sign in factors:
            expected = hecke_mul(expected, hecke_T(x) if sign == 1 else inverse_by_word(x))
        assert hecke_mul_factors(a, factors) == expected


@pytest.mark.parametrize("name", ["A1", "B2", "G2", "GL3"])
def test_theta_matches_expanded_ratio(name):
    # theta_lam = T_{t_mu} T_{t_nu}^{-1}, as hecke_theta computed it before it
    # multiplied by the factors letter by letter
    datum = datum_preset(name)
    for lam in itertools.product(range(-2, 3), repeat=datum.rank):
        mu, nu = _dominant_split(datum, lam)
        expected = hecke_mul(hecke_T(translation(datum, mu)),
                             hecke_inv_T(translation(datum, nu)))
        assert hecke_theta(datum, lam) == expected


def test_lengths_add_multiplicatively(a2):
    # T_x T_y = T_xy whenever lengths add
    rng = random.Random(10)
    for _ in range(40):
        x, y = rand_elt(a2, rng, 3), rand_elt(a2, rng, 3)
        if (x * y).length == x.length + y.length:
            assert hecke_mul(hecke_T(x), hecke_T(y)) == hecke_T(x * y)


def test_associativity_random(a2):
    rng = random.Random(77)
    for _ in range(15):
        a = hecke_T(rand_elt(a2, rng, 3))
        b = hecke_T(rand_elt(a2, rng, 3))
        c = hecke_T(rand_elt(a2, rng, 3))
        assert hecke_mul(hecke_mul(a, b), c) == hecke_mul(a, hecke_mul(b, c))


def test_bar_involution(a1, a2):
    rng = random.Random(4)
    for datum in (a1, a2):
        for _ in range(15):
            a = hecke_T(rand_elt(datum, rng)).scale(LaurentPoly({1: 2, -3: 1}))
            b = hecke_T(rand_elt(datum, rng))
            assert hecke_bar(hecke_bar(a)) == a
            assert hecke_bar(hecke_mul(a, b)) == hecke_mul(hecke_bar(a), hecke_bar(b))


def test_bar_of_sum_is_sum_of_term_bars(a1, a2):
    rng = random.Random(12)
    for datum in (a1, a2):
        a = hecke_theta(datum, (-1,) * datum.rank)
        for _ in range(4):
            a = a + hecke_T(rand_elt(datum, rng)).scale(LaurentPoly({2: 1, -1: -3}))
        assert len(a.support()) > 2
        want = HeckeElt.zero(datum)
        for x, c in a.items():
            want = want + hecke_bar_T(x).scale(c.bar())
        assert hecke_bar(a) == want


def test_bar_golden(a1):
    s = simple_reflections(a1)[0]
    # bar(T_s) = T_s^-1 = T_s + (v^-1 - v)
    expected = hecke_T(s.elt) + HeckeElt.one(a1).scale(LaurentPoly({-1: 1, 1: -1}))
    assert hecke_bar(hecke_T(s.elt)) == expected


def test_theta_dominant_is_translation(a2):
    for lam in [(0, 0), (1, 0), (2, 1)]:
        assert hecke_theta(a2, lam) == hecke_T(translation(a2, lam))


def test_theta_golden_antidominant(a1):
    th = hecke_theta(a1, (-1,))
    t = translation(a1, (-1,))
    s = simple_reflections(a1)[0]
    assert th.coeff(t) == ONE
    assert th.coeff(s.elt * t) == LaurentPoly({-1: 1, 1: -1})
    assert len(th.support()) == 2


def test_theta_additive(a1, a2):
    for datum, box in ((a1, 2), (a2, 1)):
        weights = list(itertools.product(range(-box, box + 1), repeat=datum.rank))
        for lam in weights:
            for mu in weights:
                prod = hecke_mul(hecke_theta(datum, lam), hecke_theta(datum, mu))
                total = tuple(a + b for a, b in zip(lam, mu))
                assert prod == hecke_theta(datum, total)


def test_bernstein_battery_small(a1, g2):
    # GL3 is the one preset whose thetas take the 2rho fallback of the splitting
    for datum, count in ((a1, 14), (g2, 146), (datum_preset("GL3"), 776)):
        rows = verify_bernstein(datum, 1)
        assert len(rows) == count
        assert all(r["pass"] for r in rows)
        kinds = {r["relation"] for r in rows}
        assert {"B1", "B2"} <= kinds


def test_elt_container_laws(a1):
    s = simple_reflections(a1)[0]
    a = hecke_T(s.elt)
    assert (a - a).is_zero()
    assert a + a == a.scale(2)
    assert a.scale(ZERO).is_zero()
    two_a = a * 2
    assert two_a.coeff(s.elt) == LaurentPoly({0: 2})
    with pytest.raises(TypeError):
        hash(a)
