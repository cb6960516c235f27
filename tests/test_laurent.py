import json
import random

import pytest

from hsw.affine import simple_reflections
from hsw.hecke import HeckeElt, hecke_T, hecke_theta
from hsw.laurent import (ONE, V, V_INV, ZERO, LaurentPoly, add_into, pack, unpack,
                         v_power)
from hsw.mpoly import MPoly
from hsw.rootdata import datum_preset
from hsw.spherical import SphElt, canonical_basis


def rand_poly(rng, max_terms=5, span=6, bound=9):
    return LaurentPoly({rng.randrange(-span, span + 1): rng.randrange(-bound, bound + 1)
                        for _ in range(rng.randrange(max_terms + 1))})


def test_normalization():
    assert LaurentPoly({2: 0, 0: 3}) == LaurentPoly({0: 3})
    assert LaurentPoly({}) == ZERO
    assert LaurentPoly({0: 1}) == ONE == 1
    assert not ZERO
    assert LaurentPoly([(1, 2), (1, -2)]).is_zero()


def test_pair_accumulation():
    # duplicate exponents in pair form must add up
    p = LaurentPoly([(3, 1), (3, 2), (-1, 5)])
    assert p.coeff(3) == 3
    assert p.coeff(-1) == 5
    assert p.coeff(0) == 0


def test_ring_axioms_random():
    rng = random.Random(20240)
    for _ in range(200):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == ZERO
        assert f * ONE == f
        assert f * ZERO == ZERO


def test_pack_round_trip():
    rng = random.Random(4711)
    for width in (64, 128, 192):
        half = 1 << (width - 1)
        for _ in range(200):
            f = rand_poly(rng)
            if rng.random() < 0.3:   # digits at the edge of the range
                f = LaurentPoly({**f._c, rng.randrange(-6, 7): rng.choice((half - 1, -half))})
            base = min(f.support(), default=0) - rng.randrange(3)
            n = pack(f, base, width)
            assert unpack(n, base, width) == f
            assert 0 not in unpack(n, base, width)._c.values()
            # a shift by one digit is a multiplication by v
            assert unpack(n << width, base, width) == f * V
            if f.coeff(base) == 0:
                assert unpack(n >> width, base, width) == f * V_INV
    assert pack(ZERO, 0, 64) == 0 and unpack(0, -5, 64) is ZERO
    # a top digit of +-1 over a digit at the edge: the value has fewer bits
    # than its digits take, and every digit is still read back
    for width in (64, 128):
        half = 1 << (width - 1)
        for f in (LaurentPoly({5: 1, 4: -half, 0: -1}), LaurentPoly({5: -1, 4: half - 1, 0: 1})):
            assert unpack(pack(f, 0, width), 0, width) == f


def test_packed_arithmetic_is_polynomial_arithmetic():
    rng = random.Random(99)
    for _ in range(200):
        f, g = rand_poly(rng), rand_poly(rng)
        base_f, base_g = -6, -6
        nf, ng = pack(f, base_f, 64), pack(g, base_g, 64)
        assert unpack(nf + ng, base_f, 64) == f + g
        assert unpack(nf - 3 * ng, base_f, 64) == f - 3 * g
        assert unpack(nf * ng, base_f + base_g, 64) == f * g
    big = LaurentPoly({-3: 1 << 200, 4: -(1 << 190) + 7})
    assert unpack(pack(big, -3, 256), -3, 256) == big


def test_pow():
    f = V + V_INV
    assert f ** 0 == ONE
    assert f ** 1 == f
    assert f ** 3 == f * f * f
    assert f ** 7 == f * f * f * f * f * f * f
    with pytest.raises(ValueError):
        f ** -1


@pytest.mark.parametrize("p", [V + 2 * V_INV, MPoly.linear([1, -2]) + MPoly.const(2, 3)],
                         ids=["LaurentPoly", "MPoly"])
def test_pow_makes_no_wasted_product(monkeypatch, p):
    expected = p ** 0
    assert expected == (ONE if isinstance(p, LaurentPoly) else MPoly.const(2, 1))
    for k in range(9):
        assert p ** k == expected
        expected = expected * p
    cls, mul, made = type(p), type(p).__mul__, []

    def counted(a, b):
        made.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    for k, products in ((1, 0), (2, 1), (3, 2), (4, 2), (8, 3)):
        made.clear()
        p ** k
        assert len(made) == products, k


def test_bar_involution_random():
    rng = random.Random(7)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        assert f.bar().bar() == f
        assert (f * g).bar() == f.bar() * g.bar()
        assert (f + g).bar() == f.bar() + g.bar()
    assert V.bar() == V_INV
    assert v_power(-3).bar() == v_power(3)


def test_substitute_power():
    f = LaurentPoly({-1: 2, 3: 1})
    assert f.substitute_power(2) == LaurentPoly({-2: 2, 6: 1})
    # v -> v^-2 is the q substitution used by the graded multiplicities
    assert f.substitute_power(-2) == LaurentPoly({2: 2, -6: 1})
    with pytest.raises(ValueError):
        f.substitute_power(0)


def test_sym_complete():
    f = LaurentPoly({0: 3, 1: 2, 3: 1})
    assert f.sym_complete() == LaurentPoly({0: 3, 1: 2, -1: 2, 3: 1, -3: 1})
    g = f.sym_complete()
    assert g == g.bar()
    assert ZERO.sym_complete() == ZERO


def test_predicates():
    f = LaurentPoly({-2: 1, -1: 3})
    assert f.in_v_inverse()
    assert not (f + ONE).in_v_inverse()
    assert f.is_nonnegative()
    assert not (f - V).is_nonnegative()
    assert f.support()[0] == -2 and f.support()[-1] == -1
    assert f.at_one() == 4
    sym = LaurentPoly({2: 1, -2: 1, 0: 5})
    assert sym == sym.bar()
    assert (V + ONE) != (V + ONE).bar()


def test_str_golden():
    assert str(LaurentPoly({-2: 1, 0: 2, 2: 1})) == "v^-2 + 2 + v^2"
    assert str(LaurentPoly({1: -1, 2: 3})) == "-v + 3*v^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(V_INV) == "v^-1"
    assert LaurentPoly({2: 1, 0: 1}).fmt("q") == "1 + q^2"


def test_json_lowest_first():
    f = LaurentPoly({2: 1, -2: 1, 0: 2})
    js = f.to_json()
    assert list(js.keys()) == ["-2", "0", "2"]
    assert json.dumps(js) == '{"-2": 1, "0": 2, "2": 1}'


def test_eq_int():
    assert LaurentPoly({0: 5}) == 5
    assert LaurentPoly({1: 1}) != 1
    assert ZERO == 0


# -- the sparse-combination core, shared by HeckeElt and SphElt ---------------------------


def hecke_sample() -> HeckeElt:
    a2 = datum_preset("A2")
    s = simple_reflections(a2)[0]
    return hecke_theta(a2, (-1, 1)) + hecke_T(s.elt).scale(V)


def sph_sample() -> SphElt:
    a1 = datum_preset("A1")
    return canonical_basis(a1, (3,)) + SphElt.basis(a1, (0,)).scale(V)


COMBINATIONS = pytest.mark.parametrize("make", [hecke_sample, sph_sample],
                                       ids=["HeckeElt", "SphElt"])


@COMBINATIONS
def test_combination_cancels_to_empty_support(make):
    x = make()
    assert len(x.support()) > 1
    for zero in (x + (-x), x - x, x.scale(0), x.scale(ZERO)):
        assert type(zero) is type(x)
        assert zero.is_zero() and not zero
        assert zero.support() == []
        assert zero == type(x).zero(x.datum)
        assert repr(zero) == f"{type(x).__name__}(0)"


@COMBINATIONS
def test_combination_sum_drops_cancelled_key(make):
    x = make()
    key, c = x.items()[0]
    y = type(x)(x.datum, {key: -c})
    total = x + y
    assert key not in total.support()
    assert total.coeff(key) == ZERO
    assert total.support() == x.support()[1:]
    assert total - y == x
    acc = dict(x._m)
    add_into(acc, x._m.items(), -ONE)
    assert acc == {}
