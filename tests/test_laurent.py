import json
import operator
import random

import pytest

from hsw.affine import simple_reflections
from hsw.hecke import HeckeElt, hecke_T, hecke_theta
from hsw.laurent import (ONE, V, V_INV, ZERO, LaurentPoly, add_into, exact_int, pack,
                         unpack, v_power)
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


# -- exponents and coefficients are read as exact integers -----------------------------


NOT_INTEGERS = {"2.5": 2.5, "0.9": 0.9, "'2'": "2", "None": None, "nan": float("nan"),
                "inf": float("inf"), "list": [1]}


@pytest.mark.parametrize("x", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_exact_int_rejects_what_its_int_does_not_equal(x):
    with pytest.raises(ValueError, match="is not an integer"):
        exact_int(x)


def test_exact_int_reads_integral_forms():
    for x, want in ((3, 3), (-7, -7), (True, 1), (False, 0), (3.0, 3), (-2.0, -2),
                    (2 ** 70, 2 ** 70)):
        got = exact_int(x)
        assert got == want and type(got) is int


@pytest.mark.parametrize("coeffs", [{0: 2.5}, {0.9: 1}, {"3": "2"}, {3: "2"}, {None: 1},
                                    {0: None}, [(1, 2.5)], [(0.5, 1)]],
                         ids=["coeff 2.5", "exponent 0.9", "both text", "coeff text",
                              "exponent None", "coeff None", "pair coeff", "pair exponent"])
def test_laurent_rejects_inexact_integers(coeffs):
    # these once truncated: LaurentPoly({0: 2.5}) == 2, {0.9: 1} printed 1
    with pytest.raises(ValueError, match="is not an integer"):
        LaurentPoly(coeffs)


def test_laurent_reads_integral_forms():
    want = LaurentPoly({-1: 1, 3: 2})
    for coeffs in ({-1: True, 3: 2}, {-1.0: 1.0, 3.0: 2}, [(-1, 1), (3.0, 1), (3, True)]):
        got = LaurentPoly(coeffs)
        assert got == want and repr(got) == repr(want) and str(got) == "v^-1 + 2*v^3"
        assert all(type(e) is int and type(a) is int for e, a in got.items())


@pytest.mark.parametrize("coeffs", [{(1.5,): 2.7}, {(1,): 2.5}, {("1",): 1}, {(1,): "2"},
                                    {(None,): 1}, {(1,): None}, {(1.5,): 0}],
                         ids=["both", "coeff", "exponent text", "coeff text",
                              "exponent None", "coeff None", "zero coeff"])
def test_mpoly_rejects_inexact_integers(coeffs):
    # MPoly(1, {(1.5,): 2.7}) once printed 2*u1
    with pytest.raises(ValueError, match="is not an integer"):
        MPoly(1, coeffs)


@pytest.mark.parametrize("coeffs", [[2.5, 0], ["2", 0], [None, 1], [1, 0.5]])
def test_mpoly_linear_rejects_inexact_integers(coeffs):
    with pytest.raises(ValueError, match="is not an integer"):
        MPoly.linear(coeffs)
    with pytest.raises(ValueError, match="is not an integer"):
        MPoly.var(2, 0).substitute_linear([coeffs, [0, 1]])


def test_mpoly_reads_integral_forms():
    want = MPoly(2, {(2, 0): 3, (0, 1): 1})
    for coeffs in ({(2.0, 0): 3.0, (0, 1): True}, {(2, False): 3, (0.0, 1.0): 1}):
        got = MPoly(2, coeffs)
        assert got == want and repr(got) == repr(want) and str(got) == "u2 + 3*u1^2"
    linear = MPoly.linear([True, 2.0])
    assert repr(linear) == repr(MPoly.linear([1, 2])) == "MPoly(2, {(0, 1): 2, (1, 0): 1})"
    p = MPoly(2, {(1, 1): 1})
    assert repr(p.substitute_linear([[1.0, 0], [False, True]])) == repr(p)


ARITH = [operator.add, operator.sub, operator.mul]


@pytest.mark.parametrize("op", ARITH, ids=["add", "sub", "mul"])
@pytest.mark.parametrize("other", [2.5, "u", None, V, 1],
                         ids=["float", "str", "None", "LaurentPoly", "int"])
def test_mpoly_wrong_operand_is_type_error(op, other):
    # an int is a scalar for * alone; MPoly + int stays unsupported
    x = MPoly.var(2, 0)
    if op is operator.mul and other == 1:
        assert x * other == other * x == x
        return
    for a, b in ((x, other), (other, x)):
        with pytest.raises(TypeError):
            op(a, b)


@pytest.mark.parametrize("op", ARITH, ids=["add", "sub", "mul"])
def test_mpoly_operands_in_different_variables_are_value_error(op):
    # x + y once held both (1, 0) and (1, 0, 0); x * y once gave u1^2
    for x, y in ((MPoly.var(2, 0), MPoly.var(3, 0)), (MPoly.const(1, 2), MPoly.var(2, 1))):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="variables"):
                op(a, b)


@pytest.mark.parametrize("i", [2, 3, -1, -2])
def test_mpoly_var_index_out_of_range_is_value_error(i):
    # var(2, 2) once raised IndexError and var(2, -1) returned u2
    with pytest.raises(ValueError, match="variable index"):
        MPoly.var(2, i)


@pytest.mark.parametrize("i", [2, 3, -1, -2])
def test_mpoly_deriv_index_out_of_range_is_value_error(i):
    # deriv(-1) once differentiated by u2, and deriv(2) raised IndexError
    with pytest.raises(ValueError, match="variable index"):
        MPoly(2, {(1, 2): 1}).deriv(i)


def test_mpoly_deriv_in_range():
    p = MPoly(2, {(1, 2): 1})
    assert (str(p.deriv(0)), str(p.deriv(1))) == ("u2^2", "2*u1*u2")


@pytest.mark.parametrize("mat", [[[1, 0]], [[1, 0], [0, 1], [1, 1]], [[1, 0], [0]],
                                 [[1, 0, 0], [0, 1, 0]], []])
def test_mpoly_substitution_of_wrong_shape_is_value_error(mat):
    # one row once gave u1 for u1*u2^2, and a third row was ignored
    with pytest.raises(ValueError, match="2 x 2 matrix"):
        MPoly(2, {(1, 2): 1}).substitute_linear(mat)


@pytest.mark.parametrize("exps", [(1,), (1, 2, 0), ()])
def test_mpoly_coeff_of_wrong_length_is_value_error(exps):
    # coeff((1,)) once returned 0
    with pytest.raises(ValueError, match="2 exponents"):
        MPoly(2, {(1, 2): 3}).coeff(exps)


def test_mpoly_coeff_and_substitution_in_shape():
    p = MPoly(2, {(1, 2): 3})
    assert (p.coeff((1, 2)), p.coeff([1, 2]), p.coeff((0, 0))) == (3, 3, 0)
    assert p.substitute_linear([[0, 1], [1, 0]]) == MPoly(2, {(2, 1): 3})


def test_mpoly_var_in_range():
    assert [str(MPoly.var(3, i)) for i in range(3)] == ["u1", "u2", "u3"]
    assert MPoly.var(1, 0) == MPoly.linear([1])


def _combinations(name):
    datum = datum_preset(name)
    lam = (1,) + (0,) * (datum.rank - 1)
    t = simple_reflections(datum)[0].elt
    return (HeckeElt(datum, {t: V}) + hecke_theta(datum, lam),
            SphElt.basis(datum, lam) + SphElt.basis(datum, (0,) * datum.rank))


@pytest.mark.parametrize("kind", [0, 1], ids=["HeckeElt", "SphElt"])
def test_sum_across_data_is_value_error(kind):
    # hecke_T of A1 plus hecke_T of A2 once held symbols of both data
    a, b = _combinations("A1")[kind], _combinations("A2")[kind]
    for x, y in ((a, b), (b, a)):
        for op in ARITH[:2]:
            with pytest.raises(ValueError, match="operands live over different data"):
                op(x, y)


@pytest.mark.parametrize("kind", [0, 1], ids=["HeckeElt", "SphElt"])
def test_sum_with_a_non_combination_is_type_error(kind):
    # HeckeElt + 1 once raised AttributeError
    pair = _combinations("A1")
    x = pair[kind]
    for other in (1, 2.5, V, MPoly.const(1, 1), pair[1 - kind]):
        for a, b in ((x, other), (other, x)):
            for op in ARITH[:2]:
                with pytest.raises(TypeError):
                    op(a, b)
    assert (x - x).is_zero() and x + x == x.scale(2)


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
