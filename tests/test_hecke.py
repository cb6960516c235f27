import ast
import itertools
import pathlib
import random

import pytest

from hsw import hecke
from hsw.affine import (affine_identity, length_box, min_rep, mul_simple, omega_elements,
                        reduced_word, simple_reflections, translation)
from hsw.hecke import (HeckeElt, _dominant_split, _packed, _read, _same, _theta_chain,
                       _width, hecke_bar, hecke_inv_T, hecke_mul, hecke_mul_factors, hecke_T,
                       hecke_theta, theta_factors, verify_bernstein, verify_quadratic_affine,
                       verify_quadratic_all)
from hsw.laurent import ONE, V, XI, ZERO, LaurentPoly, _wrap, pack, v_power
from hsw.rootdata import datum_preset, vec_add

PRESETS = ["A1", "A2", "B2", "G2", "A1xA1", "GL3"]
PACKING = ("_packed", "_read", "_same")  # maker, reader, comparison of packed values


# -- the pair-by-pair product on Laurent coefficients: the oracle of the kernel -------


def add_xi(a, b, sign=1):
    """a + sign * (v - v^-1) * b, in one pass: each term of b is shifted one
    degree up and one down into a copy of a, with no product formed."""
    c = dict(a._c)
    for e, x in b._c.items():
        x *= sign
        s = c.get(e + 1, 0) + x
        if s:
            c[e + 1] = s
        else:
            del c[e + 1]
        s = c.get(e - 1, 0) - x
        if s:
            c[e - 1] = s
        else:
            del c[e - 1]
    return _wrap(c)


def _rmul_simple(m, s, sign=1):
    """m * T_s for sign 1 and m * T_s^-1 for sign -1, one pair {y, ys} at a
    time.  Call y the member whose ys is shorter (T_s) or longer (T_s^-1):
    the pair's output is ys with coefficient c_y, and y with c_ys + sign *
    (v - v^-1) * c_y.  Distinct pairs share no key."""
    out = {}
    for y, c in m.items():
        ys = mul_simple(y, s)
        if ys.length - y.length == -sign:
            out[ys] = c
            top = add_xi(m.get(ys, ZERO), c, sign)
            if top:
                out[y] = top
        elif ys not in m:
            out[ys] = c
    return out


def _rmul_omega(m, om):
    return {y * om: c for y, c in m.items()}


def _add_scaled(acc, m, c):
    """acc += c * m on term maps, dropping cancelled terms."""
    for y, d in m.items():
        total = acc.get(y, ZERO) + d * c
        if total:
            acc[y] = total
        else:
            acc.pop(y, None)


def mul_oracle(a, b):
    """hecke_mul on term maps, letter by letter on Laurent coefficients."""
    acc = {}
    for x, c in b.items():
        om, word = reduced_word(x)
        cur = _rmul_omega(a, om)
        for s in word:
            cur = _rmul_simple(cur, s)
        _add_scaled(acc, cur, c)
    return acc


def mul_factors_oracle(a, factors):
    cur = a
    for x, sign in factors:
        om, word = reduced_word(x)
        if sign == 1:
            cur = _rmul_omega(cur, om)
            for s in word:
                cur = _rmul_simple(cur, s)
        else:
            for s in reversed(word):
                cur = _rmul_simple(cur, s, -1)
            cur = _rmul_omega(cur, om.inverse())
    return cur


def bar_oracle(a):
    """hecke_bar on term maps: c T_x goes to bar(c) (T_{x^-1})^-1, each
    expanded by ``mul_factors_oracle``."""
    acc = {}
    for x, c in a.items():
        one = {affine_identity(x.datum): ONE}
        _add_scaled(acc, mul_factors_oracle(one, [(x.inverse(), -1)]), c.bar())
    return acc


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


def rand_poly(rng, max_terms=5, span=6, bound=9):
    return LaurentPoly({rng.randrange(-span, span + 1): rng.randrange(-bound, bound + 1)
                        for _ in range(rng.randrange(max_terms + 1))})


def test_add_xi_matches_product():
    rng = random.Random(4711)
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        for sign in (1, -1):
            got = add_xi(a, b, sign)
            assert got == a + sign * XI * b
            assert 0 not in got._c.values()
    # the result cancels to zero, and a is not changed in place
    a = -XI * (V + 1)
    assert not add_xi(a, V + 1)._c
    assert a == -XI * (V + 1)
    assert add_xi(XI, ONE, -1) == ZERO
    assert add_xi(V, ZERO, -1) == V and add_xi(ZERO, ONE, -1) == -XI


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


def _kernel_pool(datum):
    """Coset representatives on a small box of weights; on GL3, whose
    length-zero subgroup is infinite, a plain box including the central
    direction (1, 1, 1)."""
    if datum.fundamental_group_order() is None:
        weights = itertools.product(range(-1, 2), repeat=datum.rank)
    else:
        weights = length_box(datum, 1)
    return [min_rep(datum, lam) for lam in weights]


@pytest.mark.parametrize("name", PRESETS)
def test_kernel_matches_the_pair_oracle(name):
    datum = datum_preset(name)
    rng = random.Random(f"kernel {name}")
    pool = _kernel_pool(datum)
    omegas = [x for x in pool if x.length == 0]
    assert affine_identity(datum) in omegas
    if name == "GL3":
        assert translation(datum, (1, 1, 1)) in omegas
    gens = simple_reflections(datum)

    def rand_x():
        x = rng.choice(pool)
        for _ in range(rng.randrange(3)):
            x = x * rng.choice(gens).elt
        return x

    def rand_terms(n):
        return {rand_x(): rand_poly(rng, 3, 3, 4) or ONE for _ in range(n)}

    for _ in range(15):
        a, b = rand_terms(rng.randrange(1, 5)), rand_terms(rng.randrange(1, 4))
        assert hecke_mul(HeckeElt(datum, a), HeckeElt(datum, b))._m == mul_oracle(a, b)
        factors = [(rng.choice((rand_x(), rng.choice(omegas))), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 4))]
        got = hecke_mul_factors(HeckeElt(datum, a), factors)._m
        assert got == mul_factors_oracle(a, factors)


def test_only_the_product_packs():
    # the packed form is made, read and compared in laurent.py and in the
    # maker, reader and comparison of hecke alone: any other reference to
    # pack or unpack under src/hsw is listed
    stray = []
    for path in sorted(pathlib.Path(hecke.__file__).parent.glob("*.py")):
        if path.name == "laurent.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for node in tree.body:
            if path.name == "hecke.py" and getattr(node, "name", None) in PACKING:
                inside |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names
                         if path.name != "hecke.py" or a.asname or node.module != "laurent"]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if {"pack", "unpack"} & set(names) and id(node) not in inside:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def _spy_segments(monkeypatch):
    """Record (letters, digit width) of every segment the kernel runs."""
    calls = []
    real = hecke._apply

    def spy(cur, letters, width, by_serial):
        calls.append((len(letters), width))
        return real(cur, letters, width, by_serial)

    monkeypatch.setattr(hecke, "_apply", spy)
    return calls


@pytest.mark.parametrize("name", PRESETS)
def test_long_chain_is_cut_into_segments(name, monkeypatch):
    # 120 letters: the bound 3^120 is far beyond 2^64, though the
    # coefficients of T_s^-120 stay small; the chain is re-read every 36 letters
    datum = datum_preset(name)
    calls = _spy_segments(monkeypatch)
    one = HeckeElt.one(datum)
    for s in simple_reflections(datum):
        calls.clear()
        factors = [(s.elt, -1)] * 120
        got = hecke_mul_factors(one, factors)._m
        assert got == mul_factors_oracle(one._m, factors)
        assert calls == [(36, 64)] * 3 + [(12, 64)]


def test_coefficients_beyond_64_bits_stay_exact(monkeypatch):
    calls = _spy_segments(monkeypatch)
    for name in ("A2", "GL3"):
        datum = datum_preset(name)
        pool = _kernel_pool(datum)
        s1, s2 = simple_reflections(datum)[:2]
        factors = [(s1.elt, 1), (s2.elt, -1)] * 30 + [(pool[-1], -1), (pool[3], 1)]
        for big, width in ((1 << 55, 128), (1 << 70, 192), (-(1 << 200) + 3, 320)):
            a = {pool[0]: LaurentPoly({0: big, 2: -3}), pool[4]: LaurentPoly({-1: big // 7})}
            calls.clear()
            got = hecke_mul_factors(HeckeElt(datum, a), factors)._m
            assert got == mul_factors_oracle(a, factors)
            # the chain is cut after 36 letters, and the first segment's
            # digits hold the start times 3^36
            assert len(calls) > 1 and calls[0][1] == width
            b = {pool[5]: LaurentPoly({3: big, -2: 1}), pool[-2]: -V}
            assert hecke_mul(HeckeElt(datum, a), HeckeElt(datum, b))._m == mul_oracle(a, b)


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
        assert hecke_bar(a)._m == bar_oracle(a._m)


# terms longer than a segment of hecke_mul_factors, which one _product runs
# in one pass of wide digits
@pytest.mark.parametrize("name,lam,long", [("A1", (-40,), (41,)), ("G2", (-1, -2), (3, 2))])
def test_bar_of_long_terms_matches_the_pair_oracle(name, lam, long):
    datum = datum_preset(name)
    rng = random.Random(f"bar {name}")
    theta = [(x, c) for x, c in hecke_theta(datum, lam).items()]
    terms = dict(rng.sample(theta, min(len(theta), 24)))
    terms[min_rep(datum, long)] = LaurentPoly({3: 2, -1: -1})
    for _ in range(3):
        terms[rand_elt(datum, rng, 6)] = rand_poly(rng, 3, 3, 4) or V
    assert max(x.length for x in terms) > 38
    assert hecke_bar(HeckeElt(datum, terms))._m == bar_oracle(terms)


@pytest.mark.parametrize("name,lam", [("A1", (-40,)), ("G2", (-1, -2))])
def test_bar_of_antidominant_theta_is_a_translation(name, lam):
    # theta_lam = (T_{t_-lam})^-1 for antidominant lam, so its bar is T_{t_lam}
    datum = datum_preset(name)
    assert hecke_bar(hecke_theta(datum, lam)) == hecke_T(translation(datum, lam))


@pytest.mark.parametrize("name,long", [("A1", (41,)), ("B2", (7, 4)), ("G2", (3, 2))])
def test_mul_by_long_terms_matches_the_pair_oracle(name, long):
    datum = datum_preset(name)
    rng = random.Random(f"long {name}")
    x = min_rep(datum, long)
    assert x.length > 38
    for _ in range(4):
        a = {rand_elt(datum, rng, 3): rand_poly(rng, 3, 3, 4) or ONE
             for _ in range(rng.randrange(1, 4))}
        b = {x: rng.choice((ONE, LaurentPoly({2: 1, -1: -3}))), rand_elt(datum, rng): -V}
        assert hecke_mul(HeckeElt(datum, a), HeckeElt(datum, b))._m == mul_oracle(a, b)


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


# -- B2 on packed values ------------------------------------------------------------------


def _packed_by_hand(terms, base, width=64):
    return {x._serial: pack(c, base, width) for x, c in terms.items()}, base, width


@pytest.mark.parametrize("name", PRESETS)
def test_packed_comparison(name):
    datum = datum_preset(name)
    terms = max((hecke_theta(datum, lam)._m
                 for lam in itertools.product((-1, 0, 1), repeat=datum.rank)), key=len)
    assert len(terms) > 1
    low = min(min(c._c) for c in terms.values())
    a = _packed_by_hand(terms, low)
    for lower in (1, 2, 7):
        b = _packed_by_hand(terms, low - lower)
        assert _same(a, b) and _same(b, a) and _same(b, b)
    x, y = list(terms)[:2]
    for bump in (ONE, V, -V, LaurentPoly({1: 3})):
        changed = {**terms, x: terms[x] + bump}
        for base in (low, low - 1, low - 3):
            assert not _same(a, _packed_by_hand(changed, base))
            assert not _same(_packed_by_hand(changed, base), a)
    far = translation(datum, (7,) * datum.rank)
    assert far not in terms
    extra = {**terms, far: V}
    missing = {z: c for z, c in terms.items() if z is not y}
    for other in (extra, missing):
        for base in (low, low - 2):
            assert not _same(a, _packed_by_hand(other, base))
            assert not _same(_packed_by_hand(other, base), a)
    with pytest.raises(ValueError, match="widths 64 and 128"):
        _same(a, _packed_by_hand(terms, low, 128))


@pytest.mark.parametrize("name", PRESETS)
def test_packed_thetas_read_back_as_the_pair_oracle(name):
    # theta_lam made from the identity, then theta_mu's letters run on its
    # packed value, which moves it down (a long mu) or up (mu = 0) first
    datum = datum_preset(name)
    one = {affine_identity(datum): ONE}
    weights = list(itertools.product((-1, 0, 1), repeat=datum.rank))
    longest = max(weights, key=lambda lam: _theta_chain(datum, lam)[1])
    rng = random.Random(name)
    pairs = [(longest, longest), (longest, (0,) * datum.rank)]
    pairs += [(rng.choice(weights), rng.choice(weights)) for _ in range(5)]
    for lam, mu in pairs:
        lam_chain, mu_chain = _theta_chain(datum, lam), _theta_chain(datum, mu)
        width = _width(3 ** (lam_chain[1] + mu_chain[1]))
        th = _packed(datum, one, [lam_chain], width)
        expected = mul_factors_oracle(one, theta_factors(datum, lam))
        assert _read(datum, th) == expected
        lhs = _packed(datum, th, [mu_chain])
        assert lhs[2] == width and 0 not in lhs[0].values()
        assert _read(datum, lhs) == mul_factors_oracle(expected, theta_factors(datum, mu))


@pytest.mark.parametrize("name", PRESETS)
def test_b2_rows_and_the_theta_table(name):
    # B2 keeps its rows, in order and in one block, and holds no theta of a
    # sum outside the box once the battery is done
    datum = datum_preset(name)
    rows = verify_bernstein(datum, 1)
    weights = list(itertools.product((-1, 0, 1), repeat=datum.rank))
    kinds = [r["relation"] for r in rows]
    first = kinds.index("B2")
    b2 = rows[first:first + len(weights) ** 2]
    assert [r["case"] for r in b2] == [f"{lam}+{mu}" for lam in weights for mu in weights]
    assert kinds.count("B2") == len(b2) and all(r["relation"] == "B2" for r in b2)
    assert set(kinds[:first]) == {"B1"} and set(kinds[first + len(b2):]) <= {"B3", "B4"}
    assert all(r["pass"] for r in rows)
    assert set(datum._hecke_state.theta) <= set(weights)


def test_b2_digits_hold_the_longest_chain(monkeypatch, a1):
    # theta_-20 theta_-20 runs 40 letters from the identity: 3^40 > 2^61, so
    # every value of the call has 128-bit digits, though A1's stay small
    calls = _spy_segments(monkeypatch)
    rows = hecke._verify_b2(a1, [(i,) for i in range(-20, 21)])
    assert len(rows) == 41 ** 2 and all(r["pass"] for r in rows)
    # one value per weight of -40..40, then one left side per pair
    assert {width for _, width in calls} == {128} and len(calls) == 81 + 41 ** 2


def test_b2_fails_where_a_theta_is_wrong(monkeypatch):
    # theta_(1,0) built as theta_(0,1): a row passes iff the wrong thetas still add;
    # a datum of its own, as B3 and B4 hold the wrong theta in its table
    a2 = datum_preset("A2")
    wrong = {(1, 0): (0, 1)}
    real = hecke.theta_factors
    monkeypatch.setattr(hecke, "theta_factors",
                        lambda datum, lam: real(datum, wrong.get(lam, lam)))
    rows = [r for r in verify_bernstein(a2, 1) if r["relation"] == "B2"]
    weights = list(itertools.product((-1, 0, 1), repeat=2))
    pairs = [(lam, mu) for lam in weights for mu in weights]
    expected = [vec_add(wrong.get(lam, lam), wrong.get(mu, mu)) == wrong.get(nu, nu)
                for lam, mu in pairs for nu in [vec_add(lam, mu)]]
    assert [r["pass"] for r in rows] == expected
    assert 0 < expected.count(False) < len(pairs)


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
