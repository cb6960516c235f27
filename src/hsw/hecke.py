"""The affine Hecke algebra in its standard basis.

Elements are finite sums of basis symbols T_x over extended affine Weyl
group elements x, with Laurent coefficients; ``HeckeElt`` adds the basis
order, the labels and the product to the sparse-combination core of
``hsw.laurent``, and sums of elements accumulate through its ``add_into``.
Right multiplication by a generator s pairs each y with ys.  Write lo for
the shorter of the two and hi for the longer; then

    T_lo T_s = T_hi
    T_hi T_s = T_lo + (v - v^-1) T_hi

and T_y T_om = T_{y om} for length-zero om.  The inverse mirrors this:

    T_hi T_s^-1 = T_lo
    T_lo T_s^-1 = T_hi - (v - v^-1) T_lo

``_rmul_simple`` takes the sign and handles each pair once, so every output
coefficient is written once, as c or as c' +- (v - v^-1) c (``add_xi``),
and nothing accumulates.

General products (``hecke_mul``) expand the right operand in the standard
basis and factor each of its terms through a reduced word.  An operand that
is known as a product of basis symbols and their inverses is applied by
``hecke_mul_factors`` one letter at a time instead, and is never expanded.
The commutative family theta_lam is defined by theta_lam = T_{t_mu}
T_{t_nu}^{-1} for any splitting lam = mu - nu into dominant weights; those
two factors are ``theta_factors``.  Independence of the splitting is part of
the verified relation battery, which multiplies by thetas in factored form
and keeps ``hecke_mul`` as the general product the tests check it against.

Per datum, ``datum._hecke_state`` memoises the inverses of basis symbols
(``inv_T``, which also serves the bar of a basis symbol) and the thetas
(``theta``).
"""

from __future__ import annotations

import itertools

from .affine import (AffineElt, SimpleReflection, affine_identity, from_weyl,
                     mul_simple, reduced_word, simple_reflections, translation)
from .laurent import ONE, ZERO, Combination, LaurentPoly, add_into, add_xi, v_power
from .rootdata import RootDatum, pair, vec_add, vec_scale, vec_sub


class HeckeElt(Combination):
    """A finite Laurent-combination of standard basis symbols T_x."""

    __slots__ = ()

    @staticmethod
    def one(datum: RootDatum) -> "HeckeElt":
        return HeckeElt(datum, {affine_identity(datum): ONE})

    @staticmethod
    def basis(x: AffineElt) -> "HeckeElt":
        return HeckeElt(x.datum, {x: ONE})

    def _order(self, x: AffineElt):
        """Terms sort by (length, translation part, matrix) for determinism."""
        return (x.length, x.lam, x.w.matrix)

    def _label(self, x: AffineElt) -> str:
        wpart = ".".join(f"s{i + 1}" for i in x.w.reduced_word()) or "e"
        return f"T[{wpart} * t{x.lam}]" if any(x.lam) else f"T[{wpart}]"

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return hecke_mul(self, other)
        return self.scale(other)

    def to_json(self) -> list[dict]:
        return [{"element": x.to_json(), "coeff": c.to_json()} for x, c in self.items()]


# -- core multiplication ------------------------------------------------------------

def _rmul_simple(m: dict, s: SimpleReflection, sign: int = 1) -> dict:
    """m * T_s for sign 1 and m * T_s^-1 for sign -1, one pair {y, ys} at a
    time.  Call y the member whose ys is shorter (T_s) or longer (T_s^-1):
    the pair's output is ys with coefficient c_y, and y with c_ys + sign *
    (v - v^-1) * c_y.  Distinct pairs share no key, so each output key gets
    its one value with no accumulation."""
    out: dict[AffineElt, LaurentPoly] = {}
    for y, c in m.items():
        ys = mul_simple(y, s)
        if ys.length - y.length == -sign:
            out[ys] = c
            top = add_xi(m.get(ys, ZERO), c, sign)
            if top:
                out[y] = top
        elif ys not in m:
            out[ys] = c  # else the pair is written when ys comes round
    return out


def _rmul_omega(m: dict, om: AffineElt) -> dict:
    if om.is_identity():
        return m
    return {y * om: c for y, c in m.items()}


def hecke_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the standard basis, factoring b through reduced words."""
    if a.datum is not b.datum:
        raise ValueError("operands live over different data")
    acc: dict[AffineElt, LaurentPoly] = {}
    for x, c in b._m.items():
        om, word = reduced_word(x)
        cur = _rmul_omega(a._m, om)
        for s in word:
            cur = _rmul_simple(cur, s)
        add_into(acc, cur.items(), c)
    return HeckeElt(a.datum, acc)


def hecke_mul_factors(a: HeckeElt, factors) -> HeckeElt:
    """The product a * F_1 * ... * F_k for factors given as pairs (x, sign),
    where F is T_x for sign +1 and T_x^{-1} for sign -1.

    Each factor is applied one letter of its reduced word at a time, so the
    operand is never expanded in the standard basis.
    """
    datum = a.datum
    cur = a._m
    for x, sign in factors:
        if x.datum is not datum:
            raise ValueError("operands live over different data")
        om, word = reduced_word(x)
        if sign == 1:
            cur = _rmul_omega(cur, om)
            for s in word:
                cur = _rmul_simple(cur, s)
        elif sign == -1:
            for s in reversed(word):
                cur = _rmul_simple(cur, s, -1)
            cur = _rmul_omega(cur, om.inverse())
        else:
            raise ValueError(f"factor sign must be 1 or -1, not {sign!r}")
    return HeckeElt(datum, cur)


def hecke_T(x: AffineElt) -> HeckeElt:
    return HeckeElt.basis(x)


def hecke_inv_T(x: AffineElt) -> HeckeElt:
    """The inverse of the basis symbol T_x."""
    table = x.datum._hecke_state.inv_T
    cached = table.get(x)
    if cached is None:
        cached = table[x] = hecke_mul_factors(HeckeElt.one(x.datum), ((x, -1),))
    return cached


def hecke_bar_T(x: AffineElt) -> HeckeElt:
    """bar(T_x) = (T_{x^{-1}})^{-1}."""
    return hecke_inv_T(x.inverse())


def hecke_bar(a: HeckeElt) -> HeckeElt:
    """The bar involution: v -> v^-1 on coefficients, T_x -> (T_{x^-1})^-1."""
    acc: dict[AffineElt, LaurentPoly] = {}
    for x, c in a._m.items():
        add_into(acc, hecke_bar_T(x)._m.items(), c.bar())
    return HeckeElt(a.datum, acc)


# -- the commutative family -----------------------------------------------------------


def _dominant_split(datum: RootDatum, lam: tuple) -> tuple[tuple, tuple]:
    """Split lam = mu - nu with mu, nu dominant: with a finite fundamental
    group, nu pairs to max(-<lam, alpha_i-check>, 0); with central directions,
    where pairings do not fix a weight, nu is a multiple of 2rho."""
    pairings = [pair(lam, c) for c in datum.simple_coroots]
    if datum.fundamental_group_order() is not None:
        nu = datum.weight_from_pairings([max(-p, 0) for p in pairings])
        return vec_add(lam, nu), nu
    # a strictly dominant corrector: <2rho, alpha_i-check> = 2
    worst = min(pairings)
    k = (-worst + 1) // 2 if worst < 0 else 0
    nu = vec_scale(k, datum.two_rho())
    return vec_add(lam, nu), nu


def theta_factors(datum: RootDatum, lam) -> list[tuple[AffineElt, int]]:
    """theta_lam as factors for ``hecke_mul_factors``: T_{t_mu}, then
    T_{t_nu}^{-1} when nu is nonzero, for the dominant splitting lam = mu - nu."""
    mu, nu = _dominant_split(datum, lam)
    if not datum.is_dominant(mu) or not datum.is_dominant(nu):
        raise RuntimeError(f"dominant splitting failed for {lam}")
    factors = [(translation(datum, mu), 1)]
    if any(nu):
        factors.append((translation(datum, nu), -1))
    return factors


def hecke_theta(datum: RootDatum, lam) -> HeckeElt:
    """The commuting basis element attached to a weight.

    For dominant lam this is v^0 T_{t_lam}; in general it is the ratio
    T_{t_mu} T_{t_nu}^{-1} for a dominant splitting, independent of choice.
    """
    lam = tuple(int(x) for x in lam)
    table = datum._hecke_state.theta
    cached = table.get(lam)
    if cached is None:
        cached = table[lam] = hecke_mul_factors(HeckeElt.one(datum),
                                                theta_factors(datum, lam))
    return cached


# -- relation batteries -----------------------------------------------------------------


def verify_quadratic_all(datum: RootDatum) -> list[dict]:
    """(T_s + v^-1)(T_s - v) = 0 for every generator, finite and affine."""
    rows = []
    one = HeckeElt.one(datum)
    for s in simple_reflections(datum):
        t = hecke_T(s.elt)
        prod = hecke_mul(t + one.scale(v_power(-1)), t - one.scale(v_power(1)))
        rows.append({"relation": "quadratic", "generator": s.label,
                     "pass": prod.is_zero()})
    return rows


def verify_quadratic_affine(datum: RootDatum) -> list[dict]:
    """The rows of verify_quadratic_all for the affine generators."""
    return [r for r, s in zip(verify_quadratic_all(datum), simple_reflections(datum))
            if s.kind == "affine"]


def verify_bernstein(datum: RootDatum, box: int) -> list[dict]:
    """The four defining relations of the commutative family, on a box.

    Checks, in the standard basis:
      B1  T_v T_w = T_{vw} when finite lengths add
      B2  theta_lam theta_mu = theta_{lam+mu} for all lam, mu in the box
      B3  T_s theta_lam = theta_lam T_s when <lam, alpha_s-check> = 0
      B4  theta_lam = T_s theta_{lam - alpha_s} T_s when <lam, alpha_s-check> = 1
    """
    rows = []
    w_elts = datum.weyl_elements()
    for vw in w_elts:
        for ww in w_elts:
            if vw.length + ww.length != (vw * ww).length:
                continue
            lhs = hecke_mul(hecke_T(from_weyl(vw)), hecke_T(from_weyl(ww)))
            ok = lhs == hecke_T(from_weyl(vw * ww))
            rows.append({"relation": "B1", "case": f"{vw!r}*{ww!r}", "pass": ok})
    box_weights = list(itertools.product(range(-box, box + 1), repeat=datum.rank))
    for lam in box_weights:
        th = hecke_theta(datum, lam)
        for mu in box_weights:
            lhs = hecke_mul_factors(th, theta_factors(datum, mu))
            ok = lhs == hecke_theta(datum, vec_add(lam, mu))
            rows.append({"relation": "B2", "case": f"{lam}+{mu}", "pass": ok})
    finite = [s for s in simple_reflections(datum) if s.kind == "finite"]
    for s in finite:
        ts = hecke_T(s.elt)
        for lam in box_weights:
            p = pair(lam, datum.simple_coroots[s.index])
            if p == 0:
                lhs = hecke_mul_factors(ts, theta_factors(datum, lam))
                ok = lhs == hecke_mul(hecke_theta(datum, lam), ts)
                rows.append({"relation": "B3", "case": f"{s.label},{lam}", "pass": ok})
            elif p == 1:
                shifted = theta_factors(datum, vec_sub(lam, datum.simple_roots[s.index]))
                rhs = hecke_mul_factors(ts, shifted + [(s.elt, 1)])
                ok = hecke_theta(datum, lam) == rhs
                rows.append({"relation": "B4", "case": f"{s.label},{lam}", "pass": ok})
    return rows
