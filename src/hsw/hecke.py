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

The letter-chain kernel (``_apply``) runs these steps on integers.  A term
is keyed by the serial of its element, and each step y -> ys of a letter is
held as one int in the table ``steps``: the serial of ys shifted left once,
with the descent bit l(ys) < l(y) as its last bit.  Each coefficient is
packed into one int with signed digits of w bits, w a multiple of 64
(``laurent.pack``), so that multiplying by v or v^-1 is a shift and the
step is c_ys +- ((c << w) - (c >> w)).

The packed form is made and read in one place, ``_product``: it packs a
term map once, runs each chain of letters on c times it, adds the results
in packed form, and reads the sum back once.  A step at most
triples the largest coefficient, so w leaves room for the exact largest
coefficient times 3^k, for the longest chain of k letters, times the sum of
the coefficients c; results stay exact at any size.

General products (``hecke_mul``) expand the right operand in the standard
basis and run the letters of a reduced word of each of its terms, all in
one ``_product``; the bar (``hecke_bar``) is one ``_product`` from the
identity over the letters of (T_{x^-1})^-1 for every term c T_x, with
coefficients bar(c).  An operand that is known as a product of basis
symbols and their inverses is applied by ``hecke_mul_factors`` one letter
at a time instead, and is never expanded; its chain is cut every 36 letters
that are not omega (15 * 3^36 < 2^61, so a segment from coefficients up to
15 keeps 64-bit digits), one ``_product`` per segment, each from the exact
coefficients read back from the one before.

The commutative family theta_lam is defined by theta_lam = T_{t_mu}
T_{t_nu}^{-1} for any splitting lam = mu - nu into dominant weights; those
two factors are ``theta_factors``.  Independence of the splitting is part of
the verified relation battery, which multiplies by thetas in factored form
and keeps ``hecke_mul`` as the general product the tests check it against.

Per datum, ``datum._hecke_state`` memoises the thetas (``theta``), the
letters of T_x and of T_x^-1 (``letters``, keyed by the serial of x and its
complement) and the steps of each letter (``steps``, one dict per letter,
keyed by the serial of the letter's element); the kernel reads the element
of a serial from the affine layer's ``by_serial``.  The inverse of a basis
symbol, and with it the bar of one, is computed on each call: the spherical
module holds each bar it projects (``bar_basis``), so a table here would be
read only once per symbol.
"""

from __future__ import annotations

import itertools

from .affine import (AffineElt, affine_identity, from_weyl, reduced_word,
                     simple_reflections, translation)
from .laurent import ONE, Combination, pack, unpack, v_power
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


_CUT = 36  # letters per segment of hecke_mul_factors: 15 * 3^36 < 2^61


def _letters(x: AffineElt, sign: int) -> tuple[list, int]:
    """The steps of T_x (sign 1) or T_x^-1 (sign -1), held per element in
    the table ``letters``, with the number of them that are not omega.

    Each step is (row, element, sign): omega then s_1 ... s_r, or s_r^-1
    ... s_1^-1 then omega^-1, where row is the held step table of the
    element and omega, which keeps lengths, has sign 0 (and no step when
    omega = 1).
    """
    state = x.datum._hecke_state
    key = x._serial if sign == 1 else ~x._serial
    held = state.letters.get(key)
    if held is None:
        om, word = reduced_word(x)
        if sign == 1:
            seq = [(om, 0)] + [(s.elt, 1) for s in word]
        else:
            seq = [(s.elt, -1) for s in reversed(word)] + [(om.inverse(), 0)]
        steps = state.steps
        held = state.letters[key] = ([
            (steps.setdefault(g._serial, {}), g, sgn)
            for g, sgn in seq if sgn or not g.is_identity()], len(word))
    return held


def _fill(row: dict, y: int, g: AffineElt, by_serial: list) -> int:
    """Hold the step of the letter g from the element with serial y: the
    serial of yg, shifted left once, with the descent bit l(yg) < l(y)."""
    x = by_serial[y]
    xg = x * g
    code = row[y] = xg._serial << 1 | (xg.length < x.length)
    return code


def _apply(cur: dict, letters, width: int, by_serial: list) -> dict:
    """Packed terms (serial -> ``pack``ed coefficient) times the letters.

    For T_s, call y active when ys is shorter, and for T_s^-1 when it is
    longer; the pair {y, ys} goes to ys with c_y and, for an active y, to y
    with c_ys +- (v - v^-1) c_y.  Distinct pairs share no key.  Each step
    can triple the largest coefficient and lower the least exponent by one,
    so the caller packs with room for both.
    """
    for row, g, sign in letters:
        out = {}
        get = row.get
        if not sign:
            for y, c in cur.items():
                code = get(y)
                if code is None:
                    code = _fill(row, y, g, by_serial)
                out[code >> 1] = c
        else:
            act = 1 if sign == 1 else 0
            for y, c in cur.items():
                code = get(y)
                if code is None:
                    code = _fill(row, y, g, by_serial)
                ys = code >> 1
                if code & 1 == act:
                    out[ys] = c
                    xi = (c << width) - (c >> width)
                    top = cur.get(ys, 0) + xi if act else cur.get(ys, 0) - xi
                    if top:
                        out[y] = top
                elif ys not in cur:
                    out[ys] = c  # else the pair is written when ys comes round
        cur = out
    return cur


def _product(datum: RootDatum, terms: dict, chains) -> dict:
    """The terms (element -> coefficient) times the sum of c times each chain,
    for chains (letters, k, c) of letters from ``_letters`` with k of them
    not omega, as a term map.

    The only place where the packed form is made and read: the terms are
    packed once, with digits wide enough for the whole sum from the exact
    largest coefficient, each chain runs on c times them, and the results
    are added in packed form and read back once.
    """
    if not terms or not chains:
        return {}
    by_serial = datum._affine_state.by_serial
    top = max(max(map(abs, c._c.values())) for c in terms.values())
    depth = max(k for _, k, _ in chains)
    scale = sum(sum(map(abs, c._c.values())) for _, _, c in chains)
    # the fewest digit bits, a multiple of 64, with room for the sum below 2^(width - 3)
    width = 64 * (((top * 3 ** depth * scale).bit_length() + 66) // 64)
    base = min(min(c._c) for c in terms.values()) - depth
    shift = min(min(c._c) for _, _, c in chains)
    packed = {x._serial: pack(c, base, width) for x, c in terms.items()}
    acc: dict[int, int] = {}
    for letters, _, c in chains:
        m = pack(c, shift, width)
        # c scales the input: one product per term rather than one per result
        out = _apply(packed if m == 1 else {y: p * m for y, p in packed.items()},
                     letters, width, by_serial)
        if not acc and out is not packed:
            acc = out  # the first result is the sum so far: no second dict
            continue
        get = acc.get
        for y, p in out.items():
            acc[y] = get(y, 0) + p
    del packed, out  # freed before the terms read back are built, which sets the peak memory
    base += shift
    return {by_serial[y]: unpack(p, base, width) for y, p in acc.items() if p}


def hecke_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the standard basis: each term c T_x of b runs the letters
    of x on a, and the results add up in one ``_product``."""
    if a.datum is not b.datum:
        raise ValueError("operands live over different data")
    return HeckeElt(a.datum, _product(a.datum, a._m,
                                      [(*_letters(x, 1), c) for x, c in b._m.items()]))


def hecke_mul_factors(a: HeckeElt, factors) -> HeckeElt:
    """The product a * F_1 * ... * F_k for factors given as pairs (x, sign),
    where F is T_x for sign +1 and T_x^{-1} for sign -1.

    The letters of all factors run as one chain, so the operand is never
    expanded in the standard basis.  The chain is cut into segments of 36
    letters that are not omega (``_CUT``), and each segment is one
    ``_product`` from the exact terms the one before read back.
    """
    datum = a.datum
    letters = []
    for x, sign in factors:
        if x.datum is not datum:
            raise ValueError("operands live over different data")
        if sign not in (1, -1):
            raise ValueError(f"factor sign must be 1 or -1, not {sign!r}")
        letters += _letters(x, sign)[0]
    terms, cut, k = a._m, 0, 0
    for i, step in enumerate(letters):
        if step[2]:
            if k == _CUT:
                terms = _product(datum, terms, [(letters[cut:i], k, ONE)])
                cut, k = i, 0
            k += 1
    if letters:
        terms = _product(datum, terms, [(letters[cut:], k, ONE)])
    return HeckeElt(datum, terms)


def hecke_T(x: AffineElt) -> HeckeElt:
    return HeckeElt.basis(x)


def hecke_inv_T(x: AffineElt) -> HeckeElt:
    """The inverse of the basis symbol T_x."""
    return hecke_mul_factors(HeckeElt.one(x.datum), ((x, -1),))


def hecke_bar_T(x: AffineElt) -> HeckeElt:
    """bar(T_x) = (T_{x^{-1}})^{-1}."""
    return hecke_inv_T(x.inverse())


def hecke_bar(a: HeckeElt) -> HeckeElt:
    """The bar involution: v -> v^-1 on coefficients, T_x -> (T_{x^-1})^-1,
    as one ``_product`` from the identity over the letters of every term."""
    datum = a.datum
    return HeckeElt(datum, _product(datum, {affine_identity(datum): ONE},
                                    [(*_letters(x.inverse(), -1), c.bar())
                                     for x, c in a._m.items()]))


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
    factors = {mu: theta_factors(datum, mu) for mu in box_weights}
    for lam in box_weights:
        th = hecke_theta(datum, lam)
        for mu in box_weights:
            lhs = hecke_mul_factors(th, factors[mu])
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
