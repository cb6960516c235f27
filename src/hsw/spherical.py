"""The spherical right module over the affine Hecke algebra.

The module has a basis m_lam indexed by weights, one for each Iwahori orbit
on the affine Grassmannian; ``SphElt`` is the sparse-combination core of
``hsw.laurent`` over that basis, and every sum here accumulates through its
``add_into``.  The projection sends a standard basis symbol T_x with
x = u * m (u finite, m the shortest element of its translation coset) to
v^{l(u)} m_lam.  Characters of Bott-Samelson type are built by acting with
C_s = T_s + v^-1 on the basepoint m_0, an optional length-zero twist in
front.

The canonical basis is computed by Soergel's recursion (Represent. Theory 1
(1997), sections 3-4).  If the reduced word of w_lam is (omega, s_1 ... s_k),
its prefix w_lam s_k is the representative of a weight lam' of length
k - 1, and the element at lam' times C_{s_k} is bar-invariant with top term
m_lam; symmetrized coefficients at lower terms are then stripped until every
off-top coefficient lies in v^-1 Z[v^-1].  Shorter elements come from an
explicit stack (``hsw.worklist``), not from Python recursion.  The former
algorithm, which starts from the whole chain of C_s factors, is kept as
``canonical_basis_reference``, the oracle of the ``canonical`` check.

Per datum, ``datum._sph_state`` memoises the action of C_s on a basis
symbol (``act_simple``), the bar of a basis symbol (``bar_basis``) and the
canonical elements (``canonical``).  A coset decomposition is not memoised:
it is one held ``min_rep`` and a difference of lengths.
"""

from __future__ import annotations

from functools import partial

from .affine import AffineElt, SimpleReflection, min_rep, mul_simple, reduced_word
from .hecke import HeckeElt, hecke_T, hecke_bar_T, hecke_mul
from .laurent import ONE, V_INV, XI, ZERO, Combination, LaurentPoly, add_into, v_power
from .rootdata import RootDatum, Vec
from .worklist import fill


def _coset(x: AffineElt) -> int:
    """l(u) for the decomposition x = u * m_lam, where lam = x.lam."""
    ulen = x.length - min_rep(x.datum, x.lam).length
    if ulen < 0:
        raise RuntimeError("coset decomposition violated length additivity")
    return ulen


class SphElt(Combination):
    """A finite Laurent-combination of basis symbols m_lam."""

    __slots__ = ()

    @staticmethod
    def basis(datum: RootDatum, lam) -> "SphElt":
        return SphElt(datum, {tuple(int(x) for x in lam): ONE})

    def coeff(self, lam) -> LaurentPoly:
        return self._m.get(tuple(lam), ZERO)

    def _order(self, lam: Vec):
        """Terms sort by descending (l(w_lam), lam): leading term first."""
        return (-min_rep(self.datum, lam).length, tuple(-x for x in lam))

    def _label(self, lam: Vec) -> str:
        return "m[" + ",".join(str(x) for x in lam) + "]"

    def __mul__(self, other):
        if isinstance(other, HeckeElt):
            return sph_act(self, other)
        return self.scale(other)

    def to_json(self) -> list[dict]:
        return [{"weight": list(lam), "coeff": c.to_json()} for lam, c in self.items()]


def m_zero(datum: RootDatum) -> SphElt:
    return SphElt.basis(datum, (0,) * datum.rank)


def sph_project(h: HeckeElt) -> SphElt:
    """Project from the algebra: T_x -> v^{l(u)} m_lam for x = u * m_lam."""
    acc: dict[Vec, LaurentPoly] = {}
    for x, c in h._m.items():
        ulen = _coset(x)
        add_into(acc, ((x.lam, c),), v_power(ulen) if ulen else None)
    return SphElt(h.datum, acc)


def sph_act(m: SphElt, h: HeckeElt) -> SphElt:
    """Right action: m_lam * h = projection of T_{w_lam} h."""
    datum = m.datum
    acc: dict[Vec, LaurentPoly] = {}
    for lam, c in m._m.items():
        prod = hecke_mul(hecke_T(min_rep(datum, lam)), h)
        add_into(acc, sph_project(prod)._m.items(), c)
    return SphElt(datum, acc)


def _act_cs(m: SphElt, s: SimpleReflection) -> SphElt:
    """Act by C_s = T_s + v^-1, with the basis action cached per weight."""
    datum = m.datum
    table = datum._sph_state.act_simple
    acc: dict[Vec, LaurentPoly] = {}
    for lam, c in m._m.items():
        key = (lam, s.label)
        cached = table.get(key)
        if cached is None:
            w = min_rep(datum, lam)
            ws = mul_simple(w, s)
            cached = {ws.lam: v_power(_coset(ws))}
            if ws.length < w.length:
                add_into(cached, ((lam, XI),))
            table[key] = cached
        add_into(acc, (*cached.items(), (lam, V_INV)), c)
    return SphElt(datum, acc)


def bs_char(datum: RootDatum, omega: AffineElt, word) -> SphElt:
    """The module character of the twisted generator chain (omega, word)."""
    if omega.length != 0:
        raise ValueError("the twist in front of a generator chain must have length zero")
    m = SphElt.basis(datum, omega.lam)
    for s in word:
        m = _act_cs(m, s)
    return m


def fl_bs_char(datum: RootDatum, word) -> HeckeElt:
    """The same chain built in the algebra: the product of C_s factors."""
    one = HeckeElt.one(datum)
    out = one
    for s in word:
        cs = hecke_T(s.elt) + one.scale(V_INV)
        out = hecke_mul(out, cs)
    return out


def sph_pairing(a: SphElt, b: SphElt) -> LaurentPoly:
    """The bilinear-after-bar pairing: sum over weights of bar(c) * bar(d)."""
    out = ZERO
    small, big = (a, b) if len(a._m) <= len(b._m) else (b, a)
    for lam, c in small._m.items():
        d = big._m.get(lam)
        if d is not None:
            out = out + c.bar() * d.bar()
    return out


def hom_rank(datum: RootDatum, left: tuple, right: tuple) -> LaurentPoly:
    """Graded rank prediction for morphisms between two generator chains."""
    a = bs_char(datum, left[0], left[1])
    b = bs_char(datum, right[0], right[1])
    return sph_pairing(a, b)


def _bar_basis(datum: RootDatum, lam: Vec) -> SphElt:
    table = datum._sph_state.bar_basis
    cached = table.get(lam)
    if cached is None:
        cached = table[lam] = sph_project(hecke_bar_T(min_rep(datum, lam)))
    return cached


def sph_bar(m: SphElt) -> SphElt:
    """The bar involution of the module, semilinear over the algebra bar."""
    acc: dict[Vec, LaurentPoly] = {}
    for lam, c in m._m.items():
        add_into(acc, _bar_basis(m.datum, lam)._m.items(), c.bar())
    return SphElt(m.datum, acc)


def canonical_basis(datum: RootDatum, lam) -> SphElt:
    """The bar-invariant basis element with top term m_lam.

    Characterized by bar-invariance together with c = m_lam + (terms with
    coefficients in v^-1 Z[v^-1] at weights of strictly smaller coset length).

    Built by Soergel's recursion: for the reduced word (omega, s_1 ... s_k) of
    w_lam the start is the element at the weight of the prefix w_lam s_k
    times C_{s_k}, or m_lam when k = 0, and lower terms are stripped with
    elements of shorter weights.  Every element it needs is filled first from
    an explicit stack, each entry shorter than the one beneath it, so the
    answer does not depend on the recursion limit.
    """
    return fill(datum._sph_state.canonical, tuple(int(x) for x in lam),
                partial(_prefix_steps, datum))


def canonical_basis_reference(datum: RootDatum, weights) -> dict[Vec, SphElt]:
    """The canonical elements at the given weights by the full-chain algorithm.

    Each start is the chain character of a whole reduced word of w_lam; the
    strip is the same as in canonical_basis.  The memo lives for this call
    only: it never reads or fills the datum's table, so the result is an
    oracle for canonical_basis.
    """
    memo: dict[Vec, SphElt] = {}
    steps = partial(_chain_steps, datum)
    return {lam: fill(memo, lam, steps)
            for lam in (tuple(int(x) for x in weight) for weight in weights)}


def _prefix_steps(datum: RootDatum, lam: Vec):
    """Frame of canonical_basis at lam (see hsw.worklist)."""
    w = min_rep(datum, lam)
    _, word = reduced_word(w)
    if not word:
        start = SphElt.basis(datum, lam)
    else:
        s = word[-1]
        p = mul_simple(w, s)
        if p.length != len(word) - 1 or min_rep(datum, p.lam) != p:
            raise RuntimeError(f"the prefix {p!r} of the reduced word at {lam} "
                               f"is not the representative of {p.lam}")
        start = _act_cs((yield p.lam), s)
    return (yield from _strip(datum, lam, start))


def _chain_steps(datum: RootDatum, lam: Vec):
    """Frame of canonical_basis_reference at lam (see hsw.worklist)."""
    om, word = reduced_word(min_rep(datum, lam))
    return (yield from _strip(datum, lam, bs_char(datum, om, word)))


def _strip(datum: RootDatum, lam: Vec, cur: SphElt):
    """Subtract symmetrized multiples of lower elements from a bar-invariant
    start with top term m_lam, highest bad term first; yields each lower
    weight whose element it needs."""
    top_len = min_rep(datum, lam).length
    while True:
        bad = [(min_rep(datum, mu).length, mu, f)
               for mu, f in cur._m.items()
               if mu != lam and not f.in_v_inverse()]
        if not bad:
            break
        blen, mu, f = max(bad, key=lambda t: (t[0], t[1]))
        if blen >= top_len:
            raise RuntimeError(
                f"triangularity failed at {mu} (length {blen} >= {top_len})")
        cur = cur - (yield mu).scale(f.sym_complete())
    if cur.coeff(lam) != ONE:
        raise RuntimeError(f"leading coefficient at {lam} is {cur.coeff(lam)}, not 1")
    return cur


def decompose_bs(datum: RootDatum, omega: AffineElt, word) -> dict[Vec, LaurentPoly]:
    """Expand a generator chain over the canonical basis (characteristic 0).

    Returns the multiplicity map weight -> Laurent coefficient; the chain
    equals the sum of coefficient * canonical element over the map.
    """
    rest = bs_char(datum, omega, word)
    out: dict[Vec, LaurentPoly] = {}
    while rest:
        blen, mu = max((min_rep(datum, mu).length, mu) for mu in rest._m)
        f = rest.coeff(mu)
        out[mu] = f
        rest = rest - canonical_basis(datum, mu).scale(f)
        if mu in rest._m:
            raise RuntimeError("decomposition failed to clear the leading term")
    return out
