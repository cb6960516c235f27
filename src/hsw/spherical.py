"""The spherical right module over the affine Hecke algebra.

The module has a basis m_lam indexed by weights, one for each Iwahori orbit
on the affine Grassmannian; ``SphElt`` is the sparse-combination core of
``hsw.laurent`` over that basis.  The projection sends a standard basis
symbol T_x with x = u * m (u finite, m the shortest element of its
translation coset) to v^{l(u)} m_lam.  Characters of Bott-Samelson type are
built by acting with C_s = T_s + v^-1 on the basepoint m_0, an optional
length-zero twist in front.

The canonical basis is computed by Soergel's recursion (Represent. Theory 1
(1997), sections 3-4).  If the reduced word of w_lam is (omega, s_1 ... s_k),
its prefix w_lam s_k is the representative of a weight lam' of length
k - 1, and the element at lam' times C_{s_k} is bar-invariant with top term
m_lam; symmetrized coefficients at lower terms are then stripped until every
off-top coefficient lies in v^-1 Z[v^-1].  The letter s_k is
``affine.first_descent(w_lam)``, the first generator in label order that
shortens w_lam, so no reduced word is built.  Shorter elements come from an
explicit stack (``hsw.worklist``), not from Python recursion.

The inner loop works on one map weight -> {exponent: coefficient}: C_s acts
on a basis symbol by two exponent shifts, the strip subtracts from that one
map in place, with the weights still to clear in a heap (highest (length,
weight) first), and the values become Laurent polynomials only at the end.
``decompose_bs`` clears a chain the same way.  Terms, heaps and the
``decompose`` verb share one order, ``basis_order``.  The ``canonical``
check of ``hsw.verify`` tests the characterization in ``canonical_basis``
with the bar taken through the T-basis (``sph_bar``), which shares no code
with the C_s action.

Per datum, ``datum._sph_state`` memoises the action of C_s on a basis
symbol (``act_simple``: for (lam, s) the weight mu of w_lam s, the shift
l(u) of its term, and the exponent +1 or -1 of the term at lam), the bar of
a basis symbol (``bar_basis``) and the canonical elements (``canonical``).
A coset decomposition is not memoised: it is one held ``min_rep`` and a
difference of lengths.
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import neg

from .affine import AffineElt, SimpleReflection, first_descent, min_rep, mul_simple
from .hecke import HeckeElt, hecke_T, hecke_bar_T, hecke_mul
from .laurent import (ONE, V_INV, ZERO, Combination, LaurentPoly, _wrap, add_into,
                      v_power)
from .rootdata import RootDatum, Vec
from .worklist import fill


def _coset(x: AffineElt) -> int:
    """l(u) for the decomposition x = u * m_lam, where lam = x.lam."""
    ulen = x.length - min_rep(x.datum, x.lam).length
    if ulen < 0:
        raise RuntimeError("coset decomposition violated length additivity")
    return ulen


def basis_order(datum: RootDatum, lam: Vec) -> tuple:
    """Sort key of m_lam: ascending keys run through descending (l(w_lam), lam)."""
    return (-min_rep(datum, lam).length, tuple(map(neg, lam)))


class SphElt(Combination):
    """A finite Laurent-combination of basis symbols m_lam."""

    __slots__ = ()

    @staticmethod
    def basis(datum: RootDatum, lam) -> "SphElt":
        return SphElt(datum, {datum.weight(lam): ONE})

    def coeff(self, lam) -> LaurentPoly:
        return self._m.get(self.datum.weight(lam), ZERO)

    def _order(self, lam: Vec):
        """Terms sort in the basis order: leading term first."""
        return basis_order(self.datum, lam)

    def _label(self, lam: Vec) -> str:
        return "m[" + ",".join(map(str, lam)) + "]"

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
    """Right action: m_lam * h = projection of T_{w_lam} h, for every term at once."""
    datum = m.datum
    return sph_project(hecke_mul(HeckeElt(datum, {min_rep(datum, lam): c
                                                  for lam, c in m._m.items()}), h))


def _shift_into(acc: dict, key, f: dict, k: int, a: int = 1) -> None:
    """acc[key] += a * v^k * f on exponent maps, in place.  f is only read; a
    new key gets a fresh map, and a key whose map cancels is dropped."""
    t = acc.get(key)
    if t is None:
        acc[key] = {e + k: a * x for e, x in f.items()}
        return
    for e, x in f.items():
        e += k
        y = t.get(e, 0) + a * x
        if y:
            t[e] = y
        else:
            del t[e]
    if not t:
        del acc[key]


def _wrap_terms(datum: RootDatum, terms: dict) -> SphElt:
    """The element whose weight -> exponent map is terms, the maps kept as they are."""
    return SphElt(datum, {lam: _wrap(f) for lam, f in terms.items()})


def _act_terms(datum: RootDatum, terms, s: SimpleReflection) -> dict:
    """The weight -> exponent map of (sum of terms) * C_s, where C_s = T_s + v^-1
    and terms are (weight, exponent map) pairs.

    m_lam T_s is v^k m_mu for w_lam s = u * m_mu with l(u) = k, plus
    (v - v^-1) m_lam when s is a descent of w_lam; with the v^-1 of C_s the
    coefficient at lam is then v, and v^-1 otherwise.  So each term is two
    shifts, and ``act_simple`` holds (mu, k, +-1) per (lam, s).
    """
    table = datum._sph_state.act_simple
    acc: dict = {}
    for lam, f in terms:
        key = (lam, s.label)
        hit = table.get(key)
        if hit is None:
            w = min_rep(datum, lam)
            ws = mul_simple(w, s)
            hit = table[key] = (ws.lam, _coset(ws), 1 if ws.length < w.length else -1)
        mu, k, e = hit
        _shift_into(acc, mu, f, k)
        _shift_into(acc, lam, f, e)
    return acc


def _chain_terms(datum: RootDatum, omega: AffineElt, word) -> dict:
    """The weight -> exponent map of the chain (omega, word)."""
    if omega.length != 0:
        raise ValueError("the twist in front of a generator chain must have length zero")
    terms = {omega.lam: {0: 1}}
    for s in word:
        terms = _act_terms(datum, terms.items(), s)
    return terms


def bs_char(datum: RootDatum, omega: AffineElt, word) -> SphElt:
    """The module character of the twisted generator chain (omega, word)."""
    return _wrap_terms(datum, _chain_terms(datum, omega, word))


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
    out: dict[int, int] = {}
    small, big = (a, b) if len(a._m) <= len(b._m) else (b, a)
    for lam, c in small._m.items():
        d = big._m.get(lam)
        if d is not None:
            for e1, x in c._c.items():
                for e2, y in d._c.items():
                    e = -e1 - e2
                    out[e] = out.get(e, 0) + x * y
    return _wrap({e: x for e, x in out.items() if x})


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
    return fill(datum._sph_state.canonical, datum.weight(lam),
                partial(_prefix_steps, datum))


def _prefix_steps(datum: RootDatum, lam: Vec):
    """Frame of canonical_basis at lam (see hsw.worklist).

    The last letter of ``reduced_word(w_lam)`` is ``first_descent(w_lam)``,
    read off directly.
    """
    w = min_rep(datum, lam)
    if not w.length:
        cur = {lam: {0: 1}}
    else:
        s, p = first_descent(w)
        if p.length != w.length - 1 or min_rep(datum, p.lam) != p:
            raise RuntimeError(f"the prefix {p!r} of the reduced word at {lam} "
                               f"is not the representative of {p.lam}")
        prev = yield p.lam
        cur = _act_terms(datum, ((mu, c._c) for mu, c in prev._m.items()), s)
    return (yield from _strip(datum, lam, cur))


def _queue_entry(datum: RootDatum, mu: Vec) -> tuple:
    """Heap entry of mu: the leading weight in the basis order pops first."""
    return (basis_order(datum, mu), mu)


def _strip(datum: RootDatum, lam: Vec, cur: dict):
    """Subtract symmetrized multiples of lower elements from a bar-invariant
    start with top term m_lam, highest bad term first; yields each lower
    weight whose element it needs.

    cur is the start's weight -> exponent map, changed in place.  A weight
    is bad when its map has an exponent >= 0.  The bad weights wait in a
    heap; a subtraction at mu changes only weights below mu, so each weight
    it makes bad is queued then, and the pops come in the order of a rescan.
    """
    top_len = min_rep(datum, lam).length
    heap = [_queue_entry(datum, mu) for mu, f in cur.items() if mu != lam and max(f) >= 0]
    heapq.heapify(heap)
    queued = {entry[1] for entry in heap}
    while heap:
        key, mu = heapq.heappop(heap)
        f = cur.get(mu)
        if f is None or max(f) < 0:
            continue
        if -key[0] >= top_len:
            raise RuntimeError(
                f"triangularity failed at {mu} (length {-key[0]} >= {top_len})")
        # the symmetrization of f: f_0 + sum over e > 0 of f_e (v^e + v^-e)
        g = _wrap(f).sym_complete()._c
        # the element at mu has its lower coefficients in v^-1 Z[v^-1], so
        # with a constant g no other weight turns bad
        reach = max(g)
        for nu, c in (yield mu)._m.items():
            for k, a in g.items():
                _shift_into(cur, nu, c._c, k, -a)
            if reach and nu not in queued and nu != lam:
                h = cur.get(nu)
                if h is not None and max(h) >= 0:
                    heapq.heappush(heap, _queue_entry(datum, nu))
                    queued.add(nu)
    if cur.get(lam) != {0: 1}:
        raise RuntimeError(f"leading coefficient at {lam} is "
                           f"{LaurentPoly(cur.get(lam, {}))}, not 1")
    return _wrap_terms(datum, cur)


def decompose_bs(datum: RootDatum, omega: AffineElt, word) -> dict[Vec, LaurentPoly]:
    """Expand a generator chain over the canonical basis (characteristic 0).

    Returns the multiplicity map weight -> Laurent coefficient; the chain
    equals the sum of coefficient * canonical element over the map.  The
    chain's terms sit in one exponent map and its weights in a heap, as in
    ``_strip``; the highest is cleared first.
    """
    rest = _chain_terms(datum, omega, word)
    heap = [_queue_entry(datum, mu) for mu in rest]
    heapq.heapify(heap)
    queued = set(rest)
    out: dict[Vec, LaurentPoly] = {}
    while heap:
        mu = heapq.heappop(heap)[1]
        f = rest.get(mu)
        if f is None:
            continue
        f = dict(f)     # the subtraction below clears rest[mu] in place
        out[mu] = _wrap(f)
        for nu, c in canonical_basis(datum, mu)._m.items():
            for k, a in f.items():
                _shift_into(rest, nu, c._c, k, -a)
            if nu not in queued:
                heapq.heappush(heap, _queue_entry(datum, nu))
                queued.add(nu)
        if mu in rest:
            raise RuntimeError("decomposition failed to clear the leading term")
    return out
