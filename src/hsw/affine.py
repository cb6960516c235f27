"""The extended affine Weyl group attached to a root datum.

Elements are pairs w * t_lam with w in the finite Weyl group and t_lam the
translation by a weight lam.  Multiplication follows
(w1 t_a)(w2 t_b) = (w1 w2) t_{w2^{-1}(a) + b}.  Lengths come from the closed
formula l(w t_lam) = sum over positive roots a of |<lam, a-check> + [w(a) < 0]|,
which reads the pairings of lam and the inversion set of w (held once per
Weyl element), so no Coxeter presentation is needed to measure an element.
Whether a generator s with root a shortens x = w t_lam is read from one of
those terms (``descent_bit``): with p = <lam, a-check> + [w(a) < 0], a finite
s_i shortens x iff p >= 1, since x s_i = (w s_i) t_{s_i(lam)} changes only the
term at alpha_i, from |p| to |1 - p|; the affine generator shortens x iff
p <= -1.  ``first_descent`` and ``reduced_word`` still compare lengths, so the
words they give do not rest on this rule.
The shortest element of a coset W t_lam comes from the chamber walk of lam,
with no search over W.  The length-zero subgroup (isomorphic to the weight
lattice modulo the root lattice) is handled lazily and never enumerated
unless it is finite.  Weight boxes bounded by length are boxes of pairings
(``length_box``), so nothing here depends on the basis of X.

Per datum, the tables of ``datum._affine_state`` intern the elements
(``elts``, one object per pair (w, lam), hashed by its serial there, so no two
elements of a datum share a hash; the list ``by_serial`` holds them in serial
order; ``_intern`` is the one path that adds to them) and memoise generator
products (``mul_simple``), reduced words (``reduced``) and coset
representatives (``min_reps``); the generators and the length-zero elements are held in
``datum._once`` as ``affine_simples`` and ``omegas``.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from .rootdata import PosRoot, RootDatum, Vec, WeylElt, mat_vec, pair, vec_add, vec_neg


def _length(w: WeylElt, lam: Vec) -> int:
    """l(w t_lam), summed over the positive roots a as
    |<lam, a-check> + 1| if w(a) < 0 and |<lam, a-check>| otherwise."""
    return sum(abs(p + f) for p, f in zip(mat_vec(w.datum._pos_coroots, lam), w.inversions))


class AffineElt:
    """An element w * t_lam of the extended affine Weyl group."""

    __slots__ = ("datum", "w", "lam", "_len", "_serial")

    def __init__(self, datum: RootDatum, w: WeylElt, lam: Vec, serial: int):
        self.datum = datum
        self.w = w
        self.lam = lam
        self._len: int | None = None
        self._serial = serial

    def __mul__(self, other: "AffineElt") -> "AffineElt":
        lam = vec_add(other.w.inverse().act(self.lam), other.lam)
        return _intern(self.datum, self.w * other.w, lam)

    def inverse(self) -> "AffineElt":
        return _intern(self.datum, self.w.inverse(), vec_neg(self.w.act(self.lam)))

    @property
    def length(self) -> int:
        if self._len is None:
            self._len = _length(self.w, self.lam)
        return self._len

    def is_identity(self) -> bool:
        return self.w.is_identity() and not any(self.lam)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AffineElt):
            return self is other or (self.w == other.w and self.lam == other.lam)
        return NotImplemented

    def __hash__(self) -> int:
        return self._serial

    def __reduce__(self):
        # a copy hashes by its serial while the datum's tables holding it are copied
        return AffineElt, (self.datum, self.w, self.lam, self._serial)

    def __deepcopy__(self, memo):
        # copying the datum copies its ``elts`` table, which may hold this
        # element: then the copy interned there is the answer
        datum = copy.deepcopy(self.datum, memo)
        held = memo.get(id(self))
        if held is None:
            held = memo[id(self)] = AffineElt(datum, copy.deepcopy(self.w, memo),
                                              self.lam, self._serial)
        return held

    def __repr__(self) -> str:
        wpart = ".".join(f"s{i + 1}" for i in self.w.reduced_word()) or "e"
        return f"AffineElt({wpart} * t{self.lam})"

    def to_json(self) -> dict:
        return {"w_word": [i + 1 for i in self.w.reduced_word()],
                "translation": list(self.lam)}


@dataclass(frozen=True)
class SimpleReflection:
    """A simple generator of the affine Weyl group with its label.

    Finite generators are labeled s1..sn by simple index.  Each component of
    the diagram contributes one affine generator, labeled s0 (or s0:k with a
    1-based component index when there are several components).
    """

    label: str
    kind: str  # "finite" or "affine"
    index: int
    elt: AffineElt
    root: PosRoot
    position: int  # of root in ``positive_roots``

    def __repr__(self) -> str:
        return f"SimpleReflection({self.label})"


def affine_elt(datum: RootDatum, w: WeylElt, lam) -> AffineElt:
    return _intern(datum, w, datum.weight(lam))


def _intern(datum: RootDatum, w: WeylElt, lam: Vec) -> AffineElt:
    """The element w * t_lam held in the datum's tables, made on first use;
    lam is a tuple of ints already (``affine_elt`` reads other arguments)."""
    state = datum._affine_state
    key = (w, lam)
    el = state.elts.get(key)
    if el is None:
        by_serial = state.by_serial
        el = state.elts[key] = AffineElt(datum, w, lam, len(by_serial))
        by_serial.append(el)
    return el


def affine_identity(datum: RootDatum) -> AffineElt:
    return affine_elt(datum, datum.weyl_identity(), (0,) * datum.rank)


def translation(datum: RootDatum, lam) -> AffineElt:
    return affine_elt(datum, datum.weyl_identity(), lam)


def from_weyl(w: WeylElt) -> AffineElt:
    return affine_elt(w.datum, w, (0,) * w.datum.rank)


def simple_reflections(datum: RootDatum) -> tuple[SimpleReflection, ...]:
    """Finite simple generators followed by one affine generator per component."""
    once = datum._once
    if "affine_simples" not in once:
        out: list[SimpleReflection] = []
        roots = datum.positive_roots()
        for i, k in enumerate(datum._simple_positions):
            root = roots[k]
            el = from_weyl(datum.simple_reflection(i))
            out.append(SimpleReflection(f"s{i + 1}", "finite", i, el, root, k))
        comps = datum.components()
        for k, comp in enumerate(comps):
            seed = datum.highest_dual_root(comp)
            el = affine_elt(datum, datum.reflection_of(seed), vec_neg(seed.vec))
            label = "s0" if len(comps) == 1 else f"s0:{k + 1}"
            out.append(SimpleReflection(label, "affine", k, el, seed, roots.index(seed)))
        for s in out:
            if s.elt.length != 1:
                raise RuntimeError(f"generator {s.label} has length {s.elt.length}, not 1")
        once["affine_simples"] = tuple(out)
    return once["affine_simples"]


def mul_simple(x: AffineElt, s: SimpleReflection) -> AffineElt:
    """Right multiplication x * s with per-datum caching."""
    table = x.datum._affine_state.mul_simple
    key = (x, s.label)
    out = table.get(key)
    if out is None:
        out = table[key] = x * s.elt
    return out


def descent_bit(x: AffineElt, s: SimpleReflection) -> bool:
    """l(x s) < l(x), from one pairing: for x = w t_lam and s with root a, let
    p = <lam, a-check> + [w(a) < 0]; a finite s shortens x iff p >= 1 and the
    affine one iff p <= -1 (see the module docstring)."""
    p = pair(x.lam, s.root.cov) + x.w.inversions[s.position]
    return p >= 1 if s.kind == "finite" else p <= -1


def first_descent(x: AffineElt) -> tuple[SimpleReflection, AffineElt]:
    """The first generator s in label order with l(x s) < l(x), and x s.

    Raises RuntimeError when no generator shortens x, as at l(x) = 0.
    """
    for s in simple_reflections(x.datum):
        p = mul_simple(x, s)
        if p.length < x.length:
            return s, p
    raise RuntimeError(f"no descent found at positive length for {x!r}")


def reduced_word(x: AffineElt) -> tuple[AffineElt, tuple[SimpleReflection, ...]]:
    """Factor x = omega * s_1 ... s_r with omega of length zero, r = l(x).

    The word is chosen deterministically: its last letter is the
    ``first_descent`` of x, and the rest is found the same way from x s_r.
    """
    table = x.datum._affine_state.reduced
    cached = table.get(x)
    if cached is not None:
        return cached
    letters: list[SimpleReflection] = []
    cur = x
    while cur.length > 0:
        s, cur = first_descent(cur)
        letters.append(s)
    letters.reverse()
    result = (cur, tuple(letters))
    table[x] = result
    return result


def min_rep(datum: RootDatum, lam) -> AffineElt:
    """The unique shortest element of the coset W * t_lam.

    The chamber walk writes lam = u(lam_dom) with u = s_i1 ... s_ik shortest,
    and u^-1 = s_ik ... s_i1 is read off its word backwards.  Then u^-1 t_lam
    has inversion set {a > 0 : <lam, a-check> < 0}, so the length formula
    counts |p + 1| = |p| - 1 at each positive root whose pairing p with lam is
    negative and |p| at every other one, the least possible term by term.
    The result is checked to have no finite left descent (l(s_i m) > l(m) for
    every finite s_i), which holds for the shortest element of W m and for no
    other.  A plain tuple is looked up as it is; anything else, and a tuple
    not yet in the table, is read by ``RootDatum.weight`` first.
    """
    table = datum._affine_state.min_reps
    cached = table.get(lam) if type(lam) is tuple else None
    if cached is None:
        lam = datum.weight(lam)
        cached = table.get(lam)
    if cached is not None:
        return cached
    _, word = datum.chamber_walk(lam)
    u_inv = datum.weyl_identity()
    for i in reversed(word):
        u_inv = u_inv * datum.simple_reflection(i)
    best = affine_elt(datum, u_inv, lam)
    for i in range(datum.nsimples):
        if _length(datum.simple_reflection(i) * best.w, lam) <= best.length:
            raise RuntimeError(f"coset representative for {lam} has the left descent s{i + 1}")
    table[lam] = best
    return best


def coset_decompose(x: AffineElt) -> tuple[WeylElt, Vec]:
    """Write x = u * m with u finite and m the shortest element of W t_lam.

    Returns (u, lam); lengths add: l(x) = l(u) + l(m).
    """
    m = min_rep(x.datum, x.lam)
    u_aff = x * m.inverse()
    if any(u_aff.lam):
        raise RuntimeError("coset decomposition produced a non-finite part")
    u = u_aff.w
    if u.length + m.length != x.length:
        raise RuntimeError("coset decomposition violated length additivity")
    return u, x.lam


def omega_elements(datum: RootDatum) -> tuple[AffineElt, ...]:
    """All length-zero elements, when the fundamental group is finite: the
    min_rep(lam) of length zero over lam in ``length_box(datum, 0)``."""
    once = datum._once
    if "omegas" in once:
        return once["omegas"]
    n = datum.fundamental_group_order()
    if n is None:
        raise ValueError("the length-zero subgroup of this datum is infinite")
    found = [el for el in (min_rep(datum, lam) for lam in length_box(datum, 0))
             if el.length == 0]
    if len(found) != n:
        raise RuntimeError(f"found {len(found)} length-zero elements; expected {n}")
    out = once["omegas"] = tuple(sorted(found, key=lambda e: (e.lam, e.w.matrix)))
    return out


def length_box(datum: RootDatum, max_len: int) -> list[Vec]:
    """The weights whose simple-coroot pairings p_i lie in -(max_len + 1)..max_len + 1,
    in lexicographic order.  They hold every lam with l(min_rep(lam)) <= max_len,
    since alpha_i adds |p_i| or |p_i| - 1 to that length.  A datum with an
    infinite fundamental group is refused: there the set of such weights is infinite.
    """
    if datum.fundamental_group_order() is None:
        raise ValueError("this datum has central directions; the grid is infinite")
    bound = max_len + 1
    return sorted(datum.weight_from_pairings(p)
                  for p in itertools.product(range(-bound, bound + 1), repeat=datum.rank))


def parse_weight(text: str, rank: int) -> Vec:
    """Parse a comma-separated integer weight, checking the coordinate count."""
    parts = [p.strip() for p in str(text).split(",")]
    try:
        lam = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad weight {text!r}: coordinates must be integers") from exc
    if len(lam) != rank:
        raise ValueError(f"weight {text!r} has {len(lam)} coordinates; expected {rank}")
    return lam


def parse_word(datum: RootDatum, text: str) -> tuple[SimpleReflection, ...]:
    """Parse a comma-separated generator word like ``s1,s0`` or ``s,s0:2``.

    ``s`` is accepted for the unique finite generator of a rank-one diagram
    and ``s0`` for the affine generator of a connected diagram.
    """
    text = text.strip()
    if not text:
        return ()
    simples = simple_reflections(datum)
    by_label = {s.label: s for s in simples}
    finite = [s for s in simples if s.kind == "finite"]
    affine = [s for s in simples if s.kind == "affine"]
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in by_label:
            out.append(by_label[tok])
        elif tok == "s" and len(finite) == 1:
            out.append(finite[0])
        elif tok == "s0" and len(affine) == 1:
            out.append(affine[0])
        else:
            raise ValueError(f"unknown generator {tok!r}; "
                             f"known: {', '.join(s.label for s in simples)}")
    return tuple(out)


def word_elt(datum: RootDatum, word) -> AffineElt:
    out = affine_identity(datum)
    for s in word:
        out = mul_simple(out, s)
    return out
