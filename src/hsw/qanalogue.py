"""Graded weight multiplicities and their ungraded oracle.

Three layers:

* a q-Kostant partition counter over the positive roots (exact dynamic
  programming on root-lattice coordinates),
* the alternating Weyl sum producing the graded multiplicity polynomial of
  a dominant weight inside an irreducible highest-weight module,
* an independent Freudenthal recursion for the same multiplicity at q = 1,
  using the symmetrized invariant form, in integer arithmetic.

The polynomials here live in the variable q; the comparison against module
coefficients substitutes q = v^-2.

All formulas are run through doubled weights (2 eta + 2 rho and friends) so
that every intermediate stays in the integer lattice.
"""

from __future__ import annotations

import math

from . import linalg
from .affine import length_box, min_rep
from .laurent import ONE, ZERO, LaurentPoly
from .rootdata import (RootDatum, Vec, pair, vec_add, vec_neg, vec_scale,
                       vec_sub)
from .worklist import fill


class _QState:
    def __init__(self):
        self.solver = None
        self.kostant: dict[tuple, LaurentPoly] = {}
        self.partial: dict[tuple, LaurentPoly] = {}
        self.symmetrizer: tuple[int, ...] | None = None
        self.freud: dict[Vec, dict[Vec, int]] = {}
        self.weights: dict[Vec, tuple[Vec, ...]] = {}


def _qstate(datum: RootDatum) -> _QState:
    st = getattr(datum, "_q_state", None)
    if st is None:
        st = _QState()
        datum._q_state = st
    return st


# -- root-lattice coordinates -------------------------------------------------------


def _solver(datum: RootDatum):
    """Pivot coordinates, determinant and adjugate for expanding vectors in
    simple roots: the coordinates are adj * vec[pivots] / det."""
    st = _qstate(datum)
    if st.solver is None:
        rows = [[root[i] for root in datum.simple_roots] for i in range(datum.rank)]
        pivots: list[int] = []
        for i in range(datum.rank):
            if linalg.rank([rows[k] for k in pivots] + [rows[i]]) == len(pivots) + 1:
                pivots.append(i)
                if len(pivots) == datum.nsimples:
                    break
        det, adj = linalg.inverse([rows[i] for i in pivots])
        st.solver = (tuple(pivots), det, adj)
    return st.solver


def root_coords_int(datum: RootDatum, vec) -> Vec | None:
    """Integer coordinates of a vector in the simple roots, or None when it
    is not an integral combination of them."""
    vec = tuple(int(x) for x in vec)
    pivots, det, adj = _solver(datum)
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


# -- q-Kostant partitions --------------------------------------------------------------


def kostant_q(datum: RootDatum, beta) -> LaurentPoly:
    """Partition count of beta into positive roots, graded by part count.

    Returns the polynomial sum over unordered decompositions of q^(number of
    parts); zero when beta is not a nonnegative integral root combination.
    """
    st = _qstate(datum)
    rc = root_coords_int(datum, beta)
    if rc is None or any(x < 0 for x in rc):
        return ZERO
    cached = st.kostant.get(rc)
    if cached is not None:
        return cached
    roots = sorted((r.root_coords for r in datum.positive_roots()),
                   key=lambda t: (-sum(t), t))
    out = _kostant_rec(st, tuple(roots), 0, rc)
    st.kostant[rc] = out
    return out


def _kostant_rec(st: _QState, roots, i: int, rem: Vec) -> LaurentPoly:
    if not any(rem):
        return ONE
    if i == len(roots):
        return ZERO
    key = (i, rem)
    cached = st.partial.get(key)
    if cached is not None:
        return cached
    rc = roots[i]
    kmax = min(rem[j] // rc[j] for j in range(len(rc)) if rc[j])
    total = ZERO
    cur = rem
    for k in range(kmax + 1):
        if k:
            cur = tuple(a - b for a, b in zip(cur, rc))
        sub = _kostant_rec(st, roots, i + 1, cur)
        if sub:
            total = total + sub * LaurentPoly({k: 1})
    st.partial[key] = total
    return total


# -- graded multiplicity ------------------------------------------------------------------


def lusztig_q(datum: RootDatum, chi, eta) -> LaurentPoly:
    """The graded multiplicity polynomial of weight chi in the module of
    highest weight eta (eta must be dominant), as an alternating Weyl sum of
    q-Kostant values.
    """
    chi = tuple(int(x) for x in chi)
    eta = tuple(int(x) for x in eta)
    if not datum.is_dominant(eta):
        raise ValueError(f"highest weight {eta} must be dominant")
    two_rho = datum.two_rho()
    target = vec_add(vec_scale(2, chi), two_rho)
    out = ZERO
    for w in datum.weyl_elements():
        arg2 = vec_sub(w.act(vec_add(vec_scale(2, eta), two_rho)), target)
        if any(x % 2 for x in arg2):
            raise RuntimeError("doubled weight difference is odd; invariant broken")
        half = tuple(x // 2 for x in arg2)
        term = kostant_q(datum, half)
        if term:
            out = out + term if w.length % 2 == 0 else out - term
    return out


# -- Freudenthal oracle -------------------------------------------------------------------


def _symmetrizer(datum: RootDatum) -> tuple[int, ...]:
    """Minimal positive integers d_i with d_i a_ij = d_j a_ji."""
    st = _qstate(datum)
    if st.symmetrizer is not None:
        return st.symmetrizer
    a = datum.cartan_matrix()
    n = datum.nsimples
    d: list[tuple[int, int] | None] = [None] * n   # d_i as (numerator, denominator)
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
            if ints[i] * a[i][j] != ints[j] * a[j][i]:
                raise RuntimeError("symmetrizer failed; Cartan matrix not symmetrizable")
    st.symmetrizer = tuple(ints)
    return st.symmetrizer


def _form(datum: RootDatum, x_coords, y) -> int:
    """Invariant form B(x, y) with x given in root coordinates."""
    d = _symmetrizer(datum)
    return sum(c * d[j] * pair(y, datum.simple_coroots[j])
               for j, c in enumerate(x_coords) if c)


def freudenthal_mult(datum: RootDatum, eta, chi) -> int:
    """Ungraded multiplicity of chi in the module of highest weight eta,
    by the Freudenthal recursion (independent of the alternating sum).

    Each value needs only dominant weights strictly closer to eta; they are
    filled from an explicit stack (``hsw.worklist``), not by Python recursion.
    """
    eta = tuple(int(x) for x in eta)
    chi = tuple(int(x) for x in chi)
    if not datum.is_dominant(eta):
        raise ValueError(f"highest weight {eta} must be dominant")
    st = _qstate(datum)
    memo = st.freud.setdefault(eta, {eta: 1})
    two_rho = datum.two_rho()
    # doubled arguments throughout: B(2x, 2y) = 4 B(x, y) cancels in the ratio
    eta2 = vec_scale(2, eta)

    def mult(chip: Vec):
        gap = root_coords_int(datum, vec_sub(eta, chip))
        if gap is None or any(x < 0 for x in gap):
            return 0
        chip2 = vec_scale(2, chip)
        denom = _form(datum, vec_scale(2, gap), vec_add(vec_add(eta2, chip2), vec_scale(2, two_rho)))
        if denom == 0:
            return 0
        total = 0
        for r in datum.positive_roots():
            k = 1
            while True:
                mu = vec_add(chip, vec_scale(k, r.vec))
                mup = datum.dominant_rep(mu)
                gap2 = root_coords_int(datum, vec_sub(eta, mup))
                if gap2 is None or any(x < 0 for x in gap2):
                    break
                m = yield mup
                if m:
                    total += m * _form(datum, vec_scale(2, r.root_coords),
                                       vec_scale(2, mu))
                k += 1
        val, rem = divmod(2 * total, denom)
        if rem:
            raise RuntimeError("Freudenthal recursion produced a non-integer")
        return val

    return fill(memo, datum.dominant_rep(chi), mult)


def weyl_dim(datum: RootDatum, eta) -> int:
    """Dimension of the module of highest weight eta, by the product formula."""
    eta = tuple(int(x) for x in eta)
    if not datum.is_dominant(eta):
        raise ValueError(f"highest weight {eta} must be dominant")
    two_rho = datum.two_rho()
    num, den = 1, 1
    top = vec_add(vec_scale(2, eta), two_rho)
    for r in datum.positive_roots():
        num *= pair(top, r.cov)
        den *= pair(two_rho, r.cov)
    q, rr = divmod(num, den)
    if rr:
        raise RuntimeError("dimension formula produced a non-integer")
    return q


def weights_of_irrep(datum: RootDatum, eta) -> tuple[Vec, ...]:
    """All weights of the module of highest weight eta (with repetitions
    ignored), found by descending simple-root steps inside the saturation.
    """
    eta = tuple(int(x) for x in eta)
    if not datum.is_dominant(eta):
        raise ValueError(f"highest weight {eta} must be dominant")
    st = _qstate(datum)
    cached = st.weights.get(eta)
    if cached is not None:
        return cached

    def inside(chi: Vec) -> bool:
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
    out = tuple(sorted(seen))
    st.weights[eta] = out
    return out


# -- the graded comparison across the two sides ----------------------------------------------


def kato_check(datum: RootDatum, lam, mu) -> dict:
    """Compare a canonical-basis coefficient with a graded multiplicity.

    For dominant lam, mu the coefficient of m_{-mu} in the canonical element
    at -w0(lam), shifted by v^(l(w_{-w0 mu}) - l(w_{-mu})), must equal the
    graded multiplicity polynomial of -w0(mu) in the module of highest
    weight -w0(lam) evaluated at q = v^-2.
    """
    from .spherical import canonical_basis

    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    if not datum.is_dominant(lam) or not datum.is_dominant(mu):
        raise ValueError("both weights must be dominant")
    w0 = datum.longest_element()
    lam_star = vec_neg(w0.act(lam))
    mu_star = vec_neg(w0.act(mu))
    shift = min_rep(datum, mu_star).length - min_rep(datum, vec_neg(mu)).length
    coeff = canonical_basis(datum, lam_star).coeff(vec_neg(mu))
    lhs = coeff * LaurentPoly({shift: 1})
    rhs = lusztig_q(datum, mu_star, lam_star).substitute_power(-2)
    return {
        "lambda": list(lam), "mu": list(mu),
        "lhs": lhs.to_json(), "rhs": rhs.to_json(),
        "pass": lhs == rhs,
    }


def dominant_weights_by_length(datum: RootDatum, max_len: int) -> list[Vec]:
    """Dominant weights lam with l(w_{-lam}) <= max_len, in lexicographic
    order, by box search."""
    return [lam for lam in length_box(datum, max_len)
            if datum.is_dominant(lam) and min_rep(datum, vec_neg(lam)).length <= max_len]


def kato_grid(datum: RootDatum, max_len: int) -> list[dict]:
    """Run the comparison over all dominant pairs within the length bound."""
    lams = dominant_weights_by_length(datum, max_len)
    rows = []
    for lam in lams:
        for mu in lams:
            rows.append(kato_check(datum, lam, mu))
    return rows
