"""Graded weight multiplicities and their ungraded oracle.

Three layers:

* a q-Kostant partition counter over the positive roots, memoised by the
  weight it is asked for, so that a repeated value, zero included, needs no
  solve for root coordinates; a new value comes from the two-term
  recurrence P(i, rem) = P(i + 1, rem) + q P(i, rem - root i) on
  root-lattice coordinates (partitions into the roots from i on, split by
  whether root i occurs), filled from one explicit stack (``hsw.worklist``),
  so each state adds two polynomials and the depth of a chain is not bounded
  by the recursion limit,
* the alternating Weyl sum producing the graded multiplicity polynomial of
  a weight inside an irreducible highest-weight module, in root
  coordinates: a table built once per highest weight eta holds, for each w,
  l(w) mod 2, d_w = w(eta + rho) - (eta + rho) and the root coordinates of
  d_w; a call solves once for the root coordinates g of eta - chi and asks
  the partition counter only for the terms whose coordinates d_w + g are
  all nonnegative,
* an independent Freudenthal recursion for the same multiplicity at q = 1,
  using the invariant form B(x, y) = sum over positive roots a of
  <x, a-check> <y, a-check>, in integer arithmetic: each
  root-string sum is memoised as one step plus the sum one step further up
  the string, so the work is linear in the number of weights times the
  number of positive roots.  Membership and dominant representatives come
  from a weight table built once per highest weight: the dominant weights
  below eta, reached by subtracting positive roots while staying dominant,
  and their Weyl orbits.

The polynomials here live in the variable q; the comparison against module
coefficients substitutes q = v^-2.

The orbit table of the alternating sum is built from the doubled weight
2 eta + 2 rho, so that every intermediate stays in the integer lattice even
where rho is not a weight; the invariant form takes integer values on
weights.

Per datum, the tables of ``datum._q_state`` are ``kostant`` and ``partial``
(the partition counter, ``partial`` keyed by (i, rem) and holding no base
case), ``orbits`` (the alternating sum), ``freud`` and ``weights`` (the
Freudenthal side and ``weights_of_irrep``).  The per-datum constants, the
root-coordinate solve (det A and adj(A) C for the Cartan matrix A and the
simple-coroot matrix C) and the Gram matrix of the invariant form, are held
in ``datum._once`` as ``root_solve`` and ``form``.
``orbits`` and ``freud`` only ever hold a dominant eta, so a call that finds
eta there answers without the dominance check and the set-up of a cold eta.
"""

from __future__ import annotations

from operator import add, lt, mul, sub

from . import linalg
from .affine import length_box, min_rep
from .laurent import ONE, ZERO, LaurentPoly, _wrap
from .rootdata import (RootDatum, Vec, mat_vec, pair, vec_add, vec_neg,
                       vec_scale, vec_sub)
from .spherical import canonical_basis
from .worklist import fill


# -- root-lattice coordinates -------------------------------------------------------


def root_coords_int(datum: RootDatum, vec) -> Vec | None:
    """Integer coordinates of a vector in the simple roots, or None when it
    is not an integral combination of them.

    The coordinates c of vec = sum c_j alpha_j solve A c = (<vec, alpha_i-check>)_i
    for the Cartan matrix A, so they are adj(A) C vec / det A with C the
    simple-coroot matrix; the pair (det A, adj(A) C) is held per datum.  When
    nsimples equals the rank the coroots see every direction, so integral
    coordinates always recombine to vec; otherwise the combination is checked.
    """
    vec = datum.weight(vec)
    held = datum._once.get("root_solve")
    if held is None:
        det, adj = linalg.inverse(datum.cartan_matrix())
        coroot_cols = tuple(zip(*datum.simple_coroots))
        solve = tuple(mat_vec(coroot_cols, row) for row in adj)
        held = datum._once["root_solve"] = (det, solve)
    det, solve = held
    coords = []
    for row in solve:
        q, r = divmod(sum(map(mul, row, vec)), det)
        if r:
            return None
        coords.append(q)
    if datum.nsimples < datum.rank:
        for i, x in enumerate(vec):
            if sum(c * root[i] for c, root in zip(coords, datum.simple_roots)) != x:
                return None
    return tuple(coords)


# -- q-Kostant partitions --------------------------------------------------------------


def kostant_q(datum: RootDatum, beta) -> LaurentPoly:
    """Partition count of beta into positive roots, graded by part count.

    Returns the polynomial sum over unordered decompositions of q^(number of
    parts); zero when beta is not a nonnegative integral root combination.
    Values are memoised by the weight itself, zero ones included, so a
    repeated call solves no root coordinates.  A new value is filled by the
    two-term recurrence of ``_kostant_fill`` from one explicit stack, over
    the positive roots in root coordinates, highest first.
    """
    st = datum._q_state
    beta = datum.weight(beta)
    cached = st.kostant.get(beta)
    if cached is not None:
        return cached
    rc = root_coords_int(datum, beta)
    if rc is None or any(x < 0 for x in rc):
        out = ZERO
    else:
        roots = sorted((r.root_coords for r in datum.positive_roots()),
                       key=lambda t: (-sum(t), t))
        out = _kostant_fill(st.partial, tuple(roots), rc)
    st.kostant[beta] = out
    return out


def _kostant_fill(partial: dict, roots, rc: Vec) -> LaurentPoly:
    """The value P(0, rc), where P(i, rem) counts the partitions of rem into
    roots[i:] graded by part count, filled into ``partial`` by the two-term
    recurrence

        P(i, rem) = P(i + 1, rem) + q P(i, rem - roots[i])

    from one explicit stack (``hsw.worklist``).  P(i, rem) equals P(j, rem)
    for the first j >= i whose root fits in rem (leaves no coordinate
    negative), so a state is only ever asked for at such a j (``first``),
    where its second term is defined.  The base cases P(i, 0) = 1 and
    P(len(roots), rem) = 0 are answered inside the frame and never stored,
    and a value whose second term is zero is the first term's object itself.
    The coefficients are counts, so the sum cancels nothing and its exponent
    dict becomes the value as it is.
    """
    if not any(rc):
        return ONE
    n = len(roots)

    def first(i, rem):
        while i < n and any(map(lt, rem, roots[i])):
            i += 1
        return i

    def steps(key):
        i, rem = key
        down = tuple(map(sub, rem, roots[i]))
        j = first(i + 1, rem)
        upper = (yield (j, rem)) if j < n else ZERO
        if any(down):
            k = first(i, down)
            if k == n:
                return upper
            lower = (yield (k, down))._c
        else:
            lower = ONE._c
        c = dict(upper._c)
        for e, a in lower.items():
            c[e + 1] = c.get(e + 1, 0) + a
        return _wrap(c)

    return fill(partial, (first(0, rc), rc), steps)


# -- graded multiplicity ------------------------------------------------------------------


def _orbit(datum: RootDatum, eta: Vec) -> tuple[tuple[int, Vec, Vec], ...]:
    """The triples (l(w) mod 2, d_w, root coordinates of d_w) over the Weyl
    group, with d_w = w(eta + rho) - (eta + rho), built once per highest
    weight.  d_w is found as half of w(2 eta + 2 rho) - (2 eta + 2 rho), so
    that every intermediate is integral; it lies in the root lattice."""
    orbits = datum._q_state.orbits
    orbit = orbits.get(eta)
    if orbit is None:
        datum.highest_weight(eta)
        top = vec_add(vec_scale(2, eta), datum.two_rho())
        rows = []
        for w in datum.weyl_elements():
            diff2 = vec_sub(w.act(top), top)
            if any(x % 2 for x in diff2):
                raise RuntimeError("doubled weight difference is odd; invariant broken")
            diff = tuple(x // 2 for x in diff2)
            rc = root_coords_int(datum, diff)
            if rc is None:
                raise RuntimeError("w(eta + rho) - (eta + rho) left the root lattice")
            rows.append((w.length % 2, diff, rc))
        orbit = orbits[eta] = tuple(rows)
    return orbit


def lusztig_q(datum: RootDatum, chi, eta) -> LaurentPoly:
    """The graded multiplicity polynomial of weight chi in the module of
    dominant highest weight eta, as an alternating Weyl sum of
    q-Kostant values: the sum over w of (-1)^l(w) times the q-Kostant value
    at d_w + (eta - chi), with d_w = w(eta + rho) - (eta + rho) read off the
    orbit table of eta.

    One solve gives the root coordinates g of eta - chi (none: the sum is
    zero); a term is looked up only when the coordinates of d_w plus g are
    all nonnegative, since the partition count vanishes off that cone.
    """
    chi, eta = datum.weight(chi), datum.weight(eta)
    orbit = _orbit(datum, eta)
    gap = vec_sub(eta, chi)
    g = root_coords_int(datum, gap)
    if g is None:
        return ZERO
    acc: dict[int, int] = {}
    for odd, diff, rc in orbit:
        if min(map(add, rc, g)) < 0:
            continue
        for e, a in kostant_q(datum, tuple(map(add, diff, gap)))._c.items():
            acc[e] = acc.get(e, 0) + (-a if odd else a)
    return _wrap({e: a for e, a in acc.items() if a})


# -- Freudenthal oracle -------------------------------------------------------------------


def _invariant_form(datum: RootDatum) -> tuple:
    """The Gram matrix G of B(x, y) = sum over positive roots a of
    <x, a-check> <y, a-check>, and G a for each positive root a in
    ``positive_roots`` order, so that B(a, y) = <G a, y>.

    B is W-invariant, since W permutes the coroots up to sign; it is integral
    on weights, and on each simple component a positive multiple of the
    normalised invariant form, which is all Freudenthal's formula needs.
    """
    once = datum._once
    if "form" not in once:
        cov = datum._pos_coroots
        gram = tuple(tuple(sum(c[i] * c[j] for c in cov) for j in range(datum.rank))
                     for i in range(datum.rank))
        once["form"] = (gram, tuple(mat_vec(gram, r.vec) for r in datum.positive_roots()))
    return once["form"]


def _weight_table(datum: RootDatum, eta: Vec) -> tuple[dict[Vec, Vec], tuple[Vec, ...]]:
    """The weights of the module of highest weight eta, each mapped to its
    dominant representative, and the same weights sorted; built once per
    highest weight.

    The dominant weights below eta are reached from eta by subtracting
    positive roots while the result stays dominant (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136 (1998)); the weights are their
    Weyl orbits.
    """
    table = datum._q_state.weights
    held = table.get(eta)
    if held is None:
        roots = [r.vec for r in datum.positive_roots()]
        dominant = {eta}
        stack = [eta]
        while stack:
            mu = stack.pop()
            for a in roots:
                nxt = vec_sub(mu, a)
                if nxt not in dominant and datum.is_dominant(nxt):
                    dominant.add(nxt)
                    stack.append(nxt)
        reps = {w.act(mu): mu for mu in dominant for w in datum.weyl_elements()}
        held = table[eta] = (reps, tuple(sorted(reps)))
    return held


def freudenthal_mult(datum: RootDatum, eta, chi) -> int:
    """Ungraded multiplicity of chi in the module of highest weight eta,
    by the Freudenthal recursion (independent of the alternating sum)

        B(eta - chi, eta + chi + 2 rho) m(chi) = 2 sum_(alpha > 0) S(chi, alpha),

    with the root-string sums S(chi, alpha) = sum_(k >= 1) m(chi + k alpha)
    B(chi + k alpha, alpha) memoised one step at a time:
    S(chi, alpha) = m(chi + alpha) B(chi + alpha, alpha) + S(chi + alpha, alpha),
    and zero once chi + alpha leaves the weights of the module.  Membership
    and dominant representatives are read off the weight table of eta, and a
    chi outside it has multiplicity 0.  The memo of each eta keys m by
    dominant weight (m is Weyl-invariant) and S by (weight, index of alpha).
    Both are filled in integers from one explicit stack (``hsw.worklist``),
    not by Python recursion.
    """
    eta, chi = datum.weight(eta), datum.weight(chi)
    st = datum._q_state
    memo = st.freud.get(eta)
    if memo is None:
        datum.highest_weight(eta)
        reps = _weight_table(datum, eta)[0]
        memo = st.freud[eta] = {eta: 1}
    else:
        reps = st.weights[eta][0]
    dom = reps.get(chi)
    if dom is None:
        return 0
    value = memo.get(dom)
    if value is not None:
        return value
    roots = datum.positive_roots()
    gram, root_images = _invariant_form(datum)
    top = vec_add(eta, datum.two_rho())

    def steps(key):
        if isinstance(key[0], tuple):          # the string sum S(chi, roots[i])
            chip, i = key
            nxt = vec_add(chip, roots[i].vec)
            up = reps.get(nxt)
            if up is None:
                return 0
            m = yield up
            rest = yield (nxt, i)
            return m * pair(root_images[i], nxt) + rest
        denom = pair(mat_vec(gram, vec_sub(eta, key)), vec_add(top, key))
        if denom == 0:
            return 0
        total = 0
        for i in range(len(roots)):
            total += yield (key, i)
        val, rem = divmod(2 * total, denom)
        if rem:
            raise RuntimeError("Freudenthal recursion produced a non-integer")
        return val

    return fill(memo, dom, steps)


def weyl_dim(datum: RootDatum, eta) -> int:
    """Dimension of the module of highest weight eta, by the product formula."""
    eta = datum.highest_weight(eta)
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
    ignored), in sorted order: the keys of its weight table, the Weyl orbits
    of the dominant weights below eta.
    """
    return _weight_table(datum, datum.highest_weight(eta))[1]


# -- the graded comparison across the two sides ----------------------------------------------


def kato_check(datum: RootDatum, lam, mu) -> dict:
    """Compare a canonical-basis coefficient with a graded multiplicity.

    For dominant lam, mu the coefficient of m_{-mu} in the canonical element
    at -w0(lam), shifted by v^(l(w_{-w0 mu}) - l(w_{-mu})), must equal the
    graded multiplicity polynomial of -w0(mu) in the module of highest
    weight -w0(lam) evaluated at q = v^-2.
    """
    lam, mu = datum.highest_weight(lam), datum.highest_weight(mu)
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
