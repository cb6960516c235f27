"""Graded module oracle over the coordinate ring of the dual space.

This side of the package never touches the Hecke algebra: objects are free
graded modules over the polynomial ring on coweight coordinates (a linear
coordinate sits in graded degree 2), equipped with

* one wall operator theta_j per fundamental Weyl-invariant polynomial,
  pairwise commuting, of graded degree deg(y_j) - 2, and
* a left multiplication table recording how coordinate functions act
  through the module, used to push scalars across tensor factors.

Atoms are attached to length-zero elements (rank one twists), to finite
wall crossings (rank two over the invariants of one reflection), and, in
rank one, to the affine wall crossing.  Chains are built by tensoring atoms
left to right.  Each atom and each chain is built once per datum, in the
tables ``atoms``, ``twists`` and ``chains`` of ``datum._mod_state`` (the
invariants are held in ``datum._once``): a chain is the tensor of the longest
prefix chain already held with one atom per remaining letter.  Each distinct
module is validated once per datum: the table ``validated`` holds the
contents (generator degrees, wall operators, left tables) that passed.
Graded Hom spaces between chains are computed degree by degree by
fraction-free integer elimination, and converted to a rank polynomial over
the coordinate ring; coefficients beyond the reliable window raise instead
of truncating silently.
"""

from __future__ import annotations

import math
import operator

from . import linalg
from .affine import AffineElt, SimpleReflection
from .laurent import ONE, ZERO, LaurentPoly, v_power
from .mpoly import MPoly, _wrap, monomials_of_degree
from .rootdata import RootDatum


class CutoffError(ValueError):
    """The requested computation needs a larger degree cutoff to be exact."""


# -- fundamental invariants ------------------------------------------------------------


def _dual_substitutions(datum: RootDatum) -> list:
    """Variable substitution matrices of the simple reflections.

    The coordinate function u_c returns the c-th coordinate of a point, so
    precomposing with a reflection replaces u_c by the linear form built
    from row c of the reflection matrix.
    """
    return [datum.simple_reflection(i).matrix for i in range(datum.nsimples)]


def fundamental_invariants(datum: RootDatum) -> tuple[MPoly, ...]:
    """A generating family for the Weyl invariants of the coweight coordinates.

    Found degree by degree as the kernel of the reflection substitutions,
    discarding the span of products of lower generators.  The count equals
    the rank and the degree product equals the Weyl group order; both are
    asserted.
    """
    once = datum._once
    if "invariants" in once:
        return once["invariants"]
    n = datum.rank
    subs = _dual_substitutions(datum)
    found: list[MPoly] = []
    degree_cap = 2 * len(datum.positive_roots()) + 2
    for degree in range(1, degree_cap + 1):
        if len(found) == n:
            break
        monos = monomials_of_degree(n, degree)
        mono_index = {m: i for i, m in enumerate(monos)}
        rows: list[list[int]] = []
        for sub in subs:
            # coefficient rows of p(sub(u)) - p(u) for p running over monomials
            cols = []
            for m in monos:
                moved = MPoly(n, {m: 1}).substitute_linear(sub)
                col = [0] * len(monos)
                for e, a in moved._c.items():
                    col[mono_index[e]] += a
                col[mono_index[m]] -= 1
                cols.append(col)
            for out_i in range(len(monos)):
                rows.append([cols[c][out_i] for c in range(len(monos))])
        kernel = linalg.nullspace(rows, len(monos))
        if not kernel:
            continue
        # span of products of already-found invariants in this degree; each
        # kernel vector is reduced to its remainder modulo that span
        span: list[list[int]] = []
        for prod in _products_of_degree(found, degree, n):
            vec = [0] * len(monos)
            for e, a in prod._c.items():
                vec[mono_index[e]] += a
            span.append(vec)
        for vec in kernel:
            reduced = linalg.remainder(span, vec, len(monos))
            if not any(reduced):
                continue
            span.append(reduced)
            poly = MPoly(n, dict(zip(monos, reduced)))
            if poly.leading_sign() < 0:
                poly = -poly
            found.append(poly)
            if len(found) == n:
                break
    if len(found) != n:
        raise RuntimeError(f"found {len(found)} invariants, expected {n}")
    degree_product = 1
    for p in found:
        degree_product *= p.total_degree()
    if degree_product != len(datum.weyl_elements()):
        raise RuntimeError("invariant degrees do not multiply to the group order")
    for p in found:
        for sub in subs:
            if p.substitute_linear(sub) != p:
                raise RuntimeError("claimed invariant is not invariant")
    out = once["invariants"] = tuple(sorted(found, key=lambda p: (p.total_degree(), str(p))))
    return out


def _products_of_degree(gens: list[MPoly], degree: int, nvars: int):
    """All monomials in the given generators with the given total degree."""
    out: list[MPoly] = []

    def rec(i: int, remaining: int, acc: MPoly):
        if remaining == 0:
            out.append(acc)
            return
        if i == len(gens):
            return
        d = gens[i].total_degree()
        k = 0
        cur = acc
        while k * d <= remaining:
            rec(i + 1, remaining - k * d, cur)
            k += 1
            cur = cur * gens[i]

    rec(0, degree, MPoly.const(nvars, 1))
    return [p for p in out if not p.is_zero() and p.total_degree() == degree]


# -- matrix helpers over MPoly ------------------------------------------------------------

PolyMatrix = tuple


def _pm(rows) -> PolyMatrix:
    return tuple(tuple(row) for row in rows)


def _pm_scalar(n: int, p: MPoly) -> PolyMatrix:
    """p times the n x n identity."""
    z = MPoly.zero(p.nvars)
    return tuple(tuple(p if i == j else z for j in range(n)) for i in range(n))


def _mpoly_of(nvars: int, c: dict) -> MPoly:
    """Wrap an accumulated coefficient dict, dropping cancelled monomials."""
    return _wrap(nvars, {e: a for e, a in c.items() if a})


def _pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product, row by row over the nonzero entries of both factors;
    each output entry is accumulated in one dict and wrapped once."""
    add = operator.add
    width = len(b[0])
    b_rows = [[(j, y._c) for j, y in enumerate(row) if y._c] for row in b]
    out = []
    for row in a:
        accs: list[dict[tuple, int]] = [{} for _ in range(width)]
        for x, b_row in zip(row, b_rows):
            xc = x._c
            if not xc:
                continue
            for j, yc in b_row:
                acc = accs[j]
                for e1, a1 in xc.items():
                    for e2, a2 in yc.items():
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + a1 * a2
        nv = row[0].nvars
        out.append(tuple(_mpoly_of(nv, acc) for acc in accs))
    return tuple(out)


def _pm_eq(a: PolyMatrix, b: PolyMatrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# -- graded modules -------------------------------------------------------------------------


class GradedCModule:
    """A free graded module with wall operators and a left scalar table.

    gens[i] is the graded degree of the i-th generator.  theta[j] is the
    matrix of the j-th wall operator in generator columns: theta_j(e_i) =
    sum_a e_a * theta[j][a][i].  left[c] likewise gives the action of the
    c-th linear coordinate multiplying from the left.
    """

    __slots__ = ("datum", "gens", "theta", "left", "_mono_cache")

    def __init__(self, datum: RootDatum, gens, theta, left):
        self.datum = datum
        self.gens = tuple(int(g) for g in gens)
        self.theta = tuple(_pm(m) for m in theta)
        self.left = tuple(_pm(m) for m in left)
        # monomial matrices asked for by tensor (with the lower powers they
        # were built from); _validate keeps its own table
        self._mono_cache: dict[tuple, PolyMatrix] = {}
        # the verdict depends only on these tables and the datum, so content
        # equal to a module already validated on this datum is not checked again
        validated = datum._mod_state.validated
        key = (self.gens, self.theta, self.left)
        if key not in validated:
            self._validate()
            validated[key] = True

    @property
    def nvars(self) -> int:
        return self.datum.rank

    def size(self) -> int:
        return len(self.gens)

    def invariants(self) -> tuple[MPoly, ...]:
        return fundamental_invariants(self.datum)

    def grk(self) -> LaurentPoly:
        out = ZERO
        for g in self.gens:
            out = out + v_power(g)
        return out

    # -- validation ---------------------------------------------------------------

    def _validate(self) -> None:
        n = self.size()
        invs = self.invariants()
        if len(self.theta) != len(invs):
            raise ValueError("need one wall operator per fundamental invariant")
        if len(self.left) != self.nvars:
            raise ValueError("need one left table per coordinate")
        for mat in self.theta + self.left:
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError("operator matrix has wrong shape")
        for j, y in enumerate(invs):
            op_deg = 2 * y.total_degree() - 2
            self._check_homogeneous(self.theta[j], op_deg, f"theta[{j}]")
        for c in range(self.nvars):
            self._check_homogeneous(self.left[c], 2, f"left[{c}]")
        for c in range(self.nvars):
            for d in range(c + 1, self.nvars):
                if not _pm_eq(_pm_mul(self.left[c], self.left[d]),
                              _pm_mul(self.left[d], self.left[c])):
                    raise ValueError(f"left tables {c} and {d} do not commute")
        powers: dict[tuple, PolyMatrix] = {}  # shared by the invariants, dropped on return
        for j, y in enumerate(invs):
            if not _pm_eq(self._eval_poly(y, powers), _pm_scalar(n, y)):
                raise ValueError(f"left table does not reproduce invariant {j}")
        for j in range(len(invs)):
            for k in range(j + 1, len(invs)):
                if not _pm_eq(_pm_mul(self.theta[j], self.theta[k]),
                              _pm_mul(self.theta[k], self.theta[j])):
                    raise ValueError(f"wall operators {j} and {k} do not commute")
        for j in range(len(invs)):
            for c in range(self.nvars):
                if not _pm_eq(_pm_mul(self.theta[j], self.left[c]),
                              _pm_mul(self.left[c], self.theta[j])):
                    raise ValueError(f"theta[{j}] does not commute with left[{c}]")

    def _check_homogeneous(self, mat: PolyMatrix, op_deg: int, name: str) -> None:
        for a in range(self.size()):
            for i in range(self.size()):
                p = mat[a][i]
                if p.is_zero():
                    continue
                want2 = self.gens[i] + op_deg - self.gens[a]
                if want2 < 0 or want2 % 2:
                    raise ValueError(f"{name}[{a}][{i}] must vanish by degree")
                if p.homogeneous_degree() != want2 // 2:
                    raise ValueError(f"{name}[{a}][{i}] has wrong degree")

    # -- scalar pushing -----------------------------------------------------------

    def _monomial_matrix(self, exps: tuple, powers: dict) -> PolyMatrix:
        """Matrix of left multiplication by the monomial with exponents exps.

        Taken from powers if held there; otherwise built with one product
        from the monomial one degree lower (one fewer factor of its first
        variable), which is found or built the same way.  Every matrix built
        is added to powers.
        """
        got = powers.get(exps)
        path = []
        cur = exps
        while got is None:
            if not any(cur):
                got = _pm_scalar(self.size(), MPoly.const(self.nvars, 1))
                break
            c = next(i for i, k in enumerate(cur) if k)
            path.append((cur, c))
            cur = cur[:c] + (cur[c] - 1,) + cur[c + 1:]
            got = powers.get(cur)
        for key, c in reversed(path):
            got = _pm_mul(got, self.left[c])
            powers[key] = got
        return got

    def _eval_poly(self, p: MPoly, powers: dict) -> PolyMatrix:
        """Matrix of left multiplication by an arbitrary polynomial.

        The monomial matrices come from _monomial_matrix with the given
        power table; their multiples are summed entrywise into one dict each.
        """
        n = self.size()
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for exps, a in p._c.items():
            for arow, mrow in zip(acc, self._monomial_matrix(exps, powers)):
                for cell, x in zip(arow, mrow):
                    for e, b in x._c.items():
                        cell[e] = cell.get(e, 0) + a * b
        return tuple(tuple(_mpoly_of(self.nvars, cell) for cell in row) for row in acc)

    def __repr__(self) -> str:
        return f"GradedCModule(gens={self.gens}, over {self.datum.name})"


# -- atoms ------------------------------------------------------------------------------------


def atom_E(datum: RootDatum, x: AffineElt) -> GradedCModule:
    """The rank-one atom of a group element: scalars twisted through x.

    Wall operators multiply by the derivative of each invariant along the
    translation part; the left table twists coordinates by the finite part.
    Built once per (datum, x).
    """
    twists = datum._mod_state.twists
    got = twists.get(x)
    if got is not None:
        return got
    n = datum.rank
    invs = fundamental_invariants(datum)
    lam = x.lam
    theta = []
    for y in invs:
        acc = MPoly.zero(n)
        for c in range(n):
            if lam[c]:
                acc = acc + y.deriv(c) * lam[c]
        theta.append(_pm([[acc]]))
    wmat = x.w.matrix
    left = [_pm([[MPoly.linear([wmat[c][d] for d in range(n)])]]) for c in range(n)]
    out = GradedCModule(datum, (0,), theta, left)
    twists[x] = out
    return out


def _ext_gcd_list(values: list[int]) -> tuple[int, list[int]]:
    """gcd of the list together with one integer cofactor vector."""
    g, coeffs = 0, [0] * len(values)
    for i, a in enumerate(values):
        if a == 0:
            continue
        if g == 0:
            g = abs(a)
            coeffs = [0] * len(values)
            coeffs[i] = 1 if a > 0 else -1
            continue
        old_g = g
        x, y = _ext_gcd(g, a)
        g = x * g + y * a
        coeffs = [c * x for c in coeffs]
        coeffs[i] += y
        if g != math.gcd(old_g, a):
            raise RuntimeError(f"extended gcd of {old_g} and {a} returned {g}")
    if sum(c * a for c, a in zip(coeffs, values)) != g:
        raise RuntimeError(f"cofactors {coeffs} do not combine {values} to {g}")
    return g, coeffs


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b = gcd(a, b) > 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_x, old_y


def atom_D_finite(datum: RootDatum, s: SimpleReflection) -> GradedCModule:
    """The two-generator wall atom of a finite simple reflection.

    The coordinate ring is free of rank two over the reflection invariants,
    split by a covector delta with <alpha, delta> = gcd of the coordinates
    of alpha.  Wall operators vanish; the left table encodes multiplication
    in the basis (1, delta) with generator degrees (-1, 1).
    """
    if s.kind != "finite":
        raise ValueError("finite wall atom needs a finite generator")
    n = datum.rank
    alpha = s.root.vec
    g, bezout = _ext_gcd_list(list(alpha))
    k = [a // g for a in alpha]
    delta = MPoly.linear(bezout)
    coroot_form = MPoly.linear(list(s.root.cov))
    j_form = coroot_form * g - delta * 2
    q_form = delta * delta + j_form * delta
    invs = fundamental_invariants(datum)
    zero2 = _pm_scalar(2, MPoly.zero(n))
    theta = [zero2 for _ in invs]
    left = []
    for c in range(n):
        inv_c = MPoly.var(n, c) - delta * k[c]
        kc = MPoly.const(n, k[c])
        left.append(_pm([[inv_c, q_form * k[c]],
                         [kc, inv_c - j_form * k[c]]]))
    return GradedCModule(datum, (-1, 1), theta, left)


def atom_D_affine(datum: RootDatum, s: SimpleReflection) -> GradedCModule:
    """The two-generator wall atom of the affine reflection, rank one only.

    In rank one the affine wall invariants are generated by the shifted
    square; at the fiber over zero the wall operator survives as a nonzero
    nilpotent-type matrix while the left table matches the finite wall.
    """
    if s.kind != "affine":
        raise ValueError("affine wall atom needs the affine generator")
    if datum.rank != 1 or datum.nsimples != 1:
        raise ValueError("the affine wall atom is implemented for rank one only")
    n = 1
    b = s.root.vec[0]
    u = MPoly.var(n, 0)
    theta_mat = _pm([[u * (-b), (u * u) * b],
                     [MPoly.const(n, b), u * (-b)]])
    invs = fundamental_invariants(datum)
    theta = [theta_mat for _ in invs]
    q_form = u * u
    left = [_pm([[MPoly.zero(n), q_form],
                 [MPoly.const(n, 1), MPoly.zero(n)]])]
    return GradedCModule(datum, (-1, 1), theta, left)


def atom_for(datum: RootDatum, s: SimpleReflection) -> GradedCModule:
    """The wall atom of a letter, built once per (datum, letter)."""
    atoms = datum._mod_state.atoms
    got = atoms.get(s.label)
    if got is None:
        got = atom_D_finite(datum, s) if s.kind == "finite" else atom_D_affine(datum, s)
        atoms[s.label] = got
    return got


# -- tensor product -----------------------------------------------------------------------------


def tensor(m: GradedCModule, n: GradedCModule) -> GradedCModule:
    """Tensor over the coordinate ring, pushing scalars through the middle.

    Generators are pairs in row-major order.  Wall operators follow the sum
    rule theta(x & y) = theta(x) & y + x & theta(y), with the first-factor
    coefficients carried across the second factor by its left table.
    """
    if m.datum is not n.datum:
        raise ValueError("tensor factors live over different data")
    datum = m.datum
    nv = m.nvars
    sm, sn = m.size(), n.size()
    size = sm * sn
    gens = tuple(m.gens[i] + n.gens[k] for i in range(sm) for k in range(sn))

    def idx(i: int, k: int) -> int:
        return i * sn + k

    zero = MPoly.zero(nv)

    def carried(table) -> list:
        """The first factor's table, its entries carried across the second
        factor by its left table."""
        mat = [[zero] * size for _ in range(size)]
        for i in range(sm):
            for a in range(sm):
                p = table[a][i]
                if p.is_zero():
                    continue
                across = n._eval_poly(p, n._mono_cache)
                for k in range(sn):
                    for bq in range(sn):
                        val = across[bq][k]
                        if not val.is_zero():
                            mat[idx(a, bq)][idx(i, k)] = mat[idx(a, bq)][idx(i, k)] + val
        return mat

    invs = fundamental_invariants(datum)
    theta_out = []
    for j in range(len(invs)):
        mat = carried(m.theta[j])
        for i in range(sm):
            for k in range(sn):
                for bq in range(sn):
                    val = n.theta[j][bq][k]
                    if not val.is_zero():
                        mat[idx(i, bq)][idx(i, k)] = mat[idx(i, bq)][idx(i, k)] + val
        theta_out.append(mat)
    left_out = [carried(m.left[c]) for c in range(nv)]
    return GradedCModule(datum, gens, theta_out, left_out)


def bs_module(datum: RootDatum, omega: AffineElt, word) -> GradedCModule:
    """The chain module of (omega, word): the twist atom tensored with one
    wall atom per letter, left to right.

    Each chain is built once per datum, as the tensor of the longest prefix
    chain already held with the atoms of the remaining letters.
    """
    if omega.length != 0:
        raise ValueError("the twist in front of a chain must have length zero")
    chains = datum._mod_state.chains
    labels = tuple(s.label for s in word)
    k = len(labels)
    while k and (omega, labels[:k]) not in chains:
        k -= 1
    out = chains.get((omega, labels[:k]))
    if out is None:
        out = chains[(omega, ())] = atom_E(datum, omega)
    for i in range(k, len(labels)):
        out = tensor(out, atom_for(datum, word[i]))
        chains[(omega, labels[:i + 1])] = out
    return out


# -- graded Hom ------------------------------------------------------------------------------


def hom_graded_rank(m: GradedCModule, n: GradedCModule, cutoff: int = 16) -> LaurentPoly:
    """Graded rank over the coordinate ring of the space of module maps
    from m to n commuting with all wall operators.

    Dimensions are computed for every graded degree in [-cutoff, cutoff]
    and converted by multiplying with (1 - v^2)^rank.  Coefficients above
    cutoff - 2*rank cannot be certified: if any of them is nonzero a
    CutoffError is raised instead of truncating silently.
    """
    if m.datum is not n.datum:
        raise ValueError("Hom arguments live over different data")
    if cutoff <= 0 or cutoff % 2:
        raise ValueError("cutoff must be a positive even integer")
    datum = m.datum
    r = datum.rank
    if min(n.gens) - max(m.gens) < -cutoff:
        raise CutoffError("cutoff too small for the generator spread")
    invs = fundamental_invariants(datum)
    dims: dict[int, int] = {}
    for d in range(-cutoff, cutoff + 1):
        dims[d] = _hom_dim(m, n, invs, d)
    hseries = LaurentPoly(dims)
    factor = (ONE - v_power(2)) ** r
    product = hseries * factor
    exact_top = cutoff - 2 * r
    out = {}
    for e, a in product.items():
        if e > cutoff:
            continue  # mixes unknown dimensions beyond the window
        if e > exact_top:
            if a:
                raise CutoffError(
                    f"graded rank has residue {a} at degree {e} beyond the "
                    f"certified window; raise the cutoff")
            continue
        out[e] = a
    return LaurentPoly(out)


def _hom_dim(m: GradedCModule, n: GradedCModule, invs, d: int) -> int:
    add = operator.add
    r = m.nvars
    unknowns: list[tuple[int, int, tuple]] = []
    by_pair: dict[tuple[int, int], list[tuple[tuple, int]]] = {}
    for i, gi in enumerate(m.gens):
        for a, ha in enumerate(n.gens):
            t2 = gi + d - ha
            if t2 < 0 or t2 % 2:
                continue
            lst = by_pair.setdefault((i, a), [])
            for mono in monomials_of_degree(r, t2 // 2):
                lst.append((mono, len(unknowns)))
                unknowns.append((i, a, mono))
    if not unknowns:
        return 0
    rows: list[list[int]] = []
    for j, y in enumerate(invs):
        opdeg = 2 * y.total_degree() - 2
        for i, gi in enumerate(m.gens):
            for b, hb in enumerate(n.gens):
                t2 = gi + opdeg + d - hb
                if t2 < 0 or t2 % 2:
                    continue
                # each unknown's coefficient polynomial, as exponents -> int
                contrib: dict[int, dict[tuple, int]] = {}
                for a in range(n.size()):
                    pc = n.theta[j][b][a]._c
                    if not pc:
                        continue
                    for mono, uidx in by_pair.get((i, a), ()):  # theta after phi
                        acc = contrib.setdefault(uidx, {})
                        for e, c in pc.items():
                            e = tuple(map(add, e, mono))
                            acc[e] = acc.get(e, 0) + c
                for a2 in range(m.size()):
                    pc = m.theta[j][a2][i]._c
                    if not pc:
                        continue
                    for mono, uidx in by_pair.get((a2, b), ()):  # phi after theta
                        acc = contrib.setdefault(uidx, {})
                        for e, c in pc.items():
                            e = tuple(map(add, e, mono))
                            acc[e] = acc.get(e, 0) - c
                if not contrib:
                    continue
                for mono_out in monomials_of_degree(r, t2 // 2):
                    row = [0] * len(unknowns)
                    touched = False
                    for uidx, acc in contrib.items():
                        cc = acc.get(mono_out, 0)
                        if cc:
                            row[uidx] = cc
                            touched = True
                    if touched:
                        rows.append(row)
    return len(unknowns) - linalg.rank(rows)


def modules_equal(m: GradedCModule, n: GradedCModule) -> bool:
    """Equality on the nose: same generators and identical operator tables."""
    if m.datum is not n.datum or m.gens != n.gens:
        return False
    if len(m.theta) != len(n.theta):
        return False
    return (all(_pm_eq(a, b) for a, b in zip(m.theta, n.theta))
            and all(_pm_eq(a, b) for a, b in zip(m.left, n.left)))


# -- comparison with the algebra side -----------------------------------------------------------


def oracle_vs_hecke(datum: RootDatum, left: tuple, right: tuple,
                    cutoff: int = 16) -> dict:
    """Compare the oracle's graded Hom rank between two chains with the
    pairing prediction from the spherical module."""
    from .spherical import hom_rank

    mleft = bs_module(datum, left[0], left[1])
    mright = bs_module(datum, right[0], right[1])
    oracle = hom_graded_rank(mleft, mright, cutoff)
    predicted = hom_rank(datum, left, right)
    return {
        "left": {"omega": list(left[0].lam), "word": [s.label for s in left[1]]},
        "right": {"omega": list(right[0].lam), "word": [s.label for s in right[1]]},
        "oracle": oracle.to_json(),
        "predicted": predicted.to_json(),
        "cutoff": cutoff,
        "pass": oracle == predicted,
    }
