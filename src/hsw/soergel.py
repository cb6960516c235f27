"""Graded module oracle over the coordinate ring of the dual space.

This side of the package never touches the Hecke algebra: objects are free
graded modules over the polynomial ring on coweight coordinates (a linear
coordinate sits in graded degree 2), equipped with

* one wall operator theta_j per fundamental Weyl-invariant polynomial,
  pairwise commuting, of graded degree deg(y_j) - 2, and
* a left multiplication table recording how coordinate functions act
  through the module, used to push scalars across tensor factors.

Each operator is one flat map (row, col, exponents) -> nonzero int (see
``GradedCModule``): products, equality, degrees and the Hom rows read its
nonzero coefficients alone.

Atoms are attached to length-zero elements (rank one twists), to finite
wall crossings (rank two over the invariants of one reflection), and, in
rank one, to the affine wall crossing.  Chains are built by tensoring atoms
left to right.  Each atom and each chain is built once per datum, in the
tables ``atoms``, ``twists`` and ``chains`` of ``datum._mod_state`` (the
invariants are held in ``datum._once``): a chain is the tensor of the longest
prefix chain already held with one atom per remaining letter.  Each distinct
module is validated once per datum: the table ``validated`` holds the
contents (generator degrees, wall operators, left tables) that passed.
A module holds no derived data: ``_carry``, the one routine that carries an
operator map across a module, fills the matrices of its monomials on that
module through ``hsw.worklist.fill`` into a power table local to
``_validate`` or ``tensor``.
Graded Hom spaces between chains are computed degree by degree by sparse
integer elimination (``linalg.sparse_rank``), and converted to a rank
polynomial over the coordinate ring; coefficients beyond the reliable window
raise instead of truncating silently.
"""

from __future__ import annotations

import itertools
import math
import operator

from . import linalg
from .affine import AffineElt, SimpleReflection, simple_reflections
from .laurent import ONE, ZERO, LaurentPoly, exact_int, v_power
from .mpoly import MPoly, monomials_of_degree
from .rootdata import RootDatum
from .spherical import hom_rank
from .worklist import fill


class CutoffError(ValueError):
    """The requested computation needs a larger degree cutoff to be exact."""


# -- fundamental invariants ------------------------------------------------------------


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
    # u_c returns the c-th coordinate of a point, so precomposing with a
    # reflection replaces u_c by the linear form of row c of its matrix
    subs = [datum.simple_reflection(i).matrix for i in range(datum.nsimples)]
    found: list[MPoly] = []
    degree_cap = 2 * len(datum.positive_roots()) + 2
    for degree in range(1, degree_cap + 1):
        if len(found) == n:
            break
        monos = monomials_of_degree(n, degree)
        mono_index = {m: i for i, m in enumerate(monos)}

        def coords(p: MPoly) -> list[int]:   # p as a vector over monos
            vec = [0] * len(monos)
            for e, a in p._c.items():
                vec[mono_index[e]] += a
            return vec
        rows: list[list[int]] = []
        for sub in subs:
            # coefficient rows of p(sub(u)) - p(u) for p running over monomials
            cols = []
            for m in monos:
                col = coords(MPoly(n, {m: 1}).substitute_linear(sub))
                col[mono_index[m]] -= 1
                cols.append(col)
            for out_i in range(len(monos)):
                rows.append([cols[c][out_i] for c in range(len(monos))])
        kernel = linalg.nullspace(rows, len(monos))
        if not kernel:
            continue
        # span of products of already-found invariants in this degree; each
        # kernel vector is reduced to its remainder modulo that span
        span = [coords(prod) for prod in _products_of_degree(found, degree)]
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


def _products_of_degree(gens: list[MPoly], degree: int) -> list[MPoly]:
    """All products of the given generators, repeats allowed, of the given
    total degree."""
    return [math.prod(combo) for k in range(1, degree + 1)
            for combo in itertools.combinations_with_replacement(gens, k)
            if sum(p.total_degree() for p in combo) == degree]


# -- operator maps ---------------------------------------------------------------------------

OpMap = dict   # (row, col, exponents) -> nonzero int; see GradedCModule


def _flat(rows) -> OpMap:
    """The operator map of a matrix written as rows of MPoly entries."""
    return {(a, i, e): c for a, row in enumerate(rows) for i, p in enumerate(row)
            for e, c in p._c.items()}


def _pm_mul(a: OpMap, b: OpMap) -> OpMap:
    """Matrix product: each entry of a meets the entries of b in the row of
    its column, and cancelled coefficients are dropped."""
    add = operator.add
    b_rows: dict[int, list] = {}
    for (k, j, e), y in b.items():
        b_rows.setdefault(k, []).append((j, e, y))
    acc: dict[tuple, int] = {}
    for (i, k, e1), x in a.items():
        for j, e2, y in b_rows.get(k, ()):
            key = (i, j, tuple(map(add, e1, e2)))
            acc[key] = acc.get(key, 0) + x * y
    return {key: c for key, c in acc.items() if c}


# -- graded modules -------------------------------------------------------------------------


class GradedCModule:
    """A free graded module with wall operators and a left scalar table.

    gens[i] is the graded degree of the i-th generator.  theta[j] is the
    operator map of the j-th wall operator in generator columns: theta_j(e_i)
    = sum_a e_a * p_ai, where theta[j][(a, i, exps)] is the coefficient of
    the monomial u^exps in p_ai.  left[c] likewise gives the action of the
    c-th linear coordinate multiplying from the left.  A map stores no zero
    coefficient, so equal operators are equal dicts; the constructor copies
    the maps, and validation rejects a zero or an entry outside the
    generators or the variables.  Powers of the left tables are not kept:
    ``_carry`` fills them with ``_power_steps`` into its caller's power table.
    """

    __slots__ = ("datum", "gens", "theta", "left")

    def __init__(self, datum: RootDatum, gens, theta, left):
        self.datum = datum
        self.gens = tuple(map(exact_int, gens))
        self.theta = tuple(dict(m) for m in theta)
        self.left = tuple(dict(m) for m in left)
        # the verdict depends only on these tables and the datum, so content
        # equal to a module already validated on this datum is not checked again
        validated = datum._mod_state.validated
        key = (self.gens, tuple(frozenset(m.items()) for m in self.theta),
               tuple(frozenset(m.items()) for m in self.left))
        if key not in validated:
            self._validate()
            validated[key] = True

    @property
    def nvars(self) -> int:
        return self.datum.rank

    def size(self) -> int:
        return len(self.gens)

    def grk(self) -> LaurentPoly:
        out = ZERO
        for g in self.gens:
            out = out + v_power(g)
        return out

    # -- validation ---------------------------------------------------------------

    def _validate(self) -> None:
        n = self.size()
        invs = fundamental_invariants(self.datum)
        if len(self.theta) != len(invs):
            raise ValueError("need one wall operator per fundamental invariant")
        if len(self.left) != self.nvars:
            raise ValueError("need one left table per coordinate")
        for j, y in enumerate(invs):
            op_deg = 2 * y.total_degree() - 2
            self._check_homogeneous(self.theta[j], op_deg, f"theta[{j}]")
        for c in range(self.nvars):
            self._check_homogeneous(self.left[c], 2, f"left[{c}]")
        for c in range(self.nvars):
            for d in range(c + 1, self.nvars):
                if _pm_mul(self.left[c], self.left[d]) != _pm_mul(self.left[d], self.left[c]):
                    raise ValueError(f"left tables {c} and {d} do not commute")
        powers: dict[tuple, OpMap] = {}  # shared by the invariants, dropped on return
        for j, y in enumerate(invs):
            scalar = {(i, i, e): a for i in range(n) for e, a in y._c.items()}
            if _carry({(0, 0, e): a for e, a in y._c.items()}, self, powers, {}) != scalar:
                raise ValueError(f"left table does not reproduce invariant {j}")
        for j in range(len(invs)):
            for k in range(j + 1, len(invs)):
                if _pm_mul(self.theta[j], self.theta[k]) != _pm_mul(self.theta[k], self.theta[j]):
                    raise ValueError(f"wall operators {j} and {k} do not commute")
        for j in range(len(invs)):
            for c in range(self.nvars):
                if _pm_mul(self.theta[j], self.left[c]) != _pm_mul(self.left[c], self.theta[j]):
                    raise ValueError(f"theta[{j}] does not commute with left[{c}]")

    def _check_homogeneous(self, mat: OpMap, op_deg: int, name: str) -> None:
        """Each entry nonzero, in range, and of the degree its generators give."""
        n, r = self.size(), self.nvars
        for (a, i, e), c in mat.items():
            if not (0 <= a < n and 0 <= i < n and len(e) == r and min(e) >= 0 and c):
                raise ValueError(f"{name} has an entry out of range: {(a, i, e)}: {c}")
            want2 = self.gens[i] + op_deg - self.gens[a]
            if want2 < 0 or want2 % 2:
                raise ValueError(f"{name}[{a}][{i}] must vanish by degree")
            if sum(e) != want2 // 2:
                raise ValueError(f"{name}[{a}][{i}] has wrong degree")

    # -- scalar pushing -----------------------------------------------------------

    def _power_steps(self, exps: tuple):
        """Frame of a power table (see hsw.worklist): the matrix of left
        multiplication by the monomial with exponents exps is the identity
        for the constant monomial, and otherwise the matrix of the monomial
        with one fewer factor of its first variable times that variable's
        left table."""
        if not any(exps):
            return {(i, i, exps): 1 for i in range(self.size())}
        c = next(i for i, k in enumerate(exps) if k)
        lower = yield exps[:c] + (exps[c] - 1,) + exps[c + 1:]
        return _pm_mul(lower, self.left[c])

    def __repr__(self) -> str:
        return f"GradedCModule(gens={self.gens}, over {self.datum.name})"


def _carry(table: OpMap, n: GradedCModule, powers: dict, acc: dict) -> OpMap:
    """acc plus table carried across n: each entry c * u^e at (a, i) becomes
    c times the matrix of left multiplication by u^e on n, in block (a, i).
    The matrices are filled into powers, a power table of n, through
    ``worklist.fill`` with ``n._power_steps``; acc is changed in place."""
    sn = n.size()
    steps = n._power_steps
    for (a, i, e), c in table.items():
        for (b, k, e2), c2 in fill(powers, e, steps).items():
            key = (a * sn + b, i * sn + k, e2)
            acc[key] = acc.get(key, 0) + c * c2
    return {key: c for key, c in acc.items() if c}


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
        theta.append(_flat([[acc]]))
    wmat = x.w.matrix
    left = [_flat([[MPoly.linear([wmat[c][d] for d in range(n)])]]) for c in range(n)]
    out = GradedCModule(datum, (0,), theta, left)
    twists[x] = out
    return out


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
    g, bezout = linalg.bezout(alpha)
    k = [a // g for a in alpha]
    delta = MPoly.linear(bezout)
    coroot_form = MPoly.linear(list(s.root.cov))
    j_form = coroot_form * g - delta * 2
    q_form = delta * delta + j_form * delta
    invs = fundamental_invariants(datum)
    theta = [{} for _ in invs]
    left = []
    for c in range(n):
        inv_c = MPoly.var(n, c) - delta * k[c]
        kc = MPoly.const(n, k[c])
        left.append(_flat([[inv_c, q_form * k[c]],
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
    if s not in atom_alphabet(datum):
        raise ValueError("the affine wall atom is implemented for rank one only")
    n = 1
    b = s.root.vec[0]
    u = MPoly.var(n, 0)
    theta_mat = _flat([[u * (-b), (u * u) * b],
                       [MPoly.const(n, b), u * (-b)]])
    invs = fundamental_invariants(datum)
    theta = [theta_mat for _ in invs]
    q_form = u * u
    left = [_flat([[MPoly.zero(n), q_form],
                   [MPoly.const(n, 1), MPoly.zero(n)]])]
    return GradedCModule(datum, (-1, 1), theta, left)


def atom_alphabet(datum: RootDatum) -> list[SimpleReflection]:
    """The letters that have a wall atom: all of them in rank one, the finite
    ones otherwise, since the affine wall atom exists in rank one only."""
    rank_one = datum.rank == 1 and datum.nsimples == 1
    return [s for s in simple_reflections(datum) if rank_one or s.kind == "finite"]


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
    rule theta(x & y) = theta(x) & y + x & theta(y), with each term of the
    first factor carried across the second factor by its monomial matrix
    (``_carry``).
    """
    if m.datum is not n.datum:
        raise ValueError("tensor factors live over different data")
    datum = m.datum
    sn = n.size()
    gens = tuple(g + h for g in m.gens for h in n.gens)
    powers: dict[tuple, OpMap] = {}  # of the second factor, dropped on return
    theta_out = []
    for mt, nt in zip(m.theta, n.theta):
        # the second factor's operator on each first-factor generator
        acc = {(i * sn + bq, i * sn + k, e): c for i in range(m.size())
               for (bq, k, e), c in nt.items()}
        theta_out.append(_carry(mt, n, powers, acc))
    left_out = [_carry(t, n, powers, {}) for t in m.left]
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
    dims: dict[int, int] = {}
    for d in range(-cutoff, cutoff + 1):
        dims[d] = _hom_dim(m, n, d)
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


def _hom_dim(m: GradedCModule, n: GradedCModule, d: int) -> int:
    """Dimension of the degree-d maps m -> n that commute with the wall
    operators: the unknowns are one coefficient per (generator of m,
    generator of n, monomial), and each wall operator, source generator,
    target generator and output monomial gives one sparse row of
    theta_j phi - phi theta_j."""
    add = operator.add
    r = m.nvars
    unknowns = 0
    into: dict[int, list] = {}    # generator a of n -> (i, monomial, unknown)
    outof: dict[int, list] = {}   # generator i of m -> (a, monomial, unknown)
    for i, gi in enumerate(m.gens):
        for a, ha in enumerate(n.gens):
            t2 = gi + d - ha
            if t2 < 0 or t2 % 2:
                continue
            for mono in monomials_of_degree(r, t2 // 2):
                into.setdefault(a, []).append((i, mono, unknowns))
                outof.setdefault(i, []).append((a, mono, unknowns))
                unknowns += 1
    if not unknowns:
        return 0
    # (j, source generator, target generator, output monomial) -> row
    rows: dict[tuple, dict[int, int]] = {}
    for j, (mt, nt) in enumerate(zip(m.theta, n.theta)):
        for (b, a, e), c in nt.items():   # theta after phi
            for i, mono, uidx in into.get(a, ()):
                row = rows.setdefault((j, i, b, tuple(map(add, e, mono))), {})
                row[uidx] = row.get(uidx, 0) + c
        for (a2, i, e), c in mt.items():   # phi after theta
            for b, mono, uidx in outof.get(a2, ()):
                row = rows.setdefault((j, i, b, tuple(map(add, e, mono))), {})
                row[uidx] = row.get(uidx, 0) - c
    return unknowns - linalg.sparse_rank(list(rows.values()))


def modules_equal(m: GradedCModule, n: GradedCModule) -> bool:
    """Equality on the nose: same generators and identical operator tables."""
    return (m.datum is n.datum and m.gens == n.gens and m.theta == n.theta
            and m.left == n.left)


# -- comparison with the algebra side -----------------------------------------------------------


def oracle_vs_hecke(datum: RootDatum, left: tuple, right: tuple,
                    cutoff: int = 16) -> dict:
    """Compare the oracle's graded Hom rank between two chains with the
    pairing prediction from the spherical module."""
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
