"""Root data and finite Weyl groups.

A root datum here is a weight lattice X = Z^rank together with simple roots
(vectors in X) and simple coroots (integer functionals on X).  Weights are
int tuples in the X basis, coweights are int tuples in the dual basis, and
the pairing is the dot product; X may be in any basis, since a weight with
given simple-coroot pairings comes from ``RootDatum.weight_from_pairings``.
Every weight argument is read by ``RootDatum.weight`` (``highest_weight`` also
requires dominance): integral, one entry per coordinate of X, or a ValueError.
Weyl elements act on X by integer matrices; they are interned per datum, and
their products are memoised in the datum's ``_weyl_state`` tables.  Every
value computed once per datum, by any layer, is held by name in
``RootDatum._once``; the ``Tables`` of each layer hold only memo tables.

Construction validates the generalized Cartan matrix, finite type (the root
closure must terminate), and the standing assumption that the coweight
lattice modulo the coroot lattice is torsion-free.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

from . import linalg

Vec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_CLOSURE_CAP = 2000


def pair(vec: Sequence[int], cov: Sequence[int]) -> int:
    """Natural pairing of a weight with a coweight (dot product)."""
    return sum(a * b for a, b in zip(vec, cov))


def vec_add(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Sequence[int]) -> Vec:
    return tuple(-x for x in a)


def vec_scale(k: int, a: Sequence[int]) -> Vec:
    return tuple(k * x for x in a)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: Matrix, v: Sequence[int]) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


@dataclass(frozen=True)
class PosRoot:
    """A positive root with its coroot and both coordinate expansions.

    root_coords / coroot_coords are the integer coefficients in terms of the
    simple roots / simple coroots respectively.
    """

    vec: Vec
    cov: Vec
    root_coords: Vec
    coroot_coords: Vec

    @property
    def height(self) -> int:
        return sum(self.root_coords)

    @property
    def dual_height(self) -> int:
        return sum(self.coroot_coords)


class WeylElt:
    """An element of the finite Weyl group, stored as its matrix on X.

    Elements are interned per datum, one object per matrix, and each is
    hashed by the serial it got when interned, so distinct elements of a
    datum never share a hash.  The inversion set (the positive roots that w
    makes negative) is computed once per element; the length and the
    descents read it.
    """

    __slots__ = ("datum", "matrix", "_serial", "_inv", "_inversions")

    def __init__(self, datum: "RootDatum", matrix: Matrix, serial: int):
        self.datum = datum
        self.matrix = matrix
        self._serial = serial
        self._inv: "WeylElt | None" = None
        self._inversions: tuple[int, ...] | None = None

    def act(self, v: Sequence[int]) -> Vec:
        return mat_vec(self.matrix, v)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        table = self.datum._weyl_state.mul
        key = (self._serial, other._serial)
        out = table.get(key)
        if out is None:
            out = table[key] = self.datum._intern_weyl(mat_mul(self.matrix, other.matrix))
        return out

    def inverse(self) -> "WeylElt":
        if self._inv is None:
            # a Weyl element has determinant +-1, so its inverse is integral
            det, adj = linalg.inverse(self.matrix)
            mat = tuple(tuple(x // det for x in row) for row in adj)
            self._inv = self.datum._intern_weyl(mat)
            self._inv._inv = self
        return self._inv

    @property
    def inversions(self) -> tuple[int, ...]:
        """1 at each positive root (in ``positive_roots`` order) that w makes
        negative, 0 at the others."""
        if self._inversions is None:
            neg = self.datum._negative_root_set
            self._inversions = tuple(int(mat_vec(self.matrix, r.vec) in neg)
                                     for r in self.datum.positive_roots())
        return self._inversions

    @property
    def length(self) -> int:
        return sum(self.inversions)

    def is_identity(self) -> bool:
        return self is self.datum.weyl_identity()

    def descents(self) -> list[int]:
        """Simple indices i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
        inv = self.inversions
        return [i for i, k in enumerate(self.datum._simple_positions) if inv[k]]

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced expression as simple indices, chosen by smallest descent."""
        out: list[int] = []
        w = self
        while True:
            ds = w.descents()
            if not ds:
                break
            i = ds[0]
            out.append(i)
            w = w * self.datum.simple_reflection(i)
        if w.length != 0:
            raise RuntimeError("descent recursion failed to reach the identity")
        out.reverse()
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeylElt):
            return self.matrix == other.matrix and self.datum is other.datum
        return NotImplemented

    def __hash__(self) -> int:
        return self._serial

    def __reduce__(self):
        # a copy hashes by its serial while the datum's tables holding it are copied
        return WeylElt, (self.datum, self.matrix, self._serial)

    def __deepcopy__(self, memo):
        # copying the datum copies its ``intern`` table, which holds this
        # element: then the copy interned there is the answer
        datum = copy.deepcopy(self.datum, memo)
        held = memo.get(id(self))
        if held is None:
            held = memo[id(self)] = WeylElt(datum, self.matrix, self._serial)
        return held

    def __repr__(self) -> str:
        word = ".".join(f"s{i + 1}" for i in self.reduced_word())
        return f"WeylElt({word or 'e'})"


class Tables:
    """Named memo tables of one layer of a datum: one dict per name given,
    made empty here.  Any other name raises ``AttributeError``, so a misspelt
    table is an error, not a second table.  A value computed once per datum
    is not a table entry: every layer keeps those in ``RootDatum._once``.
    Beside its interning table the affine layer holds one list, its
    elements in serial order (``by_serial``), set in ``RootDatum``.
    """

    def __init__(self, *names: str):
        for name in names:
            setattr(self, name, {})


def _int_vectors(rows, what: str) -> tuple[Vec, ...]:
    """rows as integer tuples.  Any entry that is not an int is a ValueError:
    2.9 is not truncated to 2, and neither "2" nor true is read as a number.
    """
    if isinstance(rows, (list, tuple)) and all(
            isinstance(r, (list, tuple))
            and all(isinstance(x, int) and not isinstance(x, bool) for x in r)
            for r in rows):
        return tuple(tuple(r) for r in rows)
    raise ValueError(f"{what} must be lists of integers, got {rows!r}")


class RootDatum:
    """A finite-type root datum with torsion-free coweight quotient."""

    def __init__(self, simple_roots: Sequence[Sequence[int]],
                 simple_coroots: Sequence[Sequence[int]],
                 name: str = "custom"):
        self.simple_roots: tuple[Vec, ...] = _int_vectors(simple_roots, "simple roots")
        self.simple_coroots: tuple[Vec, ...] = _int_vectors(simple_coroots, "simple coroots")
        self.name = name
        if len(self.simple_roots) != len(self.simple_coroots):
            raise ValueError("simple roots and coroots must come in equal number")
        if not self.simple_roots:
            raise ValueError("at least one simple root is required")
        ranks = {len(r) for r in self.simple_roots} | {len(c) for c in self.simple_coroots}
        if len(ranks) != 1:
            raise ValueError("all simple roots and coroots must have the same length")
        self.rank: int = ranks.pop()
        self.nsimples: int = len(self.simple_roots)
        # every value computed once per datum, by name, whatever layer needs
        # it: two_rho, identity, simple_reflections, weyl_elements and
        # coroot_inverse here; affine_simples and omegas (affine); root_solve
        # and form (qanalogue); invariants (soergel)
        self._once: dict[str, object] = {}
        # Weyl elements interned by matrix, and their products keyed by the
        # serials of the two factors
        self._weyl_state = Tables("intern", "mul")
        # the memo tables of each layer, filled by that layer's module (the
        # module layer's ``validated`` holds the module contents that passed
        # validation); the benchmark's tracer reads these attribute names and
        # table names
        self._affine_state = Tables("elts", "mul_simple", "reduced", "min_reps")
        # the interned affine elements in serial order (an element's serial
        # is its index), which the T-basis kernel reads its results from
        self._affine_state.by_serial = []
        self._hecke_state = Tables("theta", "letters", "steps")
        self._sph_state = Tables("act_simple", "bar_basis", "canonical")
        self._q_state = Tables("kostant", "partial", "orbits", "freud", "weights")
        self._mod_state = Tables("twists", "atoms", "chains", "validated")
        self._validate()

    # -- validation -------------------------------------------------------------

    def cartan_matrix(self) -> Matrix:
        """Entries a[i][j] = <alpha_j, alpha_i-check>."""
        return tuple(tuple(pair(self.simple_roots[j], self.simple_coroots[i])
                           for j in range(self.nsimples)) for i in range(self.nsimples))

    def _validate(self) -> None:
        a = self.cartan_matrix()
        n = self.nsimples
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError(f"<alpha_{i + 1}, alpha_{i + 1}-check> must be 2, got {a[i][i]}")
            for j in range(n):
                if i == j:
                    continue
                if a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be nonpositive")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
        if linalg.rank(self.simple_roots) != n:
            raise ValueError("simple roots must be linearly independent")
        if linalg.rank(self.simple_coroots) != n:
            raise ValueError("simple coroots must be linearly independent")
        self._pos_roots = self._root_closure()  # raises when it does not terminate
        self._negative_root_set = frozenset(vec_neg(r.vec) for r in self._pos_roots)
        self._pos_coroots: Matrix = tuple(r.cov for r in self._pos_roots)
        self._simple_positions = tuple(
            next(k for k, r in enumerate(self._pos_roots) if r.vec == a)
            for a in self.simple_roots)
        self._check_coweight_torsion()

    def _check_coweight_torsion(self) -> None:
        # coweights mod coroots is torsion-free iff the gcd of all maximal
        # minors of the coroot matrix is 1
        k = self.nsimples
        rows = [list(c) for c in self.simple_coroots]
        g = 0
        for cols in itertools.combinations(range(self.rank), k):
            minor = linalg.det([[row[c] for c in cols] for row in rows])
            g = math.gcd(g, minor)
            if g == 1:
                return
        raise ValueError(
            "coweight lattice modulo the coroot lattice has torsion "
            f"(minor gcd {g}); this datum is outside the supported class")

    # -- roots -------------------------------------------------------------------

    def positive_roots(self) -> tuple[PosRoot, ...]:
        return self._pos_roots

    def _root_closure(self) -> tuple[PosRoot, ...]:
        n = self.nsimples
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen: dict[Vec, PosRoot] = {}
        queue: list[PosRoot] = []
        for i in range(n):
            r = PosRoot(self.simple_roots[i], self.simple_coroots[i], unit[i], unit[i])
            seen[r.vec] = r
            queue.append(r)
        head = 0
        while head < len(queue):
            beta = queue[head]
            head += 1
            for i in range(n):
                if beta.root_coords == unit[i]:
                    continue
                p = pair(beta.vec, self.simple_coroots[i])
                q = pair(self.simple_roots[i], beta.cov)
                new = PosRoot(
                    vec_sub(beta.vec, vec_scale(p, self.simple_roots[i])),
                    vec_sub(beta.cov, vec_scale(q, self.simple_coroots[i])),
                    vec_sub(beta.root_coords, vec_scale(p, unit[i])),
                    vec_sub(beta.coroot_coords, vec_scale(q, unit[i])),
                )
                if any(x < 0 for x in new.root_coords):
                    raise ValueError("root closure left the positive cone; invalid datum")
                if new.vec not in seen:
                    seen[new.vec] = new
                    queue.append(new)
                    if len(seen) > _CLOSURE_CAP:
                        raise ValueError(
                            f"root closure exceeded {_CLOSURE_CAP} roots; not finite type")
        return tuple(sorted(seen.values(), key=lambda r: (r.height, r.root_coords)))

    def two_rho(self) -> Vec:
        """Sum of the positive roots."""
        if "two_rho" not in self._once:
            out = (0,) * self.rank
            for r in self._pos_roots:
                out = vec_add(out, r.vec)
            self._once["two_rho"] = out
        return self._once["two_rho"]

    # -- Weyl group ---------------------------------------------------------------

    def _intern_weyl(self, matrix: Matrix) -> WeylElt:
        intern = self._weyl_state.intern
        w = intern.get(matrix)
        if w is None:
            w = intern[matrix] = WeylElt(self, matrix, len(intern))
        return w

    def weyl_identity(self) -> WeylElt:
        ident = self._once.get("identity")
        if ident is None:
            ident = self._once["identity"] = self._intern_weyl(mat_identity(self.rank))
        return ident

    def _reflection(self, root: Vec, cov: Vec) -> WeylElt:
        """The reflection lam -> lam - <lam, cov> root."""
        mat = tuple(tuple((1 if r == c else 0) - root[r] * cov[c] for c in range(self.rank))
                    for r in range(self.rank))
        return self._intern_weyl(mat)

    def simple_reflection(self, i: int) -> WeylElt:
        refl = self._once.get("simple_reflections")
        if refl is None:
            refl = self._once["simple_reflections"] = tuple(
                self._reflection(a, c) for a, c in zip(self.simple_roots, self.simple_coroots))
        return refl[i]

    def reflection_of(self, root: PosRoot) -> WeylElt:
        return self._reflection(root.vec, root.cov)

    def weyl_elements(self) -> tuple[WeylElt, ...]:
        """All Weyl elements in breadth-first order from the identity."""
        if "weyl_elements" in self._once:
            return self._once["weyl_elements"]
        simples = [self.simple_reflection(i) for i in range(self.nsimples)]
        order: list[WeylElt] = [self.weyl_identity()]
        seen = {order[0]}
        head = 0
        while head < len(order):
            w = order[head]
            head += 1
            for s in simples:
                nxt = w * s
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        out = self._once["weyl_elements"] = tuple(order)
        return out

    def longest_element(self) -> WeylElt:
        best = max(self.weyl_elements(), key=lambda w: w.length)
        top = [w for w in self.weyl_elements() if w.length == best.length]
        if len(top) != 1:
            raise RuntimeError("longest element is not unique; invalid datum")
        return best

    # -- weights ------------------------------------------------------------------

    def weight(self, lam) -> Vec:
        """lam as a tuple of ints, one per coordinate of X: [1, 3.0] reads as
        (1, 3).  An entry that its int does not equal (2.9, "2"), a wrong
        length or a non-sequence is a ValueError naming lam."""
        try:
            out = tuple(map(int, lam))
        except (TypeError, ValueError, OverflowError):
            out = ()   # every datum has rank at least one
        if len(out) != self.rank or (out != lam and out != tuple(lam)):
            raise ValueError(f"weight {lam!r} is not an integer weight of rank {self.rank}")
        return out

    def highest_weight(self, eta) -> Vec:
        """``weight(eta)``, which must also be dominant (a ValueError otherwise)."""
        out = self.weight(eta)
        if not self.is_dominant(out):
            raise ValueError(f"weight {out} must be dominant")
        return out

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return all(pair(lam, c) >= 0 for c in self.simple_coroots)

    def chamber_walk(self, lam: Sequence[int]) -> tuple[Vec, list[int]]:
        """Reflect lam by a simple reflection s_i with <lam, alpha_i-check> < 0
        (the smallest such i) until it is dominant.

        Returns the dominant weight lam_dom and the indices i_1, ..., i_k of
        the reflections taken, so that lam = u(lam_dom) with
        u = s_i1 ... s_ik.  Each step lengthens u by one, so the word is
        reduced, and u is the shortest element with lam = u(lam_dom).
        """
        lam = self.weight(lam)
        word = []
        while True:
            for i, cov in enumerate(self.simple_coroots):
                p = pair(lam, cov)
                if p < 0:
                    lam = vec_sub(lam, vec_scale(p, self.simple_roots[i]))
                    word.append(i)
                    break
            else:
                return lam, word

    # -- structure -------------------------------------------------------------------

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the Coxeter diagram, as simple-index tuples."""
        a = self.cartan_matrix()
        n = self.nsimples
        seen: set[int] = set()
        comps: list[tuple[int, ...]] = []
        for start in range(n):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(n):
                    if j not in seen and a[i][j] != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def highest_dual_root(self, component: tuple[int, ...]) -> PosRoot:
        """The root of the component whose coroot has maximal dual height."""
        comp = set(component)
        candidates = [r for r in self.positive_roots()
                      if {i for i, c in enumerate(r.root_coords) if c} <= comp]
        best = max(candidates, key=lambda r: r.dual_height)
        top = [r for r in candidates if r.dual_height == best.dual_height]
        if len(top) != 1:
            raise RuntimeError("highest coroot is not unique; invalid component")
        return best

    def fundamental_group_order(self) -> int | None:
        """Order of X modulo the root lattice, or None when infinite."""
        if self.nsimples != self.rank:
            return None
        det = linalg.det([list(col) for col in zip(*self.simple_roots)])
        return abs(det)

    def weight_from_pairings(self, pairings: Sequence[int]) -> Vec:
        """The weight lam with <lam, alpha_i-check> = pairings[i].  With a finite
        fundamental group the torsion check makes the coroot matrix C unimodular,
        so lam = C^-1 pairings (C^-1 is held per datum); with central directions
        the pairings do not determine lam, and ``ValueError`` is raised.

        >>> RootDatum([[-7, -1], [17, 2]], [[1, -9], [0, 1]]).weight_from_pairings((0, 1))
        (9, 1)
        """
        inv = self._once.get("coroot_inverse")
        if inv is None:
            if self.nsimples != self.rank:
                raise ValueError("this datum has central directions; pairings do not fix a weight")
            det, adj = linalg.inverse(self.simple_coroots)   # det is +-1
            inv = self._once["coroot_inverse"] = tuple(tuple(x // det for x in r) for r in adj)
        return mat_vec(inv, pairings)

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "simple_roots": [list(r) for r in self.simple_roots],
            "simple_coroots": [list(c) for c in self.simple_coroots],
        }

    def __repr__(self) -> str:
        return f"RootDatum({self.name!r}, rank={self.rank})"


# -- presets and loading ---------------------------------------------------------------


def _simply_connected(cartan: Sequence[Sequence[int]], name: str) -> RootDatum:
    # weight lattice spanned by fundamental weights: coroots are unit covectors,
    # roots are the Cartan columns
    n = len(cartan)
    roots = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    coroots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return RootDatum(roots, coroots, name)


def _general_linear(n: int) -> RootDatum:
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return RootDatum(roots, roots, f"GL{n}")


_PRESET_CARTANS = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def _build_preset(token: str) -> RootDatum:
    if token in _PRESET_CARTANS:
        return _simply_connected(_PRESET_CARTANS[token], token)
    if token.startswith("GL") and token[2:].isdigit():
        n = int(token[2:])
        if n < 2:
            raise ValueError("GL presets need n >= 2")
        return _general_linear(n)
    raise ValueError(f"unknown preset {token!r}; known: A1 A2 B2 G2 GLn and x-products")


def product_datum(a: RootDatum, b: RootDatum, name: str | None = None) -> RootDatum:
    """Block-diagonal product of two data."""
    ra, rb = a.rank, b.rank
    roots = [r + (0,) * rb for r in a.simple_roots] + [(0,) * ra + r for r in b.simple_roots]
    coroots = [c + (0,) * rb for c in a.simple_coroots] + [(0,) * ra + c for c in b.simple_coroots]
    return RootDatum(roots, coroots, name or f"{a.name}x{b.name}")


def datum_preset(name: str) -> RootDatum:
    """Build a named preset; factors joined by 'x' give block products.

    >>> datum_preset("A1xA1").rank
    2
    """
    tokens = name.split("x")
    datum = _build_preset(tokens[0])
    for token in tokens[1:]:
        datum = product_datum(datum, _build_preset(token))
    datum.name = name
    return datum


def datum_from_json(obj) -> RootDatum:
    """The datum of a JSON object with ``simple_roots`` and ``simple_coroots``
    (and an optional ``name``), or the block product of a nonempty list of
    them.  Any other shape is a ValueError naming what is wrong."""
    if isinstance(obj, list):
        if not obj:
            raise ValueError("a datum list must hold at least one datum")
        datum = datum_from_json(obj[0])
        for block in obj[1:]:
            datum = product_datum(datum, datum_from_json(block))
        return datum
    if not isinstance(obj, dict):
        raise ValueError("a datum must be a JSON object or a list of them, "
                         f"got {json.dumps(obj)}")
    missing = [key for key in ("simple_roots", "simple_coroots") if key not in obj]
    if missing:
        raise ValueError(f"the datum object has no {' or '.join(missing)}")
    return RootDatum(obj["simple_roots"], obj["simple_coroots"], obj.get("name", "custom"))


def datum_from_file(path: str) -> RootDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return datum_from_json(json.load(fh))


def load_datum(spec: str) -> RootDatum:
    """Resolve a preset name or a path to a JSON datum file."""
    if "/" in spec or spec.endswith(".json"):
        return datum_from_file(spec)
    return datum_preset(spec)

