"""Multivariate polynomials with integer coefficients, exact and immutable.

Monomials are exponent tuples over a fixed number of variables.  This is a
minimal engine for the graded-module oracle: ring operations, linear
variable substitution and partial derivatives.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .laurent import exact_int, power


class MPoly:
    """A sparse integer polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_c", "_hash")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, int] | None = None):
        self.nvars = nvars
        c: dict[tuple, int] = {}
        if coeffs:
            for exps, a in coeffs.items():
                exps, a = tuple(map(exact_int, exps)), exact_int(a)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad monomial {exps} for {nvars} variables")
                if not a:
                    continue
                s = c.get(exps, 0) + a
                if s:
                    c[exps] = s
                elif exps in c:
                    del c[exps]
        self._c = c
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars)

    @staticmethod
    def const(nvars: int, a: int) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: a})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        _check_index(nvars, i)
        return MPoly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})

    @staticmethod
    def linear(coeffs: Sequence[int]) -> "MPoly":
        n = len(coeffs)
        return MPoly(n, {tuple(int(i == j) for j in range(n)): a for i, a in enumerate(coeffs)})

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def items(self) -> list[tuple[tuple, int]]:
        return sorted(self._c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def total_degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e in self._c)

    def leading_sign(self) -> int:
        if not self._c:
            return 0
        key = max(self._c, key=lambda e: (sum(e), e))
        return 1 if self._c[key] > 0 else -1

    # -- arithmetic ---------------------------------------------------------------

    def _same_ring(self, other) -> None:
        if not isinstance(other, MPoly):
            raise TypeError(f"cannot combine MPoly with {type(other).__name__}")
        if other.nvars != self.nvars:
            raise ValueError(f"operands have {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._same_ring(other)
        c = dict(self._c)
        for e, a in other._c.items():
            s = c.get(e, 0) + a
            if s:
                c[e] = s
            elif e in c:
                del c[e]
        return _wrap(self.nvars, c)

    def __neg__(self) -> "MPoly":
        return _wrap(self.nvars, {e: -a for e, a in self._c.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, int):
            if not other:
                return MPoly.zero(self.nvars)
            return _wrap(self.nvars, {e: a * other for e, a in self._c.items()})
        self._same_ring(other)
        c: dict[tuple, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = c.get(e, 0) + a1 * a2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        return _wrap(self.nvars, c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        return power(self, n, MPoly.const(self.nvars, 1))

    # -- substitution and calculus ----------------------------------------------------

    def substitute_linear(self, mat: Sequence[Sequence[int]]) -> "MPoly":
        """Replace variable i by the linear form sum_j mat[i][j] u_j; mat is
        square, with one row and one column per variable."""
        if len(mat) != self.nvars or any(len(row) != self.nvars for row in mat):
            raise ValueError(f"substitution needs a {self.nvars} x {self.nvars} matrix")
        forms = [MPoly.linear(row) for row in mat]
        out = MPoly.zero(self.nvars)
        for e, a in self._c.items():
            term = MPoly.const(self.nvars, a)
            for form, k in zip(forms, e):
                if k:
                    term = term * form ** k
            out = out + term
        return out

    def deriv(self, i: int) -> "MPoly":
        _check_index(self.nvars, i)
        c: dict[tuple, int] = {}
        for e, a in self._c.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                c[tuple(e2)] = a * e[i]
        return MPoly(self.nvars, c)

    def coeff(self, exps: tuple) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"monomial {exps} does not have {self.nvars} exponents")
        return self._c.get(exps, 0)

    # -- comparison / rendering --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self._c == other._c
        if isinstance(other, int):
            return self._c == ({(0,) * self.nvars: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(sorted(self._c.items()))))
        return self._hash

    def __str__(self) -> str:
        if not self._c:
            return "0"
        bits = []
        for e, a in self.items():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"u{i + 1}")
                elif k > 1:
                    factors.append(f"u{i + 1}^{k}")
            body = "*".join(factors)
            mag = abs(a)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not bits:
                bits.append(body if a > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(bits)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {dict(self.items())!r})"


def _check_index(nvars: int, i: int) -> None:
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} outside 0..{nvars - 1}")


def _wrap(nvars: int, c: dict[tuple, int]) -> MPoly:
    """The polynomial whose term map is c itself, with no check or copy: c
    must hold only nonzero int coefficients on monomials of nvars variables."""
    out = MPoly.__new__(MPoly)
    out.nvars, out._c, out._hash = nvars, c, None
    return out


def monomials_of_degree(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, lexicographic order."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out
