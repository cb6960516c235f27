"""Exact Laurent polynomials in one variable over the integers, and the
free modules over them that the package computes in.

The single variable is called ``v`` throughout; the q-analogue module reuses
the same type with the dictionary q = v^(-2) handled by
:meth:`LaurentPoly.substitute_power`.
Values are immutable and kept in canonical form (no zero coefficients), so
equality of values is equality of the underlying sparse maps.

``Combination`` is the sparse-combination core of the Hecke algebra's
standard basis and of the spherical module: a map from basis keys to nonzero
Laurent coefficients with its linear structure.  Sums of terms go through
``add_into``, which drops a key whose coefficient cancels.

``pack`` writes a polynomial as one integer, its value at v = 2^width with
one signed digit per exponent from a chosen base up, and ``unpack`` reads
it back.  While the digits stay in range, sums, integer multiples, products
and multiplication by v^{+-1} (a shift by one digit) act on the integers as
on the polynomials; the Hecke algebra's letter-chain kernel computes its
coefficients this way.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping, Union

IntLike = Union[int, "LaurentPoly"]


class LaurentPoly:
    """Sparse Laurent polynomial with arbitrary-precision integer coefficients.

    >>> f = LaurentPoly({1: 1, -1: 1})
    >>> print(f * f)
    v^-2 + 2 + v^2
    >>> print(f - f)
    0
    >>> (f * f).bar() == f * f
    True
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        c: dict[int, int] = {}
        if coeffs is not None:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for e, a in items:
                e, a = exact_int(e), exact_int(a)
                s = c.get(e, 0) + a
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        self._c = c
        self._hash: int | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(a: int) -> "LaurentPoly":
        return LaurentPoly({0: a}) if a else ZERO

    @staticmethod
    def coerce(x: IntLike) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

    # -- inspection ------------------------------------------------------------

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def items(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs, lowest exponent first."""
        return sorted(self._c.items())

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def at_one(self) -> int:
        """Evaluate at v = 1 (sum of coefficients)."""
        return sum(self._c.values())

    def in_v_inverse(self) -> bool:
        """True iff all exponents are strictly negative (element of v^-1 Z[v^-1])."""
        return all(e < 0 for e in self._c)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self._c.values())

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: IntLike) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        if not self._c:
            return other
        if not other._c:
            return self
        c = dict(self._c)
        for e, a in other._c.items():
            b = c.get(e, 0) + a
            if b:
                c[e] = b
            else:
                del c[e]
        return _wrap(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -a for e, a in self._c.items()})

    def __sub__(self, other: IntLike) -> "LaurentPoly":
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other: IntLike) -> "LaurentPoly":
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other: IntLike) -> "LaurentPoly":
        other = LaurentPoly.coerce(other)
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for e1, a1 in a.items():
            for e2, a2 in b.items():
                e = e1 + e2
                s = c.get(e, 0) + a1 * a2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        return _wrap(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        return power(self, n, ONE)

    # -- involutions and substitutions ------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^(-1) (exponent negation)."""
        return _wrap({-e: a for e, a in self._c.items()})

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute v -> v^k for a nonzero integer k."""
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return _wrap({k * e: a for e, a in self._c.items()})

    def sym_complete(self) -> "LaurentPoly":
        """The unique bar-invariant g with f - g supported in negative exponents.

        Concretely g = f_0 + sum_{i>0} f_i (v^i + v^-i).

        >>> print(LaurentPoly({0: 1, -2: 1}).sym_complete())
        1
        >>> print(LaurentPoly({3: 1}).sym_complete())
        v^-3 + v^3
        """
        c: dict[int, int] = {}
        for e, a in self._c.items():
            if e == 0:
                c[0] = c.get(0, 0) + a
            elif e > 0:
                c[e] = c.get(e, 0) + a
                c[-e] = c.get(-e, 0) + a
        return _wrap({e: a for e, a in c.items() if a})

    # -- comparison and hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    # -- rendering -----------------------------------------------------------------

    def fmt(self, symbol: str = "v") -> str:
        """Canonical text form, lowest exponent first: ``v^-2 + 2 + v^2``."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, a in self.items():
            mag = abs(a)
            if e == 0:
                body = str(mag)
            else:
                var = symbol if e == 1 else f"{symbol}^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.fmt()

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def to_json(self) -> dict[str, int]:
        """Exponent -> coefficient map with keys ordered lowest exponent first."""
        return {str(e): a for e, a in self.items()}


def exact_int(x) -> int:
    """x read as an int: ints, bools and integral floats such as 3.0 are
    read as their int.  A value that its int does not equal (2.5, "2",
    None) is a ValueError naming it.

    >>> exact_int(3.0), exact_int(True)
    (3, 1)
    """
    try:
        out = int(x)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != x:
        raise ValueError(f"{x!r} is not an integer")
    return out


def power(x, n: int, one):
    """x ** n by binary powering, with no product by ``one`` and no square
    after the last bit: n = 2 makes one product.  A negative n is a ValueError."""
    if n < 0:
        raise ValueError(f"negative power {n} of a {type(x).__name__} value")
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one if out is None else out


def _wrap(c: dict[int, int]) -> LaurentPoly:
    """The value whose term map is c itself, with no check or copy: c must
    hold only nonzero int coefficients."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = c
    out._hash = None
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
V_INV = LaurentPoly({-1: 1})
XI = LaurentPoly({1: 1, -1: -1})  # v - v^-1


def v_power(k: int) -> LaurentPoly:
    return _wrap({k: 1})


def pack(f: LaurentPoly, base: int, width: int) -> int:
    """f as one integer: the coefficient of v^e is the signed width-bit digit
    e - base, that is, the value at v = 2^width times 2^(-width * base).  The
    digits are exact when every coefficient lies in -2^(width-1)..2^(width-1)
    - 1 and no exponent is below base.

    Sums, integer multiples and products of packed values are those of the
    polynomials while the digits stay in range, and so are shifts: v * f is
    n << width, and v^-1 * f is n >> width when the digit at base is 0.

    >>> pack(LaurentPoly({-1: 1, 1: -2}), -1, 64) == 1 - (2 << 128)
    True
    """
    n = 0
    for e, a in f._c.items():
        n += a << (width * (e - base))
    return n


def unpack(n: int, base: int, width: int) -> LaurentPoly:
    """The polynomial of a packed value (``pack``); width is a multiple of 64.

    The two's-complement bytes of n are read as 64-bit words, the words of
    each digit are joined, and one pass from the lowest digit turns the
    unsigned digits into signed ones, carrying 1 into the next digit from
    each digit that is at least 2^(width-1).

    >>> print(unpack(pack(V - 3 * V_INV, -4, 64), -4, 64))
    -3*v^-1 + v
    """
    if not n:
        return ZERO
    k = width >> 6
    size = (n.bit_length() + 1) // width + 1   # room for the sign
    order = sys.byteorder
    words = memoryview(n.to_bytes(8 * k * size, order, signed=True)).cast("Q").tolist()
    if order == "big":
        words.reverse()
    digits = words[::k]
    for j in range(1, k):
        digits = [d | w << (64 * j) for d, w in zip(digits, words[j::k])]
    half = 1 << (width - 1)
    full = half << 1
    c: dict[int, int] = {}
    carry = 0
    for a in digits:
        a += carry
        carry = a >= half
        if carry:
            a -= full
        if a:
            c[base] = a
        base += 1
    return _wrap(c)


# -- sparse combinations ------------------------------------------------------------


def add_into(acc: dict, terms, c: LaurentPoly | None = None) -> None:
    """Add c times the (key, coefficient) pairs of terms into the map acc, in
    place (c = 1 when omitted).  A key whose coefficient cancels is dropped.

    >>> acc = {"a": V}
    >>> add_into(acc, [("a", -ONE), ("b", V)], V)
    >>> acc
    {'b': LaurentPoly({2: 1})}
    """
    for k, a in terms:
        if c is not None:
            a = a * c
        s = acc.get(k)
        if s is not None:
            a = s + a
        if a:
            acc[k] = a
        elif s is not None:
            del acc[k]


class Combination:
    """A finite combination of basis keys over a datum, with nonzero Laurent
    coefficients.  Subclasses order the keys (``_order``), label them
    (``_label``) and define the products; this class is the linear structure.
    """

    __slots__ = ("datum", "_m")

    def __init__(self, datum, terms: dict):
        self.datum = datum
        self._m = terms

    @classmethod
    def zero(cls, datum):
        return cls(datum, {})

    def coeff(self, key) -> LaurentPoly:
        return self._m.get(key, ZERO)

    def items(self) -> list[tuple]:
        """Terms sorted by the basis order of the subclass."""
        return sorted(self._m.items(), key=lambda kv: self._order(kv[0]))

    def support(self) -> list:
        return [k for k, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._m

    def __bool__(self) -> bool:
        return bool(self._m)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if other.datum is not self.datum:
            raise ValueError("operands live over different data")
        m = dict(self._m)
        add_into(m, other._m.items())
        return type(self)(self.datum, m)

    def __neg__(self):
        return type(self)(self.datum, {k: -c for k, c in self._m.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = LaurentPoly.coerce(c)
        if not c:
            return self.zero(self.datum)
        return type(self)(self.datum, {k: a * c for k, a in self._m.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self._m == other._m
        return NotImplemented

    __hash__ = None  # not hashable: the terms are a plain dict

    def terms_text(self) -> str:
        """The terms in order, as ``label`` or ``(coeff)*label``; ``0`` if none."""
        if not self._m:
            return "0"
        bits = []
        for k, c in self.items():
            label, coeffs = self._label(k), str(c)
            bits.append(label if coeffs == "1" else f"({coeffs})*{label}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms_text()})"
