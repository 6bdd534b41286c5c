"""Exact integer polynomial arithmetic in the Conway variable z.

ZPoly is a dense, immutable polynomial with arbitrary-precision integer
coefficients.  LaurentZ is the companion Laurent polynomial in an auxiliary
variable x: the oracle builds one per determinant, det(x*V - x^-1*V^T), and
rewrites it in z = x - x^-1 in one pass over its coefficients; the tests
use it as a reference.  The kernels are `poly_mul`, `poly_add` and
`poly_exact_div`: one convolution, one sum and one long division on plain
coefficient sequences.  Every ZPoly and LaurentZ sum, product and quotient
goes through them, and the state sum, the twist recursion and the oracle's
elimination call them directly, so each builds one ZPoly per call.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from .errors import InternalConsistencyError, ParseError


def exact_div(numerator: int, divisor: int) -> int:
    """Integer division that refuses to round."""
    q, r = divmod(numerator, divisor)
    if r:
        raise InternalConsistencyError(
            f"non-integral division: {numerator} / {divisor}")
    return q


def binomial(alpha: int, n: int) -> int:
    """Generalized binomial coefficient C(alpha, n), alpha any integer, n >= 0."""
    if n < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for i in range(n):
        num *= alpha - i
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return exact_div(num, fact)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Coefficients of the product of two coefficient sequences, lowest
    degree first; every product of two polynomials in the package comes
    here.

    An empty factor gives ().  The state sum starts from 1 and marks each
    s region by 1, so most of its products have a factor of exactly (1,):
    the other factor is returned as it is.  The result may be an argument,
    so it must not be mutated.
    """
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def poly_add(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Coefficients of the sum of two coefficient sequences, lowest degree
    first; the result may end in zeros, and may be an argument."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_exact_div(num: Sequence[int], den: Sequence[int]) -> Sequence[int]:
    """Coefficients of num / den, lowest degree first, when den divides num
    exactly; raise InternalConsistencyError on any remainder.

    den must end in a nonzero coefficient; num may end in zeros.  The
    quotient ends in a nonzero coefficient, or is () when num is zero.  A
    den of exactly (1,) is not divided by, so the result may be num itself
    and must not be mutated.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    if not n:
        return ()
    if den == (1,):
        return num[:n]
    rem = list(num[:n])
    d = len(den) - 1
    lead = den[d]
    quot = [0] * (n - d)
    if not quot:
        raise InternalConsistencyError("inexact polynomial division")
    for i in range(n - d - 1, -1, -1):
        q, r = divmod(rem[i + d], lead)
        if r:
            raise InternalConsistencyError("inexact polynomial division")
        if q:
            quot[i] = q
            for j, c in enumerate(den, i):
                rem[j] -= q * c
    if any(rem[:d]):
        raise InternalConsistencyError("inexact polynomial division")
    return quot


class ZPoly:
    """Polynomial in z with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # A tuple that already ends in a nonzero coefficient is kept as is
        # (a full slice of a tuple is the tuple itself).
        cs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("ZPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ZPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ZPoly":
        return cls((1,))

    @classmethod
    def term(cls, coeff: int, exp: int) -> "ZPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        return cls((0,) * exp + (coeff,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """The z^i coefficient (0 beyond the degree)."""
        if i < 0:
            raise ValueError("negative index")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly(poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return ZPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, ZPoly):
            return NotImplemented
        return ZPoly(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("ZPoly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    # -- text and JSON forms -----------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                zs = "z" if exp == 1 else f"z^{exp}"
                body = zs if mag == 1 else f"{mag}{zs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ZPoly({self})"

    def to_pairs(self) -> list[list[int]]:
        """JSON form: ascending [exponent, coefficient] pairs of nonzero terms."""
        return [[e, c] for e, c in enumerate(self.coeffs) if c]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "ZPoly":
        items = [(int(e), int(c)) for e, c in pairs]
        if not items:
            return cls.zero()
        out = [0] * (max(e for e, _ in items) + 1)
        for e, c in items:
            if e < 0:
                raise ParseError("negative exponent in polynomial pairs")
            out[e] += c
        return cls(out)

    _TERM_RE = re.compile(
        r"(?P<coeff>[+-]?\d*)(?P<z>z(\^(?P<exp>\d+))?)?", re.ASCII)

    @classmethod
    def parse(cls, text: str) -> "ZPoly":
        """Parse the text form emitted by __str__, e.g. '-9z^3 - 4z^5'."""
        s = text.strip()
        if not s:
            raise ParseError("empty polynomial text")
        # Spaces may stand only around a sign, never inside a term; then
        # normalize separators so each term keeps its sign.
        s = re.sub(r" *([+-]) *", r"\1", s).replace("-", "+-")
        chunks = [c for c in s.split("+") if c]
        if not chunks:
            raise ParseError(f"cannot parse polynomial: {text!r}")
        terms = []
        for chunk in chunks:
            m = cls._TERM_RE.fullmatch(chunk)
            if not m:
                raise ParseError(f"bad polynomial term: {chunk!r}")
            coeff_s = m.group("coeff")
            has_z = m.group("z") is not None
            if coeff_s in ("", "+", "-"):
                if not has_z:
                    raise ParseError(f"bad polynomial term: {chunk!r}")
                coeff = -1 if coeff_s == "-" else 1
            else:
                coeff = int(coeff_s)
            exp = 0
            if has_z:
                exp = int(m.group("exp")) if m.group("exp") else 1
            terms.append((exp, coeff))
        return cls.from_pairs(terms)


def coefficient(f: ZPoly, i: int) -> int:
    """Extract the z^i coefficient of f."""
    return f.coefficient(i)


class LaurentZ:
    """Laurent polynomial in x with integer coefficients (internal helper)."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int = 0, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        start = 0
        while start < len(cs) and cs[start] == 0:
            start += 1
        cs = cs[start:]
        object.__setattr__(self, "lo", lo + start if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentZ is immutable")

    @classmethod
    def zero(cls) -> "LaurentZ":
        return cls(0, ())

    @classmethod
    def const(cls, c: int) -> "LaurentZ":
        return cls(0, (c,))

    @classmethod
    def x_power(cls, k: int, coeff: int = 1) -> "LaurentZ":
        return cls(k, (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int) -> int:
        i = e - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: "LaurentZ") -> "LaurentZ":
        lo = min(self.lo, other.lo)
        return LaurentZ(lo, poly_add((0,) * (self.lo - lo) + self.coeffs,
                                     (0,) * (other.lo - lo) + other.coeffs))

    def __neg__(self) -> "LaurentZ":
        return LaurentZ(self.lo, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentZ") -> "LaurentZ":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentZ(self.lo, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return LaurentZ(self.lo + other.lo, poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def exact_div(self, other: "LaurentZ") -> "LaurentZ":
        """Exact division (raises if the remainder is nonzero)."""
        return LaurentZ(self.lo - other.lo,
                        poly_exact_div(self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentZ)
                and self.lo == other.lo and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(("LaurentZ", self.lo, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentZ(0)"
        terms = [f"{c}*x^{self.lo + i}" for i, c in enumerate(self.coeffs) if c]
        return "LaurentZ(" + " + ".join(terms) + ")"

    def substitute_z(self) -> ZPoly:
        """Rewrite exactly in z = x - x^-1; raise if a residue remains.

        From the top degree d down, the x^d coefficient c is the z^d one, and
        c * (x - x^-1)^d is taken off the one list, each binomial from the
        last by C(d, j + 1) = C(d, j) * (d - j) / (j + 1).  A degree-d
        polynomial in z spans x^-d..x^d, so none reaches less far down than up.
        """
        lo, rem = self.lo, list(self.coeffs)
        hi = lo + len(rem) - 1
        out = [0] * (hi + 1)
        if lo + hi <= 0:  # else rem is nonzero and stays so
            for d in range(hi, -1, -1):
                t = out[d] = rem[d - lo]
                if t:
                    for j in range(d + 1):
                        rem[d - 2 * j - lo] -= t
                        t = exact_div(-t * (d - j), j + 1)
        if any(rem):
            raise InternalConsistencyError(
                "Laurent polynomial is not expressible in z = x - 1/x")
        return ZPoly(out)
