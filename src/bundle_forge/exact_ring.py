"""Exact scalar and polynomial arithmetic on the two spheres.

Everything downstream (projectors, connections, Chern numbers) is built on
two quotient rings kept in canonical form:

* polynomials in x1, x2, x3 modulo x1^2 + x2^2 + x3^2 = 1, canonicalized by
  eliminating x3^2 (every stored monomial has x3-exponent <= 1);
* polynomials in z0, z1, zbar0, zbar1 modulo |z0|^2 + |z1|^2 = 1,
  canonicalized by eliminating the product z0*zbar0.

Coefficients are Gaussian rationals (exact a + b*i with arbitrary-precision
rational a, b), so integrals and Chern numbers come out as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

RationalLike = Union[int, Fraction]


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class GaussianRational:
    """An exact complex number a + b*i with rational a, b."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    @staticmethod
    def from_strings(re: str, im: str) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class NonInvariantMonomialError(ValueError):
    """A z-polynomial fed to z_to_x contains a non-U(1)-invariant monomial."""


def _grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


class _BasePoly:
    """Shared term-map mechanics for the two canonical quotient rings."""

    NVARS = 0
    VAR_NAMES: tuple = ()

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, GaussianRational] | None = None, *, _reduced=False):
        if terms is None:
            terms = {}
        if _reduced:
            self.terms = dict(terms)
        else:
            self.terms = self._reduce_terms(terms)

    @classmethod
    def _reduce_terms(cls, terms):
        raise NotImplementedError

    @classmethod
    def zero(cls):
        return cls({}, _reduced=True)

    @classmethod
    def one(cls):
        return cls.constant(GR_ONE)

    @classmethod
    def constant(cls, c) -> "_BasePoly":
        c = _coerce(c)
        if not c:
            return cls.zero()
        return cls({(0,) * cls.NVARS: c}, _reduced=True)

    @classmethod
    def variable(cls, i: int) -> "_BasePoly":
        mono = tuple(1 if j == i else 0 for j in range(cls.NVARS))
        return cls({mono: GR_ONE}, _reduced=True)

    @classmethod
    def monomial(cls, mono: tuple, coeff=GR_ONE) -> "_BasePoly":
        return cls({tuple(mono): _coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return self.terms.get((0,) * self.NVARS, GR_ZERO)

    def __add__(self, other):
        other = self._coerce_poly(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, GR_ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return type(self)(out, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce_poly(other))

    def __rsub__(self, other):
        return self._coerce_poly(other) + (-self)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()}, _reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce(other)
            if not c:
                return self.zero()
            return type(self)({m: v * c for m, v in self.terms.items()}, _reduced=True)
        other = self._coerce_poly(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, GR_ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return type(self)(out)

    __rmul__ = __mul__

    def _coerce_poly(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return type(self).constant(other)
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def diff(self, var: int):
        """Formal partial derivative of the canonical representative."""
        if not 0 <= var < self.NVARS:
            raise ValueError(f"unknown variable index {var} for {type(self).__name__}")
        out: dict = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = m[:var] + (e - 1,) + m[var + 1:]
            s = out.get(dm, GR_ZERO) + c * e
            if s:
                out[dm] = s
            else:
                out.pop(dm, None)
        return type(self)(out)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = type(self).constant(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.VAR_NAMES, m)
                if e > 0
            ]
            body = "*".join(factors)
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{cs}*{body}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {
            "vars": list(self.VAR_NAMES),
            "terms": [
                {"re": str(c.re), "im": str(c.im), "exp": list(m)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict):
        if list(data.get("vars", [])) != list(cls.VAR_NAMES):
            raise ValueError(
                f"expected vars {list(cls.VAR_NAMES)}, got {data.get('vars')}"
            )
        terms: dict = {}
        for t in data["terms"]:
            m = tuple(int(e) for e in t["exp"])
            if len(m) != cls.NVARS or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {t['exp']}")
            c = GaussianRational.from_strings(t["re"], t.get("im", "0"))
            if c:
                terms[m] = terms.get(m, GR_ZERO) + c
        return cls(terms)


class XPoly(_BasePoly):
    """Polynomial function on S^2, canonical modulo x1^2+x2^2+x3^2 = 1."""

    NVARS = 3
    VAR_NAMES = ("x1", "x2", "x3")

    @classmethod
    def _reduce_terms(cls, terms):
        out: dict = {}
        pending = [(tuple(m), _coerce(c)) for m, c in terms.items() if c]
        while pending:
            (a, b, c), coeff = pending.pop()
            if c <= 1:
                s = out.get((a, b, c), GR_ZERO) + coeff
                if s:
                    out[(a, b, c)] = s
                else:
                    out.pop((a, b, c), None)
                continue
            # x3^2 -> 1 - x1^2 - x2^2, applied to one x3^2 factor at a time
            pending.append(((a, b, c - 2), coeff))
            pending.append(((a + 2, b, c - 2), -coeff))
            pending.append(((a, b + 2, c - 2), -coeff))
        return out

    def conj(self) -> "XPoly":
        return XPoly({m: c.conj() for m, c in self.terms.items()}, _reduced=True)

    def evaluate(self, x1, x2, x3):
        """Numeric evaluation; accepts scalars or numpy arrays."""
        total = 0
        for (a, b, c), coeff in self.terms.items():
            total = total + complex(coeff) * (x1 ** a) * (x2 ** b) * (x3 ** c)
        return total


class ZPoly(_BasePoly):
    """Polynomial on S^3 in (z0, z1, zbar0, zbar1), canonical modulo
    |z0|^2 + |z1|^2 = 1 (no stored monomial contains both z0 and zbar0)."""

    NVARS = 4
    VAR_NAMES = ("z0", "z1", "zb0", "zb1")

    @classmethod
    def _reduce_terms(cls, terms):
        out: dict = {}
        for m, coeff in terms.items():
            e0, e1, f0, f1 = m
            coeff = _coerce(coeff)
            if not coeff:
                continue
            k = min(e0, f0)
            if k == 0:
                s = out.get(m, GR_ZERO) + coeff
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
                continue
            # (z0 zb0)^k = (1 - z1 zb1)^k
            for j in range(k + 1):
                mm = (e0 - k, e1 + j, f0 - k, f1 + j)
                cc = coeff * GaussianRational(Fraction((-1) ** j * math.comb(k, j)))
                s = out.get(mm, GR_ZERO) + cc
                if s:
                    out[mm] = s
                else:
                    out.pop(mm, None)
        return out

    def conj(self) -> "ZPoly":
        return ZPoly(
            {(f0, f1, e0, e1): c.conj() for (e0, e1, f0, f1), c in self.terms.items()},
            _reduced=True,
        )

    def bidegree_map(self):
        """Per-monomial (holomorphic, antiholomorphic) degrees."""
        return {m: (m[0] + m[1], m[2] + m[3]) for m in self.terms}

    def evaluate(self, z0, z1):
        zb0, zb1 = z0.conjugate(), z1.conjugate()
        total = 0
        for (e0, e1, f0, f1), coeff in self.terms.items():
            total = total + complex(coeff) * (z0 ** e0) * (z1 ** e1) * (zb0 ** f0) * (zb1 ** f1)
        return total


# generators, for convenience
X1, X2, X3 = (XPoly.variable(i) for i in range(3))
Z0, Z1, ZB0, ZB1 = (ZPoly.variable(i) for i in range(4))


# Invariant generators expressed on S^2: the inversion of the Hopf projection.
_Z0ZB0 = XPoly.constant(Fraction(1, 2)) + X3 * Fraction(1, 2)      # |z0|^2
_Z1ZB1 = XPoly.constant(Fraction(1, 2)) - X3 * Fraction(1, 2)      # |z1|^2
_Z0ZB1 = (X1 - X2 * GR_I) * Fraction(1, 2)                          # z0 zb1
_Z1ZB0 = (X1 + X2 * GR_I) * Fraction(1, 2)                          # z1 zb0


def z_to_x(p: ZPoly) -> XPoly:
    """Rewrite a U(1)-invariant z-polynomial as a function on S^2.

    Each monomial is factored greedily (in variable order) into the four
    invariant pair generators z0*zb0, z0*zb1, z1*zb0, z1*zb1; the result is
    independent of the pairing choice modulo the sphere ideal.
    """
    result = XPoly.zero()
    for (e0, e1, f0, f1), coeff in p.terms.items():
        if e0 + e1 != f0 + f1:
            raise NonInvariantMonomialError(
                f"monomial z0^{e0} z1^{e1} zb0^{f0} zb1^{f1} is not U(1)-invariant"
            )
        # e0 + e1 == f0 + f1 forces b = e0 - a and c = f0 - a: every factor is paired
        a = min(e0, f0)          # z0 zb0 pairs
        b = min(e0 - a, f1)      # z0 zb1 pairs
        c = min(e1, f0 - a)      # z1 zb0 pairs
        d = e1 - c               # z1 zb1 pairs
        factor = XPoly.constant(coeff)
        for base, power in ((_Z0ZB0, a), (_Z0ZB1, b), (_Z1ZB0, c), (_Z1ZB1, d)):
            for _ in range(power):
                factor = factor * base
        result = result + factor
    return result


_X_IN_Z = (
    Z0 * ZB1 + Z1 * ZB0,               # x1
    (Z0 * ZB1 - Z1 * ZB0) * GR_I,      # x2
    Z0 * ZB0 - Z1 * ZB1,               # x3
)


def x_to_z(p: XPoly) -> ZPoly:
    """Pull a function on S^2 back to an invariant function on S^3."""
    result = ZPoly.zero()
    for (a, b, c), coeff in p.terms.items():
        factor = ZPoly.constant(coeff)
        for base, power in zip(_X_IN_Z, (a, b, c)):
            for _ in range(power):
                factor = factor * base
        result = result + factor
    return result


def dagger(a) -> tuple:
    """Conjugate transpose of a matrix of ring elements given as a tuple of rows."""
    return tuple(tuple(e.conj() for e in column) for column in zip(*a))


def weighted_matmul(a, weights, b) -> tuple:
    """The product a . diag(weights) . b of XPoly matrices given as tuples of rows.

    A projector stored as p = D M D with D = diag(sqrt(w)) multiplies as
    (D M D)(D N D) = D (M W N) D, so every exact product of factored
    matrices is this one kernel and the radicals never appear.
    """
    if len(b) != len(weights) or any(len(row) != len(weights) for row in a):
        raise ValueError("inner dimensions of the weighted product do not match")
    columns = range(len(b[0]) if b else 0)
    out = []
    for row in a:
        scaled = [e * w for e, w in zip(row, weights)]
        out.append(tuple(
            sum((s * b_row[k] for s, b_row in zip(scaled, b)), XPoly.zero())
            for k in columns
        ))
    return tuple(out)


@dataclass(frozen=True)
class VolumeUnits:
    """An exact integral over S^2, stored in units of 4*pi."""

    value: GaussianRational

    def __add__(self, other: "VolumeUnits") -> "VolumeUnits":
        return VolumeUnits(self.value + other.value)

    def __float__(self) -> float:
        if self.value.im != 0:
            raise ValueError("volume with nonzero imaginary part")
        return float(self.value.re) * 4.0 * math.pi

    def __str__(self) -> str:
        return f"({self.value})*4pi"


def _double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def monomial_integral(a: int, b: int, c: int) -> VolumeUnits:
    """Exact value of the integral of x1^a x2^b x3^c over S^2, in units of 4*pi.

    Zero when any exponent is odd; otherwise
    (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!.
    """
    if min(a, b, c) < 0:
        raise ValueError("negative exponent")
    if a % 2 or b % 2 or c % 2:
        return VolumeUnits(GR_ZERO)
    num = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    den = _double_factorial(a + b + c + 1)
    return VolumeUnits(GaussianRational(Fraction(num, den)))


def integrate_xpoly(p: XPoly) -> VolumeUnits:
    """Exact integral of a function over S^2, in units of 4*pi."""
    total = GR_ZERO
    for (a, b, c), coeff in p.terms.items():
        total = total + coeff * monomial_integral(a, b, c).value
    return VolumeUnits(total)
