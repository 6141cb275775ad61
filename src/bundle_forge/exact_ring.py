"""Exact scalar and polynomial arithmetic on the two spheres.

Everything downstream (projectors, connections, Chern numbers) is built on
two quotient rings kept in canonical form:

* polynomials in x1, x2, x3 modulo x1^2 + x2^2 + x3^2 = 1, canonicalized by
  eliminating x3^2 (every stored monomial has x3-exponent <= 1);
* polynomials in z0, z1, zbar0, zbar1 modulo |z0|^2 + |z1|^2 = 1,
  canonicalized by eliminating the product z0*zbar0.

Coefficients are Gaussian rationals (exact a + b*i with arbitrary-precision
rational a, b), so integrals and Chern numbers come out as exact rationals.
A polynomial stores them as one denominator over Gaussian-integer numerators
(see `_BasePoly`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

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


def _scalar_operation(method):
    """`method(self, other)` with an int or Fraction `other` taken as a
    GaussianRational.  Any other operand gives NotImplemented, so Python
    tries its reflected method: `GR_I * X2` is `X2.__rmul__(GR_I)`."""

    def wrapper(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        return method(self, other) if isinstance(other, GaussianRational) else NotImplemented

    return functools.wraps(method)(wrapper)


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

    @_scalar_operation
    def __add__(self, other) -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_scalar_operation
    def __sub__(self, other) -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_scalar_operation
    def __rsub__(self, other) -> "GaussianRational":
        return other - self

    @_scalar_operation
    def __mul__(self, other) -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_scalar_operation
    def __truediv__(self, other) -> "GaussianRational":
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


def _parts(x) -> tuple:
    """(re, im) of an exact scalar, each an int or a Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return x, 0
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class NonInvariantMonomialError(ValueError):
    """A z-polynomial fed to z_to_x contains a non-U(1)-invariant monomial."""


class DegreeBoundError(ValueError):
    """A monomial of degree above MAX_DEGREE, beyond the packed exponent fields."""


def _grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


# Packed monomials.  A monomial is one int, _WIDTH bits per exponent (first
# variable highest), so multiplying monomials adds keys.  A stored monomial
# has total degree at most MAX_DEGREE.  The raw product of two then has
# degree at most 2 MAX_DEGREE < _FIELD, and the ring reductions after it
# never raise the degree, so no exponent field ever carries into the next.
# The exact Chern route at charge c multiplies up to degree 3c - 2, which
# is 46 at the CLI's largest charge, 16.
_WIDTH = 8
_FIELD = (1 << _WIDTH) - 1
MAX_DEGREE = _FIELD // 2


def _unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple packed in `key`."""
    return tuple(key >> _WIDTH * v & _FIELD for v in reversed(range(nvars)))


def _convolve(acc: dict, left: dict, right: dict, scale: int) -> None:
    """acc += scale * left * right for integer polynomials as dicts from
    packed monomial to int."""
    get = acc.get
    right = right.items()
    for k1, a in left.items():
        a *= scale
        for k2, b in right:
            k = k1 + k2
            acc[k] = get(k, 0) + a * b


class _BasePoly:
    """Shared mechanics of the two canonical quotient rings.

    As FLINT's fmpq_poly keeps one denominator over an integer polynomial,
    a polynomial is stored as `den`, a positive int, and `re`, `im`, two
    dicts from packed monomial to nonzero int: the polynomial is the sum
    over keys of (re[key] + i im[key]) / den times the monomial.  The
    monomials are canonical (each ring's `_reduce_integers` rewrites a
    numerator dict, possibly in place) and gcd(den, numerators) = 1, so
    equal polynomials store equal forms.  The dicts are never changed after
    construction, so polynomials may share them; `terms` is a derived view.
    """

    NVARS = 0
    VAR_NAMES: tuple = ()

    __slots__ = ("den", "re", "im")

    def __init__(self, terms: Mapping[tuple, GaussianRational] | None = None, *, _reduced=False):
        """From a map exponent tuple -> exact scalar; reduced unless `_reduced`."""
        coeffs = [(self._pack(m), *_parts(c)) for m, c in (terms or {}).items()]
        den = math.lcm(1, *(q.denominator for _, a, b in coeffs for q in (a, b)))
        re = {key: den // a.denominator * a.numerator for key, a, _ in coeffs}
        im = {key: den // b.denominator * b.numerator for key, _, b in coeffs}
        if not _reduced:
            re, im = self._reduce_integers(re), self._reduce_integers(im)
        self._store(den, re, im)

    def _store(self, den: int, re: dict, im: dict):
        """Store sum_key (re[key] + i im[key]) / den times the canonical monomial
        packed in key: zeros dropped, gcd(den, numerators) divided out.  It may
        keep the dicts it is handed, which the caller must not write again."""
        if 0 in re.values():
            re = {k: v for k, v in re.items() if v}
        if 0 in im.values():
            im = {k: v for k, v in im.items() if v}
        g = math.gcd(den, *re.values(), *im.values())
        if g > 1:
            re = {k: v // g for k, v in re.items()}
            im = {k: v // g for k, v in im.items()}
        self.den, self.re, self.im = den // g, re, im
        return self

    @classmethod
    def _from_integers(cls, den: int, re: dict, im: dict):
        return object.__new__(cls)._store(den, re, im)

    def _with_signs(self, re: dict, im: dict):
        """The polynomial (re + i im) / self.den for numerators that are
        those of self negated or conjugated, so canonical: no `_store` pass."""
        poly = object.__new__(type(self))
        poly.den, poly.re, poly.im = self.den, re, im
        return poly

    @classmethod
    def _pack(cls, mono) -> int:
        """The key of an exponent tuple, checked against the ring."""
        mono = tuple(mono)
        if len(mono) != cls.NVARS or min(mono) < 0:
            raise ValueError(f"bad exponent tuple {mono} for {cls.__name__}")
        if sum(mono) > MAX_DEGREE:
            raise DegreeBoundError(f"monomial {mono} has degree above {MAX_DEGREE}")
        key = 0
        for e in mono:
            key = key << _WIDTH | e
        return key

    @property
    def terms(self) -> dict:
        """A new dict from monomial tuple to GaussianRational in lowest
        terms, without zero entries: the stored form as scalars."""
        den, nvars, re, im = self.den, self.NVARS, self.re, self.im
        return {
            _unpack(key, nvars): GaussianRational(
                Fraction(re.get(key, 0), den), Fraction(im.get(key, 0), den)
            )
            for key in {**re, **im}
        }

    @staticmethod
    def _variables(*coords) -> tuple:
        """Values of the ring variables from the arguments of `evaluate`."""
        return coords

    def _evaluate(self, coords: tuple, also, angles=None, derivatives=False, scale=None):
        """The body of the rings' `evaluate`.  The benchmark's tracer times
        numeric evaluation by wrapping `XPoly.evaluate` and `ZPoly.evaluate`,
        so every caller in the package evaluates through them."""
        polys = (self, *(also or ()))
        if angles is None:
            if derivatives or scale is not None:
                raise ValueError("derivatives and scale are taken on a grid of angles only")
            values = evaluate_polys(polys, coords)
            return values if also is not None else values[..., 0]
        if coords:
            raise TypeError("give points or angles, not both")
        blocks = evaluate_grid(polys, *angles, derivatives, scale)
        return blocks if also is not None else map(operator.itemgetter((..., 0)), blocks)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c) -> "_BasePoly":
        return cls({(0,) * cls.NVARS: c}, _reduced=True)

    @classmethod
    def variable(cls, i: int) -> "_BasePoly":
        mono = tuple(1 if j == i else 0 for j in range(cls.NVARS))
        return cls({mono: 1}, _reduced=True)

    @classmethod
    def monomial(cls, mono: tuple, coeff=GR_ONE) -> "_BasePoly":
        return cls({tuple(mono): coeff})

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_constant(self) -> bool:
        # the constant monomial packs to key 0
        return not any(self.re) and not any(self.im)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return self.terms.get((0,) * self.NVARS, GR_ZERO)

    def _combine(self, other, sign: int):
        """self + sign * other, over the least common denominator."""
        other = self._coerce_poly(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        parts = []
        for mine, theirs in ((self.re, other.re), (self.im, other.im)):
            out = dict(mine) if s == 1 else {k: v * s for k, v in mine.items()}
            for k, v in theirs.items():
                out[k] = out.get(k, 0) + v * t
            parts.append(out)
        return self._from_integers(den, *parts)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._coerce_poly(other)._combine(self, -1)

    def __neg__(self):
        re, im = ({k: -v for k, v in part.items()} for part in (self.re, self.im))
        return self._with_signs(re, im)

    @classmethod
    def sum_of_products(cls, terms):
        """The sum of c * a * b over the triples (c, a, b) of `terms`, c an
        int or Fraction and a, b polynomials of this ring: every product is
        convolved on the stored ints, re*re - im*im and re*im + im*re, into
        one pair of numerator dicts over the common denominator
        lcm(c.den * a.den * b.den), each scaled by an int.  The sum is
        reduced in the ring, stored and checked against MAX_DEGREE once,
        not once per product; reduction is a ring homomorphism, so the
        result is the canonical form of the plain sum."""
        scaled = []
        for c, a, b in terms:
            if not isinstance(c, (int, Fraction)) or type(a) is not cls or type(b) is not cls:
                raise TypeError(f"{cls.__name__}.sum_of_products takes (rational, "
                                f"{cls.__name__}, {cls.__name__}) triples")
            if c and (a.re or a.im) and (b.re or b.im):
                scaled.append((c.numerator, c.denominator * a.den * b.den, a, b))
        den = math.lcm(1, *(d for _, d, _, _ in scaled))
        re, im = {}, {}
        for num, d, a, b in scaled:
            s = num * (den // d)
            if a.re and b.re:
                _convolve(re, a.re, b.re, s)
            if a.im and b.im:
                _convolve(re, a.im, b.im, -s)
            if a.re and b.im:
                _convolve(im, a.re, b.im, s)
            if a.im and b.re:
                _convolve(im, a.im, b.re, s)
        total = cls._from_integers(den, cls._reduce_integers(re), cls._reduce_integers(im))
        # a key of degree below _FIELD is its degree modulo _FIELD = 2^_WIDTH - 1
        if max(map(_FIELD.__rmod__, itertools.chain(total.re, total.im)), default=0) > MAX_DEGREE:
            raise DegreeBoundError(f"product has degree above {MAX_DEGREE}")
        return total

    def __mul__(self, other):
        """Product in the ring: the one-term `sum_of_products`.  An exact
        scalar is multiplied as a constant polynomial."""
        return self.sum_of_products(((1, self, self._coerce_poly(other)),))

    __rmul__ = __mul__

    def _coerce_poly(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return type(self).constant(other)
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def diff(self, var: int):
        """Formal partial derivative of the canonical representative: each
        key with a positive exponent of `var` loses one from that field."""
        if not 0 <= var < self.NVARS:
            raise ValueError(f"unknown variable index {var} for {type(self).__name__}")
        shift = _WIDTH * (self.NVARS - 1 - var)
        re, im = (
            {key - (1 << shift): v * e for key, v in part.items() if (e := key >> shift & _FIELD)}
            for part in (self.re, self.im)
        )
        return self._from_integers(self.den, re, im)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = type(self).constant(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(
            (type(self).__name__, self.den, frozenset(self.re.items()), frozenset(self.im.items()))
        )

    def __str__(self) -> str:
        if self.is_zero():
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
        """The polynomial `to_json` writes; ValueError for any other input."""
        if not isinstance(data, dict) or data.get("vars") != list(cls.VAR_NAMES):
            raise ValueError(f"expected an object with vars {list(cls.VAR_NAMES)}")
        if not isinstance(data.get("terms"), list):
            raise ValueError("terms must be a list")
        terms: dict = {}
        for t in data["terms"]:
            if not isinstance(t, dict) or "exp" not in t or "re" not in t:
                raise ValueError(f"a term must be an object with exp and re, got {t!r}")
            exp, re, im = t["exp"], t["re"], t.get("im", "0")
            # what to_json writes: exponents as JSON integers (bool is an
            # int subclass), coefficient parts as strings of exact rationals
            if not isinstance(exp, list) or any(type(e) is not int for e in exp):
                raise ValueError(f"exponents must be JSON integers, got {exp!r}")
            if not isinstance(re, str) or not isinstance(im, str):
                raise ValueError(f"coefficient parts must be strings, got {re!r}, {im!r}")
            try:
                c = GaussianRational.from_strings(re, im)
            except ZeroDivisionError as exc:
                raise ValueError(f"coefficient {re!r}, {im!r} divides by zero") from exc
            m = tuple(exp)
            terms[m] = terms.get(m, GR_ZERO) + c
        return cls(terms)


class XPoly(_BasePoly):
    """Polynomial function on S^2, canonical modulo x1^2+x2^2+x3^2 = 1."""

    NVARS = 3
    VAR_NAMES = ("x1", "x2", "x3")

    @classmethod
    def _reduce_integers(cls, numerators):
        """x3^2 -> 1 - x1^2 - x2^2 in rounds, each rewriting every term of x3-degree
        c >= 2 as terms of degree c - 2 (the normal form is the same in any order):
        none for a dict without x3^2, one for a product of canonical forms."""
        high = [key for key in numerators if key & _FIELD > 1]
        get = numerators.get
        x1sq, x2sq = 2 << 2 * _WIDTH, 2 << _WIDTH    # key offsets of x1^2 and x2^2
        while high:
            for key in high:
                v, low = numerators.pop(key), key - 2
                numerators[low] = get(low, 0) + v
                numerators[low + x1sq] = get(low + x1sq, 0) - v
                numerators[low + x2sq] = get(low + x2sq, 0) - v
            # only a term of x3-degree 4 or more leaves terms of degree 2 or more
            deep = max(map(_FIELD.__and__, high)) > 3
            high = [key for key in numerators if key & _FIELD > 1] if deep else ()
        return numerators

    def rotations(self) -> tuple:
        """(L_1 a, L_2 a, L_3 a) for L = x cross grad, L_1 = x2 d3 - x3 d2
        and cyclically: tangent to S^2, so defined on the quotient.  One
        pass over the keys forms all three, then each is reduced once."""
        x1, x2 = 1 << 2 * _WIDTH, 1 << _WIDTH    # key offsets of x1 and x2
        out = tuple(({}, {}) for _ in range(3))
        for part, numerators in enumerate((self.re, self.im)):
            l1, l2, l3 = (o[part] for o in out)
            for key, v in numerators.items():
                a, b, c = key >> 2 * _WIDTH, key >> _WIDTH & _FIELD, key & _FIELD
                for acc, e, k in ((l1, c, key + x2 - 1), (l1, -b, key - x2 + 1),
                                  (l2, a, key - x1 + 1), (l2, -c, key + x1 - 1),
                                  (l3, b, key + x1 - x2), (l3, -a, key - x1 + x2)):
                    if e:
                        acc[k] = acc.get(k, 0) + e * v
        return tuple(XPoly._from_integers(self.den, *map(XPoly._reduce_integers, o)) for o in out)

    def conj(self) -> "XPoly":
        return self._with_signs(self.re, {k: -v for k, v in self.im.items()})

    def evaluate(self, *points, also=None, angles=None, derivatives=False, scale=None):
        """Values at the points (x1, x2, x3), scalars or arrays broadcasting
        to one shape S: an array of shape S.  Given `also` (more polynomials
        of the ring, possibly none), all of them in one pass instead, with a
        last axis running over (self, *also): `evaluate_polys`.

        Given `angles` = (theta, phi) in place of points, theta of shape
        (P, 1) and phi of shape (1, A), the values on that product grid of
        the chart x = (sin t cos f, sin t sin f, cos t), as an iterator over
        blocks of polar nodes, each of shape (nodes, A); with `derivatives`
        (True, or "finite-difference" for central differences), a leading
        axis of three holds the values, d/dtheta and d/dphi; with `scale`,
        one float per polynomial, each polynomial's values times its factor:
        `evaluate_grid`.

        The values are float64 when every coefficient and every point is
        real (angles always are), complex otherwise."""
        if angles is None and len(points) != 3:
            raise TypeError(f"XPoly.evaluate takes the points x1, x2, x3, got {len(points)}")
        return self._evaluate(points, also, angles, derivatives, scale)

    @staticmethod
    def _grid_factors(exponents: np.ndarray, phi: np.ndarray, derivative: bool) -> tuple:
        """x1^a x2^b x3^c on the chart is cos^c t sin^(a+b) t times
        cos^a f sin^b f: ((c, a + b, 1), the phi-factor and, if
        `derivative`, its derivative, else None) in the form `evaluate_grid`
        takes."""
        a, b, c = exponents.T
        return (c, a + b, 1.0), _cos_sin_powers(phi, a, b, 1.0, derivative)


class ZPoly(_BasePoly):
    """Polynomial on S^3 in (z0, z1, zbar0, zbar1), canonical modulo
    |z0|^2 + |z1|^2 = 1 (no stored monomial contains both z0 and zbar0)."""

    NVARS = 4
    VAR_NAMES = ("z0", "z1", "zb0", "zb1")

    @classmethod
    def _reduce_integers(cls, numerators):
        """(z0 zb0)^k -> (1 - z1 zb1)^k by the binomial rule, one pass: no
        rewritten term contains both z0 and zb0."""
        z0_pair = (1 << 3 * _WIDTH) | (1 << _WIDTH)    # key of z0 zb0
        z1_pair = (1 << 2 * _WIDTH) | 1                # key of z1 zb1
        out: dict = {}
        get = out.get
        for key, v in numerators.items():
            k = min(key >> 3 * _WIDTH, key >> _WIDTH & _FIELD)
            if k == 0:
                out[key] = get(key, 0) + v
                continue
            base = key - k * z0_pair
            for j in range(k + 1):
                kk = base + j * z1_pair
                out[kk] = get(kk, 0) + (-1) ** j * math.comb(k, j) * v
        return out

    def conj(self) -> "ZPoly":
        """z <-> zbar: the two halves of every key trade places."""
        half, low = 2 * _WIDTH, (1 << 2 * _WIDTH) - 1
        re = {(k & low) << half | k >> half: v for k, v in self.re.items()}
        im = {(k & low) << half | k >> half: -v for k, v in self.im.items()}
        return self._with_signs(re, im)

    @staticmethod
    def _variables(z0, z1) -> tuple:
        return z0, z1, np.conjugate(z0), np.conjugate(z1)

    def evaluate(self, *points, also=None, angles=None, derivatives=False, scale=None):
        """Values at the points (z0, z1), as `XPoly.evaluate`.  Given
        `angles` = (theta, phi), the values on the Hopf section
        sigma(t, f) = (cos(t/2), e^(if) sin(t/2)) over the chart point
        x(t, f) of `z_to_x`'s convention, block by block as
        `XPoly.evaluate`, or with `derivatives` the values, d/dtheta and
        d/dphi along sigma, times `scale` as there.  Always complex: the
        variables include zbar0 and zbar1."""
        if angles is None and len(points) != 2:
            raise TypeError(f"ZPoly.evaluate takes the points z0, z1, got {len(points)}")
        return self._evaluate(points, also, angles, derivatives, scale)

    @staticmethod
    def _grid_factors(exponents: np.ndarray, phi: np.ndarray, derivative: bool) -> tuple:
        """z0^e0 z1^e1 zb0^f0 zb1^f1 on sigma is cos^(e0+f0)(t/2)
        sin^(e1+f1)(t/2) times e^(ik f), k = e1 - f1: ((e0 + f0, e1 + f1,
        1/2), the phi-factor and, if `derivative`, its derivative, else
        None) in the form `evaluate_grid` takes."""
        e0, e1, f0, f1 = exponents.T
        k = e1 - f1
        phase = np.exp(1j * np.multiply.outer(phi, k))
        return (e0 + f0, e1 + f1, 0.5), (phase, phase * (1j * k) if derivative else None)


# Points per block of `evaluate_polys`.  A block holds about ten float arrays
# of shape (monomials, points).  Measured with Python 3.11 and numpy 2.4 on a
# 2-vCPU Linux VM: without blocks, `bundle-forge integrate --monomial 4,2,2`
# (10^6 samples) peaks at 349 MB RSS, with blocks of 2^12 points at 82 MB.
EVAL_BLOCK = 1 << 12


def _coefficient_matrix(polys: Sequence[_BasePoly], nvars: int) -> tuple:
    """(exponents, C): the union of the monomials of `polys` as a
    (monomials, nvars) integer array, and the coefficient matrix C of shape
    (monomials, polynomials), read from the stored integers: float64 when
    the polynomials are XPolys without imaginary parts, complex otherwise."""
    if len({type(p) for p in polys}) > 1:
        raise TypeError("the numeric evaluators take polynomials of one ring")
    rows: dict = {}
    for p in polys:
        for key in itertools.chain(p.re, p.im):
            rows.setdefault(key, len(rows))
    exponents = np.array([_unpack(key, nvars) for key in rows], dtype=np.intp)
    # a ZPoly is complex-valued whatever its coefficients: its variables include zbar
    real = all(isinstance(p, XPoly) and not p.im for p in polys)
    coeffs = np.zeros((len(rows), len(polys)), dtype=float if real else complex)
    parts = coeffs.real, coeffs.imag  # a real C has a read-only zero .imag, never written
    for col, p in enumerate(polys):
        for part, numerators in zip(parts, (p.re, p.im)):
            for key, v in numerators.items():
                part[rows[key], col] = v / p.den
    return exponents.reshape(len(rows), nvars), coeffs


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """x^0 .. x^top by repeated multiplication, one contiguous row per power."""
    table = np.empty((top + 1, x.size), dtype=x.dtype)
    table[0] = 1
    for e in range(1, top + 1):
        np.multiply(table[e - 1], x, out=table[e])
    return table


def _cos_sin_powers(
    x: np.ndarray, p: np.ndarray, q: np.ndarray, s: float, derivative: bool
) -> tuple:
    """cos^p(s x) sin^q(s x) for the exponent arrays p and q, and its
    derivative in x, s (q cos^(p+1) sin^(q-1) - p cos^(p-1) sin^(q+1)), or
    None without `derivative`, each of shape (len(x), len(p)), from power
    tables of cos(s x) and sin(s x)."""
    cos = _power_table(np.cos(s * x), int(p.max(initial=0)) + derivative)
    sin = _power_table(np.sin(s * x), int(q.max(initial=0)) + derivative)
    values = (cos[p] * sin[q]).T
    if not derivative:
        return values, None
    d = q[:, None] * cos[p + 1] * sin[np.maximum(q - 1, 0)]
    d -= p[:, None] * cos[np.maximum(p - 1, 0)] * sin[q + 1]
    d *= s
    return values, d.T


def evaluate_polys(polys: Sequence[_BasePoly], coords: tuple) -> np.ndarray:
    """Numeric values of polynomials of one ring at an array of points.

    `coords` are the arguments of the ring's `evaluate` (x1, x2, x3 or
    z0, z1): scalars or arrays broadcasting to one shape S.  Returns an
    array of shape S + (len(polys),): float64 when the points and every
    coefficient are real, complex otherwise (always for a ZPoly, whose
    variables include zbar0 and zbar1).

    The polynomials share one coefficient matrix C (monomials x polynomials).
    Per block of EVAL_BLOCK points the powers of each variable that occurs
    in some monomial are built once by repeated multiplication, the
    monomial basis V is their product and the values are V.C.  Callers in
    the package reach it through the rings' `evaluate` (see
    `_BasePoly._evaluate`).
    """
    ring = type(polys[0]) if polys else _BasePoly
    arrays = np.broadcast_arrays(*ring._variables(*coords))
    shape = arrays[0].shape
    dtype = np.result_type(float, *arrays)
    exponents, coeffs = _coefficient_matrix(polys, len(arrays))
    # a variable of exponent 0 in every monomial has an all-ones power table
    used = [(np.asarray(a, dtype=dtype).reshape(-1), e)
            for a, e in zip(arrays, exponents.T) if e.any()]
    size = math.prod(shape)
    out = np.empty((size, coeffs.shape[1]), dtype=np.result_type(dtype, coeffs))
    for lo in range(0, size, EVAL_BLOCK):
        block = slice(lo, min(lo + EVAL_BLOCK, size))
        # the transposed basis, one row per monomial
        basis = functools.reduce(np.multiply, [
            _power_table(x[block], int(e.max()))[e] for x, e in used
        ] or [np.ones((len(exponents), block.stop - lo))])
        np.matmul(basis.T, coeffs, out=out[block])
    return out.reshape(shape + (coeffs.shape[1],))


# Step of the finite-difference derivatives of `evaluate_grid`.  A central
# difference is off by FD_STEP^2 times a third derivative, plus the rounding
# of the values magnified by 1/(2 FD_STEP).
FD_STEP = 1e-5


def _central_difference(table: Callable, x: np.ndarray) -> np.ndarray:
    """(table(x + FD_STEP) - table(x - FD_STEP)) / (2 FD_STEP): the
    derivative in x of a table of factors by central differences."""
    out = table(x + FD_STEP)
    out -= table(x - FD_STEP)
    out /= 2.0 * FD_STEP
    return out


# Largest size in bytes of one block of `evaluate_grid`'s output: a block
# holds the most polar nodes whose (3, nodes, A, polys) table fits, and at
# least one node.  Measured with Python 3.11 and numpy 2.4 (single-thread
# BLAS) on a 2-vCPU Linux VM, running the 64x128 quadratures of the
# benchmark's quad_chern workload in fresh processes (medians of 61 passes,
# five rounds): the whole-grid tables peak at 44.4 MB RSS in 17.5-18.4 ms
# per pass (one round 27 ms); blocks of 4 MiB at 39.7 MB in 16.3-18.4 ms,
# of 2 MiB at 36.8 MB in 16.9-18.2 ms.  Blocks of 1 MiB peak at 35.2 MB but
# take 18.8-21.8 ms: glibc's malloc then returns the freed top of its heap
# to the system after a block, and the next block faults it back in (about
# 500 minor faults per pass, against 3 at 2 MiB).
GRID_BLOCK_BYTES = 2 << 20


def evaluate_grid(
    polys: Sequence[_BasePoly], theta, phi, derivatives: bool | str = False, scale=None
) -> Iterator[np.ndarray]:
    """Numeric values of polynomials of one ring on the product grid of
    polar angles theta, shape (P, 1), and azimuths phi, shape (1, A): XPolys
    in the chart x = (sin t cos f, sin t sin f, cos t), ZPolys on the Hopf
    section sigma(t, f) = (cos(t/2), e^(if) sin(t/2)) over it, one block of
    polar nodes at a time.  Returns an iterator over consecutive blocks of
    theta's nodes, in order, each an array of shape (nodes, A, len(polys)),
    or with `derivatives` (3, nodes, A, len(polys)) holding the values,
    d/dtheta and d/dphi: float64 for XPolys whose coefficients are all real,
    complex otherwise.  A block is the most nodes whose table fits
    GRID_BLOCK_BYTES, so the whole-grid table is the blocks joined along
    the polar axis.  A consumer holds one block at a time when it keeps no
    reference to a block as it draws the next: `map` keeps none, the loop
    variable of a generator expression or a for loop keeps the last one.
    `derivatives` is False, True (analytic derivatives) or
    "finite-difference"; it and the angles are checked before this returns.
    `scale`, None or one float per polynomial, multiplies each polynomial's
    values and derivatives by its factor.

    Sum factorization: the ring's `_grid_factors` splits each monomial
    into a theta-factor cos^p(s t) sin^q(s t) and a phi-factor.  With C the
    coefficient matrix (monomials x polys), Theta and Phi the tables of
    theta- and phi-factors (nodes x monomials) and Theta', Phi' their
    derivatives, the values are Phi . (Theta * C), d/dtheta is
    Phi . (Theta' * C) and d/dphi is Phi' . (Theta * C): each one batched
    GEMM over the polar nodes of a block of an (A, monomials) table with a
    (nodes, monomials, polys) table.  C, Phi and Phi' are built once, here,
    and `scale` multiplies the columns of C once, so no block is rescaled;
    each block builds its Theta, Theta' and GEMMs as it is drawn.  With
    "finite-difference", Theta' and Phi' are central differences, step
    FD_STEP, of the factor tables at t +- h and f +- h, built as values
    only: by linearity the same GEMMs give the central differences of the
    values, and no derivative formula is read.  Callers in the package
    reach it through the rings' `evaluate` with `angles`.
    """
    if derivatives not in (False, True, "finite-difference"):
        raise ValueError(f"unknown derivatives {derivatives!r}")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != 1 or phi.ndim != 2 or phi.shape[0] != 1:
        raise ValueError("grid angles must be theta of shape (P, 1) and phi of shape (1, A)")
    ring = type(polys[0])
    exponents, coeffs = _coefficient_matrix(polys, ring.NVARS)
    if scale is not None:
        coeffs *= scale  # C is this call's own
    analytic, fd = derivatives is True, derivatives == "finite-difference"
    (p, q, s), (phi_factor, d_phi) = ring._grid_factors(exponents, phi[0], analytic)
    if fd:
        d_phi = _central_difference(lambda f: ring._grid_factors(exponents, f, False)[1][0], phi[0])
    dtype = np.result_type(phi_factor, coeffs)
    planes = 3 if derivatives else 1
    node_bytes = planes * phi.shape[1] * len(polys) * dtype.itemsize
    nodes = max(1, GRID_BLOCK_BYTES // node_bytes)

    def block(t: np.ndarray) -> np.ndarray:
        theta_factor, d_theta = _cos_sin_powers(t, p, q, s, analytic)
        if fd:
            d_theta = _central_difference(lambda x: _cos_sin_powers(x, p, q, s, False)[0], t)
        table = theta_factor[:, :, None] * coeffs
        out = np.empty((planes, len(t), phi.shape[1], len(polys)), dtype=dtype)
        np.matmul(phi_factor, table, out=out[0])
        if not derivatives:
            return out[0]
        np.matmul(d_phi, table, out=out[2])
        np.multiply(d_theta[:, :, None], coeffs, out=table)
        np.matmul(phi_factor, table, out=out[1])
        return out

    t = theta[:, 0]
    return map(block, (t[lo:lo + nodes] for lo in range(0, len(t), nodes)))


# generators, for convenience
X1, X2, X3 = (XPoly.variable(i) for i in range(3))
Z0, Z1, ZB0, ZB1 = (ZPoly.variable(i) for i in range(4))


# Invariant generators expressed on S^2: the inversion of the Hopf projection.
_Z0ZB0 = XPoly.constant(Fraction(1, 2)) + X3 * Fraction(1, 2)      # |z0|^2
_Z1ZB1 = XPoly.constant(Fraction(1, 2)) - X3 * Fraction(1, 2)      # |z1|^2
_Z0ZB1 = (X1 - X2 * GR_I) * Fraction(1, 2)                          # z0 zb1
_Z1ZB0 = (X1 + X2 * GR_I) * Fraction(1, 2)                          # z1 zb0
_PAIR_GENERATORS = (_Z0ZB0, _Z0ZB1, _Z1ZB0, _Z1ZB1)


@functools.lru_cache(maxsize=None)
def _pair_power(generator: int, power: int) -> XPoly:
    """_PAIR_GENERATORS[generator] ** power, built once per exponent.  The
    result is shared between callers, so it must never be mutated."""
    if power == 0:
        return XPoly.one()
    return _pair_power(generator, power - 1) * _PAIR_GENERATORS[generator]


def z_to_x(p: ZPoly) -> XPoly:
    """Rewrite a U(1)-invariant z-polynomial as a function on S^2.

    Each monomial is factored greedily (in variable order) into the four
    invariant pair generators z0*zb0, z0*zb1, z1*zb0, z1*zb1; the result is
    independent of the pairing choice modulo the sphere ideal.  Monomials
    with the same z0 zb0, z0 zb1 and z1 zb0 counts share the factor G of
    those generator powers.  Per G, the cached powers of z1 zb1, reduced
    already, are added in one linear pass: each coefficient's numerators
    times the power's, into one pair of numerator dicts over a common
    denominator.  The result is one fused `sum_of_products` over the G.
    """
    groups: dict = {}
    for key in {**p.re, **p.im}:
        e0, e1, f0, f1 = _unpack(key, 4)
        if e0 + e1 != f0 + f1:
            raise NonInvariantMonomialError(
                f"monomial z0^{e0} z1^{e1} zb0^{f0} zb1^{f1} is not U(1)-invariant"
            )
        # e0 + e1 == f0 + f1 forces b = e0 - a and c = f0 - a: every factor is paired
        a = min(e0, f0)          # z0 zb0 pairs
        b = min(e0 - a, f1)      # z0 zb1 pairs
        c = min(e1, f0 - a)      # z1 zb0 pairs
        d = e1 - c               # z1 zb1 pairs
        groups.setdefault((a, b, c), []).append(
            (p.re.get(key, 0), p.im.get(key, 0), _pair_power(3, d))
        )
    terms = []
    for pairs, addends in groups.items():
        den = math.lcm(*(power.den for _, _, power in addends))
        re, im = {}, {}
        # z1 zb1 is the real (1 - x3) / 2: its powers have no im numerators
        for u, v, power in addends:
            scale = den // power.den
            for out, n in ((re, u), (im, v)):
                if n:
                    n *= scale
                    get = out.get
                    for key, s in power.re.items():
                        out[key] = get(key, 0) + n * s
        factors = [_pair_power(g, count) for g, count in enumerate(pairs) if count]
        shared = functools.reduce(operator.mul, factors) if factors else XPoly.one()
        terms.append((1, shared, XPoly._from_integers(den * p.den, re, im)))
    return XPoly.sum_of_products(terms)


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
    matrices is this one kernel and the radicals never appear.  Each entry
    sum_l w_l a_jl b_lk is one fused `sum_of_products`.
    """
    if len(b) != len(weights) or any(len(row) != len(weights) for row in a):
        raise ValueError("inner dimensions of the weighted product do not match")
    columns = range(len(b[0]) if b else 0)
    return tuple(
        tuple(
            XPoly.sum_of_products(zip(weights, row, (b_row[k] for b_row in b)))
            for k in columns
        )
        for row in a
    )


@dataclass(frozen=True)
class VolumeUnits:
    """An exact integral over S^2, stored in units of 4*pi."""

    value: GaussianRational

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
