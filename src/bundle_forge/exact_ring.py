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

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

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


@dataclass(frozen=True)
class GaussianRational:
    """An exact complex number a + b*i with rational a, b."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else _as_fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else _as_fraction(im))

    @staticmethod
    def from_strings(re: str, im: str) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(_fraction_sum(self.re, other.re), _fraction_sum(self.im, other.im))

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


_FRACTION_ZERO = Fraction(0)


def _fraction_sum(x: Fraction, y: Fraction) -> Fraction:
    # about half of the real and imaginary parts added on the exact route
    # are zero, and a Fraction addition costs far more than the test
    return x + y if x and y else (x if x else y)


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


# The integer kernel.  As FLINT's fmpq_poly keeps one denominator over an
# integer polynomial, a product brings each operand to one common
# denominator D with Gaussian-integer numerators, convolves the numerators
# as plain ints, reduces them in the ring and divides by D1*D2 only for the
# surviving terms.  A monomial is packed into one int, `width` bits per
# exponent (first variable highest), so multiplying monomials adds keys.
# `width` holds the total degree of the result, which bounds every exponent
# during the ring reductions as well.


def _key_width(degree: int) -> int:
    return max(1, degree.bit_length())


def _integer_parts(terms: Mapping[tuple, GaussianRational], width: int) -> tuple:
    """(D, re, im): the least common denominator D of the coefficients and
    the numerators D*c as two lists of (packed monomial, int), zeros left out."""
    den = 1
    # one call per term: a single math.lcm(*generator) over all of them
    # raised the peak RSS of the exact_chern workload by 1.5 MB
    for c in terms.values():
        den = math.lcm(den, c.re.denominator, c.im.denominator)
    re, im = [], []
    for m, c in terms.items():
        key = 0
        for e in m:
            key = key << width | e
        if c.re:
            re.append((key, den // c.re.denominator * c.re.numerator))
        if c.im:
            im.append((key, den // c.im.denominator * c.im.numerator))
    return den, re, im


@functools.lru_cache(maxsize=1 << 16)
def _unpack(key: int, width: int, nvars: int) -> tuple:
    """The exponent tuple packed in `key`, shared between the polynomials
    that hold the monomial.  Cached because a pass of the exact_chern
    benchmark items takes about 15% longer when each term unpacks its own."""
    mask = (1 << width) - 1
    return tuple(key >> width * v & mask for v in reversed(range(nvars)))


def _convolve(acc: dict, left: list, right: list, sign: int) -> None:
    """acc += sign * left * right for integer polynomials given as lists
    of (packed monomial, int)."""
    get = acc.get
    for k1, a in left:
        a *= sign
        for k2, b in right:
            k = k1 + k2
            acc[k] = get(k, 0) + a * b


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
            coeffs = {tuple(m): _coerce(c) for m, c in terms.items()}
            width = _key_width(max((sum(m) for m in coeffs), default=0))
            den, re, im = _integer_parts(coeffs, width)
            self.terms = self._terms_from_integers(den, dict(re), dict(im), width)

    @classmethod
    def _reduce_integers(cls, numerators: dict, width: int) -> dict:
        """The ring's canonical reduction of integer numerators keyed by
        packed monomials (see `_integer_parts`); may reuse `numerators`."""
        raise NotImplementedError

    @classmethod
    def _terms_from_integers(cls, den: int, re: dict, im: dict, width: int) -> dict:
        """Canonical terms of the polynomial sum_key (re[key] + i im[key]) / den
        times the monomial packed in key: both numerator maps are reduced
        in the ring, then divided by `den` term by term, zeros dropped."""
        re = cls._reduce_integers(re, width)
        im = cls._reduce_integers(im, width)
        nvars = cls.NVARS
        out: dict = {}
        for key, a in re.items():
            b = im.pop(key, 0)
            if a or b:
                out[_unpack(key, width, nvars)] = GaussianRational(
                    Fraction(a, den) if a else _FRACTION_ZERO,
                    Fraction(b, den) if b else _FRACTION_ZERO,
                )
        for key, b in im.items():
            if b:
                out[_unpack(key, width, nvars)] = GaussianRational(
                    _FRACTION_ZERO, Fraction(b, den)
                )
        return out

    @staticmethod
    def _variables(*coords) -> tuple:
        """Values of the ring variables from the arguments of `evaluate`."""
        return coords

    def _evaluate(self, coords: tuple, also, tangents: tuple):
        """The body of the rings' `evaluate`.  The benchmark's tracer times
        numeric evaluation by wrapping `XPoly.evaluate` and `ZPoly.evaluate`,
        so every caller in the package evaluates through them."""
        if also is None and not tangents:
            return evaluate_polys((self,), coords)[0][..., 0]
        return evaluate_polys((self, *(also or ())), coords, tangents)

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
        """Product in the ring by the integer kernel (see `_integer_parts`);
        an exact scalar is multiplied as a constant polynomial."""
        other = self._coerce_poly(other)
        width = _key_width(self.total_degree() + other.total_degree())
        d1, re1, im1 = _integer_parts(self.terms, width)
        d2, re2, im2 = _integer_parts(other.terms, width)
        re: dict = {}
        im: dict = {}
        _convolve(re, re1, re2, 1)
        _convolve(re, im1, im2, -1)
        _convolve(im, re1, im2, 1)
        _convolve(im, im1, re2, 1)
        return type(self)(self._terms_from_integers(d1 * d2, re, im, width), _reduced=True)

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
    def _reduce_integers(cls, numerators, width):
        """x3^2 -> 1 - x1^2 - x2^2, one pass by x3-degree from the top down:
        a term of x3-degree c >= 2 moves to degree c - 2, which the pass
        reaches later.  Total degree never grows, so the fields stay in
        `width` bits."""
        mask = (1 << width) - 1
        top = max((key & mask for key in numerators), default=0)
        # key offsets of x3^-2, x1^2 x3^-2 and x2^2 x3^-2
        steps = (-2, (2 << 2 * width) - 2, (2 << width) - 2)
        get = numerators.get
        for level in range(top, 1, -1):
            for key in [key for key in numerators if key & mask == level]:
                v = numerators.pop(key)
                for step, s in zip(steps, (v, -v, -v)):
                    numerators[key + step] = get(key + step, 0) + s
        return numerators

    def conj(self) -> "XPoly":
        return XPoly({m: c.conj() for m, c in self.terms.items()}, _reduced=True)

    def evaluate(self, x1, x2, x3, *, also=None, tangents=()):
        """Values at (x1, x2, x3), scalars or arrays broadcasting to one shape
        S: an array of shape S.  Given `also` (more polynomials of the ring,
        possibly none) or `tangents`, all of them and their derivatives in one
        pass instead: `evaluate_polys((self, *also), (x1, x2, x3), tangents)`."""
        return self._evaluate((x1, x2, x3), also, tangents)


class ZPoly(_BasePoly):
    """Polynomial on S^3 in (z0, z1, zbar0, zbar1), canonical modulo
    |z0|^2 + |z1|^2 = 1 (no stored monomial contains both z0 and zbar0)."""

    NVARS = 4
    VAR_NAMES = ("z0", "z1", "zb0", "zb1")

    @classmethod
    def _reduce_integers(cls, numerators, width):
        """(z0 zb0)^k -> (1 - z1 zb1)^k by the binomial rule, one pass: no
        rewritten term contains both z0 and zb0."""
        mask = (1 << width) - 1
        z0_pair = (1 << 3 * width) | (1 << width)    # key of z0 zb0
        z1_pair = (1 << 2 * width) | 1               # key of z1 zb1
        out: dict = {}
        get = out.get
        for key, v in numerators.items():
            k = min(key >> 3 * width, key >> width & mask)
            if k == 0:
                out[key] = get(key, 0) + v
                continue
            base = key - k * z0_pair
            for j in range(k + 1):
                kk = base + j * z1_pair
                out[kk] = get(kk, 0) + (-1) ** j * math.comb(k, j) * v
        return out

    def conj(self) -> "ZPoly":
        return ZPoly(
            {(f0, f1, e0, e1): c.conj() for (e0, e1, f0, f1), c in self.terms.items()},
            _reduced=True,
        )

    def bidegree_map(self):
        """Per-monomial (holomorphic, antiholomorphic) degrees."""
        return {m: (m[0] + m[1], m[2] + m[3]) for m in self.terms}

    @staticmethod
    def _variables(z0, z1) -> tuple:
        return z0, z1, np.conjugate(z0), np.conjugate(z1)

    def evaluate(self, z0, z1, *, also=None, tangents=()):
        """Values at (z0, z1); see `XPoly.evaluate`."""
        return self._evaluate((z0, z1), also, tangents)


# Points per block of `evaluate_polys`.  A block holds about ten float arrays
# of shape (points, monomials).  Measured with Python 3.11 and numpy 2.4 on a
# 2-vCPU Linux VM: without blocks, `bundle-forge integrate --monomial 4,2,2`
# (10^6 samples) peaks at 349 MB RSS, with blocks of 2^12 points at 91 MB;
# 2^13 points would raise the numpy peak of the charge-8 quadrature on the
# 64x128 grid from 64 MB (its contraction) to 82 MB (its evaluation).
EVAL_BLOCK = 1 << 12


def _coefficient_matrix(polys: Sequence[_BasePoly], nvars: int) -> tuple:
    """(exponents, C): the union of the monomials of `polys` as a
    (monomials, nvars) integer array, and the complex coefficient matrix C
    of shape (monomials, polynomials)."""
    rows: dict = {}
    for p in polys:
        for m in p.terms:
            rows.setdefault(m, len(rows))
    exponents = np.array(list(rows), dtype=np.intp).reshape(len(rows), nvars)
    coeffs = np.zeros((len(rows), len(polys)), dtype=complex)
    for col, p in enumerate(polys):
        for m, c in p.terms.items():
            coeffs[rows[m], col] = complex(c)
    return exponents, coeffs


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """x^0 .. x^top by repeated multiplication, one column per power."""
    table = np.empty((x.size, top + 1), dtype=x.dtype)
    table[:, 0] = 1
    for e in range(1, top + 1):
        np.multiply(table[:, e - 1], x, out=table[:, e])
    return table


def evaluate_polys(polys: Sequence[_BasePoly], coords: tuple, tangents: tuple = ()) -> list:
    """Numeric values of polynomials of one ring at an array of points.

    `coords` are the arguments of the ring's `evaluate` (x1, x2, x3 or
    z0, z1): scalars or arrays broadcasting to one shape S.  Each entry of
    `tangents` holds the derivatives of those arguments along one direction
    (the chain rule through a chart), broadcasting to S as well.  Returns
    [values, *derivatives], complex arrays of shape S + (len(polys),).

    The polynomials share one coefficient matrix C (monomials x polynomials).
    Per block of EVAL_BLOCK points each variable's powers are built once by
    repeated multiplication, the monomial basis V is their product and the
    values are V.C.  A derivative multiplies the same C by the derivative of
    V along the tangent.  Callers in the package reach it through the
    rings' `evaluate` (see `_BasePoly._evaluate`).
    """
    if len({type(p) for p in polys}) > 1:
        raise TypeError("evaluate_polys takes polynomials of one ring")
    ring = type(polys[0]) if polys else _BasePoly
    arrays = np.broadcast_arrays(
        *ring._variables(*coords), *(v for t in tangents for v in ring._variables(*t))
    )
    shape = arrays[0].shape
    dtype = np.result_type(float, *arrays)
    nvars = len(arrays) // (1 + len(tangents))
    flat = [np.asarray(a, dtype=dtype).reshape(-1) for a in arrays]
    exponents, coeffs = _coefficient_matrix(polys, nvars)
    size = flat[0].size
    along = [flat[nvars * t:nvars * (t + 1)] for t in range(1, 1 + len(tangents))]
    outs = [np.empty((size, len(polys)), dtype=complex) for _ in range(1 + len(tangents))]
    for lo in range(0, size, EVAL_BLOCK):
        block = slice(lo, min(lo + EVAL_BLOCK, size))
        powers = [
            _power_table(x[block], int(exponents[:, v].max(initial=0)))
            for v, x in enumerate(flat[:nvars])
        ]
        gathered = [table[:, exponents[:, v]] for v, table in enumerate(powers)]
        np.matmul(functools.reduce(np.multiply, gathered), coeffs, out=outs[0][block])
        bases = [np.zeros_like(gathered[0]) for _ in tangents]
        for v, table in enumerate(powers):
            e = exponents[:, v]
            if not e.any():
                continue
            # dV/dx_v: e_v x_v^(e_v - 1) times the powers of the other variables
            dv = functools.reduce(
                np.multiply, gathered[:v] + gathered[v + 1:], table[:, np.maximum(e - 1, 0)] * e
            )
            for basis, tangent in zip(bases, along):
                basis += dv * tangent[v][block, None]
        for basis, out in zip(bases, outs[1:]):
            np.matmul(basis, coeffs, out=out[block])
    return [out.reshape(shape + (len(polys),)) for out in outs]


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
    independent of the pairing choice modulo the sphere ideal.  The powers of
    the generators are cached, so a monomial costs at most three products.
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
        factors = [_pair_power(g, power) for g, power in enumerate((a, b, c, d)) if power]
        result = result + functools.reduce(operator.mul, factors or [XPoly.one()]) * coeff
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
