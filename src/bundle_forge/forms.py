"""Graded exterior algebra over the two quotient rings.

Forms are stored as maps from strictly increasing tuples of 1-form basis
indices to polynomial coefficients, so antisymmetry of the wedge is built
into the representation.  XForm lives over (dx1, dx2, dx3) up to degree 3;
ZForm over (dz0, dz1, dzb0, dzb1) and is capped at degree 2, which is all
the curvature computations need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exact_ring import (
    GR_I,
    GaussianRational,
    VolumeUnits,
    X1,
    X2,
    X3,
    XPoly,
    Z0,
    Z1,
    ZB0,
    ZB1,
    ZPoly,
    integrate_xpoly,
)


class DegreeOverflowError(ValueError):
    """Wedge product exceeds the representable degree range."""


def _merge_indices(a: tuple, b: tuple):
    """Concatenate sorted index tuples; returns (sorted tuple, sign) or None."""
    if set(a) & set(b):
        return None
    merged = a + b
    # parity of the permutation sorting `merged`
    indices = list(merged)
    sign = 1
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                sign = -sign
    return tuple(sorted(merged)), sign


def _basis_on_fields(idx: tuple, fields: tuple):
    """The wedge of the basis 1-forms `idx` (at most two) on as many vector
    fields, each given as the values of the basis 1-forms on it."""
    if not idx:
        return 1
    if len(idx) == 1:
        return fields[0][idx[0]]
    (i, j), (u, v) = idx, fields
    return u[i] * v[j] - u[j] * v[i]


class _BaseForm:
    POLY = None  # polynomial ring class
    NGEN = 0
    MAX_DEGREE = 0
    BASIS_NAMES: tuple = ()

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        out = {}
        for idx, poly in (terms or {}).items():
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"basis index tuple must be strictly increasing: {idx}")
            if len(idx) > self.MAX_DEGREE:
                raise DegreeOverflowError(
                    f"degree {len(idx)} exceeds cap {self.MAX_DEGREE} for {type(self).__name__}"
                )
            if not isinstance(poly, self.POLY):
                poly = self.POLY.constant(poly)
            if not poly.is_zero():
                out[idx] = poly
        self.terms = out

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def from_poly(cls, p):
        return cls({(): p})

    @classmethod
    def basis_one_form(cls, i: int):
        return cls({(i,): cls.POLY.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, d: int) -> bool:
        return all(len(i) == d for i in self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for i, p in other.terms.items():
            out[i] = out[i] + p if i in out else p
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return type(self)({i: -p for i, p in self.terms.items()})

    def __mul__(self, scalar):
        """Multiplication by a ring element or exact scalar."""
        return type(self)({i: p * scalar for i, p in self.terms.items()})

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self.POLY):
            return type(self).from_poly(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return type(self).from_poly(self.POLY.constant(other))
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def wedge(self, other):
        other = self._coerce(other)
        out: dict = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in other.terms.items():
                if len(i1) + len(i2) > self.MAX_DEGREE:
                    raise DegreeOverflowError(
                        f"wedge degree {len(i1) + len(i2)} exceeds cap "
                        f"{self.MAX_DEGREE} for {type(self).__name__}"
                    )
                merged = _merge_indices(i1, i2)
                if merged is None:
                    continue
                idx, sign = merged
                term = p1 * p2 if sign > 0 else -(p1 * p2)
                out[idx] = out[idx] + term if idx in out else term
        return type(self)(out)

    def on_fields(self, fields: tuple):
        """The part of degree len(fields) (at most two) evaluated on the
        vector fields `fields`, each given as the values of the basis 1-forms
        on it; a polynomial of the form's ring."""
        total = self.POLY.zero()
        for idx, poly in self.terms.items():
            if len(idx) == len(fields):
                total = total + poly * _basis_on_fields(idx, fields)
        return total

    def d(self):
        """Exterior derivative (linear, graded Leibniz, d o d = 0)."""
        out: dict = {}
        for idx, poly in self.terms.items():
            for v in range(self.NGEN):
                dp = poly.diff(v)
                if dp.is_zero():
                    continue
                merged = _merge_indices((v,), idx)
                if merged is None:
                    continue
                new_idx, sign = merged
                term = dp if sign > 0 else -dp
                out[new_idx] = out[new_idx] + term if new_idx in out else term
        return type(self)(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset((i, hash(p)) for i, p in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            basis = "^".join(self.BASIS_NAMES[k] for k in idx)
            coeff = str(self.terms[idx])
            if basis:
                parts.append(f"({coeff})*{basis}")
            else:
                parts.append(f"({coeff})")
        return " + ".join(parts)

    __repr__ = __str__


class XForm(_BaseForm):
    POLY = XPoly
    NGEN = 3
    MAX_DEGREE = 3
    BASIS_NAMES = ("dx1", "dx2", "dx3")


class ZForm(_BaseForm):
    POLY = ZPoly
    NGEN = 4
    MAX_DEGREE = 2
    BASIS_NAMES = ("dz0", "dz1", "dzb0", "dzb1")

    # conjugation swaps dz_i <-> dzb_i
    _CONJ_INDEX = (2, 3, 0, 1)

    def conj(self) -> "ZForm":
        out: dict = {}
        for idx, poly in self.terms.items():
            mapped = tuple(self._CONJ_INDEX[k] for k in idx)
            if len(mapped) == 2 and mapped[0] > mapped[1]:
                out[mapped[::-1]] = -poly.conj()
            else:
                out[mapped] = poly.conj()
        return ZForm(out)


DX1, DX2, DX3 = (XForm.basis_one_form(i) for i in range(3))
DZ0, DZ1, DZB0, DZB1 = (ZForm.basis_one_form(i) for i in range(4))

# The SU(2) frame of S^3: iz, xi and J xi, each given as the values of
# (dz0, dz1, dzb0, dzb1) on it.  They span the tangent space at every point;
# xi and J xi are horizontal for the Hopf map S^3 -> S^2, which doubles
# their lengths.
S3_FRAME = (
    (Z0 * GR_I, Z1 * GR_I, -ZB0 * GR_I, -ZB1 * GR_I),
    (-ZB1, ZB0, -Z1, Z0),
    (-ZB1 * GR_I, ZB0 * GR_I, Z1 * GR_I, -Z0 * GR_I),
)

# The rotation fields V_l = e_l x x of S^2, each given as the values of
# (dx1, dx2, dx3) on it.  They span the tangent space at every point.
S2_FRAME = (
    (XPoly.zero(), -X3, X2),
    (X3, XPoly.zero(), -X1),
    (-X2, X1, XPoly.zero()),
)

# dvol(S^2) = x1 dx2 dx3 + x2 dx3 dx1 + x3 dx1 dx2, total integral 4*pi
VOLUME_FORM = (
    DX2.wedge(DX3) * X1 + DX3.wedge(DX1) * X2 + DX1.wedge(DX2) * X3
)


def restrict_to_sphere(omega: XForm) -> XPoly:
    """The coefficient g of an ambient 2-form restricted to S^2 as
    g * dvol(S^2).

    On the sphere dx_mu ^ dx_nu = eps_{mu nu lam} x_lam * dvol, so
    g = f_{12} x3 + f_{23} x1 - f_{13} x2 (index tuples are 0-based).  Well
    defined modulo the ideal (r, dr).
    """
    if not omega.is_homogeneous(2):
        raise ValueError("restrict_to_sphere expects a pure degree-2 form")
    g = XPoly.zero()
    pairing = {(0, 1): X3, (1, 2): X1, (0, 2): -X2}
    for idx, poly in omega.terms.items():
        g = g + poly * pairing[idx]
    return g


def integrate_s2(omega) -> VolumeUnits:
    """Exact integral over S^2 of a degree-2 XForm, or of g * dvol(S^2) for
    an XPoly g, as a Gaussian-rational multiple of 4*pi."""
    if isinstance(omega, XForm):
        omega = restrict_to_sphere(omega)
    if not isinstance(omega, XPoly):
        raise TypeError("integrate_s2 expects an XForm of degree 2 or an XPoly")
    return integrate_xpoly(omega)
