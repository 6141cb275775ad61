"""Vector-valued functions on the spheres and their sesquilinear pairings.

The monopole families are rows of weighted monomials in (z0, z1): square
roots of binomial coefficients are never expanded, only their squares (the
"weights") are stored, and every pairing combines weights in pairs so that
all computed scalars stay Gaussian-rational.  The real geometric objects of
the tangent/normal story (the rotation fields, their 6-component partners
and the 6x3 intertwiner) carry a single squared scale factor instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_ring import (
    GR_I,
    GR_ONE,
    GaussianRational,
    X1,
    X2,
    X3,
    XPoly,
    ZPoly,
    dagger,
    rational_sqrt,
    weighted_matmul,
)
from .forms import ZForm


class WeightMismatchError(ValueError):
    """Componentwise weight products are not perfect squares; the pairing
    would leave the exact coefficient field."""


@dataclass(frozen=True)
class EquivariantKet:
    """A bra-row of components sqrt(w_k) * poly_k with poly_k in ZPoly.

    Each component is homogeneous in bidegree and all components share the
    same (holomorphic - antiholomorphic) degree, the equivariance type.
    """

    weights: tuple
    polys: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.polys):
            raise ValueError("weights and components must have equal length")
        for w in self.weights:
            if w <= 0:
                raise ValueError("weights must be positive rationals")

    def __len__(self) -> int:
        return len(self.polys)

    def to_json(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "components": [p.to_json() for p in self.polys],
        }

    @staticmethod
    def from_json(data: dict) -> "EquivariantKet":
        weights = tuple(Fraction(w) for w in data["weights"])
        polys = tuple(ZPoly.from_json(p) for p in data["components"])
        return EquivariantKet(weights, polys)

    def evaluate(self, z0: complex, z1: complex):
        """Numeric component row sqrt(w_k) * poly_k(z)."""
        return [
            math.sqrt(float(w)) * p.evaluate(z0, z1)
            for w, p in zip(self.weights, self.polys)
        ]


def monopole_ket(sign: str, n: int) -> EquivariantKet:
    """The (n+1)-component monopole row for representation type -n ("minus",
    components sqrt(C(n,k)) z0^{n-k} z1^k) or +n ("plus", the conjugates)."""
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    weights = tuple(Fraction(math.comb(n, k)) for k in range(n + 1))
    if sign == "minus":
        polys = tuple(ZPoly.monomial((n - k, k, 0, 0)) for k in range(n + 1))
    else:
        polys = tuple(ZPoly.monomial((0, 0, n - k, k)) for k in range(n + 1))
    return EquivariantKet(weights, polys)


def tilde_ket2() -> EquivariantKet:
    """The alternative type-(-2) row (1/sqrt2)(z1^2 - z0^2, z1^2 + z0^2, 2 z0 z1)."""
    half = Fraction(1, 2)
    z0sq = ZPoly.monomial((2, 0, 0, 0))
    z1sq = ZPoly.monomial((0, 2, 0, 0))
    z0z1 = ZPoly.monomial((1, 1, 0, 0))
    return EquivariantKet(
        (half, half, half),
        (z1sq - z0sq, z1sq + z0sq, z0z1 * 2),
    )


def pairing(a: EquivariantKet, b: EquivariantKet) -> ZPoly:
    """<a|b> = sum_k sqrt(w^a_k w^b_k) a_k conj(b_k), reduced canonically.

    Rejected when a componentwise weight product is not a perfect square,
    since the scalar would leave the Gaussian rationals.
    """
    if len(a) != len(b):
        raise ValueError("kets must have equal length")
    total = ZPoly.zero()
    for wa, wb, pa, pb in zip(a.weights, b.weights, a.polys, b.polys):
        root = rational_sqrt(wa * wb)
        if root is None:
            raise WeightMismatchError(
                f"weight product {wa}*{wb} has no rational square root"
            )
        total = total + pa * pb.conj() * root
    return total


def connection_form(k: EquivariantKet) -> ZForm:
    """The connection 1-form <psi|d psi> = sum_k w_k poly_k d(conj poly_k)."""
    total = ZForm.zero()
    for w, p in zip(k.weights, k.polys):
        total = total + ZForm.from_poly(p.conj()).d() * p * w
    return total


def curvature_scalar(k: EquivariantKet) -> ZForm:
    """<d psi | d psi> = sum_k w_k d(poly_k) ^ d(conj poly_k), a 2-form."""
    total = ZForm.zero()
    for w, p in zip(k.weights, k.polys):
        dp = ZForm.from_poly(p).d()
        dpc = ZForm.from_poly(p.conj()).d()
        total = total + dp.wedge(dpc) * w
    return total


def poly_equivariance_type(p: ZPoly) -> int:
    """The uniform (holomorphic - antiholomorphic) degree of a ZPoly."""
    if p.is_zero():
        return 0
    types = {(m[0] + m[1]) - (m[2] + m[3]) for m in p.terms}
    if len(types) > 1:
        raise ValueError(f"mixed equivariance types {sorted(types)}")
    return types.pop()


def equivariance_type(k: EquivariantKet) -> int:
    """The integer m with phi(p.w) = w^m phi(p), uniform across components."""
    types = set()
    for p in k.polys:
        if p.is_zero():
            continue
        bidegs = set(p.bidegree_map().values())
        if len(bidegs) > 1:
            raise ValueError(f"component {p} is not bidegree-homogeneous")
        types.add(poly_equivariance_type(p))
    if len(types) > 1:
        raise ValueError(f"components carry mixed equivariance types {sorted(types)}")
    return types.pop() if types else 0


@dataclass(frozen=True)
class ScaledXVector:
    """A real vector-valued function sqrt(scale) * (f_1, ..., f_N) on S^2."""

    scale: Fraction
    comps: tuple

    def __len__(self) -> int:
        return len(self.comps)


@dataclass(frozen=True)
class ScaledXMatrix:
    """A matrix-valued function sqrt(scale) * (m_jk) on S^2."""

    scale: Fraction
    rows: tuple

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    def apply(self, v: ScaledXVector) -> ScaledXVector:
        nrow, ncol = self.shape
        if ncol != len(v):
            raise ValueError("dimension mismatch")
        comps = []
        for row in self.rows:
            acc = XPoly.zero()
            for m, c in zip(row, v.comps):
                acc = acc + m * c
            comps.append(acc)
        return ScaledXVector(self.scale * v.scale, tuple(comps))

    def gram(self):
        """u^dagger u with the radical scale squared away; XPoly entries."""
        return weighted_matmul(dagger(self.rows), (self.scale,) * len(self.rows), self.rows)

    def cogram(self):
        """u u^dagger with the radical scale squared away; XPoly entries."""
        return weighted_matmul(self.rows, (self.scale,) * len(self.rows[0]), dagger(self.rows))


def x_vector_pairing(a: ScaledXVector, b: ScaledXVector) -> XPoly:
    """<a|b> = sqrt(scale_a scale_b) sum_k a_k conj(b_k)."""
    if len(a) != len(b):
        raise ValueError("vectors must have equal length")
    root = rational_sqrt(a.scale * b.scale)
    if root is None:
        raise WeightMismatchError(
            f"scale product {a.scale}*{b.scale} has no rational square root"
        )
    acc = XPoly.zero()
    for pa, pb in zip(a.comps, b.comps):
        acc = acc + pa * pb.conj()
    return acc * root


@dataclass(frozen=True)
class RealGeometry:
    """The named real objects of the tangent-bundle story."""

    psi_nor: ScaledXVector
    V: tuple
    W: tuple
    u: ScaledXMatrix


def named_real_objects() -> RealGeometry:
    """Exact transcription of the normal row, the three rotation fields V_l,
    their 6-component partners W_l and the 6x3 intertwiner u."""
    one = Fraction(1)
    half = Fraction(1, 2)
    zero = XPoly.zero()

    psi_nor = ScaledXVector(one, (X1, X2, X3))

    V = (
        ScaledXVector(one, (zero, -X3, X2)),
        ScaledXVector(one, (X3, zero, -X1)),
        ScaledXVector(one, (-X2, X1, zero)),
    )

    one_m_x1sq = XPoly.one() - X1 * X1
    one_m_x2sq = XPoly.one() - X2 * X2
    one_m_x3sq = XPoly.one() - X3 * X3
    x1x2, x1x3, x2x3 = X1 * X2, X1 * X3, X2 * X3

    W = (
        ScaledXVector(half, (one_m_x1sq, zero, -X3, x1x2, -x1x3, X2)),
        ScaledXVector(half, (-x1x2, X3, zero, -one_m_x2sq, -x2x3, -X1)),
        ScaledXVector(half, (-x1x3, -X2, X1, x2x3, one_m_x3sq, zero)),
    )

    u = ScaledXMatrix(
        half,
        (
            (zero, -X3, X2),
            (one_m_x1sq, -x1x2, -x1x3),
            (-x1x2, one_m_x2sq, -x2x3),
            (-X3, zero, X1),
            (-X2, X1, zero),
            (-x1x3, -x2x3, one_m_x3sq),
        ),
    )

    return RealGeometry(psi_nor=psi_nor, V=V, W=W, u=u)
