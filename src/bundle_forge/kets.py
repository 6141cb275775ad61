"""Vector-valued functions on the spheres and their sesquilinear pairings.

The monopole families are rows of weighted monomials in (z0, z1): square
roots of binomial coefficients are never expanded, only their squares (the
"weights") are stored, and every pairing combines weights in pairs so that
all computed scalars stay Gaussian-rational.  The real objects of the
tangent/normal story are partial isometries in `bundles`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_ring import ZPoly, rational_sqrt
from .forms import ZForm


class WeightMismatchError(ValueError):
    """Componentwise weight products are not perfect squares; the pairing
    would leave the exact coefficient field."""


@dataclass(frozen=True)
class EquivariantKet:
    """A bra-row of components sqrt(w_k) * poly_k with poly_k in ZPoly.

    Every monomial of every component has the same (holomorphic -
    antiholomorphic) degree, the equivariance type.
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

    @functools.cached_property
    def is_unit(self) -> bool:
        """<psi|psi> = 1 in the ring, decided by `pairing` on the first read."""
        return pairing(self, self) == ZPoly.one()


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
    """<a|b> = sum_k sqrt(w^a_k w^b_k) a_k conj(b_k), one fused sum of products.

    Rejected when a componentwise weight product is not a perfect square,
    since the scalar would leave the Gaussian rationals.
    """
    if len(a) != len(b):
        raise ValueError("kets must have equal length")
    terms = []
    for wa, wb, pa, pb in zip(a.weights, b.weights, a.polys, b.polys):
        root = rational_sqrt(wa * wb)
        if root is None:
            raise WeightMismatchError(
                f"weight product {wa}*{wb} has no rational square root"
            )
        terms.append((root, pa, pb.conj()))
    return ZPoly.sum_of_products(terms)


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
    """The integer m with phi(p.w) = w^m phi(p), uniform across components.

    Each component needs one (holomorphic - antiholomorphic) degree, not
    one bidegree: the sphere reduction z0 zb0 -> 1 - z1 zb1 keeps the
    first and breaks the second."""
    types = {poly_equivariance_type(p) for p in k.polys if not p.is_zero()}
    if len(types) > 1:
        raise ValueError(f"components carry mixed equivariance types {sorted(types)}")
    return types.pop() if types else 0
