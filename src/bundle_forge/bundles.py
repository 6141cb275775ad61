"""Projectors over S^2: construction, axioms, Chern forms, gauge moves.

A projector is stored factored as p = D M D with D = diag(sqrt(w_k)) and a
hermitian core M of XPoly entries, so idempotency, traces and the Chern
integrand tr(M W dM W dM W) all stay inside the exact Gaussian-rational
field even when the dense matrix entries carry sqrt-binomial factors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact_ring import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    X1,
    X2,
    X3,
    XPoly,
    ZPoly,
    dagger,
    rational_sqrt,
    weighted_matmul,
    x_to_z,
    z_to_x,
)
from .forms import SphereTwoForm, XForm, ZForm, integrate_s2, restrict_to_sphere
from .kets import (
    EquivariantKet,
    ScaledXMatrix,
    ScaledXVector,
    connection_form,
    equivariance_type,
    poly_equivariance_type,
)


class ChernConsistencyError(ArithmeticError):
    """The exact Chern number came out non-real or non-integer; this signals
    an implementation bug, not a data condition."""


class UnsupportedGaugeError(ValueError):
    """The gauge matrix does not preserve the factored representation."""


@dataclass(frozen=True)
class WeightedProjector:
    """p = D M D with D = diag(sqrt(weights)) and hermitian core M."""

    weights: tuple
    core: tuple  # tuple of rows of XPoly
    label: str = "p"

    @property
    def dim(self) -> int:
        return len(self.weights)

    def entry(self, j: int, k: int) -> XPoly:
        """Dense entry sqrt(w_j w_k) * M_jk; requires a rational root."""
        root = rational_sqrt(self.weights[j] * self.weights[k])
        if root is None:
            raise ValueError(
                f"entry ({j},{k}) carries an irrational radical "
                f"sqrt({self.weights[j]}*{self.weights[k]})"
            )
        return self.core[j][k] * root

    def dense(self):
        """Full matrix of dense XPoly entries (when all radicals resolve)."""
        n = self.dim
        return tuple(tuple(self.entry(j, k) for k in range(n)) for j in range(n))

    def trace(self) -> XPoly:
        acc = XPoly.zero()
        for k in range(self.dim):
            acc = acc + self.core[k][k] * self.weights[k]
        return acc

    def is_hermitian(self) -> bool:
        n = self.dim
        return all(
            self.core[j][k] == self.core[k][j].conj()
            for j in range(n)
            for k in range(j, n)
        )

    def idempotency_defect(self):
        """M W M - M, entrywise; all-zero iff p^2 = p."""
        square = weighted_matmul(self.core, self.weights, self.core)
        return tuple(
            tuple(e - m for e, m in zip(sq_row, row))
            for sq_row, row in zip(square, self.core)
        )

    def is_idempotent(self) -> bool:
        return all(e.is_zero() for row in self.idempotency_defect() for e in row)

    def to_json(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "core": [[e.to_json() for e in row] for row in self.core],
        }

    @staticmethod
    def from_json(data: dict, label: str = "p") -> "WeightedProjector":
        weights = tuple(Fraction(w) for w in data["weights"])
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive rationals")
        n = len(weights)
        if len(data["core"]) != n or any(len(row) != n for row in data["core"]):
            raise ValueError(f"core must be a square {n}x{n} matrix, one row per weight")
        core = tuple(
            tuple(XPoly.from_json(e) for e in row) for row in data["core"]
        )
        return WeightedProjector(weights, core, label)

    def evaluate(self, x1, x2, x3):
        """Dense complex matrix field at points of S^2 (numpy-friendly)."""
        return self.evaluate_along((x1, x2, x3))[0]

    def evaluate_along(self, coords: tuple, tangents: tuple = ()) -> list:
        """[P, *derivatives]: the dense complex matrix field at the points
        `coords` = (x1, x2, x3) and its derivatives along each of `tangents`
        (see `exact_ring.evaluate_polys`), arrays of shape (..., n, n)."""
        n = self.dim
        roots = [float(w) ** 0.5 for w in self.weights]
        scale = np.outer(roots, roots)
        first, *rest = (e for row in self.core for e in row)
        fields = [
            values.reshape(values.shape[:-1] + (n, n))
            for values in first.evaluate(*coords, also=rest, tangents=tangents)
        ]
        for f in fields:
            f *= scale
        return fields


def dense_equal(p: WeightedProjector, q: WeightedProjector) -> bool:
    """Entrywise equality of the dense matrices after canonical reduction."""
    if p.dim != q.dim:
        return False
    n = p.dim
    return all(p.entry(j, k) == q.entry(j, k) for j in range(n) for k in range(n))


def projector_from_ket(k: EquivariantKet, label: str | None = None) -> WeightedProjector:
    """p = |psi><psi| in factored form: M_jk = z_to_x(conj(poly_j) poly_k).

    Only j <= k is converted: z_to_x commutes with conjugation, so
    M_kj = conj(M_jk)."""
    n = len(k)
    upper = {
        (j, kk): z_to_x(k.polys[j].conj() * k.polys[kk]) for j in range(n) for kk in range(j, n)
    }
    core = tuple(
        tuple(upper[j, kk] if j <= kk else upper[kk, j].conj() for kk in range(n))
        for j in range(n)
    )
    return WeightedProjector(tuple(k.weights), core, label or "p")


def normal_projector() -> WeightedProjector:
    """p_nor = |x><x| on the rank-3 trivial module; real rank 1."""
    xs = (X1, X2, X3)
    core = tuple(tuple(a * b for b in xs) for a in xs)
    return WeightedProjector((Fraction(1),) * 3, core, "p_nor")


def tangent_projector() -> WeightedProjector:
    """p_tan = 1 - p_nor; real rank 2."""
    nor = normal_projector()
    core = []
    for j in range(3):
        row = []
        for k in range(3):
            e = -nor.core[j][k]
            if j == k:
                e = e + XPoly.one()
            row.append(e)
        core.append(tuple(row))
    return WeightedProjector((Fraction(1),) * 3, tuple(core), "p_tan")


def sum_of_dyads(vectors: Sequence[ScaledXVector], label: str = "dyads") -> WeightedProjector:
    """sum_l |v_l><v_l| with each vector's squared scale folded in."""
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("vectors must have equal length")
    stacked = tuple(zip(*(v.comps for v in vectors)))  # column l is vectors[l]
    core = weighted_matmul(stacked, [v.scale for v in vectors], dagger(stacked))
    return WeightedProjector((Fraction(1),) * n, core, label)


@dataclass(frozen=True)
class AxiomReport:
    idempotent: bool
    hermitian: bool
    trace_constant: bool
    trace: str

    @property
    def all_pass(self) -> bool:
        return self.idempotent and self.hermitian and self.trace_constant

    def to_json(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "hermitian": self.hermitian,
            "trace": self.trace if self.trace_constant else f"non-constant:{self.trace}",
        }


def verify_axioms(p: WeightedProjector) -> AxiomReport:
    tr = p.trace()
    constant = tr.is_constant()
    return AxiomReport(
        idempotent=p.is_idempotent(),
        hermitian=p.is_hermitian(),
        trace_constant=constant,
        trace=str(tr.constant_value()) if constant else str(tr),
    )


def transpose(p: WeightedProjector) -> WeightedProjector:
    core = tuple(
        tuple(p.core[k][j] for k in range(p.dim)) for j in range(p.dim)
    )
    return WeightedProjector(p.weights, core, f"{p.label}^t")


def real_form(p: WeightedProjector) -> WeightedProjector:
    """Doubling a+ib -> [[a,-b],[b,a]] entrywise; weights duplicate pairwise."""
    n = p.dim
    weights = tuple(w for w in p.weights for _ in range(2))
    core = [[None] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        for k in range(n):
            e = p.core[j][k]
            a = XPoly({m: GaussianRational(c.re) for m, c in e.terms.items()})
            b = XPoly({m: GaussianRational(c.im) for m, c in e.terms.items()})
            core[2 * j][2 * k] = a
            core[2 * j][2 * k + 1] = -b
            core[2 * j + 1][2 * k] = b
            core[2 * j + 1][2 * k + 1] = a
    return WeightedProjector(
        weights, tuple(tuple(row) for row in core), f"({p.label})^R"
    )


def curvature_trace_form(p: WeightedProjector) -> XForm:
    """tr(p (dp)^2) in the factored representation: tr(M W dM W dM W)."""
    n = p.dim
    w = p.weights
    dM = [[XForm.from_poly(p.core[j][k]).d() for k in range(n)] for j in range(n)]
    total = XForm.zero()
    for j in range(n):
        for k in range(n):
            if p.core[j][k].is_zero():
                continue
            for l in range(n):
                piece = dM[k][l].wedge(dM[l][j])
                if piece.is_zero():
                    continue
                total = total + piece * p.core[j][k] * (w[j] * w[k] * w[l])
    return total


def chern_form_exact(p: WeightedProjector) -> SphereTwoForm:
    """The curvature trace 2-form tr(p (dp)^2) restricted to S^2.

    The first Chern form is -(1/2*pi*i) times this; the transcendental
    factor is applied only in chern_number_exact so the coefficient stays
    Gaussian-rational.
    """
    return restrict_to_sphere(curvature_trace_form(p))


def chern_number_exact(p: WeightedProjector) -> int:
    """c1(p) = -(1/2*pi*i) * integral of tr(p (dp)^2) over S^2, exactly.

    With the integral returned in units of 4*pi this is 2i times the
    rational volume value; the result is asserted to be a real integer.
    """
    v = integrate_s2(chern_form_exact(p)).value
    c1 = v * GR_I * 2
    if not c1.is_integer():
        raise ChernConsistencyError(
            f"Chern number of {p.label} is not an integer: {c1}"
        )
    return int(c1.re)


@dataclass(frozen=True)
class ChernReport:
    object_id: str
    backend: str  # "exact" | "quad"
    c1: object  # int for exact, float for quad
    axioms: AxiomReport | None
    ms: float

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "backend": self.backend,
            "c1": str(self.c1) if self.backend == "exact" else self.c1,
            "axioms": self.axioms.to_json() if self.axioms else None,
            "ms": self.ms,
        }


def chern_report_exact(p: WeightedProjector) -> ChernReport:
    start = time.perf_counter()
    axioms = verify_axioms(p)
    c1 = chern_number_exact(p)
    ms = (time.perf_counter() - start) * 1000.0
    return ChernReport(p.label, "exact", c1, axioms, ms)


@dataclass(frozen=True)
class Section:
    """An element of the free module (A_C)^N: a column of XPoly coefficients."""

    comps: tuple

    def __len__(self) -> int:
        return len(self.comps)


@dataclass(frozen=True)
class WeightedZSum:
    """sum_k sqrt(w_k) * q_k with q_k in ZPoly; radicals kept factored.

    Terms with equal weight are coalesced, so e.g. a plain polynomial shows
    up as the single term (1, q)."""

    terms: tuple  # of (Fraction weight, ZPoly)

    def equivariance_type(self) -> int:
        types = {
            poly_equivariance_type(q) for _, q in self.terms if not q.is_zero()
        }
        if len(types) > 1:
            raise ValueError(f"mixed equivariance types {sorted(types)}")
        return types.pop() if types else 0

    def is_zero(self) -> bool:
        return all(q.is_zero() for _, q in self.terms)

    def __str__(self) -> str:
        parts = [
            (f"({q})" if w == 1 else f"sqrt({w})*({q})")
            for w, q in self.terms
            if not q.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def section_pairing(k: EquivariantKet, f: Section) -> WeightedZSum:
    """The equivariant function <psi | f> = sum_k sqrt(w_k) poly_k f_k."""
    if len(k) != len(f):
        raise ValueError("section length must match ket length")
    acc: dict = {}
    for w, p, fk in zip(k.weights, k.polys, f.comps):
        q = p * x_to_z(fk)
        if q.is_zero():
            continue
        acc[w] = acc[w] + q if w in acc else q
    terms = tuple(sorted(acc.items(), key=lambda t: t[0]))
    return WeightedZSum(terms if terms else ((Fraction(1), ZPoly.zero()),))


def covariant_derivative(k: EquivariantKet, phi: ZPoly) -> ZForm:
    """nabla phi = d phi + <psi|d psi> phi for an equivariant function phi."""
    if poly_equivariance_type(phi) != equivariance_type(k):
        raise ValueError("equivariance type of phi does not match the ket")
    return ZForm.from_poly(phi).d() + connection_form(k) * phi


# ---------------------------------------------------------------------------
# Exact gauge conjugation and partial isometries
# ---------------------------------------------------------------------------


def _as_gaussian_matrix(s) -> tuple:
    return tuple(
        tuple(
            e if isinstance(e, GaussianRational) else GaussianRational(e)
            for e in row
        )
        for row in s
    )


def _signed_permutation(s) -> list | None:
    """Decode s as a signed permutation: perm[j], sign[j] with
    s[j][perm[j]] = sign[j] in {+1, -1}; None if s is not of this shape."""
    n = len(s)
    perm, signs = [], []
    for row in s:
        hits = [(k, e) for k, e in enumerate(row) if e]
        if len(hits) != 1:
            return None
        k, e = hits[0]
        if e.im != 0 or abs(e.re) != 1:
            return None
        perm.append(k)
        signs.append(1 if e.re > 0 else -1)
    if sorted(perm) != list(range(n)):
        return None
    return [perm, signs]


def _is_exact_unitary(s) -> bool:
    n = len(s)
    for j in range(n):
        for k in range(n):
            acc = GR_ZERO
            for l in range(n):
                acc = acc + s[j][l] * s[k][l].conj()
            if acc != (GR_ONE if j == k else GR_ZERO):
                return False
    return True


@dataclass(frozen=True)
class PartialIsometry:
    """v = D_L C D_R with diagonal radical factors on both sides."""

    left_weights: tuple
    core: tuple
    right_weights: tuple

    def times_dagger(self) -> WeightedProjector:
        """v v^dagger as a weighted projector candidate."""
        core = weighted_matmul(self.core, self.right_weights, dagger(self.core))
        return WeightedProjector(self.left_weights, core, "vv+")

    def dagger_times(self) -> WeightedProjector:
        """v^dagger v as a weighted projector candidate."""
        core = weighted_matmul(dagger(self.core), self.left_weights, self.core)
        return WeightedProjector(self.right_weights, core, "v+v")


def exact_gauge(p: WeightedProjector, s) -> tuple:
    """Conjugate p by s inside the exact field: p^s = s p s^dagger, v = s p.

    s must be a signed permutation matrix, or any exact-unitary matrix of
    Gaussian rationals when all weights of p are equal.
    Returns (p_s, v) with v a PartialIsometry satisfying v v+ = p^s and
    v+ v = p (verify with isometry projector products).
    """
    s = _as_gaussian_matrix(s)
    n = p.dim
    if len(s) != n or any(len(row) != n for row in s):
        raise UnsupportedGaugeError("gauge matrix dimension mismatch")
    decoded = _signed_permutation(s)
    if decoded is not None:
        perm, signs = decoded
        weights = tuple(p.weights[perm[j]] for j in range(n))
        core = tuple(
            tuple(
                p.core[perm[j]][perm[k]] * (signs[j] * signs[k])
                for k in range(n)
            )
            for j in range(n)
        )
        p_s = WeightedProjector(weights, core, f"{p.label}^s")
        v_core = tuple(
            tuple(p.core[perm[j]][k] * signs[j] for k in range(n))
            for j in range(n)
        )
        v = PartialIsometry(weights, v_core, p.weights)
        return p_s, v
    if len(set(p.weights)) != 1:
        raise UnsupportedGaugeError(
            "non-permutation gauges require uniform projector weights"
        )
    if not _is_exact_unitary(s):
        raise UnsupportedGaugeError("gauge matrix is not exact-unitary")
    # s commutes with the uniform D, so p^s = D (s M s+) D; the entries of s
    # become constant XPolys so that the kernel always multiplies XPolys
    s_poly = tuple(tuple(XPoly.constant(e) for e in row) for row in s)
    ones = (1,) * n
    sM = weighted_matmul(s_poly, ones, p.core)
    core = weighted_matmul(sM, ones, dagger(s_poly))
    p_s = WeightedProjector(p.weights, core, f"{p.label}^s")
    v = PartialIsometry(p.weights, sM, p.weights)
    return p_s, v


@dataclass(frozen=True)
class IsometryReport:
    dagger_times_matches_src: bool
    times_dagger_matches_dst: bool

    @property
    def all_pass(self) -> bool:
        return self.dagger_times_matches_src and self.times_dagger_matches_dst


def isometry_verify(
    u: ScaledXMatrix, src: WeightedProjector, dst: WeightedProjector
) -> IsometryReport:
    """Exact entrywise check that u^dagger u = src and u u^dagger = dst."""
    nrow, ncol = u.shape
    if ncol != src.dim or nrow != dst.dim:
        raise ValueError("dimension mismatch between isometry and projectors")
    src_dense = src.dense()
    dst_dense = dst.dense()
    gram = u.gram()
    cogram = u.cogram()
    ok_src = all(
        gram[j][k] == src_dense[j][k] for j in range(ncol) for k in range(ncol)
    )
    ok_dst = all(
        cogram[j][k] == dst_dense[j][k] for j in range(nrow) for k in range(nrow)
    )
    return IsometryReport(ok_src, ok_dst)
