"""Floating-point verification backend, independent of the exact pipeline.

Chern numbers by Gauss-Legendre x trapezoid quadrature in the chart
x = (sin(t)cos(f), sin(t)sin(f), cos(t)), a Monte-Carlo oracle for the
exact monomial integrals, and numeric tangent-frame checks on S^3 for the
identities that hold modulo the sphere ideal (r, dr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundles import WeightedProjector, projector_from_ket
from .exact_ring import XPoly
from .forms import ZForm
from .kets import EquivariantKet


class QuadratureError(RuntimeError):
    """Pointwise projector axiom violation or non-finite quadrature values."""


@dataclass(frozen=True)
class SphereGrid:
    """Product grid: Gauss-Legendre in cos(theta), uniform trapezoid in phi.

    `gl_nodes` are the cos(theta) values, `gl_weights` the matching GL
    weights (summing to 2); dvol weights gl_weights * (2*pi/azimuthal)
    sum to 4*pi.
    """

    polar: int
    azimuthal: int
    gl_nodes: np.ndarray
    gl_weights: np.ndarray
    phi: np.ndarray

    @staticmethod
    def build(polar: int = 64, azimuthal: int = 128) -> "SphereGrid":
        if polar < 8 or azimuthal < 8:
            raise ValueError("grid must be at least 8x8")
        nodes, weights = np.polynomial.legendre.leggauss(polar)
        phi = np.linspace(0.0, 2.0 * math.pi, azimuthal, endpoint=False)
        grid = SphereGrid(polar, azimuthal, nodes, weights, phi)
        total = grid.dvol_weights().sum()
        if abs(total - 4.0 * math.pi) > 1e-12:
            raise QuadratureError(f"dvol weights sum to {total}, expected 4*pi")
        return grid

    def theta(self) -> np.ndarray:
        return np.arccos(self.gl_nodes)

    def dvol_weights(self) -> np.ndarray:
        """(polar, azimuthal) weights for integrating f dvol over S^2."""
        return np.outer(self.gl_weights, np.full(self.azimuthal, 2.0 * math.pi / self.azimuthal))

    def mesh(self):
        """theta, phi meshgrids of shape (polar, azimuthal)."""
        return np.meshgrid(self.theta(), self.phi, indexing="ij")


def _chart(theta, phi):
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


@dataclass(frozen=True)
class NumericProjectorField:
    """A pointwise projector evaluator on S^2 with float entries."""

    n: int
    evaluator: Callable  # (theta, phi) arrays -> (..., n, n) complex
    source: str  # "polynomial" | "gauge-transformed"
    condition: float = 1.0


def _check_pointwise_axioms(P: np.ndarray) -> None:
    defect = np.matmul(P, P)
    defect -= P
    if np.max(np.abs(defect)) >= 1e-10:
        raise QuadratureError(
            f"pointwise idempotency defect {np.max(np.abs(defect)):.3e} >= 1e-10"
        )
    herm = P - np.conj(np.swapaxes(P, -1, -2))
    if np.max(np.abs(herm)) >= 1e-12:
        raise QuadratureError(
            f"pointwise hermiticity defect {np.max(np.abs(herm)):.3e} >= 1e-12"
        )


def _field_from_projector(p: WeightedProjector) -> NumericProjectorField:
    def evaluator(theta, phi):
        x1, x2, x3 = _chart(theta, phi)
        return p.evaluate(x1, x2, x3)

    return NumericProjectorField(p.dim, evaluator, "polynomial")


def _analytic_derivatives(p: WeightedProjector, theta, phi):
    """P, dP/dtheta, dP/dphi from the exact entry polynomials (chain rule)."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    dx_dt = (ct * cp, ct * sp, -st)
    dx_df = (-st * sp, st * cp, 0.0)
    return p.evaluate_along(_chart(theta, phi), (dx_dt, dx_df))


FD_STEP = 1e-5


def _fd_derivatives(field: NumericProjectorField, theta, phi):
    P = field.evaluator(theta, phi)
    Pt = (field.evaluator(theta + FD_STEP, phi) - field.evaluator(theta - FD_STEP, phi)) / (
        2.0 * FD_STEP
    )
    Pf = (field.evaluator(theta, phi + FD_STEP) - field.evaluator(theta, phi - FD_STEP)) / (
        2.0 * FD_STEP
    )
    return P, Pt, Pf


def chern_number_quad(
    p, grid: SphereGrid | None = None, derivative: str = "analytic"
) -> float:
    """-(1/2*pi*i) * sum of weights * tr(P [dP/dtheta, dP/dphi]) / sin(theta).

    `p` is a WeightedProjector (analytic or finite-difference derivatives)
    or a NumericProjectorField (finite differences only).
    """
    if grid is None:
        grid = SphereGrid.build()
    theta, phi = grid.mesh()

    if isinstance(p, WeightedProjector):
        if derivative == "analytic":
            P, Pt, Pf = _analytic_derivatives(p, theta, phi)
        elif derivative == "finite-difference":
            P, Pt, Pf = _fd_derivatives(_field_from_projector(p), theta, phi)
        else:
            raise ValueError(f"unknown derivative mode {derivative!r}")
    elif isinstance(p, NumericProjectorField):
        if derivative == "analytic":
            raise ValueError("numeric projector fields support only finite differences")
        P, Pt, Pf = _fd_derivatives(p, theta, phi)
    else:
        raise TypeError(f"unsupported projector type {type(p).__name__}")

    _check_pointwise_axioms(P)
    comm = np.matmul(Pt, Pf)
    comm -= np.matmul(Pf, Pt)
    integrand = np.einsum("...jk,...kj->...", P, comm)
    st = np.sin(theta)
    weights = grid.dvol_weights()
    value = np.sum(weights * integrand / st)
    c1 = value / (-2.0j * math.pi)
    if not np.isfinite(c1):
        raise QuadratureError("non-finite quadrature value")
    if abs(c1.imag) > 1e-8:
        raise QuadratureError(f"Chern quadrature has imaginary part {c1.imag:.3e}")
    return float(c1.real)


def gauge_field(k: EquivariantKet, g: np.ndarray) -> NumericProjectorField:
    """Pointwise evaluator for p^g = <psi|g+g|psi>^{-1} g p g+."""
    g = np.asarray(g, dtype=complex)
    n = len(k)
    if g.shape != (n, n):
        raise ValueError(f"gauge matrix must be {n}x{n}")
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("gauge matrix is singular or near-singular")
    base = projector_from_ket(k)
    gdg = np.conj(g.T) @ g

    def evaluator(theta, phi):
        x1, x2, x3 = _chart(theta, phi)
        P = base.evaluate(x1, x2, x3)
        norm = np.einsum("jk,...kj->...", gdg, P)
        out = np.einsum("jl,...lm,km->...jk", g, P, np.conj(g))
        return out / norm[..., None, None]

    return NumericProjectorField(n, evaluator, "gauge-transformed", cond)


MC_MIN_SAMPLES = 10_000


def monte_carlo_stderr(f: XPoly, samples: int, seed: int) -> tuple:
    """(estimate, standard error) of (4*pi / samples) * sum of f over
    uniform random points of S^2."""
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} Monte-Carlo samples, got {samples}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    st = np.sqrt(1.0 - u * u)
    vals = np.real(f.evaluate(st * np.cos(phi), st * np.sin(phi), u))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return 4.0 * math.pi * mean, 4.0 * math.pi * stderr


def monte_carlo_integral(f: XPoly, samples: int, seed: int) -> float:
    """The Monte-Carlo estimate of the integral of f over S^2."""
    return monte_carlo_stderr(f, samples, seed)[0]


def _random_frame(rng, dim: int) -> tuple:
    """A random point of the unit sphere in R^dim and two tangent vectors
    there (orthogonal to the radial gradient), resampled when nearly
    degenerate."""
    point = rng.normal(size=dim)
    point /= np.linalg.norm(point)
    while True:
        t1 = rng.normal(size=dim)
        t2 = rng.normal(size=dim)
        t1 -= point * (t1 @ point)
        t2 -= point * (t2 @ point)
        gram = np.array([[t1 @ t1, t1 @ t2], [t1 @ t2, t2 @ t2]])
        if np.linalg.det(gram) > 1e-6:
            return point, t1, t2


def _x_coords(vectors: np.ndarray) -> tuple:
    """The components of vectors in R^3 stacked on the last axis: the
    coordinates (x1, x2, x3) of points of S^2, or (dx1, dx2, dx3) on tangents."""
    return vectors[..., 0], vectors[..., 1], vectors[..., 2]


def _z_coords(point: np.ndarray) -> tuple:
    """(z0, z1) of points of S^3 in R^4 = (Re z0, Im z0, Re z1, Im z1),
    stacked on the last axis."""
    return point[..., 0] + 1j * point[..., 1], point[..., 2] + 1j * point[..., 3]


def _one_form_values(tangent: np.ndarray) -> tuple:
    """(dz0, dz1, dzb0, dzb1) evaluated on real tangent 4-vectors, with
    the embedding (Re z0, Im z0, Re z1, Im z1)."""
    dz0, dz1 = _z_coords(tangent)
    return dz0, dz1, np.conjugate(dz0), np.conjugate(dz1)


def _eval_form(omega, coords: tuple, l1, l2):
    """omega(t1, t2) at one point or an array of points: `coords` are the
    arguments of the coefficients' evaluate, l1 and l2 the basis 1-forms on
    t1 and t2."""
    # a 3-form vanishes on the 2-dimensional tangent space
    terms = [(idx, poly) for idx, poly in omega.terms.items() if len(idx) <= 2]
    if not terms:
        return 0.0 + 0.0j
    first, *rest = (poly for _, poly in terms)
    values = first.evaluate(*coords, also=rest)[0]
    total = 0.0 + 0.0j
    for col, (idx, _) in enumerate(terms):
        coeff = values[..., col]
        if len(idx) == 0:
            total += coeff
        elif len(idx) == 1:
            total += coeff * l1[idx[0]]
        else:
            i, j = idx
            total += coeff * (l1[i] * l2[j] - l2[i] * l1[j])
    return total


@dataclass(frozen=True)
class TangentFrameReport:
    passed: bool
    max_difference: float
    points: int


def _frame_check(diff, points: int, seed: int, tol: float, dim: int,
                 coords, one_forms) -> TangentFrameReport:
    """Largest |diff(t1, t2)| over random tangent frames of the sphere in
    R^dim; `coords` and `one_forms` map a point and a tangent vector to
    the form's coefficient arguments and basis 1-form values."""
    if diff.is_zero():
        return TangentFrameReport(True, 0.0, points)
    rng = np.random.default_rng(seed)
    point, t1, t2 = (np.empty((points, dim)) for _ in range(3))
    for i in range(points):
        point[i], t1[i], t2[i] = _random_frame(rng, dim)
    values = _eval_form(diff, coords(point), one_forms(t1), one_forms(t2))
    worst = float(np.max(np.abs(values), initial=0.0))
    return TangentFrameReport(bool(worst < tol), worst, points)


def s2_tangent_frame_check(
    omega,
    expected,
    points: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> TangentFrameReport:
    """Compare two XForms (degree <= 2) on random tangent frames of S^2.

    Equality modulo the sphere ideal (r, dr) shows up as pointwise equality
    of the evaluations on tangent vectors."""
    return _frame_check(omega - expected, points, seed, tol, 3, _x_coords, _x_coords)


def tangent_frame_check(
    omega: ZForm,
    expected: ZForm,
    points: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> TangentFrameReport:
    """Compare two z-forms on random S^3 tangent frames.

    Degree-2 forms are evaluated on random tangent pairs, degree-1 forms on
    single tangent vectors; equality modulo the ideal (r, dr) shows up as
    pointwise equality on tangents.
    """
    return _frame_check(
        omega - expected, points, seed, tol, 4, _z_coords, _one_form_values
    )
