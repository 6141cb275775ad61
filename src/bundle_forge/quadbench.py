"""Floating-point verification backend and exact tangent-frame checks.

Chern numbers by Gauss-Legendre x trapezoid quadrature in the chart
x = (sin(t)cos(f), sin(t)sin(f), cos(t)), a Monte-Carlo oracle for the
exact monomial integrals, and exact checks of the identities that hold
modulo the sphere ideal (r, dr): a form is contracted in the ring with
polynomial vector fields that span every tangent space, the SU(2) frame
iz, xi, J xi on S^3 and the rotation fields V_l = e_l x x on S^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundles import WeightedProjector, projector_from_ket
from .exact_ring import XPoly
from .forms import S3_FRAME, XForm, ZForm
from .kets import EquivariantKet, named_real_objects


class QuadratureError(RuntimeError):
    """Pointwise projector axiom violation or non-finite quadrature values."""


# Largest node count per grid axis.  64x128 already integrates every
# polynomial family up to charge 16 exactly, and the cap keeps a mistyped grid
# from allocating without bound.
MAX_GRID_AXIS = 1024


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
        if polar > MAX_GRID_AXIS or azimuthal > MAX_GRID_AXIS:
            raise ValueError(f"grid axes must be at most {MAX_GRID_AXIS}")
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

    def axes(self):
        """theta of shape (polar, 1) and phi of shape (1, azimuthal), the
        axes of the product grid."""
        return self.theta()[:, None], self.phi[None, :]


@dataclass(frozen=True)
class NumericProjectorField:
    """A pointwise projector evaluator on S^2 with float entries."""

    n: int
    evaluator: Callable  # theta (P, 1), phi (1, A) -> (P, A, n, n) complex
    source: str  # "polynomial" | "gauge-transformed"
    condition: float = 1.0


# Largest matrix size that `_matmul_points` multiplies entry by entry: for a
# stack of small matrices np.matmul makes one BLAS call per matrix.  One
# product on a (64, 128, n, n) complex grid, medians of 41, one BLAS thread,
# Python 3.11, numpy 2.4, 2-vCPU Linux VM, np.matmul -> entrywise:
# n = 2 3.8 -> 0.40 ms, n = 3 4.4 -> 3.0 ms, n = 4 4.5 -> 12.6 ms,
# n = 5 5.5 -> 13.5 ms.
ENTRYWISE_MAX_DIM = 3


def _matmul_points(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of matrices over a grid, broadcasting as np.matmul.
    When no matrix dimension exceeds ENTRYWISE_MAX_DIM, each entry is the
    sum over l of x[..., j, l] * y[..., l, k], products of strided views
    taken over the whole grid at once; otherwise np.matmul."""
    rows, inner, cols = x.shape[-2], x.shape[-1], y.shape[-1]
    if max(rows, inner, cols) > ENTRYWISE_MAX_DIM:
        return np.matmul(x, y)
    grid = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.empty(grid + (rows, cols), dtype=np.result_type(x, y))
    term = np.empty(grid, dtype=out.dtype)
    for j, k in itertools.product(range(rows), range(cols)):
        entry = out[..., j, k]
        np.multiply(x[..., j, 0], y[..., 0, k], out=entry)
        for l in range(1, inner):
            entry += np.multiply(x[..., j, l], y[..., l, k], out=term)
    return out


def _check_pointwise_axioms(P: np.ndarray) -> None:
    defect = _matmul_points(P, P)
    defect -= P
    if np.max(np.abs(defect)) >= 1e-10:
        raise QuadratureError(
            f"pointwise idempotency defect {np.max(np.abs(defect)):.3e} >= 1e-10"
        )
    # P - P^+ in the same buffer: the evaluated fields dominate the memory
    herm = np.conjugate(np.swapaxes(P, -1, -2), out=defect)
    np.subtract(P, herm, out=herm)
    if np.max(np.abs(herm)) >= 1e-12:
        raise QuadratureError(
            f"pointwise hermiticity defect {np.max(np.abs(herm)):.3e} >= 1e-12"
        )


FD_STEP = 1e-5


def _fd_derivatives(evaluator: Callable, theta, phi):
    """P, dP/dtheta and dP/dphi of the field `evaluator` by central
    differences, in three calls: the centre, then both theta-neighbours on
    one stacked theta axis, then both phi-neighbours on one stacked phi
    axis.  Each stacked output is dropped once its difference is formed, so
    at most one is alive beside P and the derivatives."""
    P = evaluator(theta, phi)
    polar, azimuthal = theta.shape[0], phi.shape[1]
    pair = evaluator(np.concatenate([theta - FD_STEP, theta + FD_STEP]), phi)
    Pt = pair[polar:] - pair[:polar]
    del pair
    pair = evaluator(theta, np.concatenate([phi - FD_STEP, phi + FD_STEP], axis=1))
    Pf = pair[:, azimuthal:] - pair[:, :azimuthal]
    Pt /= 2.0 * FD_STEP
    Pf /= 2.0 * FD_STEP
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
    theta, phi = grid.axes()

    if isinstance(p, WeightedProjector):
        if derivative == "analytic":
            P, Pt, Pf = p.evaluate_grid(theta, phi, derivatives=True)
        elif derivative == "finite-difference":
            P, Pt, Pf = _fd_derivatives(p.evaluate_grid, theta, phi)
        else:
            raise ValueError(f"unknown derivative mode {derivative!r}")
    elif isinstance(p, NumericProjectorField):
        if derivative == "analytic":
            raise ValueError("numeric projector fields support only finite differences")
        P, Pt, Pf = _fd_derivatives(p.evaluator, theta, phi)
    else:
        raise TypeError(f"unsupported projector type {type(p).__name__}")

    _check_pointwise_axioms(P)
    comm = _matmul_points(Pt, Pf)
    comm -= _matmul_points(Pf, Pt)
    integrand = np.einsum("...jk,...kj->...", P, comm)
    st = np.sin(theta)
    weights = grid.dvol_weights()
    value = np.sum(weights * integrand / st)
    c1 = value / (-2.0j * math.pi)
    if not np.isfinite(c1):
        raise QuadratureError("non-finite quadrature value")
    if abs(c1.imag) > 1e-8:
        raise QuadratureError(f"Chern quadrature has imaginary part {c1.imag:.3e}")
    return float(c1.real) + 0.0  # turns -0.0 into 0.0


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
    first, *rest = (e for row in base.core for e in row)
    # On the n^2 flattened entries of P, P -> g P g+ is the matrix g (x) conj(g)
    # and P -> tr(g+g P) the row vec((g+g)^T); P is the core entries scaled
    # by sqrt(w_j w_k).  Folded into the coefficients, one evaluation gives
    # the numerators and the denominator.
    gdg = np.conj(g.T) @ g
    mix = np.concatenate([np.kron(g, np.conj(g)).T, gdg.T.reshape(n * n, 1)], axis=1)
    mix *= base.entry_roots()[:, None]

    def evaluator(theta, phi):
        mixed = first.evaluate(angles=(theta, phi), also=rest, mix=mix)
        out = mixed[..., :-1] / mixed[..., -1:]
        return out.reshape(mixed.shape[:-1] + (n, n))

    return NumericProjectorField(n, evaluator, "gauge-transformed", cond)


MC_MIN_SAMPLES = 10_000
# Largest sample count: it keeps a mistyped count from allocating without
# bound.  Measured with Python 3.11 and numpy 2.4 on a 2-vCPU Linux VM,
# `bundle-forge integrate --monomial 4,2,2 --mc-samples 10000000` peaks at
# 418 MB RSS (10^6 samples: 75 MB).
MC_MAX_SAMPLES = 10**7


def monte_carlo_stderr(f: XPoly, samples: int, seed: int) -> tuple:
    """(estimate, standard error) of (4*pi / samples) * sum of f over
    uniform random points of S^2."""
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} Monte-Carlo samples, got {samples}")
    if samples > MC_MAX_SAMPLES:
        raise ValueError(f"Monte-Carlo samples must be at most {MC_MAX_SAMPLES}, got {samples}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    # x1, x2 built in place from the draws: sqrt(1 - u^2) (cos(phi), sin(phi))
    st = np.multiply(u, u)
    np.subtract(1.0, st, out=st)
    np.sqrt(st, out=st)
    x2 = np.sin(phi)
    x2 *= st
    x1 = np.cos(phi, out=phi)
    x1 *= st
    del st  # freed before the evaluation allocates its output
    vals = np.real(f.evaluate(x1, x2, u))
    del x1, x2, u, phi  # freed before the mean and the deviation allocate
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return 4.0 * math.pi * mean, 4.0 * math.pi * stderr


def monte_carlo_integral(f: XPoly, samples: int, seed: int) -> float:
    """The Monte-Carlo estimate of the integral of f over S^2."""
    return monte_carlo_stderr(f, samples, seed)[0]


def _vanishes(form, frame: tuple) -> bool:
    """Whether `form` is zero on a sphere whose tangent spaces `frame`
    spans at every point: its 0-form part, its 1-form part on each field
    and its 2-form part on each pair of fields are zero in the ring.  Parts
    of degree 3 are not read; they vanish on S^2."""
    return all(
        form.on_fields(fields).is_zero()
        for degree in (0, 1, 2)
        for fields in itertools.combinations(frame, degree)
    )


def s2_tangent_frame_check(omega: XForm, expected: XForm) -> bool:
    """Whether two XForms agree on S^2, i.e. modulo the sphere ideal (r, dr),
    by contracting their difference with the rotation fields V_l = e_l x x."""
    return _vanishes(omega - expected, tuple(v.comps for v in named_real_objects().V))


def tangent_frame_check(omega: ZForm, expected: ZForm) -> bool:
    """Whether two ZForms agree on S^3, i.e. modulo the sphere ideal (r, dr),
    by contracting their difference with the SU(2) frame iz, xi, J xi."""
    return _vanishes(omega - expected, S3_FRAME)
