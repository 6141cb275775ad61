"""Floating-point verification backend and exact tangent-frame checks.

Chern numbers by Gauss-Legendre x trapezoid quadrature in the chart
x = (sin(t)cos(f), sin(t)sin(f), cos(t)), one path per job: a projector
p = |psi><psi| with <psi|psi> = 1 integrates the curvature of its ket w on
a Hopf section over the chart in O(n) per node, every other projector its
n x n entries, and the gauge moves of such a p, the kets g w, one batched
contraction.  All evaluate through `exact_ring.evaluate_grid`, one block
of polar nodes at a time.  Also a Monte-Carlo oracle for the exact
monomial integrals, and exact checks of the identities that hold modulo
the sphere ideal (r, dr): a form is contracted in the ring with polynomial
vector fields that span every tangent space, the SU(2) frame iz, xi, J xi
on S^3 and the rotation fields V_l = e_l x x on S^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundles import WeightedProjector, unit_ket
from .exact_ring import XPoly
from .forms import S2_FRAME, S3_FRAME, XForm, ZForm
from .kets import EquivariantKet


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
class KetField:
    """The gauge move of `gauge_field`, the field u u+ / <u|u> of kets
    u = w g^t on S^2: `evaluator(theta, phi, derivatives=False)` is the
    Hopf-section ket w, block by block as `_hopf_ket` yields it; (lo, hi) =
    `norm_bounds` bound <u|u>; `condition` is that of the n x n matrix
    `gauge` g."""

    evaluator: Callable
    norm_bounds: tuple
    condition: float
    gauge: np.ndarray


# Largest pointwise defect accepted: |P^2 - P| on the matrix route, the
# relative excursion of <u|u> past the norm bounds on the rank-one route.
IDEMPOTENCY_TOL = 1e-10
# chern_number_quad's derivative modes, each with the `derivatives` argument
# it gives the field's evaluator
DERIVATIVE_MODES = {"analytic": True, "finite-difference": "finite-difference"}


def _max_abs(a: np.ndarray) -> float:
    """max |a|, in place for a float64 `a` (it is a scratch buffer)."""
    return float(np.max(np.abs(a, out=a) if a.dtype == np.float64 else np.abs(a)))


def _check_pointwise_axioms(P: np.ndarray, scratch: np.ndarray) -> None:
    """|P^2 - P| < IDEMPOTENCY_TOL at every node, formed in `scratch`, an
    array of P's shape and dtype: the evaluated fields dominate the memory."""
    defect = np.matmul(P, P, out=scratch)
    defect -= P
    if (worst := _max_abs(defect)) >= IDEMPOTENCY_TOL:
        raise QuadratureError(
            f"pointwise idempotency defect {worst:.3e} >= {IDEMPOTENCY_TOL:g}"
        )


def _hopf_ket(ket: EquivariantKet, theta, phi, derivatives: bool | str = False):
    """w_j = sqrt(weight_j) conj(psi_j) on the Hopf section sigma(theta, phi)
    = (cos(theta/2), e^(i phi) sin(theta/2)), which lies over the chart
    point x(theta, phi) of `z_to_x`'s convention, block by block (see
    `KetField`): shape (nodes, A, n), or with `derivatives` (True, or
    "finite-difference") (3, nodes, A, n) holding w, dw/dtheta and
    dw/dphi, from one `ZPoly.evaluate` of the conjugate components whose
    `scale` sqrt(weight_j) enters the coefficient matrix once.  Then w w+
    is the dense field of projector_from_ket(ket), whose core is
    M_jk = conj(psi_j) psi_k."""
    first, *rest = (q.conj() for q in ket.polys)
    roots = np.sqrt([float(w) for w in ket.weights])
    return first.evaluate(also=rest, angles=(theta, phi), derivatives=derivatives, scale=roots)


def _check_norms(norm: np.ndarray, bounds) -> None:
    """Column f of `norm`, one field's <u|u>, within (lo, hi) = bounds[f]; a
    defect names the first failing field with its own range and bounds."""
    lo, hi = np.transpose(bounds)
    ok = (lo * (1 - IDEMPOTENCY_TOL) < norm) & (norm < hi * (1 + IDEMPOTENCY_TOL))
    if not np.all(ok):
        f = int(np.argmin(ok.all(axis=0)))
        field = f" of field {f} of {len(lo)}" if len(lo) > 1 else ""
        raise QuadratureError(
            f"pointwise norm defect{field}: <u|u> in [{np.min(norm[:, f]):.12g}, "
            f"{np.max(norm[:, f]):.12g}], bounds [{lo[f]:.12g}, {hi[f]:.12g}] "
            f"to within {IDEMPOTENCY_TOL:g}")


def _rank_one_density(w, w_t, w_f) -> np.ndarray:
    """tr(P [dP/dtheta, dP/dphi]) on the product grid for P = w w+ / N,
    N = <w|w>, from a table of unit kets w and their derivatives, in O(n)
    per node.  P is hermitian and idempotent by construction, so the
    pointwise check is N = 1 to within IDEMPOTENCY_TOL.  The density is
    Berry's gauge-invariant curvature of the unnormalised w,
    2i Im(<w_t|w_f> / N - <w_t|w><w|w_f> / N^2), whose second term is real
    for a unit ket, as on the exact Hopf route; it does not change under
    w -> c w, so it is the matrix route's density.  It is purely imaginary:
    the imaginary-part check of `chern_number_quad` reads 0 here."""
    dot = functools.partial(np.einsum, "...j,...j->...")
    w_conj, t_conj = np.conj(w), np.conj(w_t)
    norm = dot(w_conj, w).real
    _check_norms(norm.reshape(-1, 1), [(1.0, 1.0)])
    return 2j * np.imag(dot(t_conj, w_f) / norm - dot(t_conj, w) * dot(w_conj, w_f) / norm**2)


# Nodes per chunk of `gauge_chern_numbers`: `verify --suite gauge` peaks at
# 41.0 MB RSS with 512, 42.7 MB with 1024 and 54.2 MB with whole 8192-node
# blocks, in about the same time (numpy 2.4, one BLAS thread, 2-vCPU VM).
GAUGE_CHUNK = 512


def _bilinear_forms(w, w_t, w_f, metrics: np.ndarray) -> list:
    """The (nodes, F) tables <a|G_f b> = sum_jk (G_f)_jk conj(a_j) b_k of
    (a, b) = (w, w), (w_t, w_f), (w_t, w), (w, w_f), for the (F, n, n) stack
    `metrics` of G_f: per form one GEMM, the (nodes, n^2) table
    conj(a_j) b_k by the (n^2, F) stack of G_f."""
    F, n, _ = metrics.shape
    stack = metrics.reshape(F, n * n).T
    return [(np.conj(a)[:, :, None] * b[:, None, :]).reshape(len(a), n * n) @ stack
            for a, b in ((w, w), (w_t, w_f), (w_t, w), (w, w_f))]


def _matrix_density(P, Pt, Pf) -> np.ndarray:
    """tr(P [Pt, Pf]) on the grid from the dense field and its derivatives,
    after the pointwise idempotency check of P.  The check and Pf . Pt
    share one scratch array of P's shape."""
    scratch = np.empty_like(P)
    _check_pointwise_axioms(P, scratch)
    comm = Pt @ Pf
    comm -= np.matmul(Pf, Pt, out=scratch)
    return np.einsum("...jk,...kj->...", P, comm)


def _grid_blocks(evaluator: Callable, grid: SphereGrid, derivative: str):
    """A field's values and both derivatives on `grid`, one block of polar
    nodes at a time, from one call of its evaluator, analytic or by central
    differences of the factor tables."""
    if derivative not in DERIVATIVE_MODES:
        raise ValueError(f"unknown derivative mode {derivative!r}")
    return evaluator(*grid.axes(), derivatives=DERIVATIVE_MODES[derivative])


def _dvol_and_sin(grid: SphereGrid) -> tuple:
    """The dvol weights and sin(theta), both of shape (polar, 1): a row's
    weight is the same at every azimuth, and `grid.dvol_weights()` holds
    these values."""
    return grid.gl_weights[:, None] * (2.0 * math.pi / grid.azimuthal), np.sin(grid.axes()[0])


def _c1_from_sum(value: complex) -> float:
    """-(1/2*pi*i) * `value`, the weighted sum of a density, checked to be
    finite and, to within 1e-8, real."""
    c1 = value / (-2.0j * math.pi)
    if not np.isfinite(c1):
        raise QuadratureError("non-finite quadrature value")
    if abs(c1.imag) > 1e-8:
        raise QuadratureError(f"Chern quadrature has imaginary part {c1.imag:.3e}")
    return float(c1.real) + 0.0  # turns -0.0 into 0.0


def chern_number_quad(
    p: WeightedProjector, grid: SphereGrid | None = None, derivative: str = "analytic"
) -> float:
    """-(1/2*pi*i) * sum of weights * tr(P [dP/dtheta, dP/dphi]) / sin(theta).

    `p` is a WeightedProjector (anything else raises TypeError; the gauge
    moves of `gauge_field` integrate by `gauge_chern_numbers`).  A
    projector p = |psi><psi| with <psi|psi> = 1 (`bundles.unit_ket`) takes
    the rank-one route on its Hopf-section ket, `_rank_one_density`; every
    other projector takes the matrix route on the n x n field, once its
    core has passed `WeightedProjector.is_hermitian`, an exact comparison
    in the ring, before anything is evaluated.  Three stages: one evaluator
    call, analytic or by central differences of the factor tables
    (`exact_ring.evaluate_grid`), which builds the coefficient matrix and
    the phi-factor tables and returns the blocks of polar nodes, then per
    block the values and both derivatives, the route's pointwise check and
    its contraction.  Each block's density rows are written into one
    (polar, azimuthal) array, which is summed once, so c1 does not depend
    on the block size.

    A projector whose core has no imaginary part (the real form, normal,
    tangent) evaluates to a float64 field, so its density is real and c1's
    real part is exactly 0: the rounding lands in c1.imag, which is checked
    against 1e-8 as for every field, after the pointwise check.
    """
    if not isinstance(p, WeightedProjector):
        raise TypeError(f"unsupported projector type {type(p).__name__}")
    if grid is None:
        grid = SphereGrid.build()
    if (ket := unit_ket(p)) is not None:
        blocks = _grid_blocks(functools.partial(_hopf_ket, ket), grid, derivative)
        densities = itertools.starmap(_rank_one_density, blocks)
    elif p.is_hermitian():
        blocks = _grid_blocks(p.evaluate_grid, grid, derivative)
        densities = itertools.starmap(_matrix_density, blocks)
    else:
        raise QuadratureError(f"{p.label}: the core fails hermiticity, M_kj != conj(M_jk)")
    weights, sin_theta = _dvol_and_sin(grid)
    density, lo = None, 0
    for rows in densities:
        if density is None:
            density = np.empty((grid.polar, grid.azimuthal), dtype=rows.dtype)
        density[lo:lo + len(rows)] = rows
        lo += len(rows)
    density *= weights  # in place: a scratch array
    density /= sin_theta
    return _c1_from_sum(np.sum(density))


def gauge_field(k: EquivariantKet, g: np.ndarray) -> KetField:
    """The field of p^g = g p g+ / tr(g+ g p) for p = |psi><psi| with
    <psi|psi> = 1, as the kets u = g w, w the Hopf-section ket of
    `_hopf_ket`: g p g+ = u u+ and tr(g+ g p) = <u|u>.  p^g does not change
    under g -> c g, so the field carries g divided by its largest singular
    value: then <u|u> lies between (sigma_min / sigma_max)^2 and 1 at every
    scale of g, and neither the bounds nor u leave the float64 range."""
    g = np.asarray(g, dtype=complex)
    n = len(k)
    if g.shape != (n, n):
        raise ValueError(f"gauge matrix must be {n}x{n}")
    # non-finite entries count as singular
    sigma = np.linalg.svd(g, compute_uv=False) if np.isfinite(g).all() else np.zeros(n)
    cond = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else math.inf
    if cond > 1e12:
        raise ValueError("gauge matrix is singular or near-singular")
    # the norm bounds of the result hold for a unit ket only (one pairing per ket)
    if not k.is_unit:
        raise ValueError("the ket must satisfy <psi|psi> = 1")
    return KetField(
        functools.partial(_hopf_ket, k), (float(sigma[-1] / sigma[0]) ** 2, 1.0), cond,
        g / sigma[0],
    )


def _gauge_densities(fields: list, blocks):
    """Im tr(P_f [dP_f/dtheta, dP_f/dphi]) / 2 of the gauge moves
    `fields`, whose kets are u = w g_f^t, from the blocks of their one
    Hopf-section ket w: one (nodes, F) array per chunk of GAUGE_CHUNK nodes,
    in the grid's row-major node order, from `_bilinear_forms`' forms of
    all fields, whose norms are all checked."""
    metrics = np.stack([np.conj(f.gauge.T) @ f.gauge for f in fields])  # the G_f = g+ g
    bounds = [f.norm_bounds for f in fields]
    for block in blocks:
        tables = block.reshape(3, -1, block.shape[-1])
        for start in range(0, tables.shape[1], GAUGE_CHUNK):
            norm, tf, tw, wf = _bilinear_forms(*tables[:, start:start + GAUGE_CHUNK], metrics)
            norm = norm.real
            _check_norms(norm, bounds)
            yield (tf.imag * norm - (tw * wf).imag) / (norm * norm)
        del block, tables  # freed before the next block is evaluated


def gauge_chern_numbers(
    k: EquivariantKet, gs: list, grid: SphereGrid, derivative: str
) -> list:
    """[(gauge_field(k, g), c1)] for each g of `gs`: the one path of every
    gauge move, c1 by `chern_number_quad`'s quadrature of u u+ / <u|u>.
    Every field's kets are u = w g^t for the one Hopf-section ket w of k,
    so one call of the first field's evaluator serves all of them, and one
    product with weights / sin(theta) adds all fields' density rows of a
    chunk of `_gauge_densities`."""
    fields = [gauge_field(k, g) for g in gs]
    if not fields:
        return []
    node_weights = np.repeat(np.divide(*_dvol_and_sin(grid)), grid.azimuthal)  # row-major
    totals = np.zeros(len(fields))
    for density in _gauge_densities(fields, _grid_blocks(fields[0].evaluator, grid, derivative)):
        totals += node_weights[:len(density)] @ density
        node_weights = node_weights[len(density):]
    return [(f, _c1_from_sum(2j * total)) for f, total in zip(fields, totals)]


MC_MIN_SAMPLES = 10_000
# Largest sample count: it keeps a mistyped count from allocating without
# bound.  Measured with Python 3.11 and numpy 2.4 on a 2-vCPU Linux VM,
# `bundle-forge integrate --monomial 2,2,4 --mc-samples 10000000` peaks at
# 116 MB RSS (10^6 samples: 47 MB): the values are one float64 array of the
# sample count, the draws and coordinates one reused (5, MC_BLOCK) buffer.
MC_MAX_SAMPLES = 10**7
# Points per block of draws, coordinates and values in `monte_carlo_stderr`.
# On the same VM a 10^6-sample integral of x1^4 x2^2 x3^2 takes 10.8-11.7 ms
# (medians of 25 calls) with blocks of 2^15 to 2^19 points, 11.7-12.1 ms with
# 2^14, 15-16 ms with 2^12 and 13.6-13.8 ms with 2^20: 2^16 is on that floor.
MC_BLOCK = 1 << 16


def monte_carlo_stderr(f: XPoly, samples: int, seed: int) -> tuple:
    """(estimate, standard error) of (4*pi / samples) * sum of f over
    uniform random points of S^2, for a real XPoly f.

    Archimedes' sampler: x3 = u uniform on [-1, 1] and the azimuth phi
    uniform on [0, 2*pi), the draws of `default_rng(seed)` taken as all of
    u, then all of phi.  The azimuthal part comes from t = tan(phi/2) by the
    half-angle identities cos(phi) = (1 - t^2)/(1 + t^2) and
    sin(phi) = 2t/(1 + t^2): x1 = r(1 - t^2), x2 = 2rt with
    r = sqrt(1 - u^2)/(1 + t^2).  The points are those of sin and cos of
    the same draws, to rounding; numpy 2.4 evaluates float64 tan in SIMD,
    and sin and cos one element at a time.  Draws, coordinates and values
    are built MC_BLOCK points at a time, in place in one reused buffer, the
    phi from a second stream jumped ahead past all of u."""
    if f.im:
        raise ValueError("the Monte-Carlo oracle integrates real XPolys; f has an imaginary part")
    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} Monte-Carlo samples, got {samples}")
    if samples > MC_MAX_SAMPLES:
        raise ValueError(f"Monte-Carlo samples must be at most {MC_MAX_SAMPLES}, got {samples}")
    rng = np.random.default_rng(seed)
    # one float64 uniform per 64-bit output: advanced past all of u, this
    # stream yields the phi that follow u in `rng`
    phi_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(samples))
    vals, buffer = np.empty(samples), np.empty((5, MC_BLOCK))
    for lo in range(0, samples, MC_BLOCK):
        x1, x2, x3, t, r = buffer[:, :min(MC_BLOCK, samples - lo)]
        # bit for bit: 2u - 1 is uniform(-1, 1), pi u half of uniform(0, 2 pi)
        np.subtract(np.multiply(rng.random(out=x3), 2.0, out=x3), 1.0, out=x3)
        np.tan(np.multiply(phi_rng.random(out=t), math.pi, out=t), out=t)
        np.sqrt(np.subtract(1.0, np.multiply(x3, x3, out=r), out=r), out=r)
        r /= np.add(1.0, np.multiply(t, t, out=x1), out=x2)  # x1 = t^2
        np.multiply(np.subtract(1.0, x1, out=x1), r, out=x1)
        np.multiply(np.multiply(2.0, r, out=x2), t, out=x2)
        vals[lo:lo + len(r)] = f.evaluate(x1, x2, x3)
    # np.mean and np.std(ddof=1), the deviations squared in vals itself
    mean = np.sum(vals) / samples
    vals -= mean
    np.multiply(vals, vals, out=vals)
    stderr = math.sqrt(np.sum(vals) / (samples - 1)) / math.sqrt(samples)
    return 4.0 * math.pi * float(mean), 4.0 * math.pi * stderr


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
    return _vanishes(omega - expected, S2_FRAME)


def tangent_frame_check(omega: ZForm, expected: ZForm) -> bool:
    """Whether two ZForms agree on S^3, i.e. modulo the sphere ideal (r, dr),
    by contracting their difference with the SU(2) frame iz, xi, J xi."""
    return _vanishes(omega - expected, S3_FRAME)
