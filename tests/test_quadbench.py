import dataclasses
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundle_forge.bundles import (
    WeightedProjector,
    chern_number_exact,
    exact_gauge,
    normal_projector,
    projector_from_ket,
    real_form,
    tangent_projector,
    transpose,
    unit_ket,
)
from bundle_forge import exact_ring, kets, quadbench
from bundle_forge.cli import MAX_CHARGE
from bundle_forge.exact_ring import (
    FD_STEP,
    GR_I,
    X1,
    X2,
    X3,
    GaussianRational,
    XPoly,
    ZPoly,
    monomial_integral,
)
from bundle_forge.forms import (
    DX1,
    DX2,
    DX3,
    DZ0,
    DZB0,
    DZB1,
    DZ1,
    VOLUME_FORM,
    XForm,
    ZForm,
)
from bundle_forge.kets import (
    EquivariantKet,
    connection_form,
    curvature_scalar,
    monopole_ket,
    pairing,
    tilde_ket2,
)
from bundle_forge.quadbench import (
    DERIVATIVE_MODES,
    GAUGE_CHUNK,
    MAX_GRID_AXIS,
    MC_BLOCK,
    MC_MIN_SAMPLES,
    QuadratureError,
    KetField,
    SphereGrid,
    chern_number_quad,
    _bilinear_forms,
    _check_pointwise_axioms,
    _hopf_ket,
    _matrix_density,
    _rank_one_density,
    gauge_chern_numbers,
    gauge_field,
    monte_carlo_integral,
    monte_carlo_stderr,
    s2_tangent_frame_check,
    tangent_frame_check,
)

from conftest import chart, su2_move, tensor_ket, type_zero_ket, whole_grid

KAHLER = DZ0.wedge(DZB0) + DZ1.wedge(DZB1)


class TestSphereGrid:
    def test_weights_sum_to_sphere_area(self):
        grid = SphereGrid.build(16, 32)
        assert abs(grid.dvol_weights().sum() - 4.0 * math.pi) < 1e-12

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            SphereGrid.build(4, 128)
        with pytest.raises(ValueError):
            SphereGrid.build(64, 4)

    def test_axis_cap(self):
        # rejected before anything is allocated
        for shape in ((10**12, 128), (64, 10**12), (MAX_GRID_AXIS + 1, 8)):
            with pytest.raises(ValueError, match="at most"):
                SphereGrid.build(*shape)

    def test_axes_shape(self):
        grid = SphereGrid.build(16, 32)
        theta, phi = grid.axes()
        assert theta.shape == (16, 1)
        assert phi.shape == (1, 32)
        assert np.array_equal(theta[:, 0], grid.theta()) and np.array_equal(phi[0], grid.phi)


class TestChernQuad:
    def test_charge_one_analytic(self):
        p = projector_from_ket(monopole_ket("minus", 1))
        assert abs(chern_number_quad(p) - 1.0) < 1e-9

    def test_charge_plus_three(self):
        p = projector_from_ket(monopole_ket("plus", 3))
        assert abs(chern_number_quad(p) + 3.0) < 1e-7

    def test_tangent_vanishes(self):
        assert abs(chern_number_quad(tangent_projector())) < 1e-9

    def test_fd_agrees_with_analytic(self):
        p = projector_from_ket(monopole_ket("minus", 2))
        analytic = chern_number_quad(p)
        fd = chern_number_quad(p, derivative="finite-difference")
        assert abs(analytic - fd) < 1e-5

    def test_agrees_with_exact_backend(self):
        from bundle_forge.bundles import chern_number_exact

        grid = SphereGrid.build()
        for n in range(1, 5):
            p = projector_from_ket(monopole_ket("minus", n))
            assert abs(chern_number_quad(p, grid) - chern_number_exact(p)) < 1e-6

    def test_axiom_violation_detected(self):
        # a complex field and a float64 one (the tangent projector)
        for p in (projector_from_ket(monopole_ket("minus", 1)), tangent_projector()):
            halved = WeightedProjector(
                p.weights,
                tuple(tuple(e * Fraction(1, 2) for e in row) for row in p.core),
            )
            for derivative in DERIVATIVE_MODES:
                with pytest.raises(QuadratureError, match="idempotency defect"):
                    chern_number_quad(halved, SphereGrid.build(8, 8), derivative)

    def test_hermiticity_violation_detected(self):
        # ((1, x1), (0, 0)) is idempotent but not hermitian
        p = WeightedProjector((1, 1), ((XPoly.one(), X1), (XPoly.zero(), XPoly.zero())))
        # a real field: the check runs on the float64 path
        assert whole_grid(p.evaluate_grid(*SphereGrid.build(8, 8).axes())).dtype == np.float64
        for derivative in ("analytic", "finite-difference"):
            with pytest.raises(QuadratureError, match="hermiticity"):
                chern_number_quad(p, SphereGrid.build(8, 8), derivative)

    def test_float64_hermiticity_defect_is_the_complex_one(self):
        """A float64 field forms P - P^t without a conjugated copy; the
        defect it reports is that of the same field in complex."""
        P = np.zeros((4, 3, 2, 2))
        P[..., 0, 0] = 1.0
        P[..., 0, 1] = np.random.default_rng(5).uniform(1e-12, 1e-9, (4, 3))  # idempotent
        messages = []
        for field in (P, P.astype(complex)):
            with pytest.raises(QuadratureError, match="hermiticity") as info:
                _check_pointwise_axioms(field, np.empty_like(field))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_unknown_modes_rejected(self):
        p = projector_from_ket(monopole_ket("minus", 1))
        with pytest.raises(ValueError):
            chern_number_quad(p, derivative="symbolic")
        field = gauge_field(monopole_ket("minus", 1), np.eye(2))
        with pytest.raises(ValueError):
            chern_number_quad(field, derivative="symbolic")
        # analytic derivatives serve gauge fields as well
        assert abs(chern_number_quad(field, derivative="analytic") - 1.0) < 1e-9


REAL_FIELDS = {
    "realform": lambda: real_form(projector_from_ket(tilde_ket2(), "p~[-2]")),
    "tangent": tangent_projector,
    "normal": normal_projector,
}


class TestRealFields:
    """Projectors with real cores evaluate to float64 fields, whose c1 is
    exactly 0.0 (its rounding is checked in c1.imag)."""

    @pytest.mark.parametrize("name", sorted(REAL_FIELDS))
    def test_float64_field_and_zero_charge(self, name):
        p = REAL_FIELDS[name]()
        fields = whole_grid(p.evaluate_grid(*SphereGrid.build(8, 8).axes(), derivatives=True), True)
        assert fields.dtype == np.float64
        for derivative in DERIVATIVE_MODES:
            assert chern_number_quad(p, derivative=derivative) == 0.0, derivative


@functools.lru_cache(maxsize=None)
def _projector(charge: int):
    """The monopole projector of charge +-1..+-MAX_CHARGE, or tilde for charge 0."""
    if not charge:
        return projector_from_ket(tilde_ket2())
    return projector_from_ket(monopole_ket("minus" if charge > 0 else "plus", abs(charge)))


class TestAnalyticDerivatives:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 8),
        st.lists(st.floats(0.05, math.pi - 0.05), min_size=1, max_size=4),
        st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=4),
    )
    def test_match_central_differences(self, charge, thetas, phis):
        p = _projector(charge)
        theta, phi = np.array(thetas)[:, None], np.array(phis)[None, :]
        P, Pt, Pf = whole_grid(p.evaluate_grid(theta, phi, derivatives=True), True)
        assert P.shape == (len(thetas), len(phis), p.dim, p.dim)
        h = 1e-5

        def field(t, f):
            return p.evaluate(*chart(t, f))

        assert np.max(np.abs(P - field(theta, phi))) < 1e-13
        fd_t = (field(theta + h, phi) - field(theta - h, phi)) / (2.0 * h)
        fd_f = (field(theta, phi + h) - field(theta, phi - h)) / (2.0 * h)
        assert np.max(np.abs(Pt - fd_t)) < 1e-7
        assert np.max(np.abs(Pf - fd_f)) < 1e-7


def _matrix_route(p):
    """p without its ket, which chern_number_quad serves by the matrix route."""
    return dataclasses.replace(p, ket=None)


CHARGES = [c for n in range(1, MAX_CHARGE + 1) for c in (n, -n)]
# Exact for entry degree up to 16 (Gauss-Legendre: 2*25 - 1 >= 3*16;
# trapezoid: 49 > 3*16), so the routes differ by rounding only.
EXACT_GRID = SphereGrid.build(25, 49)


class TestRankOneRoute:
    @pytest.mark.parametrize("charge", CHARGES)
    def test_analytic_routes_agree(self, charge):
        p = _projector(charge)
        got = chern_number_quad(p, EXACT_GRID)
        assert abs(got - chern_number_quad(_matrix_route(p), EXACT_GRID)) < 1e-12
        assert abs(got - charge) < 1e-12

    def test_tilde_transposes_and_gauges_agree(self):
        rng = random.Random(10)
        targets = []
        for p in (_projector(0), _projector(3), _projector(-5), _projector(8)):
            perm = list(range(p.dim))
            rng.shuffle(perm)
            s = [[rng.choice((1, -1)) if k == perm[j] else 0 for k in range(p.dim)]
                 for j in range(p.dim)]
            gauged, _ = exact_gauge(p, s)
            targets += [p, transpose(p), gauged, transpose(gauged)]
        for p in targets:
            assert p.ket is not None, p.label
            got = chern_number_quad(p, EXACT_GRID)
            assert abs(got - chern_number_quad(_matrix_route(p), EXACT_GRID)) < 1e-12, p.label

    @pytest.mark.parametrize("charge", [1, -2, 5, -8, 16, 0])
    def test_finite_differences_on_both_routes(self, charge):
        """Charge 0 stands for tilde, of charge 2."""
        p, want = _projector(charge), charge or 2
        for q in (p, _matrix_route(p)):
            assert abs(chern_number_quad(q, EXACT_GRID, "finite-difference") - want) < 1e-6

    @pytest.mark.parametrize("charge", [1, -3, 0])
    def test_section_ket_spans_the_dense_field(self, charge):
        """w w+ and its derivatives against the matrix route's field on a
        grid off the quadrature nodes; charge 0 stands for tilde."""
        p = _projector(charge)
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.05, math.pi - 0.05, (6, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 7))
        w, w_t, w_f = whole_grid(_hopf_ket(p.ket, theta, phi, derivatives=True), True)
        assert w.shape == (6, 7, p.dim)
        assert np.array_equal(w, whole_grid(_hopf_ket(p.ket, theta, phi)))

        def outer(a, b):
            return np.einsum("...j,...k->...jk", a, np.conj(b))

        P, Pt, Pf = whole_grid(p.evaluate_grid(theta, phi, derivatives=True), True)
        assert np.max(np.abs(outer(w, w) - P)) < 1e-13
        assert np.max(np.abs(outer(w_t, w) + outer(w, w_t) - Pt)) < 1e-12
        assert np.max(np.abs(outer(w_f, w) + outer(w, w_f) - Pf)) < 1e-12

    def test_one_ket_evaluation_per_stencil_point(self, monkeypatch):
        """Each field is evaluated at one call site: one evaluate call of
        its ring, with analytic or with finite-difference derivatives.  The
        rank-one route never evaluates the n x n core, and the matrix route
        never the ket."""
        calls = {XPoly: 0, ZPoly: 0}
        for ring in calls:
            def counted(self, *args, _original=ring.evaluate, _ring=ring, **kwargs):
                calls[_ring] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(ring, "evaluate", counted)
        p = _projector(-4)
        gauged = gauge_field(p.ket, np.eye(p.dim) + 0.25j * np.ones((p.dim, p.dim)))
        for field, ring in ((p, ZPoly), (_matrix_route(p), XPoly), (gauged, ZPoly)):
            for derivative in DERIVATIVE_MODES:
                calls.update({XPoly: 0, ZPoly: 0})
                chern_number_quad(field, SphereGrid.build(8, 8), derivative)
                assert calls == {XPoly: 0, ZPoly: 0, ring: 1}, (field, derivative)

    def test_norm_defect_raises(self):
        k = monopole_ket("minus", 3)
        scale = Fraction(10**9 + 1, 10**9)
        scaled = EquivariantKet(tuple(w * scale for w in k.weights), k.polys)
        theta, phi = SphereGrid.build(8, 8).axes()
        for values in (
            lambda k: whole_grid(_hopf_ket(k, theta, phi, derivatives=True), True),
            lambda k: whole_grid(_hopf_ket(k, theta, phi, derivatives="finite-difference"), True),
        ):
            with pytest.raises(QuadratureError, match="norm defect"):
                _rank_one_density(*values(scaled))((1.0, 1.0))
            assert np.all(np.isfinite(_rank_one_density(*values(k))((1.0, 1.0))))

    def test_ket_with_other_pairing_takes_the_matrix_route(self):
        # <psi|psi> = 1 + 1e-9: the matrix route's idempotency check fires
        k = monopole_ket("minus", 3)
        scale = Fraction(10**9 + 1, 10**9)
        p = projector_from_ket(EquivariantKet(tuple(w * scale for w in k.weights), k.polys))
        for derivative in DERIVATIVE_MODES:
            with pytest.raises(QuadratureError, match="idempotency defect"):
                chern_number_quad(p, SphereGrid.build(8, 8), derivative)


# (alpha, beta) of U = [[alpha, beta], [-conj(beta), conj(alpha)]] in SU(2)
SU2_MOVES = [
    (GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5))),
    (GaussianRational(Fraction(5, 13)), GaussianRational(Fraction(12, 13))),
]
# (label, ket, c1): the type-0 ket a, two tensor products with it,
# monopoles and tilde
MOVED_KETS = [
    ("a", type_zero_ket(), 0),
    ("psi1 a", tensor_ket(monopole_ket("minus", 1), type_zero_ket()), 1),
    ("psibar2 a", tensor_ket(monopole_ket("plus", 2), type_zero_ket()), -2),
    ("psi1", monopole_ket("minus", 1), 1),
    ("psibar1", monopole_ket("plus", 1), -1),
    ("psi2", monopole_ket("minus", 2), 2),
    ("psibar2", monopole_ket("plus", 2), -2),
    ("tilde", tilde_ket2(), 2),
]


# unit kets of dim <= 5: monopoles of charge up to 4, tilde, the type-0 ket
# a, and the tensor products of two charge-1 monopoles
GENERATOR_BASES = [monopole_ket(sign, n) for n in range(1, 5) for sign in ("minus", "plus")]
GENERATOR_BASES += [tilde_ket2(), type_zero_ket()] + [
    tensor_ket(monopole_ket(a, 1), monopole_ket(b, 1))
    for a in ("minus", "plus") for b in ("minus", "plus")
]
# (a, b, c) with a^2 + b^2 = c^2, for rational points of SU(2)
PYTHAGOREAN = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13)]
UNITS = [GaussianRational(1), GR_I, GaussianRational(-1), -GR_I]


@st.composite
def _generated_unit_kets(draw) -> EquivariantKet:
    """A base ket moved by the SU(2) element (alpha, beta) = (a/c u, b/c v),
    u and v units of Z[i]."""
    k = draw(st.sampled_from(GENERATOR_BASES))
    a, b, c = draw(st.sampled_from(PYTHAGOREAN))
    u, v = draw(st.sampled_from(UNITS)), draw(st.sampled_from(UNITS))
    return su2_move(k, u * Fraction(a, c), v * Fraction(b, c))


def _density_over_sin(k: EquivariantKet, grid: SphereGrid) -> np.ndarray:
    """Im tr(P [dP/dtheta, dP/dphi]) / sin(theta) of the Hopf-section
    field of k on the grid: -2 pi times the c1 density per unit area."""
    theta, phi = grid.axes()
    values = whole_grid(_hopf_ket(k, theta, phi, derivatives=True), True)
    return _rank_one_density(*values)((1.0, 1.0)).imag / np.sin(theta)


class TestSU2Moves:
    """psi -> psi o U for U in SU(2) rotates the density off the x3-axis:
    every quadrature check elsewhere runs on a density that does not depend
    on phi."""

    @pytest.mark.parametrize("alpha, beta", SU2_MOVES)
    @pytest.mark.parametrize("label, ket, c1", MOVED_KETS, ids=[m[0] for m in MOVED_KETS])
    def test_moved_kets_keep_the_charge(self, label, ket, c1, alpha, beta):
        k = su2_move(ket, alpha, beta)
        assert pairing(k, k) == ZPoly.one()
        p = projector_from_ket(k, label)
        assert chern_number_exact(p) == c1
        if p.dim <= 6:
            assert chern_number_exact(_matrix_route(p)) == c1
        assert chern_number_exact(transpose(p)) == -c1
        got = chern_number_quad(p, EXACT_GRID)
        assert abs(got - chern_number_quad(_matrix_route(p), EXACT_GRID)) < 1e-12
        assert abs(got - c1) < 1e-9
        # the density varies along phi, so a wrong phi-difference shows here
        for q in (p, _matrix_route(p)):
            assert abs(chern_number_quad(q, EXACT_GRID, "finite-difference") - got) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(_generated_unit_kets())
    def test_rank_one_and_matrix_routes_agree(self, k):
        """Rank-one c1 against the matrix route's on the core-only copy,
        over generated unit kets of dim <= 5."""
        p = projector_from_ket(k)
        got = chern_number_quad(p, EXACT_GRID)
        assert abs(got - chern_number_quad(_matrix_route(p), EXACT_GRID)) < 1e-9

    @pytest.mark.parametrize("alpha, beta", SU2_MOVES)
    def test_moved_type_zero_density_depends_on_phi(self, alpha, beta):
        a = type_zero_ket()
        assert np.max(np.ptp(_density_over_sin(a, EXACT_GRID), axis=1)) < 1e-12
        moved = _density_over_sin(su2_move(a, alpha, beta), EXACT_GRID)
        assert np.max(np.ptp(moved, axis=1)) > 0.1


def _five_point_fd(evaluator, theta, phi) -> tuple:
    """The reference stencil: F, dF/dtheta and dF/dphi of the field
    `evaluator` by central differences of its values, from five calls."""
    h = FD_STEP
    return (
        evaluator(theta, phi),
        (evaluator(theta + h, phi) - evaluator(theta - h, phi)) / (2.0 * h),
        (evaluator(theta, phi + h) - evaluator(theta, phi - h)) / (2.0 * h),
    )


def _joined(evaluator: Callable) -> Callable:
    """The grid evaluator `evaluator` returning whole-grid tables: its
    blocks of polar nodes joined."""

    def joined(theta, phi, derivatives=False):
        return whole_grid(evaluator(theta, phi, derivatives=derivatives), derivatives)

    return joined


def _gauged_kets(field: KetField) -> Callable:
    """The evaluator of the field's kets u = w g^t on the whole grid, from
    the table w of its evaluator and its gauge g."""

    def evaluator(theta, phi, derivatives=False):
        return _joined(field.evaluator)(theta, phi, derivatives) @ field.gauge.T

    return evaluator


def _gauged_ket_evaluator():
    rng = np.random.default_rng(11)
    g = np.eye(3) + 0.3 * rng.normal(size=(3, 3)) + 0.3j * rng.normal(size=(3, 3))
    return _gauged_kets(gauge_field(monopole_ket("minus", 2), g))


# (evaluator, dtype, trailing shape) of a complex projector field, a
# float64 one, a unit ket and a gauge field
FD_FIELDS = {
    "projector": (
        lambda: _joined(projector_from_ket(monopole_ket("minus", 2)).evaluate_grid),
        np.complex128, (3, 3),
    ),
    "real": (lambda: _joined(REAL_FIELDS["realform"]().evaluate_grid), np.float64, (6, 6)),
    "ket": (
        lambda: _joined(functools.partial(_hopf_ket, monopole_ket("plus", 2))),
        np.complex128, (3,),
    ),
    "gauge": (_gauged_ket_evaluator, np.complex128, (3,)),
}


class TestFiniteDifferences:
    @pytest.mark.parametrize("kind", sorted(FD_FIELDS))
    def test_table_differences_match_the_field_stencil(self, kind):
        """One evaluator call with derivatives="finite-difference", whose
        derivatives are the central differences of the factor tables,
        against the five-call central differences of the field: the values
        bit for bit (they are the analytic call's), the derivatives within
        the rounding of the values magnified by 1/(2 FD_STEP), and within
        1e-8 of the analytic derivatives.  A grid of 5 x 7 nodes, so that a
        theta-table in place of a phi-table cannot broadcast."""
        make, dtype, trailing = FD_FIELDS[kind]
        evaluator = make()
        rng = np.random.default_rng(12)
        theta = rng.uniform(0.1, math.pi - 0.1, (5, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 7))
        got = evaluator(theta, phi, derivatives="finite-difference")
        assert got.shape == (3, 5, 7) + trailing and got.dtype == dtype
        analytic = evaluator(theta, phi, derivatives=True)
        want = _five_point_fd(evaluator, theta, phi)
        assert np.array_equal(got[0], analytic[0]) and np.array_equal(got[0], want[0])
        rounding = np.finfo(float).eps * max(1.0, np.max(np.abs(want[0])))
        for k in (1, 2):
            assert np.max(np.abs(got[k] - want[k])) < 10 * rounding / (2.0 * FD_STEP), k
            assert np.max(np.abs(got[k] - analytic[k])) < 1e-8, k

    def test_unknown_derivatives_rejected(self):
        theta, phi = SphereGrid.build(8, 8).axes()
        for evaluator in (REAL_FIELDS["tangent"]().evaluate_grid,
                          functools.partial(_hopf_ket, monopole_ket("plus", 2))):
            with pytest.raises(ValueError, match="unknown derivatives"):
                evaluator(theta, phi, derivatives="symbolic")


def _projector_of(u: np.ndarray) -> np.ndarray:
    """u u+ / <u|u> pointwise, for kets u of shape (..., n)."""
    norm = np.einsum("...j,...j->...", np.conj(u), u)
    return np.einsum("...j,...k->...jk", u, np.conj(u)) / norm[..., None, None]


def _einsum_gauge(k: EquivariantKet, g: np.ndarray):
    """The reference field g P g+ / tr(g+ g P) from the dense field P."""

    def evaluator(theta, phi):
        P = projector_from_ket(k).evaluate(*chart(theta, phi))
        norm = np.einsum("jk,...kj->...", np.conj(g.T) @ g, P)
        return np.einsum("jl,...lm,km->...jk", g, P, np.conj(g)) / norm[..., None, None]

    return evaluator


def _per_trial_reference_c1(k: EquivariantKet, g: np.ndarray, grid: SphereGrid,
                            derivative: str) -> float:
    """c1 of gauge_field(k, g) from its own evaluation, one g at a time:
    conj(psi) and its derivatives evaluated, times diag(sqrt(weight)) g^t
    with g divided by its largest singular value, then the unit-ket
    contraction within bounds (sigma_min / sigma_max)^2 and 1, and the
    weighted sum."""
    sigma = np.linalg.svd(g, compute_uv=False)
    factor = np.sqrt([float(w) for w in k.weights])[:, None] * (g / sigma[0]).T
    first, *rest = (q.conj() for q in k.polys)
    theta, phi = grid.axes()
    values = whole_grid(first.evaluate(also=rest, angles=(theta, phi),
                                       derivatives=DERIVATIVE_MODES[derivative]), True)
    density = _rank_one_density(*(values @ factor))(((sigma[-1] / sigma[0]) ** 2, 1.0))
    c1 = np.sum(grid.dvol_weights() * density / np.sin(theta)) / (-2.0j * math.pi)
    assert abs(c1.imag) < 1e-8
    return float(c1.real)


def _test_gauges(rng: np.random.Generator, n: int) -> list:
    """A random g near the identity, one of condition 10 and the first
    scaled by 1e155."""
    near = np.eye(n) + 0.3 * rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n))
    q1, q2 = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
              for _ in range(2))
    return [near, q1 @ np.diag(np.geomspace(1.0, 0.1, n)) @ q2, near * 1e155]


class TestGaugeField:
    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_shared_table_matches_the_per_trial_reference(self, n, derivative):
        """c1 from one shared ket table, by gauge_chern_numbers and by
        chern_number_quad of each field, against the per-trial reference."""
        k = monopole_ket("minus", n - 1)
        gs = _test_gauges(np.random.default_rng(30 + n), n)
        assert np.linalg.cond(gs[1]) == pytest.approx(10.0, rel=1e-9)
        got = gauge_chern_numbers(k, gs, EXACT_GRID, derivative)
        assert len(got) == len(gs)
        for g, (field, c1) in zip(gs, got):
            assert field.condition == gauge_field(k, g).condition
            want = _per_trial_reference_c1(k, g, EXACT_GRID, derivative)
            assert abs(c1 - want) < 1e-12
            assert abs(chern_number_quad(field, EXACT_GRID, derivative) - want) < 1e-12

    def test_each_trial_checks_its_own_norm(self, monkeypatch):
        """Only the third field's <u|u> leaves its bounds, whose upper end is
        lowered to the lower: the shared table must not skip the later
        trials' pointwise norm checks."""
        k = monopole_ket("minus", 1)
        rng = np.random.default_rng(40)
        gs = [np.eye(2) + 0.3 * rng.normal(size=(2, 2)) + 0.3j * rng.normal(size=(2, 2))
              for _ in range(4)]
        grid = SphereGrid.build(16, 32)
        assert len(gauge_chern_numbers(k, gs, grid, "analytic")) == 4
        built = []

        def tightened(k, g):
            field = gauge_field(k, g)
            built.append(field)
            if len(built) == 3:
                lo = field.norm_bounds[0]
                field = dataclasses.replace(field, norm_bounds=(lo, lo))
            return field

        monkeypatch.setattr(quadbench, "gauge_field", tightened)
        for derivative in DERIVATIVE_MODES:
            built.clear()
            with pytest.raises(QuadratureError, match="norm defect"):
                gauge_chern_numbers(k, gs, grid, derivative)

    def test_identity_gauge_matches_base(self):
        k = monopole_ket("minus", 2)
        field = gauge_field(k, np.eye(3))
        grid = SphereGrid.build(8, 8)
        theta, phi = grid.axes()
        base = projector_from_ket(k)
        st = np.sin(theta)
        P0 = base.evaluate(st * np.cos(phi), st * np.sin(phi), np.cos(theta))
        assert np.max(np.abs(_projector_of(_gauged_kets(field)(theta, phi)) - P0)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_einsum_reference(self, n):
        rng = np.random.default_rng(n)
        k = monopole_ket("minus", n - 1)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        theta = rng.uniform(0.0, math.pi, (7, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 9))
        want = _einsum_gauge(k, g)(theta, phi)
        u = _gauged_kets(gauge_field(k, g))(theta, phi)
        assert u.shape == (7, 9, n)
        got = _projector_of(u)
        assert got.shape == want.shape == (7, 9, n, n)
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("n", [2, 4])
    def test_rank_one_density_matches_the_matrix_density(self, n):
        """On a grid off the nodes the gauged ket's density against the
        matrix route's on the einsum reference field, whose derivatives
        are central differences: within their error, FD_STEP^2 times a
        third derivative, plus the rounding magnified by 1/FD_STEP."""
        rng = np.random.default_rng(20 + n)
        k = monopole_ket("minus", n - 1)
        g = np.eye(n) + 0.4 * rng.normal(size=(n, n)) + 0.4j * rng.normal(size=(n, n))
        theta = rng.uniform(0.1, math.pi - 0.1, (6, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 8))
        reference = _einsum_gauge(k, g)
        want = _matrix_density(*_five_point_fd(reference, theta, phi))
        field = gauge_field(k, g)
        values = whole_grid(field.evaluator(theta, phi, derivatives=True), True)
        got = _rank_one_density(*values)(field.norm_bounds, field.gauge)
        assert got.shape == want.shape == (6, 8)
        assert np.max(np.abs(got - want)) < 1e-7

    @pytest.mark.parametrize("charge", [1, 3, 8, 16])
    def test_random_gauges_keep_the_charge(self, charge):
        """Analytic and finite-difference c1 of random-g gauge fields agree
        and lie within 1e-6 of the charge on the default 64x128 grid."""
        rng = np.random.default_rng(charge)
        k = monopole_ket("minus", charge)
        n = len(k)
        grid = SphereGrid.build()
        for _ in range(2):
            g = np.eye(n) + 0.3 * rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n))
            field = gauge_field(k, g)
            analytic = chern_number_quad(field, grid, "analytic")
            fd = chern_number_quad(field, grid, "finite-difference")
            assert abs(analytic - fd) < 1e-6
            assert abs(analytic - charge) < 1e-6 and abs(fd - charge) < 1e-6

    @pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e100, 1e155, 1e300])
    def test_scaled_gauge_keeps_the_charge(self, scale):
        """p^g does not change under g -> c g, so neither do c1, the norm
        bounds and the condition: the charge-16 matrix of the CLI's gauge
        smoke run, scaled by c, used to overflow the bounds (1e155, 1e300),
        the density (1e100, 1e-100) or <u|u> (1e-170)."""
        k = monopole_ket("minus", 16)
        n = len(k)
        g = np.eye(n) + np.triu(np.full((n, n), 0.3 + 0.2j), 1) + np.tril(np.full((n, n), 0.3), -1)
        want = gauge_field(k, g)
        field = gauge_field(k, g * scale)
        np.testing.assert_allclose(field.norm_bounds, want.norm_bounds, rtol=1e-12)
        assert field.norm_bounds[1] == 1.0
        assert field.condition == pytest.approx(want.condition, rel=1e-12)
        grid = SphereGrid.build()
        got = chern_number_quad(field, grid, "analytic")
        assert abs(got - chern_number_quad(want, grid, "analytic")) < 1e-10
        assert abs(got - 16) < 1e-4

    def test_non_unit_ket_rejected(self):
        # the (1 + 1e-9)-scaled ket of test_norm_defect_raises
        k = monopole_ket("minus", 3)
        scale = Fraction(10**9 + 1, 10**9)
        scaled = EquivariantKet(tuple(w * scale for w in k.weights), k.polys)
        with pytest.raises(ValueError, match="<psi|psi> = 1"):
            gauge_field(scaled, np.eye(4))

    def test_diagonal_gauge_keeps_charge(self):
        field = gauge_field(monopole_ket("minus", 1), np.diag([2.0, 1.0]))
        got = chern_number_quad(field, derivative="finite-difference")
        assert abs(got - 1.0) < 1e-4

    def test_convergence_on_refinement(self):
        field = gauge_field(monopole_ket("minus", 1), np.diag([2.0, 1.0]))
        coarse = abs(
            chern_number_quad(field, SphereGrid.build(8, 8), "finite-difference") - 1.0
        )
        fine = abs(
            chern_number_quad(field, SphereGrid.build(16, 16), "finite-difference") - 1.0
        )
        assert fine < coarse
        assert fine < 1e-9

    def test_singular_gauge_rejected(self):
        with pytest.raises(ValueError):
            gauge_field(monopole_ket("minus", 1), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gauge_field(monopole_ket("minus", 2), np.eye(2))

    def test_unitary_gauge_preserves_connection(self):
        # for special-unitary g = ((a, b), (-conj b, conj a)) the gauged ket
        # g psi has the connection form of psi, exactly
        k = monopole_ket("minus", 1)
        a, b = Fraction(3, 5), GR_I * Fraction(4, 5)
        z0, z1 = k.polys
        gauged = EquivariantKet(k.weights, (z0 * a + z1 * b, z1 * a - z0 * b.conj()))
        assert connection_form(gauged) == connection_form(k)


def _suite_gauges(seed: int) -> list:
    """The 20 random g of `verify --suite gauge`: complex normal 2 x 2
    matrices of condition below 10."""
    rng, gs = np.random.default_rng(seed), []
    while len(gs) < 20:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if np.linalg.cond(g) < 10:
            gs.append(g)
    return gs


class TestBatchedContraction:
    """`gauge_chern_numbers` contracts all F fields at once per chunk of
    GAUGE_CHUNK nodes: the (nodes, n^2) table conj(a_j) b_k times the
    (n^2, F) stack of metrics."""

    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    @pytest.mark.parametrize("n", [2, 3, 17])
    @pytest.mark.parametrize("fields", [1, 3, 20])
    def test_matches_the_per_trial_reference(self, fields, n, derivative):
        """c1 of every field within 1e-12 of its own evaluation and
        contraction, on 25x49: 1225 nodes, so the last chunk is partial."""
        assert EXACT_GRID.polar * EXACT_GRID.azimuthal % GAUGE_CHUNK != 0
        rng = np.random.default_rng(100 * n + fields)
        k = monopole_ket("minus", n - 1)
        gs = [np.eye(n) + 0.4 * rng.normal(size=(n, n)) + 0.4j * rng.normal(size=(n, n))
              for _ in range(fields)]
        got = gauge_chern_numbers(k, gs, EXACT_GRID, derivative)
        assert len(got) == fields
        for g, (_, c1) in zip(gs, got):
            assert abs(c1 - _per_trial_reference_c1(k, g, EXACT_GRID, derivative)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_forms_match_the_einsum_reference(self, n):
        """For F in {1, n, 2n} every form is sum_jk (G_f)_jk conj(a_j) b_k,
        for hermitian G_f that are not symmetric; one field at a time gives
        the same forms."""
        rng = np.random.default_rng(n)
        w, w_t, w_f = rng.normal(size=(3, 40, n)) + 1j * rng.normal(size=(3, 40, n))
        for fields in (1, n, 2 * n):
            g = rng.normal(size=(fields, n, n)) + 1j * rng.normal(size=(fields, n, n))
            metrics = np.conj(np.swapaxes(g, 1, 2)) @ g
            got = _bilinear_forms(w, w_t, w_f, metrics)
            for form, (a, b) in zip(got, ((w, w), (w_t, w_f), (w_t, w), (w, w_f))):
                want = np.einsum("ij,fjk,ik->if", np.conj(a), metrics, b)
                assert form.shape == (40, fields)
                assert np.max(np.abs(form - want)) < 1e-12 * np.max(np.abs(want))
            for f in range(fields):
                alone = _bilinear_forms(w, w_t, w_f, metrics[f:f + 1])
                for form, single in zip(got, alone):
                    assert np.max(np.abs(form[:, f:f + 1] - single)) < 1e-12 * np.max(np.abs(single))

    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    def test_norm_defect_at_the_last_node_raises(self, derivative, monkeypatch):
        """w scaled by 1 + 1e-8 at the last node of the grid, the last node
        of the last partial chunk: only the identity gauge's <u|u>, 1 to
        within 1e-10 everywhere else, leaves its bounds there."""
        k = monopole_ket("minus", 1)
        gs = _suite_gauges(4)[:5] + [np.eye(2)]
        assert len(gauge_chern_numbers(k, gs, EXACT_GRID, derivative)) == 6

        def spoiled(*args, **kwargs):
            *blocks, last = _hopf_ket(*args, **kwargs)
            last[0, -1, -1] *= 1 + 1e-8
            return iter([*blocks, last])

        monkeypatch.setattr(quadbench, "_hopf_ket", spoiled)
        assert len(gauge_chern_numbers(k, gs[:5], EXACT_GRID, derivative)) == 5
        with pytest.raises(QuadratureError, match=r"norm defect of field 5 of 6: .* bounds \[1, 1\]"):
            gauge_chern_numbers(k, gs, EXACT_GRID, derivative)

    def test_checks_the_unit_ket_once(self, monkeypatch):
        """<psi|psi> = 1 is decided by one exact pairing for all 20 g."""
        calls = []
        pairing = kets.pairing

        def counted(a, b):
            calls.append(1)
            return pairing(a, b)

        monkeypatch.setattr(kets, "pairing", counted)
        got = gauge_chern_numbers(monopole_ket("minus", 1), _suite_gauges(1), EXACT_GRID, "analytic")
        assert len(got) == 20 and len(calls) == 1

    def test_suite_quadratures_memory(self):
        """The 20 quadratures of `verify --suite gauge` on 64x128 peak at
        2.20 MiB of tracemalloc (Python 3.11, numpy 2.4, chunks of 512
        nodes; 2.59 MiB with one contraction per g, 3.56 MiB with chunks of
        1024 nodes, 14.6 MiB with whole-block GEMMs).  The bound is that
        peak times 1.1."""
        k, gs, grid = monopole_ket("minus", 1), _suite_gauges(0), SphereGrid.build(64, 128)
        tracemalloc.start()
        try:
            got = gauge_chern_numbers(k, gs, grid, "analytic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(abs(c1 - 1.0) < 1e-4 for _, c1 in got)
        assert peak < 1.1 * 2.20 * 2**20


# a budget that holds every grid's table in one block
WHOLE_GRID_BYTES = 1 << 62


def _whole_grid_c1(p, grid: SphereGrid, derivative: str, monkeypatch) -> tuple:
    """The whole-grid pipeline, as the reference for the streamed one: the
    field and both derivatives at every node in one table, the route's
    pointwise checks and contraction on it, then one weighted sum.  Returns
    c1 and the bytes of the table per polar node."""
    values = DERIVATIVE_MODES[derivative]
    with monkeypatch.context() as m:
        m.setattr(exact_ring, "GRID_BLOCK_BYTES", WHOLE_GRID_BYTES)
        if (ket := unit_ket(p)) is not None:
            (table,) = _hopf_ket(ket, *grid.axes(), derivatives=values)
            density = _rank_one_density(*table)((1.0, 1.0))
        else:
            (table,) = p.evaluate_grid(*grid.axes(), derivatives=values)
            density = _matrix_density(*table)
    c1 = np.sum(grid.dvol_weights() * density / np.sin(grid.axes()[0])) / (-2.0j * math.pi)
    assert np.isfinite(c1) and abs(c1.imag) <= 1e-8
    return float(c1.real) + 0.0, table[:, 0].nbytes


def _block_lengths(monkeypatch) -> list:
    """The polar node counts of the blocks `exact_ring.evaluate_grid` yields
    from now on, in order."""
    lengths = []
    evaluate_grid = exact_ring.evaluate_grid

    def recorded(*args, **kwargs):
        for block in evaluate_grid(*args, **kwargs):
            lengths.append(block.shape[-3])  # (nodes, A, polys), or 3 planes of it
            yield block

    monkeypatch.setattr(exact_ring, "evaluate_grid", recorded)
    return lengths


# the fields of the block-boundary tests: ket projectors take the rank-one
# route, the real cores and the core-only copies (dim <= 5 and 17) the
# matrix route
BLOCK_FIELDS = {
    **{f"monopole{c:+d}": functools.partial(_projector, c) for c in (1, -1, 16, -16)},
    "tilde": functools.partial(_projector, 0),
    **REAL_FIELDS,
    **{f"core{c:+d}": (lambda c=c: _matrix_route(_projector(c))) for c in (1, -1, -4, 16, -16)},
    "core tilde": lambda: _matrix_route(_projector(0)),
}


class TestPolarBlocks:
    """The quadrature evaluates, checks and contracts one block of polar
    nodes at a time; c1 is the whole-grid pipeline's, bit for bit, at every
    block size, and every block is checked."""

    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    @pytest.mark.parametrize("shape", [(25, 49), (26, 50), (64, 128)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("name", list(BLOCK_FIELDS))
    def test_blocks_match_the_whole_grid(self, name, shape, derivative, monkeypatch):
        """Blocks of one node, of seven (the polar count is no multiple of
        seven) and one whole-grid block give the reference's c1 exactly."""
        p = BLOCK_FIELDS[name]()
        grid = SphereGrid.build(*shape)
        want, node_bytes = _whole_grid_c1(p, grid, derivative, monkeypatch)
        assert chern_number_quad(p, grid, derivative) == want
        lengths = _block_lengths(monkeypatch)
        polar = grid.polar
        for budget, blocks in (
            (1, [1] * polar),
            (7 * node_bytes, [7] * (polar // 7) + [polar % 7]),
            (WHOLE_GRID_BYTES, [polar]),
        ):
            monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", budget)
            lengths.clear()
            assert chern_number_quad(p, grid, derivative) == want, budget
            assert lengths == blocks, budget

    def test_one_coefficient_matrix_per_quadrature(self, monkeypatch):
        """Many blocks share the setup: one coefficient matrix per
        quadrature on both routes, in both modes."""
        calls = []
        coefficient_matrix = exact_ring._coefficient_matrix

        def counted(*args):
            calls.append(args)
            return coefficient_matrix(*args)

        monkeypatch.setattr(exact_ring, "_coefficient_matrix", counted)
        monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", 1)
        lengths = _block_lengths(monkeypatch)
        grid = SphereGrid.build(16, 32)
        for p in (_projector(-2), _matrix_route(_projector(-2)), tangent_projector()):
            for derivative in DERIVATIVE_MODES:
                calls.clear()
                lengths.clear()
                chern_number_quad(p, grid, derivative)
                assert len(calls) == 1 and lengths == [1] * 16, (p.label, derivative)

    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    def test_defect_in_the_last_block_raises(self, derivative, monkeypatch):
        """A pointwise defect placed in the last of many blocks only: the
        idempotency and hermiticity checks of the matrix route, on a complex
        and a float64 field, and the norm check of the rank-one route, in
        `chern_number_quad` and in `gauge_chern_numbers`."""
        monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", 1)
        grid = SphereGrid.build(16, 32)

        def in_last_block(evaluator, defect):
            def spoiled(*args, **kwargs):
                *blocks, last = evaluator(*args, **kwargs)
                assert blocks
                defect(last)
                return iter([*blocks, last])
            return spoiled

        def scaled(block):
            block *= 1 + 1e-8

        def skewed(block):
            block[0, ..., 0, 1] += 1e-11

        evaluate_grid = WeightedProjector.evaluate_grid
        for p in (_matrix_route(_projector(-1)), tangent_projector()):
            for defect, message in ((scaled, "idempotency"), (skewed, "hermiticity")):
                with monkeypatch.context() as m:
                    spoiled = in_last_block(evaluate_grid, defect)
                    m.setattr(WeightedProjector, "evaluate_grid", spoiled)
                    with pytest.raises(QuadratureError, match=message):
                        chern_number_quad(p, grid, derivative)
            assert chern_number_quad(p, grid, derivative) == pytest.approx(-1 if p.dim == 2 else 0)

        k = monopole_ket("minus", 1)
        field = KetField(in_last_block(functools.partial(_hopf_ket, k), scaled))
        with pytest.raises(QuadratureError, match="norm defect"):
            chern_number_quad(field, grid, derivative)
        monkeypatch.setattr(quadbench, "_hopf_ket", in_last_block(_hopf_ket, scaled))
        with pytest.raises(QuadratureError, match="norm defect"):
            gauge_chern_numbers(k, [np.eye(2), np.eye(2)], grid, derivative)

    @pytest.mark.parametrize("derivative", sorted(DERIVATIVE_MODES))
    def test_core_only_charge_sixteen_memory(self, derivative):
        """The core-only charge-16 quadrature on 64x128 holds one block of
        its (3, P, A, 289) complex table at a time: 6.2 MiB of tracemalloc
        peak, against 193 MiB with the whole table (Python 3.11, numpy
        2.4)."""
        p = _matrix_route(_projector(16))
        p.core  # noqa: B018 -- the core is built on its first read
        grid = SphereGrid.build(64, 128)
        tracemalloc.start()
        try:
            c1 = chern_number_quad(p, grid, derivative)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(c1 - 16) < 1e-6
        assert peak < 40 * 2**20


def _scale_after_evaluation(monkeypatch) -> None:
    """From now on `exact_ring.evaluate_grid` evaluates without the scale
    and multiplies each block by it after its GEMMs: the reference for the
    scale in the coefficient matrix."""
    evaluate_grid = exact_ring.evaluate_grid

    def unfolded(polys, theta, phi, derivatives=False, scale=None):
        for block in evaluate_grid(polys, theta, phi, derivatives):
            if scale is not None:
                block *= scale
            yield block

    monkeypatch.setattr(exact_ring, "evaluate_grid", unfolded)


# every built-in field of the CLI: monopoles and tilde as built (rank-one
# route) and core-only (matrix route), and the real fields
BUILT_IN_FIELDS = {
    **{f"monopole{c:+d}": functools.partial(_projector, c) for c in CHARGES},
    "tilde": functools.partial(_projector, 0),
    **REAL_FIELDS,
}


class TestScaleInTheCoefficientMatrix:
    """Both routes pass their sqrt-weights to `evaluate_grid` as its scale,
    which enters the coefficient matrix once instead of every block."""

    @pytest.mark.parametrize("name", list(BUILT_IN_FIELDS))
    def test_c1_matches_scaling_each_block(self, name, monkeypatch):
        """c1 with and without the ket, in both modes, is within 1e-12 of
        the c1 from blocks scaled after evaluation; the real fields' stays
        exactly 0.0."""
        p = BUILT_IN_FIELDS[name]()
        grid = SphereGrid.build(26, 50)
        for q in (p,) if p.ket is None else (p, _matrix_route(p)):
            for derivative in DERIVATIVE_MODES:
                folded = chern_number_quad(q, grid, derivative)
                with monkeypatch.context() as m:
                    _scale_after_evaluation(m)
                    unfolded = chern_number_quad(q, grid, derivative)
                assert abs(folded - unfolded) <= 1e-12, (q.ket is None, derivative)
                if name in REAL_FIELDS:
                    assert folded == unfolded == 0.0, derivative

    @pytest.mark.parametrize("name", ["tilde", "realform", "core-5"])
    def test_grid_field_matches_the_points_field(self, name, monkeypatch):
        """`WeightedProjector.evaluate_grid`, scaled in the coefficient
        matrix, against `WeightedProjector.evaluate`, scaled after
        evaluation, at the chart points: the values in every mode to 1e-13
        and the derivatives against central differences to 1e-7, on blocks
        of one node."""
        p = {
            "tilde": lambda: _projector(0),
            "realform": REAL_FIELDS["realform"],
            "core-5": lambda: _matrix_route(_projector(-5)),
        }[name]()
        assert any(w != 1 for w in p.weights)  # a scale that is not all ones
        rng = np.random.default_rng(17)
        theta = rng.uniform(0.05, math.pi - 0.05, (5, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 9))
        h = 1e-5

        def field(t, f):
            return p.evaluate(*chart(t, f))

        want = field(theta, phi)
        fd_t = (field(theta + h, phi) - field(theta - h, phi)) / (2.0 * h)
        fd_f = (field(theta, phi + h) - field(theta, phi - h)) / (2.0 * h)
        monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", 1)
        for derivatives in (False, True, "finite-difference"):
            got = whole_grid(p.evaluate_grid(theta, phi, derivatives), bool(derivatives))
            assert got.dtype == want.dtype
            assert np.max(np.abs((got[0] if derivatives else got) - want)) < 1e-13
            if derivatives:
                assert np.max(np.abs(got[1] - fd_t)) < 1e-7
                assert np.max(np.abs(got[2] - fd_f)) < 1e-7


def _full_array_monte_carlo(samples: int, seed: int) -> Callable:
    """The oracle with all draws held at once, as the reference for the
    streamed one: `default_rng(seed)` draws all of u, then all of phi; the
    half-angle coordinates of every point; np.mean and np.std(ddof=1) of
    the whole array of values.  Returns f -> (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)
    t = np.tan(0.5 * rng.uniform(0.0, 2.0 * math.pi, samples))
    t2 = t * t
    r = np.sqrt(1.0 - u * u) / (1.0 + t2)
    points = (r * (1.0 - t2), 2.0 * r * t, u)

    def estimate(f: XPoly) -> tuple:
        vals = f.evaluate(*points)
        return (4.0 * math.pi * float(np.mean(vals)),
                4.0 * math.pi * float(np.std(vals, ddof=1) / math.sqrt(samples)))

    return estimate


class TestMonteCarlo:
    def test_constant(self):
        got = monte_carlo_integral(XPoly.one(), 10_000, seed=1)
        assert abs(got - 4.0 * math.pi) < 1e-9

    def test_odd_monomial_within_sigma(self):
        from bundle_forge.exact_ring import X3

        est, err = monte_carlo_stderr(X3, 100_000, seed=2)
        assert abs(est) < 3.0 * err

    def test_second_moment(self):
        from bundle_forge.exact_ring import X1

        got = monte_carlo_integral(X1 * X1, 1_000_000, seed=3)
        assert abs(got - 4.0 * math.pi / 3.0) < 0.01 * 4.0 * math.pi / 3.0

    def test_matches_exact_table(self):
        from bundle_forge.exact_ring import X1, X2, X3

        for (a, b, c) in [(2, 2, 0), (4, 0, 0), (2, 2, 2), (4, 2, 2)]:
            f = XPoly.monomial((a, b, c))
            est, err = monte_carlo_stderr(f, 200_000, seed=a * 100 + b * 10 + c)
            exact = float(monomial_integral(a, b, c))
            assert abs(est - exact) < 3.0 * err, (a, b, c)

    def test_deterministic_for_fixed_seed(self):
        f = XPoly.monomial((2, 0, 0))
        first = monte_carlo_integral(f, 50_000, seed=7)
        second = monte_carlo_integral(f, 50_000, seed=7)
        assert first == second
        assert monte_carlo_integral(f, 50_000, seed=8) != first

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_integral(XPoly.one(), 100, seed=0)

    def test_sample_cap(self):
        # far above the cap only: rejected before anything is allocated
        for samples in (10**12, 10**18):
            with pytest.raises(ValueError, match="at most"):
                monte_carlo_stderr(XPoly.one(), samples, seed=0)

    def test_complex_integrand_rejected(self):
        with pytest.raises(ValueError, match="imaginary"):
            monte_carlo_stderr(XPoly.one() + X3 * X3 * GR_I, 10_000, 0)

    @pytest.mark.parametrize(
        "samples", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 7, 10**6]
    )
    def test_matches_sin_cos_reference(self, samples):
        # the same default_rng(seed) draws, all of u then all of phi, with
        # x1, x2 from np.cos and np.sin; sample counts around the block size
        seed = samples % 97
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, samples)
        phi = rng.uniform(0.0, 2.0 * math.pi, samples)
        s = np.sqrt(1.0 - u * u)
        points = (s * np.cos(phi), s * np.sin(phi), u)
        for f in (X1, X2, X1 * X2 * X3, X1 * X1 * X1, X2 * X2 * X2 * X2 * X2):
            vals = f.evaluate(*points)
            want = (4.0 * math.pi * np.mean(vals),
                    4.0 * math.pi * np.std(vals, ddof=1) / math.sqrt(samples))
            got = monte_carlo_stderr(f, samples, seed)
            assert got == pytest.approx(want, rel=0, abs=1e-12), (f, samples)

    @pytest.mark.parametrize(
        "samples",
        [MC_MIN_SAMPLES, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 7, 10**6],
    )
    def test_streamed_draws_match_the_full_arrays(self, samples):
        for seed in (0, 5, samples % 89 + 1):
            reference = _full_array_monte_carlo(samples, seed)
            for f in (XPoly.monomial((4, 2, 2)), X1, X1 * X2 * X3 + X2 * X2 - X3):
                assert monte_carlo_stderr(f, samples, seed) == reference(f), (f, samples, seed)

    def test_holds_one_block_of_draws(self):
        # the values of every sample plus one block's draws and coordinates;
        # all of u and phi (a further 2 x 8 bytes per sample) do not fit
        samples = 10**6
        tracemalloc.start()
        try:
            monte_carlo_stderr(XPoly.monomial((4, 2, 2)), samples, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * samples + 8 * 2**20


class TestTangentFrameCheck:
    def test_curvature_identity(self):
        # <d psi|d psi> = +-n Kahler on S^3; the factor n+1 is rejected
        for n in range(1, MAX_CHARGE + 1):
            for sign, unit in (("minus", 1), ("plus", -1)):
                got = curvature_scalar(monopole_ket(sign, n))
                assert tangent_frame_check(got, KAHLER * (unit * n)), (sign, n)
                assert not tangent_frame_check(got, KAHLER * (unit * (n + 1))), (sign, n)
        got = curvature_scalar(tilde_ket2())
        assert tangent_frame_check(got, KAHLER * 2)
        assert not tangent_frame_check(got, KAHLER * 3)

    def test_dr_annihilates_tangents(self):
        z0 = ZPoly.monomial((1, 0, 0, 0))
        z1 = ZPoly.monomial((0, 1, 0, 0))
        dr = DZ0 * z0.conj() + DZB0 * z0 + DZ1 * z1.conj() + DZB1 * z1
        assert tangent_frame_check(dr.wedge(DZ0), ZForm.zero())
        assert tangent_frame_check(dr, ZForm.zero())
        d_norm_squared = DX1 * (X1 * 2) + DX2 * (X2 * 2) + DX3 * (X3 * 2)
        assert s2_tangent_frame_check(d_norm_squared, XForm.zero())

    def test_three_forms_vanish_on_tangent_pairs(self):
        three_form = DX1.wedge(DX2).wedge(DX3)
        assert not three_form.is_zero()
        assert s2_tangent_frame_check(three_form, XForm.zero())

    def test_negative_control(self):
        assert not tangent_frame_check(DZ0.wedge(DZB0), ZForm.zero())
        assert not tangent_frame_check(DZ0, ZForm.zero())
        for k in (monopole_ket("minus", 1), monopole_ket("plus", 3), tilde_ket2()):
            assert not tangent_frame_check(connection_form(k), ZForm.zero()), k
        assert not s2_tangent_frame_check(XForm.from_poly(X3), XForm.zero())
        assert not s2_tangent_frame_check(DX1, XForm.zero())
        assert not s2_tangent_frame_check(DX1.wedge(DX2), VOLUME_FORM * (X3 + X1))


class TestEvaluationEntersThroughRings:
    """The benchmark's tracer times numeric evaluation by wrapping
    XPoly.evaluate and ZPoly.evaluate; every numeric check must call them."""

    def test_every_numeric_check_calls_a_ring_evaluate(self, monkeypatch):
        calls = {XPoly: 0, ZPoly: 0}
        for ring in calls:
            def counted(self, *args, _original=ring.evaluate, _ring=ring, **kwargs):
                calls[_ring] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(ring, "evaluate", counted)

        def count(ring, run):
            before = calls[ring]
            run()
            return calls[ring] - before

        # a ket projector takes the rank-one route (ZPoly), the tangent
        # projector the matrix route (XPoly), in both derivative modes
        p = projector_from_ket(monopole_ket("minus", 1))
        tangent = tangent_projector()
        grid = SphereGrid.build(8, 8)
        # a gauge field is a ket field: the rank-one route as well
        field = gauge_field(monopole_ket("minus", 1), np.eye(2))
        for derivative in DERIVATIVE_MODES:
            assert count(ZPoly, lambda: chern_number_quad(p, grid, derivative)) > 0
            assert count(XPoly, lambda: chern_number_quad(tangent, grid, derivative)) > 0
            assert count(ZPoly, lambda: chern_number_quad(field, grid, derivative)) > 0
        assert count(XPoly, lambda: monte_carlo_stderr(XPoly.one(), 10_000, 0)) > 0
