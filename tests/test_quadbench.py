import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundle_forge.bundles import (
    WeightedProjector,
    projector_from_ket,
    tangent_projector,
)
from bundle_forge.exact_ring import XPoly, ZPoly, monomial_integral
from bundle_forge.forms import DX1, DX2, DX3, DZ0, DZB0, DZB1, DZ1, XForm, ZForm
from bundle_forge.kets import connection_form, curvature_scalar, monopole_ket, tilde_ket2
from bundle_forge.quadbench import (
    NumericProjectorField,
    QuadratureError,
    SphereGrid,
    _analytic_derivatives,
    _chart,
    _eval_form,
    _one_form_values,
    _random_frame,
    _z_coords,
    chern_number_quad,
    gauge_field,
    monte_carlo_integral,
    monte_carlo_stderr,
    s2_tangent_frame_check,
    tangent_frame_check,
)

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

    def test_mesh_shape(self):
        grid = SphereGrid.build(16, 32)
        theta, phi = grid.mesh()
        assert theta.shape == (16, 32)
        assert phi.shape == (16, 32)


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
        from fractions import Fraction

        p = projector_from_ket(monopole_ket("minus", 1))
        halved = WeightedProjector(
            p.weights,
            tuple(tuple(e * Fraction(1, 2) for e in row) for row in p.core),
        )
        with pytest.raises(QuadratureError):
            chern_number_quad(halved, SphereGrid.build(8, 8))

    def test_unknown_modes_rejected(self):
        p = projector_from_ket(monopole_ket("minus", 1))
        with pytest.raises(ValueError):
            chern_number_quad(p, derivative="symbolic")
        field = gauge_field(monopole_ket("minus", 1), np.eye(2))
        with pytest.raises(ValueError):
            chern_number_quad(field, derivative="analytic")


@functools.lru_cache(maxsize=None)
def _projector(charge: int):
    """The monopole projector of charge 1..8, or tilde for charge 0."""
    return projector_from_ket(monopole_ket("minus", charge) if charge else tilde_ket2())


class TestAnalyticDerivatives:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 8),
        st.lists(st.tuples(st.floats(0.05, math.pi - 0.05), st.floats(0.0, 2.0 * math.pi)),
                 min_size=1, max_size=8),
    )
    def test_match_central_differences(self, charge, points):
        p = _projector(charge)
        theta, phi = (np.array(c) for c in zip(*points))
        P, Pt, Pf = _analytic_derivatives(p, theta, phi)
        h = 1e-5

        def field(t, f):
            return p.evaluate(*_chart(t, f))

        assert np.max(np.abs(P - field(theta, phi))) < 1e-13
        fd_t = (field(theta + h, phi) - field(theta - h, phi)) / (2.0 * h)
        fd_f = (field(theta, phi + h) - field(theta, phi - h)) / (2.0 * h)
        assert np.max(np.abs(Pt - fd_t)) < 1e-7
        assert np.max(np.abs(Pf - fd_f)) < 1e-7


class TestGaugeField:
    def test_identity_gauge_matches_base(self):
        k = monopole_ket("minus", 2)
        field = gauge_field(k, np.eye(3))
        grid = SphereGrid.build(8, 8)
        theta, phi = grid.mesh()
        base = projector_from_ket(k)
        st = np.sin(theta)
        P0 = base.evaluate(st * np.cos(phi), st * np.sin(phi), np.cos(theta))
        assert np.max(np.abs(field.evaluator(theta, phi) - P0)) < 1e-12

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
        # for special-unitary g the gauged connection equals <psi|d psi>
        # pointwise on S^3 tangents
        k = monopole_ket("minus", 1)
        A = connection_form(k)
        rng = np.random.default_rng(5)
        a, b = 0.6 + 0.48j, -0.4 + 0.5j
        scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / scale, b / scale
        g = np.array([[a, b], [-np.conj(b), np.conj(a)]])
        dpolys = [ZForm.from_poly(p).d() for p in k.polys]
        worst = 0.0
        for _ in range(50):
            pt, t, t2 = _random_frame(rng, 4)
            z = _z_coords(pt)
            l1, l2 = _one_form_values(t), _one_form_values(t2)
            psi = np.array([p.evaluate(*z) for p in k.polys])
            dpsi = np.array([_eval_form(w, z, l1, l2) for w in dpolys])
            gauged = np.vdot(g @ psi, g @ dpsi)
            plain = _eval_form(A, z, l1, l2)
            worst = max(worst, abs(gauged - np.conj(plain)))
        # pairing convention puts conjugation on the second slot; vdot
        # conjugates its first argument, hence the conj above
        assert worst < 1e-10


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


class TestTangentFrameCheck:
    def test_curvature_identity(self):
        got = curvature_scalar(monopole_ket("minus", 2))
        rep = tangent_frame_check(got, KAHLER * 2, points=200, seed=0)
        assert rep.passed, rep

    def test_dr_annihilates_tangents(self):
        z0 = ZPoly.monomial((1, 0, 0, 0))
        z1 = ZPoly.monomial((0, 1, 0, 0))
        dr = DZ0 * z0.conj() + DZB0 * z0 + DZ1 * z1.conj() + DZB1 * z1
        rep = tangent_frame_check(dr.wedge(DZ0), ZForm.zero(), points=100, seed=1)
        assert rep.passed, rep
        rep = tangent_frame_check(dr, ZForm.zero(), points=100, seed=2)
        assert rep.passed, rep

    def test_three_forms_vanish_on_tangent_pairs(self):
        three_form = DX1.wedge(DX2).wedge(DX3)
        assert not three_form.is_zero()
        rep = s2_tangent_frame_check(three_form, XForm.zero(), points=20, seed=4)
        assert rep.passed and rep.max_difference == 0.0, rep

    def test_negative_control(self):
        rep = tangent_frame_check(DZ0.wedge(DZB0), ZForm.zero(), points=50, seed=3)
        assert not rep.passed
        assert rep.max_difference > 1e-3


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

        p = projector_from_ket(monopole_ket("minus", 1))
        grid = SphereGrid.build(8, 8)
        field = gauge_field(monopole_ket("minus", 1), np.eye(2))
        assert count(XPoly, lambda: chern_number_quad(p, grid)) > 0
        assert count(XPoly, lambda: chern_number_quad(p, grid, "finite-difference")) > 0
        assert count(XPoly, lambda: chern_number_quad(field, grid, "finite-difference")) > 0
        assert count(XPoly, lambda: s2_tangent_frame_check(DX1.wedge(DX2), XForm.zero())) > 0
        assert count(ZPoly, lambda: tangent_frame_check(KAHLER, ZForm.zero())) > 0
        assert count(XPoly, lambda: monte_carlo_stderr(XPoly.one(), 10_000, 0)) > 0
