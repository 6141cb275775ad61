from fractions import Fraction

import pytest

from bundle_forge.bundles import PartialIsometry, named_real_objects
from bundle_forge.cli import MAX_CHARGE, _column
from bundle_forge.exact_ring import X1, X2, X3, XPoly, ZPoly
from bundle_forge.forms import DZ0, DZ1, DZB0, DZB1, ZForm
from bundle_forge.kets import (
    EquivariantKet,
    WeightMismatchError,
    connection_form,
    curvature_scalar,
    equivariance_type,
    monopole_ket,
    pairing,
    tilde_ket2,
)
from bundle_forge.quadbench import tangent_frame_check

from conftest import tensor_ket, type_zero_ket

KAHLER = DZ0.wedge(DZB0) + DZ1.wedge(DZB1)


class TestMonopoleKet:
    def test_minus_one(self):
        k = monopole_ket("minus", 1)
        assert k.weights == (Fraction(1), Fraction(1))
        assert k.polys == (ZPoly.monomial((1, 0, 0, 0)), ZPoly.monomial((0, 1, 0, 0)))

    def test_minus_two(self):
        k = monopole_ket("minus", 2)
        assert k.weights == (Fraction(1), Fraction(2), Fraction(1))
        assert k.polys == (
            ZPoly.monomial((2, 0, 0, 0)),
            ZPoly.monomial((1, 1, 0, 0)),
            ZPoly.monomial((0, 2, 0, 0)),
        )

    def test_minus_zero_constant(self):
        k = monopole_ket("minus", 0)
        assert len(k) == 1
        assert k.polys[0] == ZPoly.one()

    def test_plus_one_conjugates(self):
        k = monopole_ket("plus", 1)
        assert k.polys == (ZPoly.monomial((0, 0, 1, 0)), ZPoly.monomial((0, 0, 0, 1)))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            monopole_ket("down", 1)
        with pytest.raises(ValueError):
            monopole_ket("minus", -1)


class TestTildeKet:
    def test_components(self):
        k = tilde_ket2()
        z0sq = ZPoly.monomial((2, 0, 0, 0))
        z1sq = ZPoly.monomial((0, 2, 0, 0))
        assert k.weights == (Fraction(1, 2),) * 3
        assert k.polys[0] == z1sq - z0sq
        assert k.polys[1] == z1sq + z0sq
        assert k.polys[2] == ZPoly.monomial((1, 1, 0, 0)) * 2

    def test_normalized(self):
        assert pairing(tilde_ket2(), tilde_ket2()) == ZPoly.one()

    def test_type(self):
        assert equivariance_type(tilde_ket2()) == 2

    def test_third_component_at_pole(self):
        assert tilde_ket2().polys[2].evaluate(1.0, 0.0) == 0.0


class TestPairing:
    def test_normalization_all_builtins(self):
        for n in range(9):
            for sign in ("minus", "plus"):
                k = monopole_ket(sign, n)
                assert pairing(k, k) == ZPoly.one()

    def test_weight_mismatch_rejected(self):
        a = EquivariantKet((Fraction(2),), (ZPoly.monomial((1, 0, 0, 0)),))
        b = EquivariantKet((Fraction(1),), (ZPoly.monomial((1, 0, 0, 0)),))
        with pytest.raises(WeightMismatchError):
            pairing(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairing(monopole_ket("minus", 1), monopole_ket("minus", 2))


class TestEquivarianceType:
    def test_monopole_types(self):
        for n in range(9):
            assert equivariance_type(monopole_ket("minus", n)) == n
            assert equivariance_type(monopole_ket("plus", n)) == -n

    def test_constant_ket(self):
        assert equivariance_type(monopole_ket("minus", 0)) == 0

    def test_mixed_types_rejected(self):
        bad = EquivariantKet(
            (Fraction(1), Fraction(1)),
            (ZPoly.monomial((1, 0, 0, 0)), ZPoly.monomial((0, 0, 1, 0))),
        )
        with pytest.raises(ValueError):
            equivariance_type(bad)

    def test_sphere_reduced_components_accepted(self):
        # z0 zb0 is stored as 1 - z1 zb1: bidegrees (1, 1) and (0, 0), type 0
        a = type_zero_ket()
        assert len({(m[0] + m[1], m[2] + m[3]) for m in a.polys[0].terms}) == 2
        assert equivariance_type(a) == 0
        assert equivariance_type(tensor_ket(monopole_ket("minus", 1), a)) == 1
        assert equivariance_type(tensor_ket(monopole_ket("plus", 3), a)) == -3

    def test_inhomogeneous_component_rejected(self):
        bad = EquivariantKet(
            (Fraction(1),),
            (ZPoly.monomial((1, 0, 0, 0)) + ZPoly.monomial((2, 0, 0, 0)),),
        )
        with pytest.raises(ValueError):
            equivariance_type(bad)


class TestConnectionForm:
    def test_charge_one(self):
        z0 = ZPoly.monomial((1, 0, 0, 0))
        z1 = ZPoly.monomial((0, 1, 0, 0))
        A = connection_form(monopole_ket("minus", 1))
        assert A == DZB0 * z0 + DZB1 * z1

    def test_constant_ket_vanishes(self):
        assert connection_form(monopole_ket("minus", 0)).is_zero()

    def test_anti_hermitian_modulo_dr(self):
        # A + A^dagger is a multiple of dr: vanishes on S^3 tangents
        builtins = [monopole_ket(s, n) for s in ("minus", "plus") for n in range(5)]
        builtins.append(tilde_ket2())
        for k in builtins:
            A = connection_form(k)
            assert tangent_frame_check(A + A.conj(), ZForm.zero()), k

    def test_sign_flip_minus_vs_plus(self):
        # A_{+n} equals -A_{-n} modulo dr
        for n in (1, 2, 3):
            Am = connection_form(monopole_ket("minus", n))
            Ap = connection_form(monopole_ket("plus", n))
            assert tangent_frame_check(Ap, -Am), n


class TestCurvatureScalar:
    def test_charge_one_exact(self):
        assert curvature_scalar(monopole_ket("minus", 1)) == KAHLER

    def test_monopole_curvature_modulo_ideal(self):
        for n in range(1, MAX_CHARGE + 1):
            got = curvature_scalar(monopole_ket("minus", n))
            assert tangent_frame_check(got, KAHLER * n), n
            got = curvature_scalar(monopole_ket("plus", n))
            assert tangent_frame_check(got, KAHLER * (-n)), -n

    def test_tilde_curvature(self):
        got = curvature_scalar(tilde_ket2())
        assert tangent_frame_check(got, KAHLER * 2)


class TestRealObjects:
    def test_v1_components(self):
        geo = named_real_objects()
        assert _column(geo.V, 0) == ((1, 1, 1), 1, (XPoly.zero(), -X3, X2))

    def test_w3_components(self):
        geo = named_real_objects()
        assert _column(geo.W, 2) == (
            (Fraction(1, 2),) * 6,
            1,
            (-(X1 * X3), -X2, X1, X2 * X3, XPoly.one() - X3 * X3, XPoly.zero()),
        )

    def test_radial_combinations_vanish(self):
        # sum_l x_l V_l = 0 and sum_l x_l W_l = 0: V and W times the column x
        geo = named_real_objects()
        x = geo.psi_nor.adjoint()
        for family in (geo.V, geo.W):
            assert all(e.is_zero() for row in (family @ x).core for e in row)

    def test_normal_orthogonal_to_rotations(self):
        # <x|V_l> is entry l of the row x times V
        geo = named_real_objects()
        assert all(e.is_zero() for e in (geo.psi_nor @ geo.V).core[0])

    def test_u_maps_v_to_w(self):
        geo = named_real_objects()
        uv = geo.u @ geo.V
        for l in range(3):
            assert _column(uv, l) == _column(geo.W, l)

    def test_one_changed_column_fails_only_itself(self):
        geo = named_real_objects()
        uv = geo.u @ geo.V
        for changed in range(3):
            core = tuple(
                tuple(e + X1 if (j, l) == (0, changed) else e for l, e in enumerate(row))
                for j, row in enumerate(geo.W.core)
            )
            mutant = PartialIsometry(geo.W.left_weights, core, geo.W.right_weights)
            matches = [_column(uv, l) == _column(mutant, l) for l in range(3)]
            assert matches == [l != changed for l in range(3)]

    def test_inner_weight_mismatch_rejected(self):
        geo = named_real_objects()
        halved = PartialIsometry((Fraction(1, 2),) * 3, geo.V.core, geo.V.right_weights)
        with pytest.raises(ValueError, match="inner weights"):
            geo.u @ halved
