import random
from fractions import Fraction

import pytest

from bundle_forge.exact_ring import GR_I, X1, X2, X3, XPoly, ZPoly
from bundle_forge.forms import (
    DX1,
    DX2,
    DX3,
    DZ0,
    DZB0,
    DegreeOverflowError,
    VOLUME_FORM,
    XForm,
    ZForm,
    integrate_s2,
    restrict_to_sphere,
)
from bundle_forge.quadbench import s2_tangent_frame_check

from conftest import random_xpoly

SPHERE_RELATION = X1 * X1 + X2 * X2 + X3 * X3 - 1  # reduces to 0
# a representative of r that does NOT reduce away, for ideal-annihilation tests
R_RAW_DIFFERENTIAL = DX1 * (X1 * 2) + DX2 * (X2 * 2) + DX3 * (X3 * 2)  # dr


def random_xform(rng: random.Random, degree: int, max_degree: int = 4) -> XForm:
    from itertools import combinations

    terms = {}
    for idx in combinations(range(3), degree):
        terms[idx] = random_xpoly(rng, max_degree, nterms=3)
    return XForm(terms)


class TestWedge:
    def test_square_is_zero(self):
        assert DX1.wedge(DX1).is_zero()

    def test_antisymmetry(self):
        assert DX1.wedge(DX2) == -(DX2.wedge(DX1))

    def test_bilinearity(self):
        lhs = (DX2 * X1).wedge(DX3 * X2)
        assert lhs == DX2.wedge(DX3) * (X1 * X2)

    def test_associativity(self, rng):
        for _ in range(50):
            a = random_xform(rng, 1, 2)
            b = random_xform(rng, 1, 2)
            c = random_xform(rng, 1, 2)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_graded_anticommutativity(self, rng):
        for _ in range(100):
            a = random_xform(rng, 1)
            b = random_xform(rng, 2)
            assert a.wedge(b) == b.wedge(a)  # (-1)^{1*2} = +1
            c = random_xform(rng, 1)
            assert a.wedge(c) == -(c.wedge(a))

    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflowError):
            DZ0.wedge(DZB0).wedge(DZ0)


class TestExteriorDerivative:
    def test_leibniz_on_functions(self):
        assert XForm.from_poly(X1 * X2).d() == DX1 * X2 + DX2 * X1

    def test_rotation_form(self):
        omega = DX2 * X1 - DX1 * X2
        assert omega.d() == DX1.wedge(DX2) * 2

    def test_d_squared_example(self):
        assert XForm.from_poly(X1 * X1 * X3).d().d().is_zero()

    def test_d_squared_random(self, rng):
        for _ in range(1000):
            p = random_xpoly(rng, 6)
            assert XForm.from_poly(p).d().d().is_zero()
        for _ in range(200):
            omega = random_xform(rng, 1)
            assert omega.d().d().is_zero()

    def test_graded_leibniz_exact_without_reduction(self, rng):
        # when coefficient products stay below the x3^2 rewrite, Leibniz
        # holds exactly on representatives
        for _ in range(300):
            a = random_xform(rng, 0)
            braw = random_xpoly(rng, 4)
            b = XForm.from_poly(
                XPoly({(i, j, 0): c for (i, j, _), c in braw.terms.items()})
            )
            assert (a.wedge(b)).d() == a.d().wedge(b) + a.wedge(b.d())

    def test_graded_leibniz_modulo_ideal(self, rng):
        # general coefficients: the defect is a multiple of (r, dr) and
        # vanishes on sphere tangent frames
        for trial in range(100):
            a = XForm.from_poly(random_xpoly(rng, 3))
            b = random_xform(rng, 1, 3)
            defect = (a.wedge(b)).d() - a.d().wedge(b) - a.wedge(b.d())
            assert s2_tangent_frame_check(defect, XForm.zero()), trial


class TestRestrictToSphere:
    def test_basis_restriction_against_numeric_oracle(self):
        # oracle: dx1^dx2 restricted equals x3 * dvol on the tangent frame of S^2
        omega = DX1.wedge(DX2)
        g = restrict_to_sphere(omega)
        assert g == X3
        assert s2_tangent_frame_check(omega, VOLUME_FORM * g)

    def test_volume_form_coefficient(self):
        assert restrict_to_sphere(VOLUME_FORM) == XPoly.one()

    def test_dr_wedge_vanishes(self):
        assert restrict_to_sphere(R_RAW_DIFFERENTIAL.wedge(DX1)).is_zero()

    def test_ideal_annihilation_random(self, rng):
        for _ in range(1000):
            omega = random_xform(rng, 2, 3)
            scaled = omega * SPHERE_RELATION
            assert restrict_to_sphere(scaled).is_zero()
        for _ in range(1000):
            alpha = random_xform(rng, 1, 3)
            assert restrict_to_sphere(R_RAW_DIFFERENTIAL.wedge(alpha)).is_zero()

    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            restrict_to_sphere(DX1 + DX1.wedge(DX2))


class TestIntegrateS2:
    def test_volume(self):
        assert integrate_s2(VOLUME_FORM).value.re == 1

    def test_odd_coefficient_vanishes(self):
        assert not integrate_s2(DX1.wedge(DX2)).value  # integral of x3

    def test_x3_weighted(self):
        assert integrate_s2(DX1.wedge(DX2) * X3).value.re == Fraction(1, 3)

    def test_linearity(self, rng):
        for _ in range(100):
            a = random_xform(rng, 2)
            b = random_xform(rng, 2)
            assert (
                integrate_s2(a).value + integrate_s2(b).value
                == integrate_s2(a + b).value
            )

    def test_form_and_its_coefficient_agree(self, rng):
        for _ in range(100):
            omega = random_xform(rng, 2)
            assert integrate_s2(omega) == integrate_s2(restrict_to_sphere(omega))

    def test_rejects_other_inputs(self):
        with pytest.raises(ValueError):
            integrate_s2(DX1 + DX1.wedge(DX2))
        for other in (ZPoly.one(), 1, DZ0.wedge(DZB0)):
            with pytest.raises(TypeError):
                integrate_s2(other)

    def test_odd_symmetry_vanishing(self, rng):
        # a restricted coefficient odd in x1 integrates to zero
        for _ in range(50):
            p = random_xpoly(rng, 4)
            flipped = XPoly(
                {m: (c if m[0] % 2 == 0 else -c) for m, c in p.terms.items()}
            )
            odd_part = (p - flipped) * Fraction(1, 2)
            assert not integrate_s2(VOLUME_FORM * odd_part).value


class TestZFormConjugation:
    def test_conj_swaps_holomorphic_basis(self):
        assert DZ0.conj() == DZB0

    def test_conj_involution(self, rng):
        from bundle_forge.kets import connection_form, monopole_ket

        for n in range(4):
            A = connection_form(monopole_ket("minus", n))
            assert A.conj().conj() == A
