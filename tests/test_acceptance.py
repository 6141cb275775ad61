"""Acceptance gate: one test per certified claim, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import random
import time
from fractions import Fraction

from bundle_forge.bundles import (
    chern_form_exact,
    chern_number_exact,
    exact_gauge,
    isometry_verify,
    normal_projector,
    projector_from_ket,
    real_form,
    tangent_projector,
    transpose,
)
from bundle_forge.exact_ring import (
    GR_I,
    X1,
    X2,
    X3,
    XPoly,
    monomial_integral,
)
from bundle_forge.forms import (
    DX1,
    DX2,
    DX3,
    DZ0,
    DZ1,
    DZB0,
    DZB1,
    XForm,
    restrict_to_sphere,
)
from bundle_forge.kets import (
    curvature_scalar,
    monopole_ket,
    named_real_objects,
    tilde_ket2,
)
from bundle_forge.quadbench import (
    SphereGrid,
    chern_number_quad,
    gauge_field,
    monte_carlo_stderr,
    s2_tangent_frame_check,
    tangent_frame_check,
)

from conftest import random_xpoly

HALF = Fraction(1, 2)


def report(num: int, name: str, passed: bool) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def all_builtin_projectors():
    out = []
    for n in range(4):
        out.append(projector_from_ket(monopole_ket("minus", n), f"p[-{n}]"))
        out.append(projector_from_ket(monopole_ket("plus", n), f"p[+{n}]"))
    tilde = projector_from_ket(tilde_ket2(), "p~[-2]")
    out += [tilde, normal_projector(), tangent_projector(), real_form(tilde)]
    return out


def test_01_exact_monopole_cherns():
    start = time.perf_counter()
    ok = True
    for n in range(6):
        ok &= chern_number_exact(projector_from_ket(monopole_ket("minus", n))) == n
        ok &= chern_number_exact(projector_from_ket(monopole_ket("plus", n))) == -n
    elapsed = time.perf_counter() - start
    report(1, f"c1(p_[-/+n]) = +/-n for n=0..5 in {elapsed:.1f}s", ok and elapsed < 60.0)


def test_02_tilde_charge():
    got = chern_number_exact(projector_from_ket(tilde_ket2(), "p~[-2]"))
    report(2, "c1(p~[-2]) = 2", got == 2)


def test_03_transposition_sign_flip():
    ok = all(
        chern_number_exact(transpose(p)) == -chern_number_exact(p)
        for p in all_builtin_projectors()
    )
    report(3, "c1(transpose(p)) = -c1(p) for all built-ins", ok)


def test_04_trivial_families():
    ok = chern_form_exact(normal_projector()).coeff.is_zero()
    ok &= chern_form_exact(tangent_projector()).coeff.is_zero()
    tilde = projector_from_ket(tilde_ket2())
    ok &= chern_number_exact(real_form(tilde)) == 0
    report(4, "Chern forms of p_nor/p_tan vanish; c1((p~[-2])^R) = 0", ok)


def test_05_partial_isometry():
    geo = named_real_objects()
    tilde_real = real_form(projector_from_ket(tilde_ket2(), "p~[-2]"))
    rep = isometry_verify(geo.u, tangent_projector(), tilde_real)
    ok = rep.all_pass
    for vl, wl in zip(geo.V, geo.W):
        image = geo.u.apply(vl)
        ok &= image.scale == wl.scale and image.comps == wl.comps
    report(5, "u+u = p_tan, uu+ = (p~[-2])^R, u V_l = W_l", ok)


def test_06_golden_matrices():
    one, z = XPoly.one(), XPoly.zero()
    x12, x13, x23 = X1 * X2, X1 * X3, X2 * X3
    ok = True

    dense = projector_from_ket(monopole_ket("minus", 1)).dense()
    expected = ((one + X3, X1 + X2 * GR_I), (X1 - X2 * GR_I, one - X3))
    ok &= all(
        dense[j][k] == expected[j][k] * HALF for j in range(2) for k in range(2)
    )

    dense = projector_from_ket(tilde_ket2()).dense()
    expected = (
        (one - X1 * X1, -X3 - x12 * GR_I, -(X2 * GR_I) - x13),
        (-X3 + x12 * GR_I, one - X2 * X2, X1 + x23 * GR_I),
        (X2 * GR_I - x13, X1 - x23 * GR_I, one - X3 * X3),
    )
    ok &= all(
        dense[j][k] == expected[j][k] * HALF for j in range(3) for k in range(3)
    )

    dense = real_form(projector_from_ket(tilde_ket2())).dense()
    expected = (
        (one - X1 * X1, z, -X3, x12, -x13, X2),
        (z, one - X1 * X1, -x12, -X3, -X2, -x13),
        (-X3, -x12, one - X2 * X2, z, X1, -x23),
        (x12, -X3, z, one - X2 * X2, x23, X1),
        (-x13, -X2, X1, x23, one - X3 * X3, z),
        (X2, -x13, -x23, X1, z, one - X3 * X3),
    )
    ok &= all(
        dense[j][k] == expected[j][k] * HALF for j in range(6) for k in range(6)
    )

    xs = (X1, X2, X3)
    dense = tangent_projector().dense()
    for j in range(3):
        for k in range(3):
            e = -(xs[j] * xs[k])
            if j == k:
                e = e + one
            ok &= dense[j][k] == e

    report(6, "displayed matrices reproduced entry-by-entry", ok)


def test_07_curvature_identity():
    kahler = DZ0.wedge(DZB0) + DZ1.wedge(DZB1)
    ok = True
    for n in range(1, 7):
        for sign, factor in (("minus", n), ("plus", -n)):
            rep = tangent_frame_check(
                curvature_scalar(monopole_ket(sign, n)), kahler * factor,
                points=200, seed=n,
            )
            ok &= rep.passed
    rep = tangent_frame_check(
        curvature_scalar(tilde_ket2()), kahler * 2, points=200, seed=0
    )
    ok &= rep.passed
    report(7, "<d psi|d psi> = n * Kahler form on S^3 tangents, n=1..6 + tilde", ok)


def test_08_backend_agreement():
    grid = SphereGrid.build(64, 128)
    targets = []
    for n in range(5):
        targets.append(projector_from_ket(monopole_ket("minus", n)))
        targets.append(projector_from_ket(monopole_ket("plus", n)))
    tilde = projector_from_ket(tilde_ket2())
    targets += [tilde, normal_projector(), tangent_projector(), real_form(tilde)]
    ok = True
    for p in targets:
        exact = chern_number_exact(p)
        ok &= abs(chern_number_quad(p, grid, "analytic") - exact) < 1e-6
        ok &= abs(chern_number_quad(p, grid, "finite-difference") - exact) < 1e-4
    report(8, "quadrature matches exact integers (1e-6 analytic, 1e-4 FD)", ok)


def test_09_gauge_robustness():
    import numpy as np

    ok = True
    rng = np.random.default_rng(2026)
    grid = SphereGrid.build(64, 128)
    k1 = monopole_ket("minus", 1)
    for _ in range(20):
        while True:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if np.linalg.cond(g) < 10:
                break
        c1 = chern_number_quad(gauge_field(k1, g), grid, "finite-difference")
        ok &= abs(c1 - 1.0) < 1e-4

    p2 = projector_from_ket(monopole_ket("minus", 2))
    pyrng = random.Random(2026)
    for _ in range(10):
        perm = list(range(3))
        pyrng.shuffle(perm)
        s = [[0] * 3 for _ in range(3)]
        for j, k in enumerate(perm):
            s[j][k] = pyrng.choice((1, -1))
        p_s, v = exact_gauge(p2, s)
        ok &= v.times_dagger().core == p_s.core
        ok &= v.dagger_times().core == p2.core
        ok &= chern_number_exact(p_s) == 2
    report(9, "gauged quadrature within 1e-4; exact vv+ = p^s, v+v = p", ok)


def _random_xform(rng, degree, max_degree=3):
    from itertools import combinations

    return XForm({
        idx: random_xpoly(rng, max_degree, nterms=3)
        for idx in combinations(range(3), degree)
    })


def test_10_calculus_properties():
    rng = random.Random(1999)
    sphere_relation = X1 * X1 + X2 * X2 + X3 * X3 - 1
    dr = DX1 * (X1 * 2) + DX2 * (X2 * 2) + DX3 * (X3 * 2)
    ok = True

    for _ in range(1000):
        ok &= XForm.from_poly(random_xpoly(rng, 5)).d().d().is_zero()

    for trial in range(1000):
        a = XForm.from_poly(random_xpoly(rng, 3, nterms=3))
        b = _random_xform(rng, 1)
        defect = (a.wedge(b)).d() - a.d().wedge(b) - a.wedge(b.d())
        if not defect.is_zero():
            # the defect is a multiple of (r, dr): check on tangent frames
            rep = s2_tangent_frame_check(defect, XForm.zero(), points=5, seed=trial)
            ok &= rep.passed

    for _ in range(1000):
        a = _random_xform(rng, 1)
        b = _random_xform(rng, 1)
        ok &= a.wedge(b) == -(b.wedge(a))

    for _ in range(500):
        omega = _random_xform(rng, 2)
        ok &= restrict_to_sphere(omega * sphere_relation).coeff.is_zero()
    for _ in range(500):
        alpha = _random_xform(rng, 1)
        ok &= restrict_to_sphere(dr.wedge(alpha)).coeff.is_zero()

    report(10, "d^2=0, graded Leibniz, antisymmetry, ideal annihilation (1000x)", ok)


def test_11_monte_carlo_oracle():
    ok = True
    for a in range(0, 9, 2):
        for b in range(0, 9 - a, 2):
            for c in range(0, 9 - a - b, 2):
                est, err = monte_carlo_stderr(
                    XPoly.monomial((a, b, c)), 1_000_000, seed=a * 81 + b * 9 + c
                )
                exact = float(monomial_integral(a, b, c))
                if (a, b, c) == (0, 0, 0):
                    ok &= abs(est - exact) < 1e-9
                else:
                    ok &= abs(est - exact) < 3.0 * err
    report(11, "Monte-Carlo matches exact integrals within 3 sigma (degree <= 8)", ok)


def test_12_transposition_flips_charge_twelve():
    # a fixed signed permutation of the 13 components
    pyrng = random.Random(12)
    perm = list(range(13))
    pyrng.shuffle(perm)
    s = [[0] * 13 for _ in range(13)]
    for j, k in enumerate(perm):
        s[j][k] = pyrng.choice((1, -1))
    p, _ = exact_gauge(projector_from_ket(monopole_ket("minus", 12)), s)
    grid = SphereGrid.build(64, 128)
    c1 = chern_number_quad(p, grid, "analytic")
    c1_t = chern_number_quad(transpose(p), grid, "analytic")
    report(12, f"gauged c1(p[12]) = {c1:.9f}, c1(transpose) = {c1_t:.9f} by quadrature",
           abs(c1 - 12) < 1e-6 and abs(c1_t + 12) < 1e-6)
