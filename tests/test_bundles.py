import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bundle_forge import bundles, kets
from bundle_forge.bundles import (
    CROSS_CHECK_MAX_DIM,
    ChernConsistencyError,
    PartialIsometry,
    UnsupportedGaugeError,
    WeightedProjector,
    chern_number_exact,
    curvature_trace_form,
    dense_equal,
    exact_gauge,
    isometry_verify,
    named_real_objects,
    normal_projector,
    projector_from_ket,
    real_form,
    tangent_projector,
    transpose,
    verify_axioms,
    _hopf_c1,
    _x_route_c1,
)
from bundle_forge.exact_ring import (
    GR_I,
    GaussianRational,
    X1,
    X2,
    X3,
    XPoly,
    ZPoly,
    dagger,
    weighted_matmul,
    z_to_x,
)
from bundle_forge.forms import S2_FRAME, XForm, ZForm, restrict_to_sphere
from bundle_forge.kets import (
    EquivariantKet,
    connection_form,
    monopole_ket,
    tilde_ket2,
)
from bundle_forge.quadbench import (
    DERIVATIVE_MODES,
    SphereGrid,
    chern_number_quad,
    tangent_frame_check,
)

from conftest import cayley_unitary, skew_hermitian, tensor_ket, type_zero_ket

HALF = Fraction(1, 2)


def charge_one_projector():
    return projector_from_ket(monopole_ket("minus", 1), "p[-1]")


def tilde_projector():
    return projector_from_ket(tilde_ket2(), "p~[-2]")


class TestGoldenMatrices:
    def test_charge_minus_one(self):
        dense = charge_one_projector().dense()
        expected = (
            (XPoly.one() + X3, X1 + X2 * GR_I),
            (X1 - X2 * GR_I, XPoly.one() - X3),
        )
        for j in range(2):
            for k in range(2):
                assert dense[j][k] == expected[j][k] * HALF

    def test_charge_plus_one_is_transpose(self):
        plus = projector_from_ket(monopole_ket("plus", 1), "p[+1]")
        assert dense_equal(plus, transpose(charge_one_projector()))

    def test_tilde(self):
        one = XPoly.one()
        expected = (
            (one - X1 * X1, -X3 - X1 * X2 * GR_I, -(X2 * GR_I) - X1 * X3),
            (-X3 + X1 * X2 * GR_I, one - X2 * X2, X1 + X2 * X3 * GR_I),
            (X2 * GR_I - X1 * X3, X1 - X2 * X3 * GR_I, one - X3 * X3),
        )
        dense = tilde_projector().dense()
        for j in range(3):
            for k in range(3):
                assert dense[j][k] == expected[j][k] * HALF, (j, k)

    def test_tilde_real_form(self):
        one = XPoly.one()
        z = XPoly.zero()
        x12, x13, x23 = X1 * X2, X1 * X3, X2 * X3
        expected = (
            (one - X1 * X1, z, -X3, x12, -x13, X2),
            (z, one - X1 * X1, -x12, -X3, -X2, -x13),
            (-X3, -x12, one - X2 * X2, z, X1, -x23),
            (x12, -X3, z, one - X2 * X2, x23, X1),
            (-x13, -X2, X1, x23, one - X3 * X3, z),
            (X2, -x13, -x23, X1, z, one - X3 * X3),
        )
        dense = real_form(tilde_projector()).dense()
        for j in range(6):
            for k in range(6):
                assert dense[j][k] == expected[j][k] * HALF, (j, k)

    def test_tangent(self):
        xs = (X1, X2, X3)
        dense = tangent_projector().dense()
        for j in range(3):
            for k in range(3):
                expected = -(xs[j] * xs[k])
                if j == k:
                    expected = expected + XPoly.one()
                assert dense[j][k] == expected

    def test_normal_entry(self):
        assert normal_projector().dense()[0][1] == X1 * X2


class TestAxioms:
    def test_charge_three_rank_one(self):
        rep = verify_axioms(projector_from_ket(monopole_ket("minus", 3)))
        assert rep.all_pass
        assert rep.trace == "1"

    def test_identity(self):
        n = 3
        core = tuple(
            tuple(XPoly.one() if j == k else XPoly.zero() for k in range(n))
            for j in range(n)
        )
        rep = verify_axioms(WeightedProjector((Fraction(1),) * n, core, "id"))
        assert rep.all_pass
        assert rep.trace == "3"

    def test_negative_control_idempotency(self):
        p = charge_one_projector()
        core = list(list(row) for row in p.core)
        core[0][0] = XPoly.one()
        broken = WeightedProjector(p.weights, tuple(tuple(r) for r in core))
        rep = verify_axioms(broken)
        assert not rep.idempotent
        assert not rep.all_pass

    def test_negative_control_ket_norm(self, monkeypatch):
        # p = 2|psi><psi| from doubled weights: <psi|psi> = 2, so p^2 = 2p
        k = monopole_ket("minus", 1)
        p = projector_from_ket(EquivariantKet(tuple(w * 2 for w in k.weights), k.polys))
        rep = verify_axioms(p)
        assert not rep.idempotent and rep.hermitian
        assert rep.trace == "2"
        assert not rep.all_pass
        assert p.ket.norm == ZPoly.constant(2) and not p.ket.is_unit
        # without <psi|psi> = 1 the Hopf lift does not apply: the x-route
        # integrates tr(p (dp)^2) = 8 tr(q (dq)^2) for the charge-1 q
        monkeypatch.setattr(bundles, "_hopf_c1", lambda k: pytest.fail("Hopf route taken"))
        x_route, x_route_c1 = [], bundles._x_route_c1
        monkeypatch.setattr(bundles, "_x_route_c1", lambda q: x_route.append(q) or x_route_c1(q))
        assert chern_number_exact(p) == 8
        assert x_route == [p]

    def test_hermitian_check_matches_the_conjugate_reference(self):
        # is_hermitian compares stored numerators; the reference builds conjugates
        p = charge_one_projector()
        (m00, m01), (m10, m11) = p.core
        for core, hermitian in (
            (p.core, True),
            (((m00 + X3, m01), (m10, m11)), True),
            (((m00, m01), (m01, m11)), False),  # im not negated
            (((m00, m01), (m10 + X1 * X2 * GR_I, m11)), False),  # one more im term
            (((m00, m01), (m10 * 2, m11)), False),
            (((m00 + X3 * GR_I, m01), (m10, m11)), False),
        ):
            reference = all(core[j][k] == core[k][j].conj() for j in range(2) for k in range(2))
            assert WeightedProjector(p.weights, core, "q").is_hermitian() == reference == hermitian

    def test_all_builtins(self):
        builtins = [projector_from_ket(monopole_ket(s, n)) for s in ("minus", "plus") for n in range(5)]
        builtins += [
            tilde_projector(),
            normal_projector(),
            tangent_projector(),
            real_form(tilde_projector()),
        ]
        for p in builtins:
            rep = verify_axioms(p)
            assert rep.all_pass, (p.label, rep)


class TestKetNorm:
    def test_axioms_and_chern_number_pair_the_ket_once(self, monkeypatch):
        calls = []
        pairing = kets.pairing
        counted = lambda a, b: calls.append((a, b)) or pairing(a, b)
        monkeypatch.setattr(kets, "pairing", counted)
        # bundles reads EquivariantKet.norm; count a `pairing` imported there too
        monkeypatch.setattr(bundles, "pairing", counted, raising=False)
        for k in (monopole_ket("minus", 2), monopole_ket("plus", 3), tilde_ket2()):
            p = projector_from_ket(k)
            assert verify_axioms(p).all_pass
            chern_number_exact(p)
            assert calls == [(k, k)]
            del calls[:]


class TestTransposeAndRealForm:
    def test_transpose_involution(self):
        p = tilde_projector()
        assert transpose(transpose(p)).core == p.core

    def test_transpose_flips_chern(self):
        for n in (1, 2, 3, 4, 5):
            p = projector_from_ket(monopole_ket("minus", n))
            assert chern_number_exact(transpose(p)) == -n

    def test_real_form_is_projector_with_doubled_trace(self):
        q = real_form(tilde_projector())
        assert q.ket is None
        rep = verify_axioms(q)
        assert rep.all_pass
        assert rep.trace == "2"

    def test_real_form_of_hermitian_is_symmetric(self):
        q = real_form(tilde_projector())
        assert dense_equal(transpose(q), q)

    def test_real_form_of_real_projector_is_block_doubling(self):
        q = real_form(normal_projector())
        dense = q.dense()
        nor = normal_projector().dense()
        for j in range(6):
            for k in range(6):
                if j % 2 == k % 2:
                    assert dense[j][k] == nor[j // 2][k // 2]
                else:
                    assert dense[j][k].is_zero()


def _triple_sum_curvature(p: WeightedProjector) -> XForm:
    """Reference for curvature_trace_form: tr(M W dM W dM W) as the plain
    triple sum over (j, k, l) of ambient 2-forms, each wedge piece times
    M_jk and w_j w_k w_l."""
    n, w = p.dim, p.weights
    dM = [[XForm.from_poly(p.core[j][k]).d() for k in range(n)] for j in range(n)]
    total = XForm.zero()
    for j in range(n):
        for k in range(n):
            for l in range(n):
                piece = dM[k][l].wedge(dM[l][j])
                total = total + piece * p.core[j][k] * (w[j] * w[k] * w[l])
    return total


class TestChernExact:
    def test_weight_first_contraction_matches_triple_sum(self):
        # the Poisson-bracket density against the wedge products of the
        # ambient forms, restricted to S^2 afterwards
        swap = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0))
        gauged, _ = exact_gauge(projector_from_ket(monopole_ket("minus", 3)), swap)
        projectors = [
            projector_from_ket(monopole_ket(sign, n), f"{sign}{n}")
            for sign in ("minus", "plus")
            for n in range(1, 7)
        ]
        projectors += [
            tilde_projector(), normal_projector(), tangent_projector(),
            real_form(tilde_projector()), gauged,
            # a non-constant density, alone and in a tensor product
            projector_from_ket(type_zero_ket(), "a"),
            projector_from_ket(tensor_ket(monopole_ket("minus", 1), type_zero_ket()), "psi1 a"),
        ]
        # exact-unitary gauges give complex off-diagonal cores
        for p in (charge_one_projector(), tilde_projector(), tangent_projector(),
                  real_form(tilde_projector())):
            projectors.append(exact_gauge(p, _exact_unitary(p.dim))[0])
        for p in projectors:
            reference = restrict_to_sphere(_triple_sum_curvature(p))
            assert curvature_trace_form(p) == reference, p.label

    def test_non_hermitian_core_rejected(self):
        # the density reads half the core, so it must refuse M != M+
        # rather than return the density of another matrix
        p = charge_one_projector()
        (m00, m01), (m10, m11) = p.core
        for core in (((m00, m01 * 2), (m10, m11)), ((m00 + X3 * GR_I, m01), (m10, m11))):
            bad = WeightedProjector(p.weights, core, "bad")
            with pytest.raises(ValueError, match="hermitian"):
                curvature_trace_form(bad)
            with pytest.raises(ValueError, match="hermitian"):
                chern_number_exact(bad)

    def test_monopoles(self):
        for n in range(4):
            assert chern_number_exact(projector_from_ket(monopole_ket("minus", n))) == n
            assert chern_number_exact(projector_from_ket(monopole_ket("plus", n))) == -n

    def test_tilde(self):
        assert chern_number_exact(tilde_projector()) == 2

    def test_sphere_reduced_components(self):
        # the ring stores z0 zb0 as 1 - z1 zb1, so these kets have
        # components of mixed bidegree and one equivariance type
        a = projector_from_ket(type_zero_ket(), "a")
        assert not curvature_trace_form(a).is_constant()
        # dim 3: the Hopf route and the x-route both run
        assert chern_number_exact(a) == 0 and _x_route_c1(a) == GaussianRational(0)
        p = projector_from_ket(tensor_ket(monopole_ket("minus", 1), type_zero_ket()), "psi1 a")
        assert p.dim > CROSS_CHECK_MAX_DIM
        assert verify_axioms(p).all_pass
        assert chern_number_exact(p) == 1 and _x_route_c1(p) == GaussianRational(1)
        assert chern_number_exact(transpose(p)) == -1

    def test_trivial_families(self):
        assert curvature_trace_form(normal_projector()).is_zero()
        assert curvature_trace_form(tangent_projector()).is_zero()
        assert chern_number_exact(real_form(tilde_projector())) == 0

    def test_charge_one_integrand_constant(self):
        # restricted coefficient of tr(p(dp)^2) is the constant -i/2
        coeff = curvature_trace_form(charge_one_projector())
        assert coeff == XPoly.one() * (GR_I * Fraction(-1, 2))

    def test_non_integer_rejected(self):
        p = charge_one_projector()
        halved = WeightedProjector(
            p.weights, tuple(tuple(e * HALF for e in row) for row in p.core)
        )
        with pytest.raises(ChernConsistencyError):
            chern_number_exact(halved)


class TestDyads:
    # sum_l |v_l><v_l| over the columns v_l of v is v v^dagger
    def test_tangent_from_rotation_fields(self):
        geo = named_real_objects()
        assert dense_equal(geo.V.times_dagger(), tangent_projector())

    def test_real_form_from_w_fields(self):
        geo = named_real_objects()
        assert dense_equal(geo.W.times_dagger(), real_form(tilde_projector()))

    def test_tangent_entries_are_v_pairings(self):
        # <V_j|V_k> is entry (j, k) of V^dagger V
        geo = named_real_objects()
        pairings = geo.V.dagger_times().dense()
        dense = tangent_projector().dense()
        for j in range(3):
            for k in range(3):
                assert pairings[j][k] == dense[j][k]

    def test_rotation_fields_are_the_s2_frame(self):
        # S2_FRAME[l] = e_l x x, and V's columns are S2_FRAME
        x = (X1, X2, X3)
        for l in range(3):
            e = [XPoly.one() if i == l else XPoly.zero() for i in range(3)]
            cross = tuple(e[i - 2] * x[i - 1] - e[i - 1] * x[i - 2] for i in range(3))
            assert S2_FRAME[l] == cross
        assert tuple(zip(*named_real_objects().V.core)) == S2_FRAME

    def test_single_basis_vector(self):
        ones = (Fraction(1),) * 3
        e1 = PartialIsometry(ones, ((XPoly.one(),), (XPoly.zero(),), (XPoly.zero(),)), ones[:1])
        dense = e1.times_dagger().dense()
        assert dense[0][0] == XPoly.one()
        assert all(
            dense[j][k].is_zero() for j in range(3) for k in range(3) if (j, k) != (0, 0)
        )


# the uniform-weight projectors of exact_gauge's unitary branch, by ket,
# with their c1
CAYLEY_KETS = [
    ("psi1", monopole_ket("minus", 1), 1),
    ("psibar1", monopole_ket("plus", 1), -1),
    ("tilde", tilde_ket2(), 2),
]
# Gauss-Legendre 2*25 - 1 and trapezoid 49 both exceed the density degrees
CAYLEY_GRID = SphereGrid.build(25, 49)


class TestExactGauge:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("label, ket, c1", CAYLEY_KETS, ids=[k[0] for k in CAYLEY_KETS])
    def test_cayley_unitaries_keep_the_charge(self, label, ket, c1, seed):
        """s = (I - A)(I + A)^-1 for a skew-hermitian A is an exact unitary
        with complex entries that mixes the components."""
        p = projector_from_ket(ket, label)
        s = cayley_unitary(skew_hermitian(random.Random(seed), p.dim))
        assert bundles._signed_permutation(s) is None
        p_s, v = exact_gauge(p, s)
        assert isometry_verify(v, p, p_s).all_pass
        assert bundles.unit_ket(p_s) is not None  # the Hopf and rank-one routes
        assert chern_number_exact(p_s) == c1
        assert chern_number_exact(WeightedProjector(p_s.weights, p_s.core)) == c1  # x-route
        for mode in DERIVATIVE_MODES:
            assert abs(chern_number_quad(p_s, CAYLEY_GRID, mode) - c1) < 1e-9, mode

    def test_identity_gauge(self):
        p = charge_one_projector()
        p_s, v = exact_gauge(p, ((1, 0), (0, 1)))
        assert dense_equal(p_s, p)
        assert dense_equal(v.times_dagger(), p)
        assert dense_equal(v.dagger_times(), p)

    def test_antidiagonal_swap_oracle(self):
        # direct oracle: conjugating by the swap exchanges diagonal entries and
        # transposes the off-diagonal pair
        p = charge_one_projector()
        p_s, v = exact_gauge(p, ((0, 1), (1, 0)))
        dense, swapped = p.dense(), p_s.dense()
        assert swapped[0][0] == dense[1][1]
        assert swapped[1][1] == dense[0][0]
        assert swapped[0][1] == dense[1][0]
        assert dense_equal(v.times_dagger(), p_s)
        assert dense_equal(v.dagger_times(), p)

    def test_chern_invariance_signed_permutations(self, rng):
        import random

        p = projector_from_ket(monopole_ket("minus", 2), "p[-2]")
        for _ in range(10):
            perm = list(range(3))
            rng.shuffle(perm)
            s = [[0] * 3 for _ in range(3)]
            for j, k in enumerate(perm):
                s[j][k] = rng.choice((1, -1))
            p_s, v = exact_gauge(p, s)
            assert chern_number_exact(p_s) == 2
            assert verify_axioms(p_s).all_pass
            # isometry products reproduce both endpoints on the core level
            assert v.times_dagger().core == p_s.core
            assert v.dagger_times().core == p.core

    def test_exact_unitary_with_uniform_weights(self):
        p = charge_one_projector()
        c, s = GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))
        p_s, v = exact_gauge(p, ((c, s), (-s, c)))
        assert verify_axioms(p_s).all_pass
        assert chern_number_exact(p_s) == 1
        assert dense_equal(v.times_dagger(), p_s)
        assert dense_equal(v.dagger_times(), p)

    def test_rejections(self):
        p = projector_from_ket(monopole_ket("minus", 2))
        c, s = GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))
        rot = ((c, s, 0), (-s, c, 0), (0, 0, 1))
        with pytest.raises(UnsupportedGaugeError):
            exact_gauge(p, rot)  # non-uniform weights need a signed permutation
        with pytest.raises(UnsupportedGaugeError):
            exact_gauge(charge_one_projector(), ((1, 1), (0, 1)))  # not unitary
        with pytest.raises(UnsupportedGaugeError):
            exact_gauge(charge_one_projector(), ((c, s), (s, c)))  # unit rows, not orthogonal
        with pytest.raises(UnsupportedGaugeError):
            exact_gauge(charge_one_projector(), ((1, 0, 0), (0, 1, 0)))

    def test_signed_permutation_decoded_from_plain_entries(self, monkeypatch):
        """A signed permutation of ints and Fractions is decoded without
        building a GaussianRational and gives the gauge of its
        GaussianRational form; +-i, a non-unitary 1/2 and entries that are
        not exact rationals take the conversion as before."""
        p = projector_from_ket(monopole_ket("minus", 2))
        s = ((0, 0, -1), (Fraction(1), 0, 0), (0, 1, 0))
        want_p, want_v = exact_gauge(p, tuple(tuple(map(GaussianRational, row)) for row in s))
        converted = []
        as_gaussian_matrix = bundles._as_gaussian_matrix
        monkeypatch.setattr(bundles, "_as_gaussian_matrix",
                            lambda s: converted.append(s) or as_gaussian_matrix(s))
        got_p, got_v = exact_gauge(p, s)
        assert not converted
        assert (got_p.weights, got_p.core, got_p.ket) == (want_p.weights, want_p.core, want_p.ket)
        assert got_v.core == want_v.core
        q = charge_one_projector()
        swap_i = exact_gauge(q, ((0, GR_I), (GR_I, 0)))[0]  # unitary, no signed permutation
        assert len(converted) == 1 and chern_number_exact(swap_i) == 1
        with pytest.raises(UnsupportedGaugeError, match="not exact-unitary"):
            exact_gauge(q, ((HALF, 0), (0, 1)))
        for bad in (float("nan"), 1.0, 1j):
            with pytest.raises(TypeError, match="exact rational"):
                exact_gauge(q, ((bad, 0), (0, 1)))


def _signed_permutation_matrix(perm, signs) -> list:
    s = [[0] * len(perm) for _ in perm]
    for j, (k, sign) in enumerate(zip(perm, signs)):
        s[j][k] = sign
    return s


@st.composite
def _gauged_ket_projectors(draw):
    """A monopole of charge up to 4 or tilde, under a random signed
    permutation, transposed or not, with its expected c1."""
    charge = draw(st.sampled_from(list(range(-4, 5)) + ["tilde"]))
    if charge == "tilde":
        p, c1 = tilde_projector(), 2
    else:
        p, c1 = projector_from_ket(monopole_ket("minus" if charge >= 0 else "plus", abs(charge))), charge
    perm = draw(st.permutations(range(p.dim)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=p.dim, max_size=p.dim))
    p, _ = exact_gauge(p, _signed_permutation_matrix(perm, signs))
    if draw(st.booleans()):
        p, c1 = transpose(p), -c1
    return p, c1


# unit kets of c1 1, -1, 2, -2, 2 (tilde) and 0 (the type-0 ket a)
TENSOR_FACTORS = [
    monopole_ket("minus", 1), monopole_ket("plus", 1),
    monopole_ket("minus", 2), monopole_ket("plus", 2),
    tilde_ket2(), type_zero_ket(),
]


class TestKetRoutes:
    def test_constructors_keep_their_ket(self):
        c, s = GaussianRational(Fraction(3, 5)), GaussianRational(Fraction(4, 5))
        rot = ((c, s * GR_I), (s * GR_I, c))
        swap = _signed_permutation_matrix((2, 0, 3, 1), (1, -1, -1, 1))
        projectors = [
            charge_one_projector(),
            tilde_projector(),
            exact_gauge(projector_from_ket(monopole_ket("minus", 3)), swap)[0],
            exact_gauge(charge_one_projector(), ((c, s), (-s, c)))[0],
            exact_gauge(projector_from_ket(monopole_ket("plus", 1)), rot)[0],
            transpose(tilde_projector()),
            transpose(exact_gauge(charge_one_projector(), rot)[0]),
        ]
        for p in projectors:
            rebuilt = projector_from_ket(p.ket)
            assert rebuilt.weights == p.weights, p.label
            assert rebuilt.core == p.core, p.label

    @settings(max_examples=40, deadline=None)
    @given(_gauged_ket_projectors())
    def test_hopf_and_x_routes_agree(self, case):
        p, c1 = case
        assert p.dim <= CROSS_CHECK_MAX_DIM
        assert _hopf_c1(p.ket) == _x_route_c1(p) == GaussianRational(c1)
        assert chern_number_exact(p) == c1
        assert verify_axioms(p) == verify_axioms(WeightedProjector(p.weights, p.core))

    @settings(max_examples=36, deadline=None)
    @given(st.sampled_from(TENSOR_FACTORS), st.sampled_from(TENSOR_FACTORS))
    @example(TENSOR_FACTORS[0], TENSOR_FACTORS[1])  # dim 4: the x-route runs too
    def test_tensor_products_add_and_transposes_negate(self, a, b):
        """Curvatures of line bundles add under (x): c1(psi (x) phi) =
        c1(psi) + c1(phi), and c1(p^T) = -c1(p)."""
        c1 = chern_number_exact(projector_from_ket(a)) + chern_number_exact(projector_from_ket(b))
        p = projector_from_ket(tensor_ket(a, b))
        assert _hopf_c1(p.ket) == GaussianRational(c1)
        if p.dim <= CROSS_CHECK_MAX_DIM:
            assert _x_route_c1(p) == GaussianRational(c1)
        assert chern_number_exact(p) == c1
        assert chern_number_exact(transpose(p)) == -c1

    def test_routes_disagreeing_raise(self):
        # the core of the charge -1 projector under the ket of charge +1
        wrong = WeightedProjector(
            (Fraction(1),) * 2,
            projector_from_ket(monopole_ket("plus", 1)).core,
            "mislabelled",
            monopole_ket("minus", 1),
        )
        with pytest.raises(ChernConsistencyError):
            chern_number_exact(wrong)

    def test_hopf_route_disagreeing_with_equivariance_type_raises(self, monkeypatch):
        """Above CROSS_CHECK_MAX_DIM the x-route no longer runs; the ket's
        equivariance type still checks the Hopf route."""
        p = projector_from_ket(monopole_ket("minus", 8))
        assert p.dim > CROSS_CHECK_MAX_DIM
        assert chern_number_exact(p) == 8
        hopf_c1 = bundles._hopf_c1
        monkeypatch.setattr(bundles, "_hopf_c1", lambda k: hopf_c1(k) + 1)
        with pytest.raises(ChernConsistencyError, match="equivariance type 8"):
            chern_number_exact(p)


def _eager_core(k: EquivariantKet) -> tuple:
    """M_jk = z_to_x(conj(psi_j) psi_k) for every j and k, converted at once."""
    return tuple(tuple(z_to_x(a.conj() * b) for b in k.polys) for a in k.polys)


def _conjugated(core, s) -> tuple:
    """s M s+ for a constant matrix s of Gaussian rationals."""
    s_poly = tuple(tuple(XPoly.constant(e) for e in row) for row in s)
    ones = (1,) * len(s)
    return weighted_matmul(weighted_matmul(s_poly, ones, core), ones, dagger(s_poly))


def _exact_unitary(n: int) -> tuple:
    """A rotation by (3/5, 4i/5) in the first two coordinates and the phase
    (3 + 4i)/5 in the others."""
    c, s = GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5))
    rot = ((c, s), (s, c))
    phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    return tuple(
        tuple(
            rot[j][k] if n > 1 and j < 2 and k < 2 else phase if j == k else 0
            for k in range(n)
        )
        for j in range(n)
    )


LAZY_SOURCES = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, "tilde"]


class TestLazyCore:
    def test_ket_routes_convert_no_core_entry(self, monkeypatch):
        conversions = []
        convert = bundles.z_to_x
        monkeypatch.setattr(bundles, "z_to_x", lambda q: conversions.append(q) or convert(q))
        grid = SphereGrid.build()
        swap = _signed_permutation_matrix(range(16, -1, -1), (1, -1) * 8 + (1,))
        for side in ("minus", "plus"):
            p = projector_from_ket(monopole_ket(side, 16))
            assert verify_axioms(p).all_pass
            # the axioms convert <psi|psi> = 1 for the trace, no core entry
            assert conversions == [ZPoly.one()]
            del conversions[:]
            for mode in DERIVATIVE_MODES:
                chern_number_quad(p, grid, mode)
            p_s, v = exact_gauge(p, swap)
            assert verify_axioms(p_s).all_pass
            assert conversions == [ZPoly.one()]
            del conversions[:]
            assert len(p.core) == 17
            assert len(conversions) == 17 * 18 // 2
            del conversions[:]
            # a second read, and the gauged cores permuted from it, convert nothing
            assert p.core is p.core
            assert p_s.core[0][0] == p.core[16][16] and v.core[1][15] == -p.core[15][15]
            assert conversions == []

    @pytest.mark.parametrize("transposed", [False, True], ids=["p", "p^t"])
    @pytest.mark.parametrize("source", LAZY_SOURCES, ids=str)
    def test_lazy_cores_match_eager_ones(self, source, transposed):
        """Each lazy core against one converted from psi at once, and under
        both gauge branches against s M s+; equal and hashing alike with an
        eager twin, read first through == and hash."""

        ket = tilde_ket2() if source == "tilde" else monopole_ket(
            "minus" if source >= 0 else "plus", abs(source)
        )

        def build():
            p = projector_from_ket(ket)
            return transpose(p) if transposed else p

        ref = _eager_core(ket)
        if transposed:
            ref = tuple(zip(*ref))
        p = build()
        twin = WeightedProjector(p.weights, ref, p.label)
        assert twin == p and hash(build()) == hash(twin)
        assert p.core == ref
        zero = tuple(tuple(XPoly.zero() for _ in row) for row in ref)
        assert build() != WeightedProjector(p.weights, zero, p.label)
        n = p.dim
        cycle = [(j + 1) % n for j in range(n)]
        gauges = [_signed_permutation_matrix(cycle, [(-1) ** j for j in range(n)])]
        if len(set(p.weights)) == 1:
            gauges.append(_exact_unitary(n))
        for s in gauges:
            p_s, v = exact_gauge(build(), s)
            want = _conjugated(ref, s)
            twin = WeightedProjector(p_s.weights, want, p_s.label)
            assert hash(p_s) == hash(twin) and p_s == twin
            assert p_s.core == want
            assert v.times_dagger().core == want
            assert exact_gauge(build(), s)[1].dagger_times().core == ref


class TestIsometry:
    def test_tangent_to_real_form(self):
        geo = named_real_objects()
        rep = isometry_verify(geo.u, tangent_projector(), real_form(tilde_projector()))
        assert rep.all_pass

    def test_negative_control(self):
        ones = (Fraction(1),) * 3
        eye = PartialIsometry(
            ones,
            tuple(
                tuple(XPoly.one() if j == k else XPoly.zero() for k in range(3))
                for j in range(3)
            ),
            ones,
        )
        rep = isometry_verify(eye, normal_projector(), normal_projector())
        assert not rep.all_pass

    def test_dimension_mismatch(self):
        geo = named_real_objects()
        with pytest.raises(ValueError):
            isometry_verify(geo.u, tangent_projector(), normal_projector())


class TestConnectionConsistency:
    def test_tilde_connection_anti_hermitian(self):
        A = connection_form(tilde_ket2())
        assert tangent_frame_check(A + A.conj(), ZForm.zero())


class TestSerialization:
    def test_round_trip(self):
        for p in (charge_one_projector(), tilde_projector(), tangent_projector()):
            q = WeightedProjector.from_json(p.to_json(), p.label)
            assert q.weights == p.weights
            assert q.core == p.core
            assert q.ket is None

    def test_malformed_projectors_rejected(self):
        one = XPoly.one().to_json()

        def entry(**changes):
            # x3 with one field of its only term replaced
            return {"vars": ["x1", "x2", "x3"],
                    "terms": [{"re": "1", "im": "0", "exp": [0, 0, 1], **changes}]}

        for weights, core in (
            (["1", "2"], [[one], [one, one]]),          # ragged core
            (["1", "2"], [[one, one, one]] * 2),        # core not square
            (["1", "2"], [[one] * 3] * 3),              # core size != weight count
            (["-1", "2"], [[one, one], [one, one]]),    # negative weight
            (["0", "2"], [[one, one], [one, one]]),     # zero weight
            ([1, 2], [[one, one], [one, one]]),         # weights not strings
            ([0.5, "2"], [[one, one], [one, one]]),
            ("12", [[one, one], [one, one]]),           # weights not a list
            ([], []),                                   # 0x0: to_json never writes it
        ) + tuple(
            (["1", "2"], [[one, bad], [one, one]])
            for bad in (
                entry(exp=[0, 0, 2.5]),                  # non-integer exponent
                entry(exp=[0, 0, True]),                 # boolean exponent
                entry(exp=[0, 0, "3"]),                  # exponent as a string
                entry(exp="001"),                        # exponents not a list
                entry(re=0.1),                           # coefficient as a float
                entry(re=1),                             # coefficient as an int
                entry(im=0),
                entry(re="1/0"),                         # zero denominator
                entry(im="2/0"),
                {"vars": ["x1", "x2", "x3"], "terms": [{"re": "1"}]},  # term without exp
                {"vars": ["x1", "x2", "x3"], "terms": [{"exp": [0, 0, 1]}]},  # without re
                {"vars": ["x1", "x2", "x3"], "terms": ["x3"]},  # term not an object
                {"vars": ["x1", "x2", "x3"], "terms": [[0, 0, 1]]},
                {"vars": ["x1", "x2", "x3"]},             # no terms
                {"vars": ["x1", "x2", "x3"], "terms": "x3"},  # terms not a list
                "x3",                                    # entry not an object
            )
        ):
            with pytest.raises(ValueError):
                WeightedProjector.from_json({"weights": weights, "core": core})
        square = [[one, one], [one, one]]
        for data in (
            {"core": square},                            # no weights
            {"weights": ["1", "2"]},                     # no core
            {"weights": ["1/0", "2"], "core": square},   # weight with zero denominator
            {"weights": ["1", "2"], "core": "11"},       # core not a list of lists
            {"weights": ["1", "2"], "core": ["ab", "cd"]},
            [["1", "2"], square],                        # not an object
        ):
            with pytest.raises(ValueError):
                WeightedProjector.from_json(data)
