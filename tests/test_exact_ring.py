import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundle_forge.exact_ring import (
    EVAL_BLOCK,
    GR_I,
    GR_ONE,
    GaussianRational,
    NonInvariantMonomialError,
    X1,
    X2,
    X3,
    XPoly,
    Z0,
    Z1,
    ZB0,
    ZB1,
    ZPoly,
    dagger,
    evaluate_polys,
    monomial_integral,
    weighted_matmul,
    x_to_z,
    z_to_x,
)

from conftest import random_xpoly, random_zpoly


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        b = GaussianRational(Fraction(-2), Fraction(1, 3))
        assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 12))
        assert a * GR_I == GaussianRational(Fraction(-3, 4), Fraction(1, 2))
        assert (a * b) / b == a

    def test_conjugation_involution(self):
        a = GaussianRational(Fraction(2, 7), Fraction(-5, 3))
        assert a.conj().conj() == a
        norm = a * a.conj()
        assert norm.im == 0 and norm.re > 0

    def test_lowest_terms(self):
        a = GaussianRational(Fraction(2, -4), 0)
        assert a.re == Fraction(-1, 2)
        assert a.re.denominator == 2


class TestReduceX:
    def test_defining_relation(self):
        assert XPoly.monomial((0, 0, 2)) == XPoly.one() - X1 * X1 - X2 * X2

    def test_relation_applied_once(self):
        assert XPoly.monomial((0, 0, 3)) == X3 - X1 * X1 * X3 - X2 * X2 * X3

    def test_identity_on_canonical(self):
        p = X1 * X1 * X2
        assert p.terms == {(2, 1, 0): GR_ONE}

    def test_idempotent(self, rng):
        for _ in range(200):
            p = random_xpoly(rng)
            assert XPoly(p.terms) == p

    def test_ring_homomorphism(self, rng):
        # reduce(p*q) == reduce(reduce(p)*reduce(q)): multiplication already
        # reduces, so check against reduction of the raw term-by-term product
        for _ in range(1000):
            p, q = random_xpoly(rng, 4), random_xpoly(rng, 4)
            raw = {}
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    raw[m] = raw.get(m, GaussianRational(0)) + c1 * c2
            assert XPoly(raw) == p * q


class TestReduceZ:
    def test_defining_relation(self):
        assert ZPoly.monomial((1, 0, 1, 0)) == ZPoly.one() - Z1 * ZB1

    def test_relation_applied_once(self):
        assert ZPoly.monomial((2, 0, 1, 0)) == Z0 - Z0 * Z1 * ZB1

    def test_norm_power_is_one(self):
        # (|z0|^2 + |z1|^2)^n = 1
        s = Z0 * ZB0 + Z1 * ZB1
        p = ZPoly.one()
        for _ in range(4):
            p = p * s
        assert p == ZPoly.one()

    def test_canonical_no_mixed_z0(self, rng):
        for _ in range(200):
            p = random_zpoly(rng)
            for (e0, _, f0, _) in p.terms:
                assert min(e0, f0) == 0

    def test_ring_homomorphism(self, rng):
        for _ in range(1000):
            p, q = random_zpoly(rng, 3), random_zpoly(rng, 3)
            raw = {}
            for m1, c1 in p.terms.items():
                for m2, c2 in q.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    raw[m] = raw.get(m, GaussianRational(0)) + c1 * c2
            assert ZPoly(raw) == p * q


class TestConjugation:
    def test_involutive_anti_automorphism(self, rng):
        for _ in range(200):
            p, q = random_zpoly(rng, 3), random_zpoly(rng, 3)
            assert p.conj().conj() == p
            assert (p * q).conj() == p.conj() * q.conj()
        r = X1 * X2 + X3 * 3
        assert r.conj() == r


class TestZToX:
    def test_basic_inversion(self):
        assert z_to_x(Z0 * ZB1) == (X1 - X2 * GR_I) * Fraction(1, 2)
        assert z_to_x(Z1 * ZB0) == (X1 + X2 * GR_I) * Fraction(1, 2)
        assert z_to_x(Z0 * ZB0) == (XPoly.one() + X3) * Fraction(1, 2)

    def test_constant(self):
        assert z_to_x(ZPoly.one()) == XPoly.one()

    def test_pairing_order_independence(self):
        # independent oracle: compute z0 z1 zb0 zb1 via both explicit pairings
        via_diag = z_to_x(Z0 * ZB0) * z_to_x(Z1 * ZB1)
        via_cross = z_to_x(Z0 * ZB1) * z_to_x(Z1 * ZB0)
        assert via_diag == via_cross
        assert z_to_x(ZPoly.monomial((1, 1, 1, 1))) == via_cross
        assert via_cross == (X1 * X1 + X2 * X2) * Fraction(1, 4)

    def test_rejects_non_invariant(self):
        with pytest.raises(NonInvariantMonomialError):
            z_to_x(Z0)

    def test_multiplicative(self, rng):
        # invariant inputs built by pulling functions on S^2 back to S^3
        for _ in range(200):
            inv1 = x_to_z(random_xpoly(rng, 3))
            inv2 = x_to_z(random_xpoly(rng, 3))
            assert z_to_x(inv1 * inv2) == z_to_x(inv1) * z_to_x(inv2)

    def test_commutes_with_conj(self, rng):
        for _ in range(200):
            inv = x_to_z(random_xpoly(rng, 3))
            assert z_to_x(inv.conj()) == z_to_x(inv).conj()

    def test_x_to_z_round_trip(self, rng):
        for _ in range(100):
            p = random_xpoly(rng, 4)
            assert z_to_x(x_to_z(p)) == p

    def test_every_invariant_monomial_round_trips(self):
        # each invariant exponent tuple of holomorphic degree <= 4 (55 in all),
        # fed unreduced so that z_to_x also pairs z0 with zb0 itself
        seen = 0
        for k in range(5):
            for e0 in range(k + 1):
                for f0 in range(k + 1):
                    mono = (e0, k - e0, f0, k - f0)
                    raw = ZPoly({mono: GR_ONE}, _reduced=True)
                    assert x_to_z(z_to_x(raw)) == ZPoly.monomial(mono), mono
                    seen += 1
        assert seen == 55

    def test_results_do_not_share_cached_powers(self):
        # (z0 zb1)^3 hits the cached generator powers; clearing one result
        # must not change the next
        mono = ZPoly.monomial((3, 0, 0, 3))
        z0zb1 = (X1 - X2 * GR_I) * Fraction(1, 2)
        z_to_x(mono).terms.clear()
        assert z_to_x(mono) == z0zb1 * z0zb1 * z0zb1
        assert z_to_x(mono * Fraction(2, 3)) == z0zb1 * z0zb1 * z0zb1 * Fraction(2, 3)


class TestPartialDerivative:
    def test_examples(self):
        assert (X1 * X2).diff(0) == X2
        assert X3.diff(1) == XPoly.zero()
        assert (Z0 * Z0 * ZB1).diff(0) == Z0 * ZB1 * 2

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            X1.diff(3)

    def test_linearity(self, rng):
        for _ in range(200):
            p, q = random_xpoly(rng, 4), random_xpoly(rng, 4)
            for v in range(3):
                assert (p + q).diff(v) == p.diff(v) + q.diff(v)

    def test_leibniz_on_formal_products(self, rng):
        # the formal derivative is a derivation whenever forming the product
        # does not trigger the x3^2 rewrite (reduction subtracts a multiple
        # of the sphere relation, whose partials are not tangential)
        for _ in range(200):
            p = random_xpoly(rng, 4)
            q = random_xpoly(rng, 4)
            q = XPoly({(a, b, 0): c for (a, b, _), c in q.terms.items()})
            for v in range(3):
                assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


_small_rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_positive_rational = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
_small_xpoly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.builds(GaussianRational, _small_rational, _small_rational),
    max_size=3,
).map(XPoly)


@st.composite
def _weighted_product(draw):
    """(a, weights, b) with a n x m, b m x k and m positive rational weights."""
    n, m, k = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(draw(_small_xpoly) for _ in range(cols)) for _ in range(rows))

    return matrix(n, m), tuple(draw(_positive_rational) for _ in range(m)), matrix(m, k)


class TestWeightedMatmul:
    @settings(max_examples=40, deadline=None)
    @given(_weighted_product())
    def test_matches_naive_sum_and_dagger_reverses(self, case):
        a, w, b = case
        product = weighted_matmul(a, w, b)
        naive = tuple(
            tuple(
                sum((a[j][l] * b[l][k] * w[l] for l in range(len(w))), XPoly.zero())
                for k in range(len(b[0]))
            )
            for j in range(len(a))
        )
        assert product == naive
        assert dagger(product) == weighted_matmul(dagger(b), w, dagger(a))

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_matmul(((X1, X2),), (1, 1, 1), ((X1,), (X2,), (X3,)))
        with pytest.raises(ValueError):
            weighted_matmul(((X1, X2),), (1, 1), ((X1,),))


def _naive_evaluate(p, variables):
    """Per-term reference: the sum over terms of coeff * prod(var ** exp),
    together with the sum of the terms' absolute values."""
    total, size = 0, 0
    for mono, coeff in p.terms.items():
        term = complex(coeff)
        for v, e in zip(variables, mono):
            term = term * v ** e
        total, size = total + term, size + abs(term)
    return total, size


_POINT_SHAPES = ((), (3, 5), (EVAL_BLOCK + 3,))
_small_zpoly = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(4))),
    st.builds(GaussianRational, _small_rational, _small_rational),
    max_size=4,
).map(ZPoly)
_wide_xpoly = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3)),
    st.builds(GaussianRational, _small_rational, _small_rational),
    max_size=4,
).map(XPoly)


class TestEvaluatePolys:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.lists(_wide_xpoly, min_size=1, max_size=4),
                  st.lists(_small_zpoly, min_size=1, max_size=4)),
        st.sampled_from(_POINT_SHAPES),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_term_reference(self, polys, shape, seed):
        rng = np.random.default_rng(seed)
        if isinstance(polys[0], XPoly):
            coords = tuple(rng.uniform(-1.2, 1.2, shape) for _ in range(3))
            variables = coords
        else:
            coords = tuple(
                rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape) for _ in range(2)
            )
            variables = coords + tuple(np.conjugate(z) for z in coords)
        values = evaluate_polys(polys, coords)[0]
        assert values.shape == shape + (len(polys),)
        for col, p in enumerate(polys):
            want, size = _naive_evaluate(p, variables)
            assert np.all(np.abs(values[..., col] - want) <= 1e-12 * size)
            single = p.evaluate(*coords)
            assert np.shape(single) == shape
            assert np.all(np.abs(single - want) <= 1e-12 * size)

    def test_constants_take_the_points_shape(self):
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        for p, value in ((XPoly.one(), 1), (XPoly.zero(), 0)):
            got = p.evaluate(x, x, x)
            assert got.shape == (3, 4) and np.all(got == value)
            scalar = p.evaluate(0.5, -0.5, 0.0)
            assert np.ndim(scalar) == 0 and scalar == value

    def test_ring_evaluate_takes_more_polynomials_and_tangents(self):
        x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        coords, tangent = (x, 0.5 * x, 0.25), (1.0, x, -x)
        polys = [X1 * X2 + X3, X1 * X1 * X1, XPoly.one()]
        want = evaluate_polys(polys, coords, (tangent,))
        got = polys[0].evaluate(*coords, also=polys[1:], tangents=(tangent,))
        assert len(got) == 2 and all(np.array_equal(g, w) for g, w in zip(got, want))
        # a single polynomial: the stacked form once `also` is given, even empty
        (alone,) = polys[0].evaluate(*coords, also=())
        assert alone.shape == (2, 3, 1)
        assert np.array_equal(alone[..., 0], polys[0].evaluate(*coords))
        z = (0.6 + 0.0j, 0.8j)
        values = Z0.evaluate(*z, also=[ZB1])[0]
        assert np.allclose(values, [0.6, -0.8j])

    def test_rejects_mixed_rings(self):
        with pytest.raises(TypeError):
            evaluate_polys([X1, Z0], (0.5, 0.5, 0.5))


class TestMonomialIntegral:
    def test_normalization(self):
        assert monomial_integral(0, 0, 0).value == GR_ONE

    def test_odd_vanishes(self):
        assert monomial_integral(1, 0, 0).value == GaussianRational(0)
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    if a % 2 or b % 2 or c % 2:
                        assert not monomial_integral(a, b, c).value

    def test_second_moments(self):
        assert monomial_integral(2, 0, 0).value.re == Fraction(1, 3)
        assert monomial_integral(0, 2, 0).value.re == Fraction(1, 3)
        assert monomial_integral(0, 0, 2).value.re == Fraction(1, 3)

    def test_mixed_fourth_moment(self):
        # cross-checked against the Monte-Carlo oracle in test_quadbench
        assert monomial_integral(2, 2, 0).value.re == Fraction(1, 15)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            monomial_integral(-1, 0, 0)


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(50):
            p = random_xpoly(rng)
            assert XPoly.from_json(p.to_json()) == p
            q = random_zpoly(rng)
            assert ZPoly.from_json(q.to_json()) == q

    def test_loose_input_reduced(self):
        data = {
            "vars": ["x1", "x2", "x3"],
            "terms": [{"re": "1", "im": "0", "exp": [0, 0, 2]}],
        }
        assert XPoly.from_json(data) == XPoly.one() - X1 * X1 - X2 * X2

    def test_bad_vars_rejected(self):
        with pytest.raises(ValueError):
            XPoly.from_json({"vars": ["a"], "terms": []})
