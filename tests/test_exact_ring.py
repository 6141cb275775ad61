import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundle_forge.exact_ring import (
    EVAL_BLOCK,
    GR_I,
    GR_ONE,
    MAX_DEGREE,
    DegreeBoundError,
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
from bundle_forge.bundles import projector_from_ket, real_form
from bundle_forge.kets import monopole_ket, tilde_ket2

from conftest import chart, random_xpoly, section, random_zpoly, whole_grid


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


def _naive_reduce(ring, raw: dict) -> dict:
    """Per-term Fraction reference of the ring's canonical reduction: one
    x3^2 -> 1 - x1^2 - x2^2 or z0 zb0 -> 1 - z1 zb1 rewrite at a time."""
    out: dict = {}
    pending = list(raw.items())
    while pending:
        m, c = pending.pop()
        if ring is XPoly and m[2] >= 2:
            a, b, e = m
            pending += [((a, b, e - 2), c), ((a + 2, b, e - 2), -c), ((a, b + 2, e - 2), -c)]
        elif ring is ZPoly and min(m[0], m[2]) > 0:
            e0, e1, f0, f1 = m
            pending += [((e0 - 1, e1, f0 - 1, f1), c), ((e0 - 1, e1 + 1, f0 - 1, f1 + 1), -c)]
        else:
            out[m] = out.get(m, GaussianRational(0)) + c
    return {m: c for m, c in out.items() if c}


def _naive_mul(p, q) -> dict:
    """Per-term Fraction reference of p * q: every pair of terms multiplied
    as GaussianRationals, then `_naive_reduce`."""
    raw: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            raw[m] = raw.get(m, GaussianRational(0)) + c1 * c2
    return _naive_reduce(type(p), raw)


def _assert_canonical_coefficients(p) -> None:
    """Every coefficient a nonzero GaussianRational of Fractions in lowest
    terms (what the benchmark's coefficient-size counter reads), every
    monomial in the ring's canonical form, and the stored integer form
    canonical: a positive denominator coprime to the nonzero numerators."""
    assert p.den > 0 and all(p.re.values()) and all(p.im.values())
    assert math.gcd(p.den, *p.re.values(), *p.im.values()) == 1
    for m, c in p.terms.items():
        assert type(c) is GaussianRational and c
        for f in (c.re, c.im):
            assert type(f) is Fraction
            assert f.denominator > 0 and math.gcd(f.numerator, f.denominator) == 1
        assert m[2] <= 1 if isinstance(p, XPoly) else min(m[0], m[2]) == 0


_mixed_rational = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 7, 9, 12, 25))
)
_kernel_coefficient = st.one_of(
    st.builds(GaussianRational, _mixed_rational, _mixed_rational),
    st.builds(GaussianRational, st.just(0), _mixed_rational),     # pure imaginary
    st.builds(GaussianRational, _mixed_rational),                  # real
)
# x3 exponents up to 8: a rewrite of x3^8 lands on x3^6, which needs another
_kernel_xterms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 8)),
    _kernel_coefficient,
    max_size=6,
)
_kernel_zterms = st.dictionaries(
    st.tuples(*(st.integers(0, 4) for _ in range(4))), _kernel_coefficient, max_size=6
)
_kernel_terms = st.one_of(
    st.tuples(st.just(XPoly), _kernel_xterms, _kernel_xterms),
    st.tuples(st.just(ZPoly), _kernel_zterms, _kernel_zterms),
)


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(_kernel_terms, st.booleans(), _kernel_coefficient)
    def test_product_matches_per_term_reference(self, case, cancel, scalar):
        ring, p_terms, q_terms = case
        p = ring(p_terms)
        # with `cancel`, q is p with every other sign flipped: (a + b)(a - b)
        q = ring({
            m: -c if i % 2 else c for i, (m, c) in enumerate(p.terms.items())
        }) if cancel else ring(q_terms)
        for left, right in ((p, q), (q, p), (p, p)):
            product = left * right
            assert product.terms == _naive_mul(left, right)
            _assert_canonical_coefficients(product)
        scaled = p * scalar
        assert scaled.terms == {m: c * scalar for m, c in p.terms.items() if c * scalar}
        _assert_canonical_coefficients(scaled)
        assert (p * q + (-p) * q).is_zero() and (p * 0).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(_kernel_terms)
    def test_constructor_matches_per_term_reference(self, case):
        ring, terms, _ = case
        p = ring(terms)
        assert p.terms == _naive_reduce(ring, terms)
        _assert_canonical_coefficients(p)

    def test_high_x3_powers(self):
        c = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
        power = XPoly.one()
        for e in range(10):
            assert XPoly({(0, 0, e): c}) == power * c
            assert XPoly({(0, 0, e): c}).terms == _naive_reduce(XPoly, {(0, 0, e): c})
            power = power * X3
        assert XPoly({(1, 2, 7): GR_I}).terms == _naive_reduce(XPoly, {(1, 2, 7): GR_I})

    def test_sphere_relations_reduce_to_zero(self):
        assert XPoly({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1}).is_zero()
        assert ZPoly({(1, 0, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 0, 0): -1}).is_zero()
        assert (X1 + X2 * GR_I) * (X1 - X2 * GR_I) + X3 * X3 == XPoly.one()
        assert (X1 + X2) * (X1 - X2) == XPoly({(2, 0, 0): 1, (0, 2, 0): -1})


# the rational scales of sum_of_products: ints, zero among them, and
# Fractions of several denominators
_kernel_scale = st.one_of(st.integers(-5, 5), _mixed_rational)


@st.composite
def _product_sums(draw):
    """(ring, [(c, a, b), ...]) with up to three products of the ring, any
    of them with a zero scale or a zero polynomial."""
    ring = draw(st.sampled_from((XPoly, ZPoly)))
    polys = (_kernel_xterms if ring is XPoly else _kernel_zterms).map(ring)
    return ring, draw(st.lists(st.tuples(_kernel_scale, polys, polys), max_size=3))


class TestSumOfProducts:
    @settings(max_examples=80, deadline=None)
    @given(_product_sums(), st.booleans())
    def test_matches_sum_of_scaled_products(self, case, cancel):
        ring, terms = case
        if cancel:
            # every product again with one sign flipped: the sum is zero
            terms += [(c, -a, b) if i % 2 else (-c, a, b) for i, (c, a, b) in enumerate(terms)]
        total = ring.sum_of_products(iter(terms))
        assert total == sum((c * a * b for c, a, b in terms), ring.zero())
        naive: dict = {}
        for c, a, b in terms:
            for m, v in _naive_mul(a, b).items():
                naive[m] = naive.get(m, GaussianRational(0)) + v * c
        assert total.terms == {m: v for m, v in naive.items() if v}
        _assert_canonical_coefficients(total)
        if cancel:
            zero = ring.zero()
            assert (total.den, total.re, total.im) == (zero.den, zero.re, zero.im)

    def test_empty_and_zero_inputs(self):
        for ring in (XPoly, ZPoly):
            zero, one = ring.zero(), ring.one()
            for terms in ((), [(0, one, one)], [(3, zero, one), (Fraction(1, 2), one, zero)]):
                total = ring.sum_of_products(terms)
                assert (total.den, total.re, total.im) == (zero.den, zero.re, zero.im)

    def test_degree_bound(self):
        half = XPoly.monomial((0, 64, 0))
        with pytest.raises(DegreeBoundError):
            XPoly.sum_of_products([(1, X1, X2), (Fraction(1, 3), half, half)])
        with pytest.raises(DegreeBoundError):
            ZPoly.sum_of_products([(2, ZPoly.monomial((0, 0, 0, 127)), ZB1)])

    def test_rejects_other_operands(self):
        for terms in (
            [(GR_I, X1, X2)],                    # a complex scale
            [(0.5, X1, X2)],                     # a float scale
            [(1, X1, Z0)],                       # two rings
            [(1, X1, 2)],                        # a scalar operand
        ):
            with pytest.raises(TypeError):
                XPoly.sum_of_products(terms)


def _naive_sum(p, q, sign: int) -> dict:
    """Per-term Fraction reference of p + sign * q."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = out.get(m, GaussianRational(0)) + c * sign
    return {m: c for m, c in out.items() if c}


def _naive_conj(p) -> dict:
    if isinstance(p, XPoly):
        return {m: c.conj() for m, c in p.terms.items()}
    return {(f0, f1, e0, e1): c.conj() for (e0, e1, f0, f1), c in p.terms.items()}


def _naive_diff(p, v: int) -> dict:
    """Per-term reference of the formal derivative in variable v."""
    return {
        m[:v] + (m[v] - 1,) + m[v + 1:]: c * m[v] for m, c in p.terms.items() if m[v]
    }


_PAIR_IMAGES = (
    (XPoly.one() + X3) * Fraction(1, 2),    # z0 zb0
    (X1 - X2 * GR_I) * Fraction(1, 2),      # z0 zb1
    (X1 + X2 * GR_I) * Fraction(1, 2),      # z1 zb0
    (XPoly.one() - X3) * Fraction(1, 2),    # z1 zb1
)


def _z_to_x_per_monomial(p: ZPoly) -> XPoly:
    """Reference for z_to_x: each monomial factored greedily into the pair
    generators, its image multiplied out factor by factor and added to a
    running sum with `+`."""
    result = XPoly.zero()
    for (e0, e1, f0, f1), coeff in p.terms.items():
        a = min(e0, f0)
        b = min(e0 - a, f1)
        c = min(e1, f0 - a)
        image = XPoly.one()
        for generator, power in zip(_PAIR_IMAGES, (a, b, c, e1 - c)):
            for _ in range(power):
                image = image * generator
        result = result + image * coeff
    return result


# U(1)-invariant monomials z0^e0 z1^(n-e0) zb0^f0 zb1^(n-f0) up to n = 8
_invariant_monomial = st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda e: (e[0], n - e[0], e[1], n - e[1])
    )
)


class TestZToXReference:
    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(_invariant_monomial, _kernel_coefficient, max_size=8), st.booleans())
    def test_matches_per_monomial_loop(self, terms, raw):
        # `raw` stores the monomials unreduced, so that z0 also pairs with zb0
        p = ZPoly(terms, _reduced=raw)
        result = z_to_x(p)
        assert result == _z_to_x_per_monomial(p)
        _assert_canonical_coefficients(result)


class TestIntegerStorage:
    @settings(max_examples=150, deadline=None)
    @given(_kernel_terms, st.booleans())
    def test_linear_operations_match_per_term_reference(self, case, cancel):
        ring, p_terms, q_terms = case
        p = ring(p_terms)
        # with `cancel`, q is p with every other sign flipped: p + q and
        # p - q cancel half the terms each, p - p all of them
        q = ring({
            m: -c if i % 2 else c for i, (m, c) in enumerate(p.terms.items())
        }) if cancel else ring(q_terms)
        results = [
            (p + q, _naive_sum(p, q, 1)),
            (p - q, _naive_sum(p, q, -1)),
            (p - p, {}),
            (-p, {m: -c for m, c in p.terms.items()}),
            (p.conj(), _naive_conj(p)),
        ]
        results += [(p.diff(v), _naive_diff(p, v)) for v in range(ring.NVARS)]
        for got, want in results:
            assert got.terms == want
            _assert_canonical_coefficients(got)
        assert (p - p).is_zero() and p - p == ring.zero()

    @settings(max_examples=100, deadline=None)
    @given(_kernel_terms)
    def test_add_then_subtract_is_identity(self, case):
        ring, p_terms, q_terms = case
        p, q = ring(p_terms), ring(q_terms)
        back = p + q - q
        assert back == p and hash(back) == hash(p)
        assert (back.den, back.re, back.im) == (p.den, p.re, p.im)

    def test_terms_is_a_derived_view(self):
        p = X1 * Fraction(1, 2) + X2 * GR_I
        p.terms.clear()
        assert p.terms == {(1, 0, 0): GaussianRational(Fraction(1, 2)), (0, 1, 0): GR_I}
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_degree_bound_on_constructor_input(self):
        for ring in (XPoly, ZPoly):
            top = (MAX_DEGREE,) + (0,) * (ring.NVARS - 1)
            assert ring.monomial(top).terms == {top: GR_ONE}
            over = (MAX_DEGREE - 1,) + (0,) * (ring.NVARS - 2) + (2,)
            with pytest.raises(DegreeBoundError):
                ring.monomial(over)
            with pytest.raises(DegreeBoundError):
                ring({over: 1}, _reduced=True)
            with pytest.raises(ValueError):
                ring.monomial((-1,) + (0,) * (ring.NVARS - 1))
        with pytest.raises(ValueError):
            XPoly.from_json({"vars": ["x1", "x2", "x3"],
                             "terms": [{"re": "1", "im": "0", "exp": [0, 300, 0]}]})

    def test_degree_bound_on_products(self):
        # an exponent field holds up to 2 * MAX_DEGREE, so every product
        # above the bound is seen as such, never wrapped into the next field
        half = XPoly.monomial((0, 64, 0))
        assert (half * XPoly.monomial((0, 63, 0))).terms == {(0, 127, 0): GR_ONE}
        for left, right in (
            (half, half),                                              # x2^128
            (XPoly.monomial((0, 127, 0)), XPoly.monomial((0, 127, 0))),  # x2^254
            (XPoly.monomial((100, 0, 1)), XPoly.monomial((0, 0, 100))),  # x3 rewrite
            (ZPoly.monomial((0, 0, 0, 127)), ZB1),
            (ZPoly.monomial((127, 0, 0, 0)), ZPoly.monomial((0, 0, 127, 0))),
        ):
            with pytest.raises(DegreeBoundError):
                left * right

    def test_reductions_at_the_degree_bound(self):
        # x3^127 rewrites to x3 (1 - x1^2 - x2^2)^63: checked exactly at a
        # rational point of the sphere
        point = (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7))
        p = XPoly.monomial((0, 0, MAX_DEGREE))
        value = sum(
            c.re * math.prod(x ** e for x, e in zip(point, m)) for m, c in p.terms.items()
        )
        assert value == point[2] ** MAX_DEGREE
        k = MAX_DEGREE // 2
        assert ZPoly.monomial((k, 0, k, 0)).terms == {
            (0, j, 0, j): GaussianRational((-1) ** j * math.comb(k, j)) for j in range(k + 1)
        }


class TestScalarFirstOperands:
    def test_scalar_first_equals_polynomial_first(self):
        for scalar in (GR_I, GaussianRational(Fraction(2, 3), -1), Fraction(-5, 7), 3):
            for p in (X2, X1 * X3 - X2 * GR_I, Z0, Z0 * ZB1 * Fraction(1, 2) + ZB0):
                assert scalar * p == p * scalar
                assert scalar + p == p + scalar
                assert scalar - p == -(p - scalar)
                assert type(scalar * p) is type(p)

    def test_unknown_operand_still_rejected(self):
        for bad in ("x", 1.5, None):
            with pytest.raises(TypeError):
                GR_I * bad
            with pytest.raises(TypeError):
                bad + GR_I


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


# monopoles of charge up to 16, as in the CLI
MAX_GRID_CHARGE = 16


@functools.lru_cache(maxsize=None)
def _monopole_entries(charge: int) -> list:
    """The core entries of the monopole projector of `charge`."""
    ket = monopole_ket("minus" if charge >= 0 else "plus", abs(charge))
    return [e for row in projector_from_ket(ket).core for e in row]


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
        values = evaluate_polys(polys, coords)
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

    def test_ring_evaluate_takes_more_polynomials_and_angles(self):
        x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        coords = (x, 0.5 * x, 0.25)
        polys = [X1 * X2 + X3, X1 * X1 * X1, XPoly.one()]
        got = polys[0].evaluate(*coords, also=polys[1:])
        assert np.array_equal(got, evaluate_polys(polys, coords))
        # a single polynomial: the stacked form once `also` is given, even empty
        alone = polys[0].evaluate(*coords, also=())
        assert alone.shape == (2, 3, 1)
        assert np.array_equal(alone[..., 0], polys[0].evaluate(*coords))
        z = (0.6 + 0.0j, 0.8j)
        assert np.allclose(Z0.evaluate(*z, also=[ZB1]), [0.6, -0.8j])
        # on a grid of angles: the values, d/dtheta and d/dphi in closed form
        theta, phi = np.array([[0.3], [1.2]]), np.array([[0.0, 2.0, 4.0]])
        st, ct, sf, cf = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        grid = whole_grid(
            polys[0].evaluate(also=polys[1:], angles=(theta, phi), derivatives=True), True
        )
        assert grid.shape == (3, 2, 3, 3)
        want = [
            # x1 x2 + x3 = sin^2 t cos f sin f + cos t
            (st**2 * cf * sf + ct, 2 * st * ct * cf * sf - st, st**2 * (cf**2 - sf**2)),
            # x1^3 = sin^3 t cos^3 f
            (st**3 * cf**3, 3 * st**2 * ct * cf**3, -3 * st**3 * cf**2 * sf),
            (1.0, 0.0, 0.0),
        ]
        for col, derivatives in enumerate(want):
            for k, w in enumerate(derivatives):
                assert np.allclose(grid[k, ..., col], w, rtol=0, atol=1e-15)
        values = whole_grid(polys[0].evaluate(angles=(theta, phi)))
        assert values.shape == (2, 3)
        assert np.allclose(values, grid[0, ..., 0], rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            polys[0].evaluate(*coords, derivatives=True)
        with pytest.raises(TypeError):
            polys[0].evaluate(*coords, angles=(theta, phi))
        with pytest.raises(TypeError):
            polys[0].evaluate(x, x)
        with pytest.raises(ValueError):
            polys[0].evaluate(angles=(phi, theta))

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.lists(_wide_xpoly, min_size=1, max_size=4),
            st.sampled_from([[XPoly.one()], [XPoly.zero()], [XPoly.zero(), X3 - GR_I]]),
            st.integers(-MAX_GRID_CHARGE, MAX_GRID_CHARGE).map(_monopole_entries),
        ),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_grid_matches_points(self, polys, polar, azimuthal, seed):
        """The product-grid path against the scattered path at the meshed
        points: values to 1e-12 of the summed term sizes, the derivatives
        against central differences to 1e-7 of the summed coefficient sizes,
        a bound of the polynomial on the sphere."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi, (polar, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, azimuthal))
        got = whole_grid(
            polys[0].evaluate(also=polys[1:], angles=(theta, phi), derivatives=True), True
        )
        assert got.shape == (3, polar, azimuthal, len(polys))
        # the sum of |re| + |im| of every term bounds the rounding of each path
        bounds = [XPoly({m: abs(c.re) + abs(c.im) for m, c in p.terms.items()}) for p in polys]
        size = evaluate_polys(bounds, tuple(np.abs(x) for x in chart(theta, phi))).real
        assert np.all(np.abs(got[0] - evaluate_polys(polys, chart(theta, phi))) <= 1e-12 * size)
        scale = evaluate_polys(bounds, (1.0, 1.0, 1.0)).real
        h = 1e-5
        for k, step in ((1, (h, 0.0)), (2, (0.0, h))):
            ahead = evaluate_polys(polys, chart(theta + step[0], phi + step[1]))
            behind = evaluate_polys(polys, chart(theta - step[0], phi - step[1]))
            fd = (ahead - behind) / (2.0 * h)
            assert np.all(np.abs(got[k] - fd) <= 1e-7 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.lists(_small_zpoly, min_size=1, max_size=4),
            st.sampled_from([[ZPoly.one()], [ZPoly.zero()], [ZPoly.zero(), ZB1 * GR_I - Z0]]),
            st.integers(-MAX_GRID_CHARGE, MAX_GRID_CHARGE).map(
                lambda c: list(monopole_ket("minus" if c >= 0 else "plus", abs(c)).polys)
            ),
        ),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_section_grid_matches_points(self, polys, polar, azimuthal, seed):
        """ZPolys on the Hopf section sigma over the product grid against the
        scattered path at the points sigma(theta, phi), with the bounds of
        `test_grid_matches_points`: |z0|, |z1| <= 1 on S^3."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi, (polar, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, azimuthal))
        got = whole_grid(
            polys[0].evaluate(also=polys[1:], angles=(theta, phi), derivatives=True), True
        )
        assert got.shape == (3, polar, azimuthal, len(polys))
        assert got.dtype == np.complex128
        bounds = [ZPoly({m: abs(c.re) + abs(c.im) for m, c in p.terms.items()}) for p in polys]
        points = section(theta, phi)
        size = evaluate_polys(bounds, tuple(np.abs(z) for z in points)).real
        want = polys[0].evaluate(*points, also=polys[1:])
        assert np.all(np.abs(got[0] - want) <= 1e-12 * size)
        scale = evaluate_polys(bounds, (1.0, 1.0)).real
        h = 1e-5
        for k, step in ((1, (h, 0.0)), (2, (0.0, h))):
            ahead = evaluate_polys(polys, section(theta + step[0], phi + step[1]))
            behind = evaluate_polys(polys, section(theta - step[0], phi - step[1]))
            fd = (ahead - behind) / (2.0 * h)
            assert np.all(np.abs(got[k] - fd) <= 1e-7 * scale)

    @pytest.mark.parametrize("derivatives", [False, True, "finite-difference"])
    def test_grid_blocks(self, derivatives, monkeypatch):
        """evaluate_grid yields, in order, blocks of the most polar nodes
        whose table fits GRID_BLOCK_BYTES, at least one node each; joined,
        they are the one-block table bit for bit.  Each call builds the
        coefficient matrix and the phi-factor tables once, at any block
        count: one phi-table, or three (f and f +- h) with finite
        differences."""
        from bundle_forge import exact_ring

        polys = _monopole_entries(3)
        rng = np.random.default_rng(8)
        theta = rng.uniform(0.0, math.pi, (20, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 5))
        calls = {"coefficients": 0, "phi": 0}

        def counted(key, function):
            def wrapper(*args):
                calls[key] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(exact_ring, "_coefficient_matrix",
                            counted("coefficients", exact_ring._coefficient_matrix))
        monkeypatch.setattr(XPoly, "_grid_factors",
                            staticmethod(counted("phi", XPoly._grid_factors)))

        def blocks(budget):
            monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", budget)
            calls.update(coefficients=0, phi=0)
            got = list(exact_ring.evaluate_grid(polys, theta, phi, derivatives))
            phi_tables = 3 if derivatives == "finite-difference" else 1
            assert calls == {"coefficients": 1, "phi": phi_tables}
            return got

        (whole,) = blocks(1 << 62)
        assert whole.shape == ((3, 20, 5, 16) if derivatives else (20, 5, 16))
        node_bytes = whole.nbytes // 20
        axis = 1 if derivatives else 0
        for budget, lengths in (
            (1, [1] * 20),
            (node_bytes, [1] * 20),
            (8 * node_bytes - 1, [7, 7, 6]),
            (20 * node_bytes, [20]),
        ):
            got = blocks(budget)
            assert [b.shape[axis] for b in got] == lengths, budget
            assert np.array_equal(np.concatenate(got, axis=axis), whole), budget

    @pytest.mark.parametrize("derivatives", [False, True, "finite-difference"])
    def test_scale_multiplies_each_polynomial(self, derivatives, monkeypatch):
        """Blocks with a scale of one factor per polynomial are the unscaled
        blocks times the factors: bit for bit for powers of two, and for
        square roots of weights to 1e-15 of the polynomial's scaled
        coefficient sum times one plus its degree, which bounds its terms
        in every plane.  Complex and real XPolys and ZPolys, on blocks of
        five nodes."""
        from bundle_forge import exact_ring

        rng = np.random.default_rng(31)
        theta = rng.uniform(0.0, math.pi, (12, 1))
        phi = rng.uniform(0.0, 2.0 * math.pi, (1, 7))
        for polys in (
            _monopole_entries(9),
            [e for row in real_form(projector_from_ket(tilde_ket2())).core for e in row],
            list(monopole_ket("plus", 16).polys),
        ):
            def blocks(scale=None):
                return list(polys[0].evaluate(also=polys[1:], angles=(theta, phi),
                                              derivatives=derivatives, scale=scale))

            node_bytes = blocks()[0][..., 0, :, :].nbytes
            monkeypatch.setattr(exact_ring, "GRID_BLOCK_BYTES", 5 * node_bytes)
            plain = blocks()
            assert [b.shape[-3] for b in plain] == [5, 5, 2]
            powers = 2.0 ** rng.integers(-3, 4, len(polys))
            for got, want in zip(blocks(powers), plain):
                assert np.array_equal(got, want * powers)
            roots = np.sqrt(rng.integers(1, 20, len(polys)))
            size = roots * [
                sum(abs(complex(c)) for c in p.terms.values())
                * (1 + max(map(sum, p.terms), default=0))
                for p in polys
            ]
            for got, want in zip(blocks(roots), plain):
                assert got.dtype == want.dtype
                assert np.all(np.abs(got - want * roots) <= 1e-15 * size)

    def test_zpoly_evaluate_takes_two_points_or_angles(self):
        z = (0.6 + 0.0j, 0.8j)
        theta, phi = np.array([[0.3], [1.2]]), np.array([[0.0, 2.0, 4.0]])
        with pytest.raises(TypeError):
            Z0.evaluate(z[0])
        with pytest.raises(TypeError):
            Z0.evaluate(*z, z[1])
        with pytest.raises(TypeError):
            Z0.evaluate(*z, angles=(theta, phi))
        with pytest.raises(ValueError):
            Z0.evaluate(*z, derivatives=True)
        with pytest.raises(ValueError):
            Z0.evaluate(*z, scale=[2.0])
        with pytest.raises(TypeError):
            Z0.evaluate(also=[X1], angles=(theta, phi))

    def test_power_tables_only_for_occurring_variables(self, monkeypatch):
        """A holomorphic ket builds the power tables of z0 and z1 only, a
        constant none, and both still match the per-term reference."""
        from bundle_forge import exact_ring

        tables = []

        def counted(x, top):
            tables.append(top)
            return power_table(x, top)

        power_table = exact_ring._power_table
        monkeypatch.setattr(exact_ring, "_power_table", counted)
        rng = np.random.default_rng(3)
        z = tuple(rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-1, 1, (3, 5)) for _ in range(2))
        variables = z + tuple(np.conjugate(x) for x in z)
        for polys, used in ((list(monopole_ket("minus", 4).polys), 2), ([ZPoly.one()], 0)):
            del tables[:]
            values = polys[0].evaluate(*z, also=polys[1:])
            assert len(tables) == used
            assert values.shape == (3, 5, len(polys))
            for col, p in enumerate(polys):
                want, size = _naive_evaluate(p, variables)
                assert np.all(np.abs(values[..., col] - want) <= 1e-12 * size)

    def test_rejects_mixed_rings(self):
        with pytest.raises(TypeError):
            evaluate_polys([X1, Z0], (0.5, 0.5, 0.5))


class TestEvaluationDtype:
    """Real-coefficient XPolys at real points evaluate to float64; any
    imaginary coefficient, complex point or ZPoly gives complex."""

    def test_real_polynomials_give_float64_equal_to_the_complex_real_part(self):
        """The 36 core entries of the real form, on the 64x128 grid with
        derivatives and at 10^4 scattered points: the float64 values are bit
        for bit the real part of the same polynomials evaluated in one call
        beside X1 * i."""
        entries = [e for row in real_form(projector_from_ket(tilde_ket2())).core for e in row]
        assert len(entries) == 36 and not any(e.im for e in entries)
        theta = np.linspace(0.01, math.pi - 0.01, 64)[:, None]
        phi = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)[None, :]
        grid = whole_grid(
            entries[0].evaluate(also=entries[1:], angles=(theta, phi), derivatives=True), True
        )
        assert grid.dtype == np.float64
        mixed = whole_grid(entries[0].evaluate(also=entries[1:] + [X1 * GR_I],
                                               angles=(theta, phi), derivatives=True), True)
        assert mixed.dtype == np.complex128
        assert np.array_equal(grid, mixed[..., :36].real)
        rng = np.random.default_rng(13)
        points = chart(rng.uniform(0.0, math.pi, 10**4), rng.uniform(0.0, 2.0 * math.pi, 10**4))
        scattered = entries[0].evaluate(*points, also=entries[1:])
        assert scattered.dtype == np.float64
        mixed = entries[0].evaluate(*points, also=entries[1:] + [X1 * GR_I])
        assert mixed.dtype == np.complex128
        assert np.array_equal(scattered, mixed[..., :36].real)
        # one polynomial, a scalar point, constants
        assert (X1 * X2 - X3).evaluate(0.5, -0.5, 0.25).dtype == np.float64
        assert whole_grid(XPoly.one().evaluate(angles=(theta, phi))).dtype == np.float64

    def test_imaginary_parts_and_zpolys_give_complex(self):
        theta, phi = np.array([[0.3], [1.2]]), np.array([[0.0, 2.0, 4.0]])
        x = chart(theta, phi)
        for polys in ([X1 * GR_I], [X1, X2 + X3 * GR_I], [XPoly.constant(GR_I)]):
            assert evaluate_polys(polys, x).dtype == np.complex128
            got = whole_grid(
                polys[0].evaluate(also=polys[1:], angles=(theta, phi), derivatives=True), True
            )
            assert got.dtype == np.complex128
        # real coefficients at a complex point
        assert X1.evaluate(0.5 + 0.0j, 0.5, 0.5).dtype == np.complex128
        # a ZPoly: its variables include zbar, complex even at real points
        for polys in ([Z0 * ZB1], [ZPoly.one()], list(monopole_ket("minus", 2).polys)):
            assert evaluate_polys(polys, (0.6, 0.8)).dtype == np.complex128
            assert polys[0].evaluate(0.6, 0.8).dtype == np.complex128


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
