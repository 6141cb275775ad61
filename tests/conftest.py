import random
from fractions import Fraction

import numpy as np
import pytest

from bundle_forge.exact_ring import Z0, Z1, ZB0, ZB1, GaussianRational, XPoly, ZPoly
from bundle_forge.kets import EquivariantKet


def random_coeff(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def random_xpoly(rng: random.Random, max_degree: int = 6, nterms: int = 4) -> XPoly:
    terms = {}
    for _ in range(nterms):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree - a)
        c = rng.randint(0, max_degree - a - b)
        terms[(a, b, c)] = random_coeff(rng)
    return XPoly(terms)


def random_zpoly(rng: random.Random, max_degree: int = 4, nterms: int = 4) -> ZPoly:
    terms = {}
    for _ in range(nterms):
        remaining = max_degree
        expo = []
        for _ in range(4):
            e = rng.randint(0, remaining)
            expo.append(e)
            remaining -= e
        terms[tuple(expo)] = random_coeff(rng)
    return ZPoly(terms)


def type_zero_ket() -> EquivariantKet:
    """a = (z0 zb0, z1 zb1, sqrt2 z0 zb1): a unit ket of equivariance type 0
    with a non-constant Chern density.  The ring stores z0 zb0 as
    1 - z1 zb1, so its first component is not bidegree-homogeneous."""
    one = Fraction(1)
    return EquivariantKet((one, one, 2 * one), (Z0 * ZB0, Z1 * ZB1, Z0 * ZB1))


def tensor_ket(a: EquivariantKet, b: EquivariantKet) -> EquivariantKet:
    """a (x) b, components a_j b_k in row-major order, weights multiplied."""
    return EquivariantKet(
        tuple(v * w for v in a.weights for w in b.weights),
        tuple(p * q for p in a.polys for q in b.polys),
    )


def su2_move(k: EquivariantKet, alpha: GaussianRational, beta: GaussianRational) -> EquivariantKet:
    """psi o U for U = [[alpha, beta], [-conj(beta), conj(alpha)]] acting on
    (z0, z1), |alpha|^2 + |beta|^2 = 1: each component with z0 and z1
    replaced by alpha z0 + beta z1 and -conj(beta) z0 + conj(alpha) z1, and
    zb0, zb1 by their conjugates.  U is in SU(2), so it keeps S^3, the
    pairing and the equivariance type; on S^2 it is a rotation, about the
    x3-axis only when beta = 0."""
    if alpha * alpha.conj() + beta * beta.conj() != GaussianRational(1):
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")
    images = (Z0 * alpha + Z1 * beta, Z1 * alpha.conj() - Z0 * beta.conj())
    images += tuple(w.conj() for w in images)

    def moved(q: ZPoly) -> ZPoly:
        out = ZPoly.zero()
        for mono, c in q.terms.items():
            term = ZPoly.constant(c)
            for w, e in zip(images, mono):
                for _ in range(e):
                    term = term * w
            out = out + term
        return out

    return EquivariantKet(k.weights, tuple(moved(q) for q in k.polys))


def skew_hermitian(rng: random.Random, n: int) -> tuple:
    """A random n x n Gaussian-rational A with A+ = -A."""
    a = [[GaussianRational(0)] * n for _ in range(n)]
    for j in range(n):
        a[j][j] = GaussianRational(0, random_coeff(rng).im)
        for k in range(j + 1, n):
            a[j][k] = random_coeff(rng)
            a[k][j] = -a[j][k].conj()
    return tuple(map(tuple, a))


def cayley_unitary(a) -> tuple:
    """(I - A)(I + A)^-1 for a skew-hermitian Gaussian-rational A: an exact
    unitary (I + A is invertible, its eigenvalues being 1 + i lambda), by
    Gauss-Jordan elimination on (I + A | I - A), which gives
    (I + A)^-1 (I - A), the same matrix since the two factors commute."""
    n = len(a)
    one, zero = GaussianRational(1), GaussianRational(0)
    rows = [[(one if j == k else zero) + a[j][k] for k in range(n)]
            + [(one if j == k else zero) - a[j][k] for k in range(n)] for j in range(n)]
    for col in range(n):
        pivot = next(j for j in range(col, n) if rows[j][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = one / rows[col][col]
        rows[col] = [e * inv for e in rows[col]]
        for j in range(n):
            if j != col and rows[j][col]:
                factor = rows[j][col]
                rows[j] = [e - factor * c for e, c in zip(rows[j], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def chart(theta, phi):
    """The points x(theta, phi) of S^2, broadcast to one shape."""
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def whole_grid(blocks, derivatives=False) -> np.ndarray:
    """The whole-grid table of a grid evaluation's blocks of polar nodes:
    the blocks joined along the polar axis, which follows the leading axis
    of three when `derivatives` is set."""
    return np.concatenate(list(blocks), axis=1 if derivatives else 0)


def section(theta, phi):
    """The points sigma(theta, phi) = (cos(theta/2), e^(i phi) sin(theta/2))
    of S^3 over x(theta, phi), broadcast to one shape."""
    z0 = np.cos(theta / 2.0) + 0.0 * phi
    return z0, np.exp(1j * phi) * np.sin(theta / 2.0)


@pytest.fixture
def rng():
    return random.Random(20260823)
