"""Projectors over S^2: construction, axioms, Chern forms, gauge moves.

A projector is stored factored as p = D M D with D = diag(sqrt(w_k)) and a
hermitian core M of XPoly entries, so idempotency, traces and the Chern
integrand tr(M W dM W dM W) all stay inside the exact Gaussian-rational
field even when the dense matrix entries carry sqrt-binomial factors.

A projector p = |psi><psi| built from an equivariant ket keeps the ket, and
its axioms and Chern number then work with the n components of psi instead
of the n x n core: the axioms through <psi|psi>, the Chern number through
the Hopf lift to S^3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact_ring import (
    GR_I,
    GaussianRational,
    X1,
    X2,
    X3,
    XPoly,
    ZPoly,
    dagger,
    integrate_xpoly,
    rational_sqrt,
    weighted_matmul,
    z_to_x,
)
from .forms import S2_FRAME, S3_FRAME, integrate_s2
from .kets import EquivariantKet, curvature_scalar, equivariance_type, pairing


class ChernConsistencyError(ArithmeticError):
    """The exact Chern number came out non-real or non-integer; this signals
    an implementation bug, not a data condition."""


class UnsupportedGaugeError(ValueError):
    """The gauge matrix does not preserve the factored representation."""


def _core_on_first_read(obj) -> tuple:
    """`obj.source` when it is the core, else the core its function returns."""
    return obj.source() if callable(obj.source) else obj.source


@dataclass(frozen=True, eq=False)
class WeightedProjector:
    """p = D M D with D = diag(sqrt(weights)) and hermitian core M.

    `source` is the core M, a tuple of rows of XPoly, or a function of no
    arguments that returns it; `core` calls that function on its first read
    and keeps the result for the life of this projector.  The ket routes
    never read it; the readers are `to_json`, `dense`/`entry`, `trace`, the
    plain axioms, `real_form`, the x-route, the matrix quadrature and
    `isometry_verify`.
    Equality and hash compare (weights, core, label) by value.

    `ket`, when set, is the equivariant ket psi with p = |psi><psi|: its
    weights are `weights` and projector_from_ket(ket) has this core.  Only
    the constructors that know this set it."""

    weights: tuple
    source: object = field(repr=False)
    label: str = "p"
    ket: EquivariantKet | None = field(default=None, repr=False)

    core = functools.cached_property(_core_on_first_read)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weights, self.label) == (other.weights, other.label) and (
            self.core == other.core
        )

    def __hash__(self):
        return hash((self.weights, self.core, self.label))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def entry(self, j: int, k: int) -> XPoly:
        """Dense entry sqrt(w_j w_k) * M_jk; requires a rational root."""
        root = rational_sqrt(self.weights[j] * self.weights[k])
        if root is None:
            raise ValueError(
                f"entry ({j},{k}) carries an irrational radical "
                f"sqrt({self.weights[j]}*{self.weights[k]})"
            )
        return self.core[j][k] * root

    def dense(self):
        """Full matrix of dense XPoly entries (when all radicals resolve)."""
        n = self.dim
        return tuple(tuple(self.entry(j, k) for k in range(n)) for j in range(n))

    def trace(self) -> XPoly:
        acc = XPoly.zero()
        for k in range(self.dim):
            acc = acc + self.core[k][k] * self.weights[k]
        return acc

    def is_hermitian(self) -> bool:
        n = self.dim
        return all(
            self.core[j][k] == self.core[k][j].conj()
            for j in range(n)
            for k in range(j, n)
        )

    def idempotency_defect(self):
        """M W M - M, entrywise; all-zero iff p^2 = p."""
        square = weighted_matmul(self.core, self.weights, self.core)
        return tuple(
            tuple(e - m for e, m in zip(sq_row, row))
            for sq_row, row in zip(square, self.core)
        )

    def is_idempotent(self) -> bool:
        return all(e.is_zero() for row in self.idempotency_defect() for e in row)

    def to_json(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "core": [[e.to_json() for e in row] for row in self.core],
        }

    @staticmethod
    def from_json(data: dict, label: str = "p") -> "WeightedProjector":
        """The projector `to_json` writes; ValueError for any other input."""
        if not isinstance(data, dict):
            raise ValueError("a projector must be an object with weights and core")
        weights, rows = data.get("weights"), data.get("core")
        if not isinstance(weights, list) or not all(isinstance(w, str) for w in weights):
            raise ValueError("weights must be a list of strings, as to_json writes them")
        try:
            weights = tuple(Fraction(w) for w in weights)
        except ZeroDivisionError as exc:
            raise ValueError(f"a weight divides by zero: {exc}") from exc
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive rationals")
        n = len(weights)
        if n == 0:
            raise ValueError("a projector needs at least one weight")
        if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(row, list) or len(row) != n for row in rows
        ):
            raise ValueError(f"core must be a square {n}x{n} matrix, one row per weight")
        core = tuple(tuple(XPoly.from_json(e) for e in row) for row in rows)
        return WeightedProjector(weights, core, label)

    def evaluate(self, x1, x2, x3):
        """Dense matrix field at points of S^2, arrays broadcasting to one
        shape S: shape S + (n, n), float64 for a real core at real points
        and complex otherwise, as `XPoly.evaluate`."""
        return self._field(x1, x2, x3)

    def evaluate_grid(self, theta, phi, derivatives: bool | str = False):
        """The dense field on the product grid of theta, shape (P, 1), and
        phi, shape (1, A), as an iterator over blocks of polar nodes, each
        of shape (nodes, A, n, n), or with `derivatives` (True, or
        "finite-difference" for central differences) (3, nodes, A, n, n)
        holding P, dP/dtheta and dP/dphi (see `exact_ring.evaluate_grid`)."""
        return self._field(angles=(theta, phi), derivatives=derivatives)

    def _field(self, *points, **grid):
        """All entries in one `XPoly.evaluate` pass, as n x n matrices,
        each M_jk scaled to sqrt(w_j w_k) M_jk: one array at points, scaled
        in place; an iterator over its blocks on a grid, whose scale enters
        the coefficient matrix once (`exact_ring.evaluate_grid`)."""
        n = self.dim
        first, *rest = (e for row in self.core for e in row)
        roots = np.sqrt([float(w) for w in self.weights])
        scale = np.outer(roots, roots).reshape(-1)
        if not points:
            values = first.evaluate(also=rest, scale=scale, **grid)
            return map(lambda v: v.reshape(v.shape[:-1] + (n, n)), values)
        values = first.evaluate(*points, also=rest)
        values *= scale
        return values.reshape(values.shape[:-1] + (n, n))


def dense_equal(p: WeightedProjector, q: WeightedProjector) -> bool:
    """Entrywise equality of the dense matrices after canonical reduction."""
    if p.dim != q.dim:
        return False
    n = p.dim
    return all(p.entry(j, k) == q.entry(j, k) for j in range(n) for k in range(n))


def projector_from_ket(k: EquivariantKet, label: str | None = None) -> WeightedProjector:
    """p = |psi><psi| in factored form: M_jk = z_to_x(conj(poly_j) poly_k).

    The core is converted on its first read, not here: the ket routes of
    the axioms and of both Chern numbers read only psi.  Only j <= k is
    converted: z_to_x commutes with conjugation, so M_kj = conj(M_jk)."""
    n = len(k)

    def core():
        upper = {
            (j, kk): z_to_x(k.polys[j].conj() * k.polys[kk])
            for j in range(n)
            for kk in range(j, n)
        }
        return tuple(
            tuple(upper[j, kk] if j <= kk else upper[kk, j].conj() for kk in range(n))
            for j in range(n)
        )

    return WeightedProjector(tuple(k.weights), core, label or "p", k)


def normal_projector() -> WeightedProjector:
    """p_nor = |x><x| on the rank-3 trivial module; real rank 1."""
    xs = (X1, X2, X3)
    core = tuple(tuple(a * b for b in xs) for a in xs)
    return WeightedProjector((Fraction(1),) * 3, core, "p_nor")


def tangent_projector() -> WeightedProjector:
    """p_tan = 1 - p_nor; real rank 2."""
    nor = normal_projector()
    core = []
    for j in range(3):
        row = []
        for k in range(3):
            e = -nor.core[j][k]
            if j == k:
                e = e + XPoly.one()
            row.append(e)
        core.append(tuple(row))
    return WeightedProjector((Fraction(1),) * 3, tuple(core), "p_tan")


@dataclass(frozen=True)
class AxiomReport:
    idempotent: bool
    hermitian: bool
    trace_constant: bool
    trace: str

    @property
    def all_pass(self) -> bool:
        return self.idempotent and self.hermitian and self.trace_constant

    def to_json(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "hermitian": self.hermitian,
            "trace": self.trace if self.trace_constant else f"non-constant:{self.trace}",
        }


def verify_axioms(p: WeightedProjector) -> AxiomReport:
    """The projector axioms in the exact ring.

    With a ket, p = |psi><psi| is hermitian by construction, tr p is
    <psi|psi> = s and p^2 = s p.  The ring of S^3 has no zero divisors
    (S^3 is irreducible), so p^2 = p iff s = 1 or psi = 0."""
    if p.ket is None:
        tr = p.trace()
        idempotent = p.is_idempotent()
        hermitian = p.is_hermitian()
    else:
        s = pairing(p.ket, p.ket)
        tr = z_to_x(s)
        idempotent = s == ZPoly.one() or s.is_zero()
        hermitian = True
    constant = tr.is_constant()
    return AxiomReport(
        idempotent=idempotent,
        hermitian=hermitian,
        trace_constant=constant,
        trace=str(tr.constant_value()) if constant else str(tr),
    )


def transpose(p: WeightedProjector) -> WeightedProjector:
    """p^t, which for p = |psi><psi| is the projector of the conjugate ket."""

    def core():
        return tuple(tuple(p.core[k][j] for k in range(p.dim)) for j in range(p.dim))

    ket = None
    if p.ket is not None:
        ket = EquivariantKet(p.ket.weights, tuple(q.conj() for q in p.ket.polys))
    return WeightedProjector(p.weights, core, f"{p.label}^t", ket)


def real_form(p: WeightedProjector) -> WeightedProjector:
    """Doubling a+ib -> [[a,-b],[b,a]] entrywise; weights duplicate pairwise."""
    n = p.dim
    weights = tuple(w for w in p.weights for _ in range(2))
    core = [[None] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        for k in range(n):
            e = p.core[j][k]
            a = XPoly._from_integers(e.den, e.re, {})
            b = XPoly._from_integers(e.den, e.im, {})
            core[2 * j][2 * k] = a
            core[2 * j][2 * k + 1] = -b
            core[2 * j + 1][2 * k] = b
            core[2 * j + 1][2 * k + 1] = a
    return WeightedProjector(
        weights, tuple(tuple(row) for row in core), f"({p.label})^R"
    )


def _cross_x(v: tuple) -> tuple:
    """The components of x cross v for a vector v of three XPolys; for
    v = grad a they are the rotation derivatives L_i a."""
    x = (X1, X2, X3)
    return tuple(
        XPoly.sum_of_products(((1, x[i - 2], v[i - 1]), (-1, x[i - 1], v[i - 2])))
        for i in range(3)
    )


def curvature_trace_form(p: WeightedProjector) -> XPoly:
    """The coefficient g of tr(p (dp)^2) = g dvol on S^2, in the factored
    representation tr(M W dM W dM W).

    On S^2, da ^ db restricts to {a, b} dvol with the Poisson bracket
    {a, b} = x . (grad a cross grad b) = sum_i (L_i a)(d_i b), with
    L_i a = (x cross grad a)_i.  The core is hermitian and L_i, d_i are
    real, so the derivatives of M_kj are the conjugates of those of M_jk
    and are formed for j <= k only.  B_jk = sum_l w_l {M_kl, M_lj} then
    satisfies conj(B_jk) = -B_kj, so with
    s = sum_{j <= k} w_j w_k M_jk B_jk, halved on the diagonal, the
    density is g = s - conj(s).  Each B_jk and s is one fused sum of
    products.  No ambient 2-form is built.  A core that is not hermitian
    raises ValueError."""
    if not p.is_hermitian():
        raise ValueError(f"{p.label}: the curvature density needs a hermitian core")
    n, w, core = p.dim, p.weights, p.core
    grads, rotated = {}, {}
    for j in range(n):
        for k in range(j, n):
            grad = grads[j, k] = tuple(core[j][k].diff(i) for i in range(3))
            rotated[j, k] = _cross_x(grad)
            if j < k:
                grads[k, j], rotated[k, j] = (
                    tuple(e.conj() for e in v) for v in (grad, rotated[j, k])
                )
    terms = []
    for j in range(n):
        for k in range(j, n):
            if core[j][k].is_zero():
                continue
            b = XPoly.sum_of_products(
                (w[l], rotated[k, l][i], grads[l, j][i]) for l in range(n) for i in range(3)
            )
            terms.append((Fraction(w[j] * w[k], 2 if j == k else 1), core[j][k], b))
    s = XPoly.sum_of_products(terms)
    return s - s.conj()


# Up to this dimension (the monopoles up to charge 4 and tilde) a projector
# with a ket also takes the x-route, and the two exact routes must agree.
CROSS_CHECK_MAX_DIM = 5


def _hopf_c1(k: EquivariantKet) -> GaussianRational:
    """c1 of |psi><psi| for <psi|psi> = 1, from the Hopf lift to S^3.

    There the pullback of tr(p (dp)^2) is <d psi|^|d psi> = curvature_scalar(psi):
    the other term is -A^A with the scalar 1-form A = <psi|d psi>, which
    is 0.  Contracting with the horizontal fields xi, J xi gives a function
    on S^2; the Hopf map doubles their lengths, so its integral is 4 times
    the x-route's volume value, and c1 = i v / 2."""
    xi_pair = curvature_scalar(k).on_fields(S3_FRAME[1:])
    return integrate_xpoly(z_to_x(xi_pair)).value * GR_I / 2


def _x_route_c1(p: WeightedProjector) -> GaussianRational:
    """c1 from tr(p (dp)^2) on S^2: 2i times the volume value in units of 4*pi."""
    return integrate_s2(curvature_trace_form(p)).value * GR_I * 2


def unit_ket(p: WeightedProjector) -> EquivariantKet | None:
    """The ket psi of p = |psi><psi| when <psi|psi> = 1, else None: the
    projectors that the rank-one routes (the Hopf route here, the ket
    quadrature in `quadbench`) serve."""
    return p.ket if p.ket is not None and p.ket.is_unit else None


def chern_number_exact(p: WeightedProjector) -> int:
    """c1(p) = -(1/2*pi*i) * integral of tr(p (dp)^2) over S^2, exactly.

    A projector with a normalised ket takes the Hopf route, checked at
    every dimension against the ket's equivariance type, which is its c1,
    and against the x-route up to CROSS_CHECK_MAX_DIM; any other projector
    takes the x-route.  The result is asserted to be a real integer.
    """
    ket = unit_ket(p)
    if ket is not None:
        c1 = _hopf_c1(ket)
        ket_type = equivariance_type(ket)
        if c1 != GaussianRational(ket_type):
            raise ChernConsistencyError(
                f"Chern number of {p.label}: Hopf route {c1}, equivariance type {ket_type}"
            )
        if p.dim <= CROSS_CHECK_MAX_DIM:
            x_c1 = _x_route_c1(p)
            if x_c1 != c1:
                raise ChernConsistencyError(
                    f"Chern number of {p.label}: Hopf route {c1}, x-route {x_c1}"
                )
    else:
        c1 = _x_route_c1(p)
    if not c1.is_integer():
        raise ChernConsistencyError(
            f"Chern number of {p.label} is not an integer: {c1}"
        )
    return int(c1.re)


@dataclass(frozen=True)
class ChernReport:
    object_id: str
    backend: str  # "exact" | "quad"
    c1: object  # int for exact, float for quad
    axioms: AxiomReport
    ms: float  # verify_axioms plus the backend's c1

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "backend": self.backend,
            "c1": str(self.c1) if self.backend == "exact" else self.c1,
            "axioms": self.axioms.to_json(),
            "ms": self.ms,
        }


# ---------------------------------------------------------------------------
# Exact gauge conjugation and partial isometries
# ---------------------------------------------------------------------------


def _as_gaussian_matrix(s) -> tuple:
    return tuple(
        tuple(
            e if isinstance(e, GaussianRational) else GaussianRational(e)
            for e in row
        )
        for row in s
    )


def _signed_permutation(s) -> list | None:
    """Decode s, rows of ints, Fractions or GaussianRationals, as a signed
    permutation: perm[j], sign[j] with s[j][perm[j]] = sign[j] in {+1, -1};
    None if s is not of this shape or holds an entry of another type."""
    n = len(s)
    perm, signs = [], []
    for row in s:
        if not all(isinstance(e, (int, Fraction, GaussianRational)) for e in row):
            return None
        hits = [(k, e) for k, e in enumerate(row) if e]
        if len(hits) != 1:
            return None
        k, e = hits[0]
        re, im = (e.re, e.im) if isinstance(e, GaussianRational) else (e, 0)
        if im != 0 or abs(re) != 1:
            return None
        perm.append(k)
        signs.append(1 if re > 0 else -1)
    if sorted(perm) != list(range(n)):
        return None
    return [perm, signs]


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """v = D_L C D_R with diagonal radical factors on both sides.

    `source` is the core C or a function of no arguments that returns it,
    read on first use of `core` as in `WeightedProjector`."""

    left_weights: tuple
    source: object = field(repr=False)
    right_weights: tuple

    core = functools.cached_property(_core_on_first_read)

    def __matmul__(self, other: "PartialIsometry") -> "PartialIsometry":
        """The product D_L C D_R . D_R C' D_R' = D_L (C W C') D_R', with W the
        shared inner weights; other left weights raise ValueError."""
        if tuple(self.right_weights) != tuple(other.left_weights):
            raise ValueError("inner weights of the product do not agree")
        core = weighted_matmul(self.core, self.right_weights, other.core)
        return PartialIsometry(self.left_weights, core, other.right_weights)

    def adjoint(self) -> "PartialIsometry":
        """v^dagger = D_R C^dagger D_L."""
        return PartialIsometry(self.right_weights, dagger(self.core), self.left_weights)

    def times_dagger(self) -> WeightedProjector:
        """v v^dagger as a weighted projector candidate."""
        vvd = self @ self.adjoint()
        return WeightedProjector(vvd.left_weights, vvd.core, "vv+")

    def dagger_times(self) -> WeightedProjector:
        """v^dagger v as a weighted projector candidate."""
        vdv = self.adjoint() @ self
        return WeightedProjector(vdv.left_weights, vdv.core, "v+v")


@dataclass(frozen=True)
class RealGeometry:
    """The named real objects of the tangent-bundle story as partial
    isometries: the normal row x (1x3), the rotation fields V_l = e_l x x
    as the columns of V (3x3), their 6-component partners W_l as the
    columns of W (6x3) and the 6x3 intertwiner u.  W and u carry the left
    weights 1/2, the radical 1/sqrt2 of their entries."""

    psi_nor: PartialIsometry
    V: PartialIsometry
    W: PartialIsometry
    u: PartialIsometry


def named_real_objects() -> RealGeometry:
    """Exact transcription of the normal row, the three rotation fields V_l,
    their 6-component partners W_l and the 6x3 intertwiner u."""
    ones = (Fraction(1),) * 3
    halves = (Fraction(1, 2),) * 6
    zero = XPoly.zero()

    psi_nor = PartialIsometry(ones[:1], ((X1, X2, X3),), ones)

    one_m_x1sq = XPoly.one() - X1 * X1
    one_m_x2sq = XPoly.one() - X2 * X2
    one_m_x3sq = XPoly.one() - X3 * X3
    x1x2, x1x3, x2x3 = X1 * X2, X1 * X3, X2 * X3

    W_columns = (
        (one_m_x1sq, zero, -X3, x1x2, -x1x3, X2),
        (-x1x2, X3, zero, -one_m_x2sq, -x2x3, -X1),
        (-x1x3, -X2, X1, x2x3, one_m_x3sq, zero),
    )

    u_rows = (
        (zero, -X3, X2),
        (one_m_x1sq, -x1x2, -x1x3),
        (-x1x2, one_m_x2sq, -x2x3),
        (-X3, zero, X1),
        (-X2, X1, zero),
        (-x1x3, -x2x3, one_m_x3sq),
    )

    return RealGeometry(
        psi_nor=psi_nor,
        V=PartialIsometry(ones, tuple(zip(*S2_FRAME)), ones),
        W=PartialIsometry(halves, tuple(zip(*W_columns)), ones),
        u=PartialIsometry(halves, u_rows, ones),
    )


def _gauged_ket(k: EquivariantKet | None, s) -> EquivariantKet | None:
    """The ket of s p s^dagger for an exact-unitary s and uniform weights:
    p_jk = conj(psi_j) psi_k, so the components become conj(s) psi."""
    if k is None:
        return None
    polys = tuple(
        sum((q * e.conj() for e, q in zip(row, k.polys) if e), ZPoly.zero()) for row in s
    )
    return EquivariantKet(k.weights, polys)


def exact_gauge(p: WeightedProjector, s) -> tuple:
    """Conjugate p by s inside the exact field: p^s = s p s^dagger, v = s p.

    s must be a signed permutation matrix, or any exact-unitary matrix of
    Gaussian rationals when all weights of p are equal.
    Returns (p_s, v) with v a PartialIsometry satisfying v v+ = p^s and
    v+ v = p (verify with isometry projector products).
    """
    s = [tuple(row) for row in s]
    n = p.dim
    square = len(s) == n and all(len(row) == n for row in s)
    # a signed permutation is decoded from the entries as given
    decoded = _signed_permutation(s) if square else None
    if decoded is not None:
        perm, signs = decoded

        def signed(e, sign):
            return e if sign > 0 else -e

        weights = tuple(p.weights[perm[j]] for j in range(n))

        def core():
            return tuple(
                tuple(signed(p.core[perm[j]][perm[k]], signs[j] * signs[k]) for k in range(n))
                for j in range(n)
            )

        def v_core():
            return tuple(
                tuple(signed(p.core[perm[j]][k], signs[j]) for k in range(n))
                for j in range(n)
            )

        # s is real, so the gauged ket's components are sign_j psi_perm[j]
        ket = None if p.ket is None else EquivariantKet(
            weights, tuple(signed(p.ket.polys[perm[j]], signs[j]) for j in range(n))
        )
        p_s = WeightedProjector(weights, core, f"{p.label}^s", ket)
        return p_s, PartialIsometry(weights, v_core, p.weights)
    s = _as_gaussian_matrix(s)
    if not square:
        raise UnsupportedGaugeError("gauge matrix dimension mismatch")
    if len(set(p.weights)) != 1:
        raise UnsupportedGaugeError(
            "non-permutation gauges require uniform projector weights"
        )
    # s commutes with the uniform D, so p^s = D (s M s+) D; the entries of s
    # become constant XPolys so that the kernel always multiplies XPolys
    s_poly = tuple(tuple(XPoly.constant(e) for e in row) for row in s)
    s_dagger = dagger(s_poly)
    ones = (1,) * n
    identity = tuple(
        tuple(XPoly.one() if j == k else XPoly.zero() for k in range(n)) for j in range(n)
    )
    if weighted_matmul(s_poly, ones, s_dagger) != identity:
        raise UnsupportedGaugeError("gauge matrix is not exact-unitary")
    v = PartialIsometry(p.weights, lambda: weighted_matmul(s_poly, ones, p.core), p.weights)
    p_s = WeightedProjector(
        p.weights,
        lambda: weighted_matmul(v.core, ones, s_dagger),
        f"{p.label}^s",
        _gauged_ket(p.ket, s),
    )
    return p_s, v


@dataclass(frozen=True)
class IsometryReport:
    dagger_times_matches_src: bool
    times_dagger_matches_dst: bool

    @property
    def all_pass(self) -> bool:
        return self.dagger_times_matches_src and self.times_dagger_matches_dst


def isometry_verify(
    v: PartialIsometry, src: WeightedProjector, dst: WeightedProjector
) -> IsometryReport:
    """Exact check that v^dagger v = src and v v^dagger = dst, each by equal
    weights and equal cores, so that weights such as (1, 2, 1), whose dense
    entries are irrational, stay factored (D M D = D M' D iff M = M'; a
    product with other weights but the same dense matrix fails)."""
    if len(v.right_weights) != src.dim or len(v.left_weights) != dst.dim:
        raise ValueError("dimension mismatch between isometry and projectors")
    vdv, vvd = v.dagger_times(), v.times_dagger()
    return IsometryReport(
        vdv.weights == src.weights and vdv.core == src.core,
        vvd.weights == dst.weights and vvd.core == dst.core,
    )
