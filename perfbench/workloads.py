"""Seeded inputs and known answers for the benchmark workloads.

Every expected value below comes from the paper, never from the code under
test:

- the monopole projector of charge c has c1 = c (charge c > 0 is the row
  sqrt(C(c,k)) z0^(c-k) z1^k, charge c < 0 its conjugate);
- the tilde projector has c1 = 2;
- the normal, tangent and real-form projectors are trivial bundles, c1 = 0;
- every projector is idempotent and hermitian with constant trace equal to
  its rank: 1 for the monopoles and tilde, 2 for p_tan and the real form;
- a hermitian projector conjugated by a signed permutation keeps c1 and rank;
- over S^2, x1^a x2^b x3^c integrates to
  4*pi * (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!! for even a, b, c.

An item is one certified claim.  Its `run` raises `Mismatch` when a result
disagrees with the known answer, and returns the absolute quadrature error
of the c1 values it saw (0.0 when it ran no quadrature).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from bundle_forge import bundles, cli, kets, quadbench

GRID_SHAPE = (64, 128)
# quadrature c1 must lie this close to the integer
QUAD_TOL = 1e-6
VERIFY_MAX_CHARGE = 5
GAUGE_RANDOM_TRIALS = 20
# Per-check PASS verdicts each suite prints at --max-charge 5, besides ALL PASS.
VERIFY_PASS_COUNTS = {
    # monopoles of charge 0 and +-1..+-5, then tilde, p_nor, p_tan, real form
    "axioms": 1 + 2 * VERIFY_MAX_CHARGE + 4,
    # both signs for n = 1..min(6, max charge), then tilde
    "curvature": 2 * min(6, VERIFY_MAX_CHARGE) + 1,
    # u+u = p_tan and uu+ = real form, then u V_l = W_l for l = 1, 2, 3
    "isometry": 2 + 3,
    # p_tan axioms, two dyad sums, V pairings, zero Chern forms of p_nor, p_tan
    "tangent": 6,
    # signed-permutation trials, then random-g quadrature trials
    "gauge": 10 + GAUGE_RANDOM_TRIALS,
}
MC_SAMPLES = 10**6
# a correct Monte-Carlo estimate misses by more than this many standard
# errors with probability below 1e-8
MC_SIGMAS = 6.0
# nonzero even exponents {4, 2, 2}: equal evaluation cost and memory, nonzero
# integrals (a zero exponent changes the Monte-Carlo peak memory by 15 MB)
MONOMIALS = ((4, 2, 2), (2, 4, 2), (2, 2, 4))


class Mismatch(Exception):
    """A result that disagrees with its known answer."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass(frozen=True)
class Item:
    name: str  # also the span name of the item in a traced run
    run: Callable[[], float]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _monopole(charge: int):
    ket = kets.monopole_ket("minus" if charge > 0 else "plus", abs(charge))
    return bundles.projector_from_ket(ket, f"p[{charge}]")


def _tilde():
    return bundles.projector_from_ket(kets.tilde_ket2(), "tilde")


def _realform():
    return bundles.real_form(_tilde())


def signed_permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = [[0] * n for _ in range(n)]
    for j in range(n):
        matrix[j][perm[j]] = rng.choice((-1, 1))
    return matrix


# (name, build function, c1, rank, dimension)
def _monopole_spec(charge: int) -> tuple:
    return (f"monopole{charge:+d}", lambda: _monopole(charge), charge, 1, abs(charge) + 1)


TILDE = ("tilde", _tilde, 2, 1, 3)
REALFORM = ("realform", _realform, 0, 2, 6)
# build functions look bundles.* up at call time, so that a traced run sees the call
TANGENT = ("tangent", lambda: bundles.tangent_projector(), 0, 2, 3)


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


def exact_item(spec: tuple, gauge: list) -> Item:
    """Build, gauge, check the axioms and the exact c1."""
    name, build, c1, rank, _ = spec

    def run() -> float:
        p, _ = bundles.exact_gauge(build(), gauge)
        axioms = bundles.verify_axioms(p)
        _check(
            axioms.all_pass and axioms.trace == str(rank),
            f"{name}: axioms {axioms}, expected trace {rank}",
        )
        got = bundles.chern_number_exact(p)
        _check(got == c1, f"{name}: exact c1 = {got}, expected {c1}")
        return 0.0

    return Item(f"item.{name}", run)


def quad_item(spec: tuple, gauge: list, grid, derivative: str) -> Item:
    """Build, gauge and integrate c1 by quadrature."""
    name, build, c1, _, _ = spec

    def run() -> float:
        p, _ = bundles.exact_gauge(build(), gauge)
        got = quadbench.chern_number_quad(p, grid, derivative)
        err = abs(got - c1)
        _check(err < QUAD_TOL, f"{name}: quad c1 = {got!r}, expected {c1}")
        return err

    return Item(f"item.{name}", run)


def run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def verify_item(suite: str, seed: int, expected_passes: int) -> Item:
    """`verify --suite` must exit 0 with ALL PASS after exactly the expected
    number of per-check PASS verdicts."""
    argv = ["verify", "--suite", suite, "--max-charge", str(VERIFY_MAX_CHARGE),
            "--seed", str(seed)]

    def run() -> float:
        code, out = run_cli(argv)
        lines = out.splitlines()
        passes = len(re.findall(r"\bPASS\b", out)) - 1
        _check(
            code == 0 and lines[-1:] == ["ALL PASS"] and "FAIL" not in out,
            f"verify {suite}: exit {code}, last line {lines[-1:]}",
        )
        _check(
            passes == expected_passes,
            f"verify {suite}: {passes} PASS verdicts, expected {expected_passes}",
        )
        if suite != "gauge":
            return 0.0
        # random gauges of the charge-1 monopole keep c1 = 1
        c1s = [float(v) for v in re.findall(r"random g trial \d+: c1 = (\S+)", out)]
        _check(len(c1s) == GAUGE_RANDOM_TRIALS, f"verify gauge: {len(c1s)} c1 values")
        return max(abs(v - 1.0) for v in c1s)

    return Item(f"cli.suite.{suite}", run)


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def sphere_monomial_integral(a: int, b: int, c: int) -> Fraction:
    """Integral of x1^a x2^b x3^c over S^2 in units of 4*pi, even exponents."""
    num = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return Fraction(num, _double_factorial(a + b + c + 1))


def integrate_item(monomial: tuple, seed: int) -> Item:
    """`integrate` prints the exact integral and a Monte-Carlo estimate
    within MC_SIGMAS standard errors of it."""
    argv = ["integrate", "--monomial", ",".join(map(str, monomial)),
            "--mc-samples", str(MC_SAMPLES), "--seed", str(seed)]
    want = sphere_monomial_integral(*monomial)

    def run() -> float:
        code, out = run_cli(argv)
        exact = re.search(r"^exact: \((\S+)\)\*4pi", out, re.M)
        mc = re.search(r"^monte-carlo \((\d+) samples, seed \d+\): (\S+) \+/- (\S+)$", out, re.M)
        _check(code == 0 and exact and mc, f"integrate {monomial}: exit {code}, {out!r}")
        _check(Fraction(exact.group(1)) == want,
               f"integrate {monomial}: exact {exact.group(1)}, expected {want}")
        samples, est, se = int(mc.group(1)), float(mc.group(2)), float(mc.group(3))
        _check(
            samples == MC_SAMPLES and 0 < se
            and abs(est - 4 * math.pi * want) <= MC_SIGMAS * se,
            f"integrate {monomial}: monte-carlo {est} +/- {se}, expected {4 * math.pi * want}",
        )
        return 0.0

    return Item("cli.integrate", run)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def exact_chern(seed: int, grid) -> list:
    rng = random.Random(seed)
    specs = [_monopole_spec(c) for n in range(1, 5) for c in (n, -n)] + [TILDE]
    return [exact_item(spec, signed_permutation(rng, spec[4])) for spec in specs]


def quad_chern(seed: int, grid) -> list:
    rng = random.Random(seed)
    items = [
        quad_item(spec, signed_permutation(rng, spec[4]), grid, "analytic")
        for spec in map(_monopole_spec, (1, 2, 4, 6, 8))
    ]
    items += [
        quad_item(spec, signed_permutation(rng, spec[4]), grid, "finite-difference")
        for spec in (REALFORM, TANGENT)
    ]
    return items


def verify_all(seed: int, grid) -> list:
    rng = random.Random(seed)
    items = [verify_item(suite, seed, n) for suite, n in VERIFY_PASS_COUNTS.items()]
    items.append(integrate_item(rng.choice(MONOMIALS), seed))
    return items


WORKLOADS = {
    "exact_chern": exact_chern,
    "quad_chern": quad_chern,
    "verify_all": verify_all,
}

# traced metric that must read 0: the layer the workload claims to bypass
BYPASS = {
    "exact_chern": "quadbench.chern_quad_s",
    "quad_chern": "forms.wedge_calls",
}
