"""Command-line interface: build objects, compute Chern numbers with either
backend, run the verification suites, export JSON.

Charge convention at the CLI: ``--charge c`` with c > 0 builds the family
with representation label -|c| (components in z0, z1; Chern number +c) and
c < 0 builds the conjugate family (Chern number c).  The mapping is printed
in every report.

Exit codes: 0 success / all pass, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import bundles, quadbench
from .bundles import (
    ChernReport,
    WeightedProjector,
    chern_number_exact,
    curvature_trace_form,
    exact_gauge,
    isometry_verify,
    named_real_objects,
    normal_projector,
    projector_from_ket,
    real_form,
    tangent_projector,
    verify_axioms,
)
from .exact_ring import XPoly, monomial_integral
from .forms import DZ0, DZ1, DZB0, DZB1
from .kets import connection_form, curvature_scalar, monopole_ket, tilde_ket2
from .quadbench import (
    SphereGrid,
    chern_number_quad,
    gauge_chern_numbers,
    gauge_field,
    monte_carlo_stderr,
    tangent_frame_check,
)

MAX_CHARGE = 16

FAMILIES = ("monopole", "tilde", "normal", "tangent", "realform")


class CliInputError(ValueError):
    pass


def _charge_mapping_line(charge: int) -> str:
    if charge >= 0:
        return (
            f"charge {charge}: representation label -{charge} "
            f"(components in z0, z1), expected c1 = {charge}"
        )
    return (
        f"charge {charge}: representation label +{-charge} "
        f"(components in zb0, zb1), expected c1 = {charge}"
    )


def _monopole_ket_for_charge(charge: int):
    if abs(charge) > MAX_CHARGE:
        raise CliInputError(f"charge out of range (|c| <= {MAX_CHARGE})")
    if charge >= 0:
        return monopole_ket("minus", charge)
    return monopole_ket("plus", -charge)


def build_projector(family: str, charge: int) -> WeightedProjector:
    if family == "monopole":
        k = _monopole_ket_for_charge(charge)
        if charge > 0:
            label = f"p[-{charge}]"
        elif charge < 0:
            label = f"p[+{-charge}]"
        else:
            label = "p[0]"
        return projector_from_ket(k, label)
    if family == "tilde":
        return projector_from_ket(tilde_ket2(), "p~[-2]")
    if family == "normal":
        return normal_projector()
    if family == "tangent":
        return tangent_projector()
    if family == "realform":
        return real_form(projector_from_ket(tilde_ket2(), "p~[-2]"))
    raise CliInputError(f"unknown family {family!r}")


def _parse_grid(text: str) -> SphereGrid:
    try:
        polar, azimuthal = (int(t) for t in text.lower().split("x"))
        return SphereGrid.build(polar, azimuthal)
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"bad grid spec {text!r} (expected PxA): {exc}") from exc


def _cmd_build(args) -> int:
    p = build_projector(args.family, args.charge)
    if args.json:
        print(json.dumps(p.to_json(), indent=2))
        return 0
    if args.family == "monopole":
        print(_charge_mapping_line(args.charge))
    print(f"{p.label}: {p.dim}x{p.dim}, weights {[str(w) for w in p.weights]}")
    for j, row in enumerate(p.core):
        for k, e in enumerate(row):
            print(f"  core[{j}][{k}] = {e}")
    return 0


def _cmd_chern(args) -> int:
    if args.backend == "quad":
        grid = _parse_grid("64x128" if args.grid is None else args.grid)
        mode = "finite-difference" if args.fd else "analytic"
    elif args.fd or args.grid is not None:
        raise CliInputError("--fd and --grid apply only to --backend quad")
    p = build_projector(args.family, args.charge)
    if args.family == "monopole" and not args.json:
        print(_charge_mapping_line(args.charge))
    start = time.perf_counter()
    axioms = verify_axioms(p)
    if args.backend == "exact":
        c1 = chern_number_exact(p)
    else:
        c1 = chern_number_quad(p, grid, mode)
    ms = (time.perf_counter() - start) * 1000.0
    report = ChernReport(p.label, args.backend, c1, axioms, ms)
    if args.json:
        data = report.to_json()
        if args.family == "monopole":
            data["charge_mapping"] = _charge_mapping_line(args.charge)
        print(json.dumps(data, indent=2))
    else:
        print(f"c1 = {report.c1}")
    return 0


def _cmd_connection(args) -> int:
    k = _monopole_ket_for_charge(args.charge)
    print(_charge_mapping_line(args.charge))
    print(f"A = {connection_form(k)}")
    return 0


def _gauge_entry(e) -> complex:
    """An entry {"re": x, "im": y} of a gauge file, "im" optional: x and y
    must be finite JSON numbers, and a JSON true or false is not one."""
    parts = e["re"], e.get("im", 0.0)
    # bool is a subclass of int, so the type is compared exactly
    if not all(type(v) in (int, float) and math.isfinite(v) for v in parts):
        raise ValueError(f"re and im must be finite JSON numbers, got {e!r}")
    return complex(*parts)


def _cmd_gauge(args) -> int:
    k = _monopole_ket_for_charge(args.charge)
    try:
        with open(args.g_file) as fh:
            data = json.load(fh)
        n = data["n"]
        if type(n) is not int:  # bool is a subclass of int
            raise ValueError(f"n must be a JSON integer, got {n!r}")
        entries = [[_gauge_entry(e) for e in row] for row in data["entries"]]
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise CliInputError(f"malformed gauge file {args.g_file!r}: {exc}") from exc
    if n != len(k) or len(entries) != n or any(len(r) != n for r in entries):
        raise CliInputError(
            f"gauge matrix must be {len(k)}x{len(k)} for this charge"
        )
    import numpy as np

    try:
        field = gauge_field(k, np.array(entries))
    except ValueError as exc:
        raise CliInputError(f"bad gauge matrix: {exc}") from exc
    grid = _parse_grid(args.grid)
    c1 = chern_number_quad(field, grid, "analytic")
    print(_charge_mapping_line(args.charge))
    print(f"condition(g) = {field.condition:.6g}")
    print(f"c1(quad, gauged) = {c1:.10f}")
    return 0


def _cmd_integrate(args) -> int:
    try:
        a, b, c = (int(t) for t in args.monomial.split(","))
        monomial = XPoly.monomial((a, b, c))    # rejects negative and too high exponents
    except ValueError as exc:
        raise CliInputError(f"bad monomial spec {args.monomial!r}: {exc}") from exc
    exact = monomial_integral(a, b, c)
    try:
        est, se = monte_carlo_stderr(monomial, args.mc_samples, args.seed)
    except ValueError as exc:
        raise CliInputError(f"bad --mc-samples: {exc}") from exc
    print(f"exact: {exact} = {float(exact):.12g}")
    print(f"monte-carlo ({args.mc_samples} samples, seed {args.seed}): "
          f"{est:.12g} +/- {se:.3g}")
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_axioms(max_charge: int, seed: int, out) -> bool:
    ok = True
    targets = []
    for n in range(max_charge + 1):
        targets.append(build_projector("monopole", n))
        if n > 0:
            targets.append(build_projector("monopole", -n))
    targets += [
        build_projector("tilde", 0),
        build_projector("normal", 0),
        build_projector("tangent", 0),
        build_projector("realform", 0),
    ]
    for p in targets:
        report = verify_axioms(p)
        status = "PASS" if report.all_pass else "FAIL"
        ok &= report.all_pass
        out(f"axioms {p.label}: idempotent={report.idempotent} "
            f"hermitian={report.hermitian} trace={report.trace} ... {status}")
    return ok


def _suite_curvature(max_charge: int, seed: int, out) -> bool:
    ok = True
    kahler = DZ0.wedge(DZB0) + DZ1.wedge(DZB1)
    for n in range(1, max_charge + 1):
        for sign, factor in (("minus", n), ("plus", -n)):
            passed = tangent_frame_check(curvature_scalar(monopole_ket(sign, n)), kahler * factor)
            ok &= passed
            out(f"curvature {sign} n={n}: exact ... {'PASS' if passed else 'FAIL'}")
    passed = tangent_frame_check(curvature_scalar(tilde_ket2()), kahler * 2)
    ok &= passed
    out(f"curvature tilde: exact ... {'PASS' if passed else 'FAIL'}")
    return ok


def _column(v, l: int) -> tuple:
    """Column l of a partial isometry D_L C D_R: the left weights, right
    weight l and column l of the core C."""
    return v.left_weights, v.right_weights[l], tuple(row[l] for row in v.core)


def _suite_isometry(max_charge: int, seed: int, out) -> bool:
    geo = named_real_objects()
    rep = isometry_verify(geo.u, tangent_projector(), build_projector("realform", 0))
    out(f"u+u = p_tan: {'PASS' if rep.dagger_times_matches_src else 'FAIL'}; "
        f"uu+ = (p~[-2])^R: {'PASS' if rep.times_dagger_matches_dst else 'FAIL'}")
    ok = rep.all_pass
    uv = geo.u @ geo.V
    for l in range(3):
        match = _column(uv, l) == _column(geo.W, l)
        ok &= match
        out(f"u V_{l + 1} = W_{l + 1}: {'PASS' if match else 'FAIL'}")
    return ok


def _suite_tangent(max_charge: int, seed: int, out) -> bool:
    ok = True
    geo = named_real_objects()
    p_tan = tangent_projector()
    v_rep = isometry_verify(geo.V, p_tan, p_tan)
    # W^dagger W = p_tan holds as well; this suite's claim is W W^dagger
    w_rep = isometry_verify(geo.W, p_tan, build_projector("realform", 0))
    checks = [
        ("p_tan = 1 - p_nor (by construction, axioms)", verify_axioms(p_tan).all_pass),
        ("p_tan = sum |V_l><V_l|", v_rep.times_dagger_matches_dst),
        ("(p~[-2])^R = sum |W_l><W_l|", w_rep.times_dagger_matches_dst),
        ("(p_tan)_kl = <V_k|V_l>", v_rep.dagger_times_matches_src),
        ("Chern form of p_nor is 0", curvature_trace_form(normal_projector()).is_zero()),
        ("Chern form of p_tan is 0", curvature_trace_form(p_tan).is_zero()),
    ]
    for name, passed in checks:
        ok &= passed
        out(f"tangent {name}: {'PASS' if passed else 'FAIL'}")
    return ok


def _suite_gauge(max_charge: int, seed: int, out) -> bool:
    import numpy as np

    ok = True
    rng = np.random.default_rng(seed)
    p2 = build_projector("monopole", 2)
    c_ref = chern_number_exact(p2)
    for trial in range(10):
        perm = rng.permutation(p2.dim)
        signs = rng.choice([-1, 1], p2.dim)
        s = [[0] * p2.dim for _ in range(p2.dim)]
        for j in range(p2.dim):
            s[j][perm[j]] = int(signs[j])
        p_s, v = exact_gauge(p2, s)
        passed = isometry_verify(v, p2, p_s).all_pass and chern_number_exact(p_s) == c_ref
        ok &= passed
        out(f"gauge signed-permutation trial {trial}: {'PASS' if passed else 'FAIL'}")

    gs = []
    while len(gs) < 20:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if np.linalg.cond(g) < 10:
            gs.append(g)
    k1, grid = monopole_ket("minus", 1), SphereGrid.build(64, 128)
    for trial, (field, c1) in enumerate(gauge_chern_numbers(k1, gs, grid, "analytic")):
        passed = abs(c1 - 1.0) < 1e-4
        ok &= passed
        out(f"gauge random g trial {trial}: c1 = {c1:.8f} "
            f"(cond {field.condition:.3g}) ... {'PASS' if passed else 'FAIL'}")
    return ok


SUITES = {
    "axioms": _suite_axioms,
    "curvature": _suite_curvature,
    "isometry": _suite_isometry,
    "tangent": _suite_tangent,
    "gauge": _suite_gauge,
}


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        ok &= SUITES[name](args.max_charge, args.seed, print)
    print("ALL PASS" if ok else "FAILURES DETECTED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bundle-forge",
        description="Exact and numeric verification of monopole bundle projectors over S^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--charge", type=int, default=None,
                       help="monopole charge (default 1); monopole family only")

    p_build = sub.add_parser("build", help="print a projector")
    add_family(p_build)
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=_cmd_build)

    p_chern = sub.add_parser("chern", help="compute a Chern number")
    add_family(p_chern)
    p_chern.add_argument("--backend", choices=("exact", "quad"), default="exact")
    p_chern.add_argument("--grid", default=None,
                         help="quadrature grid PxA of the quad backend (default 64x128)")
    p_chern.add_argument("--fd", action="store_true",
                         help="use finite differences in the quad backend")
    p_chern.add_argument("--json", action="store_true")
    p_chern.set_defaults(func=_cmd_chern)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p_verify.add_argument("--max-charge", type=int, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_conn = sub.add_parser("connection", help="print a monopole connection form")
    p_conn.add_argument("--charge", type=int, required=True)
    p_conn.set_defaults(func=_cmd_connection)

    p_gauge = sub.add_parser("gauge", help="quadrature Chern number of a gauged projector")
    p_gauge.add_argument("--charge", type=int, required=True)
    p_gauge.add_argument("--g-file", required=True)
    p_gauge.add_argument("--grid", default="64x128")
    p_gauge.set_defaults(func=_cmd_gauge)

    p_int = sub.add_parser("integrate", help="exact and Monte-Carlo monomial integrals")
    p_int.add_argument("--monomial", required=True, help="a,b,c exponents")
    p_int.add_argument("--mc-samples", type=int, default=10**6)
    p_int.add_argument("--seed", type=int, default=0)
    p_int.set_defaults(func=_cmd_integrate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        family = getattr(args, "family", "monopole")
        if family != "monopole" and args.charge is not None:
            raise CliInputError(f"--charge applies only to --family monopole, not {family}")
        if getattr(args, "charge", 0) is None:
            args.charge = 1  # the monopole default; other families ignore it
        if abs(getattr(args, "charge", 0)) > MAX_CHARGE:
            raise CliInputError(f"charge out of range (|c| <= {MAX_CHARGE})")
        if not 0 <= getattr(args, "max_charge", 0) <= MAX_CHARGE:
            raise CliInputError(f"max charge out of range (0 <= max-charge <= {MAX_CHARGE})")
        if getattr(args, "seed", 0) < 0:
            raise CliInputError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (bundles.UnsupportedGaugeError, quadbench.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
