"""Self-test of the benchmark's known-answer gate and tracer.

    python3 -m pytest -q perfbench/test_gate.py

A deliberately wrong expected value must be reported as a failed verdict,
never as a pass, and the tracer must see each layer a workload uses.
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bundle_forge import exact_ring  # noqa: E402
from bundle_forge.quadbench import SphereGrid  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

IDENTITY2 = [[1, 0], [0, 1]]
SMALL_GRID = SphereGrid.build(16, 32)


def monopole1(c1=1, rank=1):
    return ("monopole+1", lambda: workloads._monopole(1), c1, rank, 2)


def test_known_answers_pass():
    items = [
        workloads.exact_item(monopole1(), IDENTITY2),
        workloads.quad_item(monopole1(), IDENTITY2, SMALL_GRID, "analytic"),
        workloads.verify_item("isometry", 0, workloads.VERIFY_PASS_COUNTS["isometry"]),
    ]
    assert run_pass(items).failed == 0


def test_wrong_expected_c1_fails():
    assert run_pass([workloads.exact_item(monopole1(c1=2), IDENTITY2)]).failed == 1
    item = workloads.quad_item(monopole1(c1=-1), IDENTITY2, SMALL_GRID, "analytic")
    assert run_pass([item]).failed == 1


def test_wrong_expected_trace_fails():
    assert run_pass([workloads.exact_item(monopole1(rank=2), IDENTITY2)]).failed == 1


def test_wrong_pass_count_fails():
    item = workloads.verify_item("isometry", 0, workloads.VERIFY_PASS_COUNTS["isometry"] - 1)
    assert run_pass([item]).failed == 1


def test_crash_counts_as_failure_and_pass_goes_on():
    items = [
        workloads.Item("crash", lambda: 1 / 0),
        workloads.exact_item(monopole1(), IDENTITY2),
    ]
    assert run_pass(items).failed == 1


def test_sphere_monomial_integral():
    # 4*pi * (1/3) for x3^2, 4*pi * (1/15) for x1^2 x2^2, 4*pi * (1/5) for x1^4
    assert workloads.sphere_monomial_integral(0, 0, 2) == Fraction(1, 3)
    assert workloads.sphere_monomial_integral(2, 2, 0) == Fraction(1, 15)
    assert workloads.sphere_monomial_integral(4, 0, 0) == Fraction(1, 5)


def test_tracer_sees_layers_and_bypass():
    original_mul = exact_ring.XPoly.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        exact = run_pass([workloads.exact_item(monopole1(), IDENTITY2)], tracer).layers
        tracer.reset()
        quad = run_pass(
            [workloads.quad_item(monopole1(), IDENTITY2, SMALL_GRID, "analytic")], tracer
        ).layers
        tracer.reset()
        tangent = workloads.quad_item(
            workloads.TANGENT, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], SMALL_GRID, "finite-difference"
        )
        tangent_build_s = run_pass([tangent], tracer).layers["bundles.build_s"]
    finally:
        tracer.uninstall()
    assert exact_ring.XPoly.__mul__ is original_mul
    assert exact_ring.XPoly.__rmul__ is original_mul

    assert exact["forms.wedge_calls"] > 0 and exact["exact_ring.mul_calls"] > 0
    assert exact["quadbench.chern_quad_s"] == 0
    assert 0 < exact["bundles.curvature_form_s"] < exact["bundles.chern_exact_s"]

    assert quad["forms.wedge_calls"] == 0
    assert quad["exact_ring.evaluate_calls"] > 0
    assert 0 < quad["quadbench.chern_quad_self_s"] < quad["quadbench.chern_quad_s"]
    assert quad["quadbench.points_per_s"] > 0
    assert tangent_build_s > 0


def test_nested_spans_of_one_name_count_once():
    tracer = Tracer()
    outer = tracer.wrap("bundles.build", lambda: inner())
    inner = tracer.wrap("bundles.build", lambda: sum(range(10000)))
    outer()
    (name, start, end, parent), child = tracer.spans
    assert parent == -1 and child[3] == 0
    assert tracer.metrics()["bundles.build_s"] == end - start
