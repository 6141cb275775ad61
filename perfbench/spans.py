"""In-memory span tracer for bundle_forge, installed from outside the package.

`Tracer.install` replaces each function in TARGETS by a wrapper that records
a span (name, start, end, parent) around the call.  A module-level function
is replaced in every bundle_forge module that holds it, because `cli`,
`bundles` and `quadbench` import names such as `projector_from_ket`,
`restrict_to_sphere` and `chern_number_quad` directly; a method is replaced
on the class that defines it, under every attribute that names it (so
`__rmul__` is wrapped along with `__mul__`).  Spans stay in memory until
`write` is called at the end of a run.

The ring counters are read from the results of the wrapped `__mul__`:
the largest product (in terms) and the largest numerator or denominator
bit length of any coefficient of a product.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  "Class.method" is patched on the class
# of the method's MRO that defines it.
TARGETS = (
    ("bundle_forge.exact_ring", "XPoly.__mul__", "exact_ring.mul"),
    ("bundle_forge.exact_ring", "z_to_x", "exact_ring.z_to_x"),
    ("bundle_forge.exact_ring", "XPoly.evaluate", "exact_ring.evaluate"),
    ("bundle_forge.exact_ring", "ZPoly.evaluate", "exact_ring.evaluate"),
    ("bundle_forge.forms", "XForm.wedge", "forms.wedge"),
    ("bundle_forge.forms", "XForm.d", "forms.d"),
    ("bundle_forge.forms", "restrict_to_sphere", "forms.restrict"),
    ("bundle_forge.forms", "integrate_s2", "forms.integrate"),
    ("bundle_forge.kets", "curvature_scalar", "kets.curvature_scalar"),
    ("bundle_forge.bundles", "projector_from_ket", "bundles.build"),
    ("bundle_forge.bundles", "real_form", "bundles.build"),
    ("bundle_forge.bundles", "normal_projector", "bundles.build"),
    ("bundle_forge.bundles", "tangent_projector", "bundles.build"),
    ("bundle_forge.bundles", "verify_axioms", "bundles.axioms"),
    ("bundle_forge.bundles", "curvature_trace_form", "bundles.curvature_form"),
    ("bundle_forge.bundles", "chern_number_exact", "bundles.chern_exact"),
    ("bundle_forge.bundles", "exact_gauge", "bundles.gauge"),
    ("bundle_forge.bundles", "isometry_verify", "bundles.isometry"),
    ("bundle_forge.quadbench", "chern_number_quad", "quadbench.chern_quad"),
    ("bundle_forge.quadbench", "tangent_frame_check", "quadbench.frame_check"),
    ("bundle_forge.quadbench", "s2_tangent_frame_check", "quadbench.frame_check"),
    ("bundle_forge.quadbench", "gauge_field", "quadbench.gauge_field"),
    ("bundle_forge.quadbench", "monte_carlo_stderr", "quadbench.mc"),
    ("bundle_forge.quadbench", "monte_carlo_integral", "quadbench.mc"),
)

# metric name -> (aggregate, span name).  "calls" counts spans, "time" sums
# the spans not nested in a span of the same name, "self" sums each span
# minus the time its child spans cover.
SPAN_METRICS = {
    "exact_ring.mul_calls": ("calls", "exact_ring.mul"),
    "exact_ring.mul_s": ("time", "exact_ring.mul"),
    "exact_ring.z_to_x_s": ("time", "exact_ring.z_to_x"),
    "exact_ring.evaluate_calls": ("calls", "exact_ring.evaluate"),
    "exact_ring.evaluate_s": ("time", "exact_ring.evaluate"),
    "forms.wedge_calls": ("calls", "forms.wedge"),
    "forms.wedge_s": ("time", "forms.wedge"),
    "forms.d_s": ("time", "forms.d"),
    "forms.restrict_s": ("time", "forms.restrict"),
    "forms.integrate_s": ("time", "forms.integrate"),
    "kets.curvature_scalar_s": ("time", "kets.curvature_scalar"),
    "bundles.build_s": ("time", "bundles.build"),
    "bundles.axioms_s": ("time", "bundles.axioms"),
    "bundles.curvature_form_s": ("self", "bundles.curvature_form"),
    "bundles.chern_exact_s": ("time", "bundles.chern_exact"),
    "bundles.gauge_s": ("time", "bundles.gauge"),
    "bundles.isometry_s": ("time", "bundles.isometry"),
    "quadbench.chern_quad_s": ("time", "quadbench.chern_quad"),
    "quadbench.chern_quad_self_s": ("self", "quadbench.chern_quad"),
    "quadbench.frame_check_s": ("time", "quadbench.frame_check"),
    "quadbench.gauge_field_s": ("time", "quadbench.gauge_field"),
    "quadbench.mc_s": ("time", "quadbench.mc"),
    "cli.suite.axioms_s": ("time", "cli.suite.axioms"),
    "cli.suite.curvature_s": ("time", "cli.suite.curvature"),
    "cli.suite.isometry_s": ("time", "cli.suite.isometry"),
    "cli.suite.tangent_s": ("time", "cli.suite.tangent"),
    "cli.suite.gauge_s": ("time", "cli.suite.gauge"),
    "cli.integrate_s": ("time", "cli.integrate"),
}


def _coeff_bits(c) -> int:
    return max(
        c.re.numerator.bit_length(),
        c.re.denominator.bit_length(),
        c.im.numerator.bit_length(),
        c.im.denominator.bit_length(),
    )


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)
        self.grid_points = 0
        self.peak_terms = 0
        self.max_coeff_bits = 0

    def reset(self) -> None:
        """Drop the recorded spans and counters; installed wrappers stay."""
        del self.spans[:]
        del self._stack[:]
        self.grid_points = 0
        self.peak_terms = 0
        self.max_coeff_bits = 0

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span `name`; `after(args, kwargs, result)`, when
        given, runs outside the span and returns the value to hand back."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return after(args, kwargs, result) if after else result

        return traced

    def _after_mul(self, args, kwargs, product):
        terms = product.terms
        if len(terms) > self.peak_terms:
            self.peak_terms = len(terms)
        bits = max(map(_coeff_bits, terms.values()), default=0)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits
        return product

    def _after_chern_quad(self, args, kwargs, c1):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.grid_points += grid.polar * grid.azimuthal
        return c1

    def _after_gauge_field(self, args, kwargs, field):
        # the gauge-transformed evaluator runs later, inside the quadrature
        traced = self.wrap("quadbench.gauge_field", field.evaluator)
        return dataclasses.replace(field, evaluator=traced)

    def install(self) -> None:
        hooks = {
            "exact_ring.mul": self._after_mul,
            "quadbench.chern_quad": self._after_chern_quad,
            "quadbench.gauge_field": self._after_gauge_field,
        }
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = next(
                    c for c in getattr(module, cls_name).__mro__ if method in c.__dict__
                )
                original = owner.__dict__[method]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = [
                    m for name, m in list(sys.modules.items())
                    if name == "bundle_forge" or name.startswith("bundle_forge.")
                ]
            wrapper = self.wrap(span, original, hooks.get(span))
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, name, original))
                        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        del self._patched[:]

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        time_s: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                time_s[name] += end - start
        table = {"calls": calls, "time": time_s, "self": self_s}
        out = {
            metric: table[kind].get(span, 0) for metric, (kind, span) in SPAN_METRICS.items()
        }
        quad_s = out["quadbench.chern_quad_s"]
        out["quadbench.points_per_s"] = self.grid_points / quad_s if quad_s > 0 else 0.0
        out["exact_ring.peak_terms"] = self.peak_terms
        out["exact_ring.max_coeff_bits"] = self.max_coeff_bits
        return out

    def write(self, path, **header) -> None:
        """Write the recorded spans as JSON, one [name, start, end, parent]
        list per span, after the `header` fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
