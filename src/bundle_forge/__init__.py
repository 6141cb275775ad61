"""Exact computer-algebra and quadrature verification of monopole bundles
over the two-sphere: projectors, connections, Chern numbers, and the
partial isometry between the tangent projector and the real charge-2
projector."""

from .exact_ring import (
    GaussianRational,
    VolumeUnits,
    XPoly,
    ZPoly,
    monomial_integral,
    x_to_z,
    z_to_x,
)
from .forms import (
    XForm,
    ZForm,
    integrate_s2,
    restrict_to_sphere,
)
from .kets import (
    EquivariantKet,
    connection_form,
    curvature_scalar,
    equivariance_type,
    monopole_ket,
    pairing,
    tilde_ket2,
)
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
    transpose,
    verify_axioms,
)
from .quadbench import (
    KetField,
    SphereGrid,
    chern_number_quad,
    gauge_field,
    monte_carlo_integral,
    tangent_frame_check,
)

__version__ = "0.1.0"
