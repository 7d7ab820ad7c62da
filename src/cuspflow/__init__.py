"""cuspflow: spectral and dynamical toolkit for hyperbolic cusp geodesic flow.

Modules
-------
geometry
    Phase points, cotangent norms, local isometries, the exact invariant
    splitting.
flow
    Closed-form geodesic flow, the level-2 congruence quotient, Liouville
    sampling, correlation functions and truncated Laplace transforms.
indicial
    The transverse model operator: its indicial roots (``RootTable``), the
    eigendistributions at them and the jet-matrix cross-check.
hadamard
    Hadamard-regularised pairings of the homogeneous distributions, their
    poles, residues and Jordan vectors.
bcontinuation
    Contour-deformation continuation of the cusp resolvent: contour lines,
    residue operators, the shift identity and the visible-root continuation.
escape
    The weight, the escape function and its sampled certificate (d = 1).
cli
    The ``cuspflow`` command line: one subcommand per stage, each writing its
    artifacts and a manifest that reproduces the run.
"""

from . import errors, flow, geometry
from .errors import (
    ConfigurationError,
    ContourOnRootError,
    DomainError,
    InvalidEnclosureError,
    NearSingularError,
    NonterminationError,
    PoleError,
    ToleranceError,
    UnsupportedDimensionError,
    ValidationError,
)
from .flow import (
    BumpObservable,
    CorrelationRecord,
    FlowState,
    QuotientSurface,
    correlate,
    estimate_area,
    flow_cusp_exact,
    flow_quotient,
    hyperbolic_distance,
    laplace_tail_bound,
    laplace_transform,
    liouville_samples,
    sample_liouville,
)
from .geometry import (
    CotangentVector,
    PhasePoint,
    SplittingFrame,
    apply_local_isometry,
    cotangent_norm,
    direction_angle,
    invariant_splitting,
    splitting_frame_at,
)

__version__ = "0.1.0"
