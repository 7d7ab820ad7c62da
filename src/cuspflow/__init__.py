"""cuspflow: spectral and dynamical toolkit for hyperbolic cusp geodesic flow.

Modules
-------
geometry
    Phase points, local isometries, the exact invariant splitting.
flow
    Closed-form geodesic flow, the flow on the level-2 congruence quotient,
    Liouville sampling, correlation functions and truncated Laplace
    transforms.
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

import importlib

__all__ = [
    "errors", "flow", "geometry",
    "ConfigurationError", "ContourOnRootError", "DomainError", "InvalidEnclosureError",
    "NearSingularError", "NonterminationError", "PoleError", "ToleranceError",
    "UnsupportedDimensionError", "ValidationError",
    "BumpObservable", "CorrelationRecord", "correlate", "estimate_area", "flow_cusp_exact",
    "flow_quotient", "laplace_tail_bound", "laplace_transform", "liouville_samples",
    "sample_liouville",
    "PhasePoint", "SplittingFrame", "apply_local_isometry", "direction_angle",
    "invariant_splitting", "splitting_frame_at",
]

# The modules the exports live in, in import-dependency order (geometry needs
# errors; flow needs both), so finding a name loads no module that the
# name's own module does not load.
_HOMES = ("errors", "geometry", "flow")

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load an export on first access (PEP 562): a subcommand that never reads
    one does not pay for importing its module."""
    if name in __all__:
        if name in _HOMES:
            return importlib.import_module(f".{name}", __name__)
        for home in _HOMES:
            module = importlib.import_module(f".{home}", __name__)
            if hasattr(module, name):
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
