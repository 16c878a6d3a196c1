"""Numerical topology of first-order hyperbolic symbols on surfaces.

Subpackages by theme: sym2 (the (t, p, q) and (u, w) conventions, the
closed-form eigenvalues, det, norm and kernel line), multiplicity
(planar contour extraction, kernel-line winding, signed zero counts),
sphere (polynomial symbol fields on the round sphere and the sigma_mn
family), fresnel (biaxial crystal optics), eigenline (the glued
two-sheet eigenline surface), serialize and cli (deterministic
artifacts).
"""

from .errors import (
    ComputationError,
    DegenerateField,
    GluingMismatch,
    InputError,
    LiftFailure,
    NotBiaxial,
    NotClosed,
    NotConnected,
    OutOfRange,
    RankZero,
    TransportFailure,
    WavesymError,
    ZeroOnVertex,
)
from .multiplicity import (
    ChartSymbolField,
    MultiplicityComponent,
    SingularCurve,
    extract_singular_set,
    knot_polyline,
    knot_type,
    local_degree,
    regular_value_check,
    signed_zero_count,
    trace_component,
)
from .sphere import (
    PolyVF,
    SphereSymbol,
    ZSet,
    analyze_mn,
    sigma_mn,
    transversality_h,
    z_set,
)
from .fresnel import (
    Crystal,
    SingularDirection,
    fresnel_mesh,
    fresnel_report,
    singular_directions,
)
from .eigenline import (
    EigenlineManifold,
    build_eigenline_manifold,
    critical_scan,
    eigenline_report,
)
from .spheremesh import SurfaceMesh, euler_characteristic, genus, icosphere

__version__ = "0.1.0"

__all__ = [
    "ChartSymbolField",
    "ComputationError",
    "Crystal",
    "DegenerateField",
    "EigenlineManifold",
    "GluingMismatch",
    "InputError",
    "LiftFailure",
    "MultiplicityComponent",
    "NotBiaxial",
    "NotClosed",
    "NotConnected",
    "OutOfRange",
    "PolyVF",
    "RankZero",
    "SingularCurve",
    "SingularDirection",
    "SphereSymbol",
    "SurfaceMesh",
    "TransportFailure",
    "WavesymError",
    "ZSet",
    "ZeroOnVertex",
    "analyze_mn",
    "build_eigenline_manifold",
    "critical_scan",
    "eigenline_report",
    "euler_characteristic",
    "extract_singular_set",
    "fresnel_mesh",
    "fresnel_report",
    "genus",
    "icosphere",
    "knot_polyline",
    "knot_type",
    "local_degree",
    "regular_value_check",
    "sigma_mn",
    "signed_zero_count",
    "singular_directions",
    "trace_component",
    "transversality_h",
    "z_set",
]
