"""Plane wave structure of light in a homogeneous anisotropic crystal.

The 6x6 first order symbol of Maxwell's equations in a crystal with
permittivity eps compresses, on each unit covector xi, to the 2x2
symmetric operator A_ij = <eps^{-1} t_i, t_j> in an orthonormal tangent
frame (t1, t2) of xi.  Its eigenvalues are the squared phase speeds; the
two sheets tau = +-sqrt(lambda_i(xi)) |xi| of nonzero roots sweep out the
Fresnel surface.  For a biaxial crystal the sheets touch at four conical
directions, the optic axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotBiaxial
from .multiplicity import local_degree
from .spheremesh import SurfaceMesh, icosphere, min_separation, refine_on_sphere, tangent_frames
from .sym2 import eigenvalues_grid

AXIS_RESIDUAL_TOL = 1e-10
AXIS_MERGE_ANGLE = 1e-3
# icosphere level whose vertices seed the axis search, whatever mesh a
# command builds, so every command reports the same axes
AXIS_SEARCH_SUBDIV = 4
# smallest gap between principal permittivities, relative to the largest,
# that is_biaxial counts as distinct
BIAXIAL_REL_TOL = 1e-12


@dataclass(frozen=True)
class Crystal:
    """Principal permittivities of a homogeneous dielectric."""

    eps: tuple[float, float, float]

    def __post_init__(self):
        if len(self.eps) != 3 or any(e <= 0.0 for e in self.eps):
            raise InputError("permittivities must be three positive numbers")

    @functools.cached_property
    def inv_eps(self) -> np.ndarray:
        """diag(1/eps), computed once per crystal and read-only."""
        ie = np.diag([1.0 / e for e in self.eps])
        ie.flags.writeable = False
        return ie

    def is_biaxial(self) -> bool:
        e = sorted(self.eps)
        gap = BIAXIAL_REL_TOL * e[2]
        return (e[1] - e[0]) > gap and (e[2] - e[1]) > gap


def compressed_grid(crystal: Crystal, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compressed operator components (t, p, q) at unit directions.

    points is (N, 3) with unit rows; the frame at each point is the
    deterministic tangent frame, so the components define a section of
    the symmetric operator bundle over the sphere minus nothing (the
    frame convention switches branch near the poles, consistently with
    every other sphere computation here).
    """
    X = np.asarray(points, dtype=float)
    t1, t2 = tangent_frames(X)
    ie = crystal.inv_eps
    a11 = np.einsum("ij,ij->i", t1 @ ie, t1)
    a22 = np.einsum("ij,ij->i", t2 @ ie, t2)
    a12 = np.einsum("ij,ij->i", t1 @ ie, t2)
    return a11 + a22, 0.5 * (a11 - a22), a12


def sheet_speeds(crystal: Crystal, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(lambda_1), sqrt(lambda_2)) at unit directions, slow sheet first."""
    lam1, lam2 = eigenvalues_grid(*compressed_grid(crystal, points))
    return np.sqrt(np.maximum(lam1, 0.0)), np.sqrt(lam2)


def _gap_squared(crystal: Crystal):
    def fn(pts: np.ndarray) -> np.ndarray:
        _, p, q = compressed_grid(crystal, pts)
        return p * p + q * q
    return fn


@dataclass(frozen=True)
class SingularDirection:
    """A conical direction: location, sheet gap residual, local index."""

    x: np.ndarray
    residual: float
    local_index: int


def singular_directions(crystal: Crystal) -> list[SingularDirection]:
    """Locate the optic axes numerically and attach their local indices.

    Seeds come from the smallest sheet gaps on the vertices of the
    AXIS_SEARCH_SUBDIV icosphere; coordinate descent on the squared gap
    drives each seed to a conical point.
    Raises NotBiaxial when the crystal cannot have four isolated axes.
    """
    if not crystal.is_biaxial():
        raise NotBiaxial("optic axis search requires a biaxial crystal")
    gap2 = _gap_squared(crystal)
    mesh = icosphere(AXIS_SEARCH_SUBDIV)
    vals = gap2(mesh.vertices)
    seeds = mesh.vertices[np.argsort(vals)[:48]]
    found: list[np.ndarray] = []
    for x, v in zip(*refine_on_sphere(gap2, seeds)):
        if math.sqrt(v) > AXIS_RESIDUAL_TOL:
            continue
        if all(float(np.dot(x, y)) < math.cos(AXIS_MERGE_ANGLE) for y in found):
            found.append(x)
    if len(found) != 4:
        raise NotBiaxial(f"axis search found {len(found)} conical directions, not 4; "
                         f"axes closer than {AXIS_MERGE_ANGLE} rad cannot be resolved")
    found.sort(key=lambda d: (round(d[0], 9), round(d[1], 9), round(d[2], 9)))
    # each index circle must enclose one axis only, however close the axes sit
    radius = min(5e-3, min_separation(np.array(found)) / 4.0)
    axes = []
    section = lambda pts: compressed_grid(crystal, pts)
    for d in found:
        g = math.sqrt(float(gap2(d[None, :])[0]))
        idx = local_degree(section, d, radius=radius)
        axes.append(SingularDirection(x=d, residual=g, local_index=idx))
    return axes


def fresnel_mesh(crystal: Crystal, subdivisions: int = 4) -> tuple[SurfaceMesh, SurfaceMesh, float]:
    """Triangulated inner and outer Fresnel sheets on an icosphere, and their smallest gap.

    The gap is the least sqrt(lambda_2) - sqrt(lambda_1) over the
    icosphere vertices; both sheets share one face array.
    """
    base = icosphere(subdivisions)
    s1, s2 = sheet_speeds(crystal, base.vertices)
    inner = SurfaceMesh(vertices=base.vertices * s1[:, None], faces=base.faces)
    outer = SurfaceMesh(vertices=base.vertices * s2[:, None], faces=base.faces)
    return inner, outer, float((s2 - s1).min())


def fresnel_report(crystal: Crystal, axes: list[SingularDirection], min_sheet_gap: float) -> dict:
    """Axis data and sheet statistics as a serializable dict."""
    return {
        "epsilon": [float(e) for e in crystal.eps],
        "singular_directions": [
            {
                "x": [float(c) for c in a.x],
                "residual": a.residual,
                "index": a.local_index,
            }
            for a in axes
        ],
        "min_sheet_gap": min_sheet_gap,
    }
