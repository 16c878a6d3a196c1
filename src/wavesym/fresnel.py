"""Plane wave structure of light in a homogeneous anisotropic crystal.

The 6x6 first order symbol of Maxwell's equations in a crystal with
permittivity eps compresses, on each unit covector xi, to the 2x2
symmetric operator A_ij = <eps^{-1} t_i, t_j> in an orthonormal tangent
frame (t1, t2) of xi.  Its eigenvalues are the squared phase speeds; the
two sheets tau = +-sqrt(lambda_i(xi)) |xi| of nonzero roots sweep out the
Fresnel surface.  For a biaxial crystal the sheets touch at four conical
directions, the optic axes: the transversal zeros of the traceless part
(p, q) of A.  Its Jacobian there has det J = |x^T eps^{-1} (t1 + i t2)|^2
> 0, so each axis has index +1 and the four add up to 4, the Euler
number of the traceless operator bundle.  For the diagonal eps here the
axes have a closed form; singular_directions takes them from it and
certifies each one's residual and det J.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError, NotBiaxial
from .spheremesh import SurfaceMesh, icosphere, tangent_frames
from .sym2 import eigenvalues_grid
# perfbench/tracing.py wraps these two at their fresnel names
from .multiplicity import local_degree  # noqa: F401
from .spheremesh import refine_on_sphere  # noqa: F401

AXIS_RESIDUAL_TOL = 1e-10
AXIS_MERGE_ANGLE = 1e-3
# smallest gap between principal permittivities, relative to the largest,
# that is_biaxial counts as distinct
BIAXIAL_REL_TOL = 1e-12


@dataclass(frozen=True)
class Crystal:
    """Principal permittivities of a homogeneous dielectric."""

    eps: tuple[float, float, float]

    def __post_init__(self):
        if len(self.eps) != 3 or not all(math.isfinite(e) and e > 0.0 for e in self.eps):
            raise InputError("permittivities must be three finite positive numbers")

    @functools.cached_property
    def inv_eps(self) -> np.ndarray:
        """diag(1/eps), computed once per crystal and read-only."""
        ie = np.diag([1.0 / e for e in self.eps])
        ie.flags.writeable = False
        return ie

    @functools.cached_property
    def inv_eps_mid(self) -> float:
        """The middle principal value of inv_eps, computed once per crystal."""
        return sorted(np.diagonal(self.inv_eps).tolist())[1]

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
    ie = np.diagonal(crystal.inv_eps)
    ie_t1 = t1 * ie
    a11 = np.einsum("ij,ij->i", ie_t1, t1)
    a22 = np.einsum("ij,ij->i", t2 * ie, t2)
    a12 = np.einsum("ij,ij->i", ie_t1, t2)
    return a11 + a22, 0.5 * (a11 - a22), a12


def sheet_speeds(crystal: Crystal, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(lambda_1), sqrt(lambda_2)) at unit directions, slow sheet first."""
    lam1, lam2 = eigenvalues_grid(*compressed_grid(crystal, points))
    return np.sqrt(np.maximum(lam1, 0.0)), np.sqrt(lam2)


def traceless_slope(crystal: Crystal, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frames (t1, t2), z = p + i q and its slope beta at unit directions.

    With tau = t1 + i t2, z = tau^T A tau / 2 for A = eps^{-1}.  Moving x
    to x + d1 t1 + d2 t2 and carrying the frame along turns tau into
    tau - (d1 + i d2) x, so z changes by -beta (d1 + i d2) + O(d^2) with
    beta = b1 + i b2 = x^T A tau: the Jacobian of (p, q) is
    J = -[[b1, -b2], [b2, b1]], det J = |beta|^2.  Since tau^T tau = 0
    and x^T tau = 0, z and beta ignore a multiple of the identity in A;
    both are formed with the middle principal value subtracted, which
    drops the largest term at an axis, where the others cancel it.  So
    (p, q) here agrees with compressed_grid's up to roundoff only.
    """
    X = np.asarray(points, dtype=float)
    t1, t2 = tangent_frames(X)
    tau = t1 + 1j * t2
    a_tau = tau * (np.diagonal(crystal.inv_eps) - crystal.inv_eps_mid)
    return t1, t2, 0.5 * np.einsum("ij,ij->i", a_tau, tau), np.einsum("ij,ij->i", a_tau, X)


def det_j_floor(crystal: Crystal) -> float:
    """Least det J at which an axis's index +1 is certified.

    Within angle r of an axis x, z differs from its linear model
    z(x) - beta (d1 + i d2) by at most s r^2, s = a_hi - a_lo the spread
    of eps^{-1}.  On the circle |d| = r the model's slope term has length
    |beta| r, so (p, q) turns once about x as soon as
    |beta| r - s r^2 > |z(x)|, which some r allows exactly when
    det J = |beta|^2 > 4 s |z(x)|.  An axis is kept at a computed |z| of
    at most AXIS_RESIDUAL_TOL; twice that also covers the evaluation's
    roundoff, orders of magnitude smaller.
    """
    a = np.diagonal(crystal.inv_eps)
    return 8.0 * float(a.max() - a.min()) * AXIS_RESIDUAL_TOL


@dataclass(frozen=True)
class SingularDirection:
    """A conical direction: location, residual, local index, det J and cone slope."""

    x: np.ndarray
    residual: float
    local_index: int
    det_j: float
    cone_slope: float


def singular_directions(crystal: Crystal) -> list[SingularDirection]:
    """The four optic axes in closed form, with their indices certified.

    With a_lo < a_mid < a_hi the principal values of eps^{-1}, the axes
    are +-s e_hi +- c e_lo, s^2 = (a_hi - a_mid) / (a_hi - a_lo) and
    c^2 = (a_mid - a_lo) / (a_hi - a_lo) (Berry & Jeffrey, Prog. Opt. 50,
    2007), both squares taken from differences so that neither cancels
    near a uniaxial crystal; the e_mid component is exactly 0.0.

    Each axis reports its residual |(p, q)| from compressed_grid, index
    sign det J = +1 and the cone slope 2 sqrt(det J): the sheet split
    lambda_2 - lambda_1 = 2 |z| grows as 2 |beta| r at angle r from the
    axis, in every direction.
    Raises NotBiaxial when the crystal is not biaxial or two axes lie
    closer than AXIS_MERGE_ANGLE, and ComputationError when an axis has
    a residual above AXIS_RESIDUAL_TOL or det J at or below det_j_floor.
    """
    if not crystal.is_biaxial():
        raise NotBiaxial("optic axes require a biaxial crystal")
    a = np.diagonal(crystal.inv_eps)
    lo, mid, hi = np.argsort(a).tolist()
    spread = a[hi] - a[lo]
    s = math.sqrt((a[hi] - a[mid]) / spread)
    c = math.sqrt((a[mid] - a[lo]) / spread)
    separation = 2.0 * math.asin(min(s, c))
    if separation < AXIS_MERGE_ANGLE:
        raise NotBiaxial(f"conical directions {separation:.3g} rad apart; "
                         f"axes closer than {AXIS_MERGE_ANGLE} rad cannot be resolved")
    axes = np.zeros((4, 3))
    axes[:, hi] = [s, s, -s, -s]
    axes[:, lo] = [c, -c, c, -c]
    axes = np.array(sorted(axes, key=lambda d: (round(d[0], 9), round(d[1], 9), round(d[2], 9))))
    _, p, q = compressed_grid(crystal, axes)
    beta = traceless_slope(crystal, axes)[3]
    det_j = beta.real * beta.real + beta.imag * beta.imag
    floor = det_j_floor(crystal)
    out = []
    for d, pk, qk, dj in zip(axes, p, q, det_j.tolist()):
        residual = math.sqrt(float(pk * pk + qk * qk))
        if residual > AXIS_RESIDUAL_TOL or dj <= floor:
            raise ComputationError(f"optic axis {d.tolist()} not certified: residual {residual:.3g}, "
                                   f"det J {dj:.3g} against the floor {floor:.3g}")
        out.append(SingularDirection(x=d, residual=residual, local_index=int(np.sign(dj)),
                                     det_j=dj, cone_slope=2.0 * math.sqrt(dj)))
    return out


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
                "det_j": a.det_j,
                "cone_slope": a.cone_slope,
            }
            for a in axes
        ],
        "min_sheet_gap": min_sheet_gap,
    }
