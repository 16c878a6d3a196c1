"""Independent computation paths used to certify library results.

Everything here deliberately avoids the code paths under test: full
matrices instead of (t, p, q) triples, characteristic polynomials
instead of closed forms, dense grids instead of local refinement,
loops over faces instead of the vectorized edge table.  The frame
transports, the cyclic line lift and the pairwise separation loop at the
end are the earlier per-caller copies that the shared primitives replaced;
the single-start descent is the loop that the batched one replaced,
the whole-grid determinant and its masks are the ones that the band
sweep replaced, the band sweep of every node is the one that the
certified sparse det grid replaced, the neighbour-list walk of the
contour chains is the one that the successor walk replaced, the masked
bisection of every crossed edge (with the lexsort for a closed curve's
least vertex) is the one that the live-edge bisection replaced, the
determinant of the complex pair is the one that the moduli |u|^2, |w|^2
replaced, the full-quadratic sphere representative
is the kernel that the fixed-order one replaced, the per-value CSV and
OBJ writers are the ones that the row and block formatters replaced, and
the np.cross tangent frames are the ones that the written-out cross
product replaced.  The
face-by-face Poincare-Hopf count is the one that the axis search's
closed-form index sum replaced, the midpoint-dict icosphere is the
loop that the edge-table subdivision replaced, the np.unique icosphere
is the edge table that the twin-table subdivision replaced, the sorted
kept boundary is the one that the gluing's rim, read from the removed
faces, is checked against, and the
central difference of the half trace is the one that the closed-form
|d s_r| replaced.  The Newton search from icosphere seeds is the one
that the closed-form optic axes replaced.

The closed-form optic axes, the alpha root by bisection, the predicted
kernel angle on the unit circle, the (u, w) unpacking that divides by
sqrt(2), and the chart 2 consistency check (the pushforward of a
polynomial under z -> 1/z, the frame turn of the inversion and the
rotation action on (u, w)) are references that tests compare the live
pipelines against; the library itself works in chart 1 only.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from wavesym.eigenline import _tie_break_jitter
from wavesym.errors import DegenerateField, GluingMismatch, InputError, LiftFailure, NotBiaxial, NotClosed, ZeroOnVertex
from wavesym.fresnel import AXIS_MERGE_ANGLE, traceless_slope
from wavesym.multiplicity import CONTOUR_REL_TOL, SingularCurve, _chains, _polyline_length
from wavesym.serialize import _g17, fmt_float
from wavesym.sphere import PolyVF, SphereSymbol
from wavesym.spheremesh import (
    SurfaceMesh,
    _edge_runs,
    _icosahedron,
    icosphere,
    rotate_pq,
    tangent_frames,
    transport_pq,
    unit_rows,
)

SQRT2 = math.sqrt(2.0)


def eig_quadratic(t: float, p: float, q: float) -> tuple[float, float]:
    """Eigenvalues from the characteristic polynomial of the full matrix.

    Roots are paired stably (big root by formula, small root as det/big)
    because the naive (tr - disc)/2 cancels catastrophically whenever
    the trace dominates the traceless part.
    """
    mat = np.array([[0.5 * t + p, q], [q, 0.5 * t - p]])
    tr = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    # tr^2 - 4 det cancels; the entrywise equivalent (m00-m11)^2 + 4 m01^2
    # is the standard stable discriminant for symmetric matrices
    disc = math.hypot(mat[0, 0] - mat[1, 1], 2.0 * mat[0, 1])
    big = 0.5 * (tr + disc) if tr >= 0.0 else 0.5 * (tr - disc)
    other = det / big if big != 0.0 else 0.0
    return (other, big) if big >= other else (big, other)


def full_matrix(t: float, p: float, q: float) -> np.ndarray:
    return np.array([[0.5 * t + p, q], [q, 0.5 * t - p]])


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def maxwell_symbol(crystal_inv_eps: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The 6x6 Maxwell symbol [[0, K], [-K eps^{-1}, 0]], K = cross(xi, .).

    On a field pair (E, B) it gives (xi x B, -xi x (eps^{-1} E)); its
    characteristic roots are 0 (twice) and +-sqrt(lambda_i(xi)) |xi| for
    the two compressed eigenvalues lambda_i.
    """
    x, y, z = xi
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.block([[np.zeros((3, 3)), K], [-K @ crystal_inv_eps, np.zeros((3, 3))]])


def maxwell_det(crystal_inv_eps: np.ndarray, xi: np.ndarray, tau: float) -> float:
    """det(tau I + sigma(xi)) for the 6x6 Maxwell symbol, via LU."""
    return float(np.linalg.det(tau * np.eye(6) + maxwell_symbol(crystal_inv_eps, xi)))


def maxwell_root_residual(crystal_inv_eps: np.ndarray, xi: np.ndarray, tau: float,
                          step: float = 1e-6) -> float:
    """Distance from tau to the nearest sign change of the 6x6 determinant.

    The determinant has simple roots at +-sqrt(lambda_i)|xi| away from
    degeneracies, so bracketing a sign flip inside [tau - d, tau + d]
    certifies a root within d.
    """
    f = lambda s: maxwell_det(crystal_inv_eps, xi, s)
    d = step
    for _ in range(40):
        if f(tau - d) * f(tau + d) <= 0.0:
            lo, hi = tau - d, tau + d
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return abs(0.5 * (lo + hi) - tau)
        d *= 2.0
    return math.inf


def maxwell_det_batch(crystal_inv_eps: np.ndarray, xis: np.ndarray,
                      taus: np.ndarray) -> np.ndarray:
    """det(tau I + sigma(xi)) for a batch of (xi, tau) pairs."""
    n = len(taus)
    K = np.zeros((n, 3, 3))
    K[:, 0, 1] = -xis[:, 2]
    K[:, 0, 2] = xis[:, 1]
    K[:, 1, 0] = xis[:, 2]
    K[:, 1, 2] = -xis[:, 0]
    K[:, 2, 0] = -xis[:, 1]
    K[:, 2, 1] = xis[:, 0]
    sig = np.zeros((n, 6, 6))
    sig[:, :3, 3:] = K
    sig[:, 3:, :3] = -K @ crystal_inv_eps
    sig += taus[:, None, None] * np.eye(6)
    return np.linalg.det(sig)


def maxwell_root_residuals(crystal_inv_eps: np.ndarray, xis: np.ndarray,
                           taus: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Vectorized maxwell_root_residual over (xi, tau) pairs."""
    d = np.full(len(taus), step)
    for _ in range(40):
        bad = (maxwell_det_batch(crystal_inv_eps, xis, taus - d)
               * maxwell_det_batch(crystal_inv_eps, xis, taus + d)) > 0.0
        if not bad.any():
            break
        d[bad] *= 2.0
    else:
        return np.full(len(taus), math.inf)
    lo, hi = taus - d, taus + d
    flo = maxwell_det_batch(crystal_inv_eps, xis, lo)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        fmid = maxwell_det_batch(crystal_inv_eps, xis, mid)
        left = flo * fmid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
    return np.abs(0.5 * (lo + hi) - taus)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions."""
    i = np.arange(count, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sheet_values_brute(inv_eps: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the compressed operator by dense eigh on 3x3 projections.

    P (I - x x^T) eps^{-1} (I - x x^T) has eigenvalues {0, lam1, lam2} on
    the tangent plane; computed with numpy's symmetric solver rather than
    any closed form from the library.
    """
    lam1 = np.empty(len(points))
    lam2 = np.empty(len(points))
    for k, x in enumerate(points):
        proj = np.eye(3) - np.outer(x, x)
        mat = proj @ inv_eps @ proj
        ev = np.linalg.eigvalsh(mat)
        lam1[k], lam2[k] = ev[1], ev[2]
    return lam1, lam2


def sheet_values_dense(inv_diag: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sheet eigenvalues from trace identities of P eps^{-1} P.

    With a = diag(eps^{-1}) and unit rows x: tr = sum(a) - <a x, x>,
    tr(M^2) = sum(a^2) - 2 <a^2 x, x> + <a x, x>^2, and the nonzero
    eigenvalues are (tr -+ sqrt(2 tr(M^2) - tr^2)) / 2.  No tangent
    frames involved, so this is independent of the library conventions.
    """
    a = np.asarray(inv_diag, dtype=float)
    X2 = points * points
    axx = X2 @ a
    tr1 = a.sum() - axx
    tr2 = (a * a).sum() - 2.0 * (X2 @ (a * a)) + axx * axx
    disc = np.sqrt(np.maximum(2.0 * tr2 - tr1 * tr1, 0.0))
    return (tr1 - disc) / 2.0, (tr1 + disc) / 2.0


def half_trace_sphere_gradient(inv_eps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Analytic tangential gradient of s_r(x) = (tr eps^{-1} - <eps^{-1}x, x>)/2."""
    ex = inv_eps @ x
    return -(ex - float(ex @ x) * x)


def ds_r_norm_central(section_fn, p: np.ndarray, h: float = 1e-5) -> float:
    """|d s_r| at p by central differences of the half trace t/2 of a section.

    The four points unit_rows(p +- h t1), unit_rows(p +- h t2) go through
    one section call.  They sit at angle atan(h) from p along great
    circles, so for a quadratic s_r (a sinusoid of twice the angle on
    each great circle) each difference equals the exact directional
    derivative divided by 1 + h^2.
    """
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    t1, t2 = tangent_frames(p)
    t, _, _ = section_fn(unit_rows(p + h * np.array([t1, -t1, t2, -t2])))
    half = 0.5 * t
    grads = (half[0::2] - half[1::2]) / (2.0 * h)
    return math.hypot(float(grads[0]), float(grads[1]))


def optic_axes_closed_form(crystal) -> np.ndarray:
    """The four conical directions of a biaxial crystal.

    With inverse permittivities a1 > a2 > a3 the axes live in the plane
    of the extreme principal directions, at angle beta from the small
    axis with cos^2 beta = (a2 - a3) / (a1 - a3).
    """
    if not crystal.is_biaxial():
        raise NotBiaxial("conical directions require three distinct permittivities")
    a = np.array([1.0 / e for e in crystal.eps])
    order = np.argsort(-a)
    ah, am, al = a[order]
    c2 = (am - al) / (ah - al)
    c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
    e_high = np.eye(3)[order[0]]
    e_low = np.eye(3)[order[2]]
    axes = []
    for sg_s in (1.0, -1.0):
        for sg_c in (1.0, -1.0):
            axes.append(sg_s * s * e_high + sg_c * c * e_low)
    return np.array(sorted(axes, key=lambda d: (round(d[0], 12), round(d[1], 12), round(d[2], 12))))


def optic_axes_newton(crystal, seed_subdiv: int = 1, max_step: float = 0.2, step_tol: float = 1e-12,
                      max_steps: int = 60) -> np.ndarray:
    """The four optic axes by Newton's method on the sphere, sorted as
    singular_directions sorts them.

    Every vertex of the seed_subdiv icosphere seeds one row.  A step
    moves x by d1 t1 + d2 t2 with d1 + i d2 = z / beta (see
    traceless_slope), cut to max_step, and renormalizes.  A row stops
    where beta = 0 (x an eigenvector of eps^{-1}), and has converged once
    its step is at most step_tol; converged rows within AXIS_MERGE_ANGLE
    of an earlier one are the same axis.  The search ends at the fourth
    axis or after max_steps steps, and raises NotBiaxial unless it found
    four.
    """
    if not crystal.is_biaxial():
        raise NotBiaxial("optic axis search requires a biaxial crystal")
    x = icosphere(seed_subdiv).vertices
    active = np.ones(len(x), dtype=bool)
    found: list[np.ndarray] = []
    cos_merge = math.cos(AXIS_MERGE_ANGLE)
    for _ in range(max_steps):
        rows = np.flatnonzero(active)
        t1, t2, z, beta = traceless_slope(crystal, x[rows])
        regular = beta != 0.0
        step = np.zeros_like(z)
        step[regular] = z[regular] / beta[regular]
        length = np.abs(step)
        step[length > max_step] *= max_step / length[length > max_step]
        x[rows] = unit_rows(x[rows] + step.real[:, None] * t1 + step.imag[:, None] * t2)
        converged = regular & (length <= step_tol)
        active[rows[converged | ~regular]] = False
        for d in x[rows[converged]]:
            if all(float(d @ y) < cos_merge for y in found):
                found.append(d)
        if len(found) == 4 or not active.any():
            break
    if len(found) != 4:
        raise NotBiaxial(f"axis search found {len(found)} conical directions, not 4")
    return np.array(sorted(found, key=lambda d: (round(d[0], 9), round(d[1], 9), round(d[2], 9))))


def alpha_root() -> float:
    """Unique real root of r^3 + r^2 + 3 r - 1 by bisection to a 1e-15
    bracket: the small radius of the n - m = 1 multiplicity set (its
    reciprocal shows up for n - m = 3)."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if ((mid + 1.0) * mid + 3.0) * mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predicted_kernel_angle(m: int, n: int, theta: float) -> float:
    """Kernel line angle in [0, pi) of sigma_mn on the unit circle at base angle theta."""
    return (0.5 * (n - m) * theta + math.pi / 2.0) % math.pi


# frozen reference values, computed by 200-step decimal bisection of the
# cubic r^3 + r^2 + 3r - 1 and by cos^2(beta) = (a2 - a3)/(a1 - a3)
ALPHA = 0.29559774252208476
INV_ALPHA = 3.3829757679062373
AXIS_SIN_BETA = 0.7745966692414834
AXIS_COS_BETA = 0.6324555320336759
AXIS_SEPARATION = 1.369438406004566          # acos(0.2)
AXIS_DSR_NORM = 0.08164965809277261          # sqrt(1/150)


# ---------------------------------------------------------------------------
# loop references for the mesh combinatorics: one face at a time, with a
# dict of edge counts, union-find, a directed-edge set and star walks


def _edge_counts(faces: np.ndarray) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique undirected edges of a triangle list, by np.unique.

    Returns (edges, counts, half): the sorted vertex pairs (E, 2), the
    number of faces on each edge, and the edge id of every half-edge
    a->b, b->c, c->a, face by face.
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    tail, head = faces.reshape(-1), faces[:, [1, 2, 0]].reshape(-1)
    n = int(faces.max(initial=0)) + 1
    keys = np.minimum(tail, head) * n + np.maximum(tail, head)
    keys, half, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return np.column_stack([keys // n, keys % n]), counts, half


def euler_characteristic(mesh) -> int:
    """V - E + F of a closed mesh.  Raises NotClosed on boundary edges."""
    counts = _edge_counts(mesh.faces)
    bad = [e for e, c in counts.items() if c != 2]
    if bad:
        raise NotClosed(f"{len(bad)} edges are not shared by exactly two faces")
    return mesh.n_vertices - len(counts) + mesh.n_faces


def connected_components(mesh) -> int:
    """Number of vertex components under the edge graph."""
    parent = list(range(mesh.n_vertices))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b, c in mesh.faces:
        for u, v in ((a, b), (b, c), (c, a)):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                parent[ru] = rv
    used = {int(v) for f in mesh.faces for v in f}
    return len({find(i) for i in used}) if used else 0


def is_consistently_oriented(mesh) -> bool:
    """Each interior edge must be traversed once in each direction."""
    directed: set[tuple[int, int]] = set()
    for a, b, c in mesh.faces:
        for u, v in ((a, b), (b, c), (c, a)):
            if (int(u), int(v)) in directed:
                return False
            directed.add((int(u), int(v)))
    for u, v in directed:
        if (v, u) not in directed:
            return False
    return True


def boundary_loops(faces: np.ndarray) -> list[list[int]]:
    """Vertex cycles of the boundary (edges used by exactly one face)."""
    counts = _edge_counts(faces)
    directed = {}
    for a, b, c in faces:
        for u, v in ((int(a), int(b)), (int(b), int(c)), (int(c), int(a))):
            key = (u, v) if u < v else (v, u)
            if counts[key] == 1:
                # boundary is traversed opposite to the face direction
                directed[v] = u
    loops: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(directed):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = directed[start]
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = directed[cur]
        loops.append(loop)
    return loops


def _vertex_stars(mesh) -> list[list[int]]:
    """Cyclically ordered neighbor lists; requires a closed oriented mesh."""
    nxt: list[dict[int, int]] = [dict() for _ in range(mesh.n_vertices)]
    for f in mesh.faces:
        v0, v1, v2 = int(f[0]), int(f[1]), int(f[2])
        nxt[v0][v1] = v2
        nxt[v1][v2] = v0
        nxt[v2][v0] = v1
    stars: list[list[int]] = []
    for v, ring in enumerate(nxt):
        if not ring:
            stars.append([])
            continue
        start = min(ring)
        cyc = [start]
        cur = ring[start]
        while cur != start:
            cyc.append(cur)
            cur = ring[cur]
            if len(cyc) > len(ring):
                raise GluingMismatch(f"vertex {v} has a non cyclic star")
        stars.append(cyc)
    return stars


def critical_census(man) -> dict:
    """Star walk census of the jittered eigenvalue field, vertex by vertex."""
    values = man.lambda_s
    scale = max(float(np.abs(values).max()), 1.0)
    g = values + _tie_break_jitter(values.size, scale)
    stars = _vertex_stars(man.mesh)
    n_min = n_max = 0
    saddle_mult = 0
    chi_sum = 0.0
    for v, cyc in enumerate(stars):
        if not cyc:
            raise GluingMismatch("isolated vertex in glued surface")
        diffs = np.array([g[u] - g[v] for u in cyc])
        signs = diffs > 0.0
        sc = int(np.count_nonzero(signs != np.roll(signs, -1)))
        chi_sum += 1.0 - sc / 2.0
        if sc == 0:
            if bool(signs.all()):
                n_min += 1
            else:
                n_max += 1
        elif sc >= 4:
            saddle_mult += sc // 2 - 1
    return {
        "minima": n_min,
        "maxima": n_max,
        "saddle_multiplicity": saddle_mult,
        "chi_from_criticals": int(round(chi_sum)),
    }


# ---------------------------------------------------------------------------
# per-caller references for the shared frame transport, line lift and
# axis separation


def _pq_in_center_frames(points: np.ndarray, centers: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-express (p, q) given in each point's own frame in the frame of its center.

    points: (F, S, 3), centers: (F, 3); the center frame is transported to
    each point by tangent projection.
    """
    F, S, _ = points.shape
    flat = points.reshape(-1, 3)
    t1c, _ = tangent_frames(centers)
    t1c_rep = np.repeat(t1c, S, axis=0)
    proj = t1c_rep - np.einsum("ij,ij->i", t1c_rep, flat)[:, None] * flat
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    t1x, t2x = tangent_frames(flat)
    delta = np.arctan2(np.einsum("ij,ij->i", proj, t2x), np.einsum("ij,ij->i", proj, t1x))
    pr, qr = rotate_pq(p.reshape(-1), q.reshape(-1), -2.0 * delta)
    return pr.reshape(F, S), qr.reshape(F, S)


def _eigenline_angles_about(section_fn, pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Top eigenline angles at pts, re-expressed in the frame transported
    from center, so the values are comparable along a loop."""
    _, p, q = section_fn(pts)
    t1c, _ = tangent_frames(center)
    proj = t1c[None, :] - (pts @ t1c)[:, None] * pts
    nrm = np.linalg.norm(proj, axis=1)
    if float(nrm.min()) <= 1e-12:
        raise GluingMismatch("boundary loop reaches the transport antipode")
    proj /= nrm[:, None]
    t1x, t2x = tangent_frames(pts)
    delta = np.arctan2(np.einsum("ij,ij->i", proj, t2x), np.einsum("ij,ij->i", proj, t1x))
    pr, qr = rotate_pq(p, q, -2.0 * delta)
    if float(np.hypot(pr, qr).min()) <= 1e-14:
        raise ZeroOnVertex("section vanishes on a gluing loop")
    return 0.5 * np.arctan2(qr, pr)


def _lift_cyclic_line_angles(raw: np.ndarray) -> tuple[np.ndarray, float]:
    """Lift line angles (mod pi) around a cycle; returns (lift, total)."""
    d = np.mod(np.diff(raw) + math.pi / 2.0, math.pi) - math.pi / 2.0
    if d.size and float(np.abs(d).max()) >= math.pi / 2.0 * (1.0 - 1e-9):
        raise GluingMismatch("eigenline angle jump on a gluing loop")
    lift = raw[0] + np.concatenate([[0.0], np.cumsum(d)])
    closing = float(np.mod(raw[0] - raw[-1] + math.pi / 2.0, math.pi) - math.pi / 2.0)
    return lift, float(lift[-1] + closing - lift[0])


def min_pair_angle(found: list[np.ndarray]) -> float:
    """Smallest angle between two directions, pi for fewer than two."""
    return min((math.acos(float(np.clip(x[0] * y[0] + x[1] * y[1] + x[2] * y[2], -1.0, 1.0)))
                for i, x in enumerate(found) for y in found[i + 1:]), default=math.pi)


# ---------------------------------------------------------------------------
# the Poincare-Hopf count of a traceless section over a closed mesh

# first boundary samples per face edge, the share of the largest vertex
# |(p, q)| below which a sample counts as a zero, the shortest boundary
# segment (chord of the unit sphere) that is bisected, and the quarter turn
# an angle step must stay below
BOUNDARY_SAMPLES_PER_EDGE = 8
ZERO_FLOOR_REL = 1e-9
MIN_BOUNDARY_SEGMENT = 1e-10
QUARTER_TURN = (math.pi / 2.0) * (1.0 - 1e-9)


def _face_boundary_samples(mesh) -> np.ndarray:
    """(F, 3 * BOUNDARY_SAMPLES_PER_EDGE, 3) unit points around each face boundary."""
    v = mesh.vertices
    f = mesh.faces
    ts = np.arange(BOUNDARY_SAMPLES_PER_EDGE, dtype=float) / BOUNDARY_SAMPLES_PER_EDGE
    chunks = []
    for e in range(3):
        a = v[f[:, e]][:, None, :]
        b = v[f[:, (e + 1) % 3]][:, None, :]
        pts = (1.0 - ts)[None, :, None] * a + ts[None, :, None] * b
        chunks.append(pts)
    loop = np.concatenate(chunks, axis=1)
    return loop / np.linalg.norm(loop, axis=2, keepdims=True)


def signed_zero_count(mesh, section_fn) -> int:
    """Sum of face-local degrees of the traceless part (p, q) of a section.

    section_fn maps an (N, 3) array of unit sphere points to arrays
    (t, p, q) expressed in the standard tangent frame at each point.
    Faces are trivialized from their centroid frame, so the total over a
    closed mesh is the Euler number of the traceless operator bundle:
    the sum of the indices of the zeros, whatever they are.

    Each face boundary is sampled BOUNDARY_SAMPLES_PER_EDGE times per
    edge; a boundary segment whose angle step reaches a quarter turn is
    bisected along its great circle until every step is shorter.  Raises
    ZeroOnVertex when |(p, q)| falls to ZERO_FLOOR_REL of its largest
    vertex value at a vertex or boundary sample, or when a segment still
    turning a quarter turn is shorter than MIN_BOUNDARY_SEGMENT; perturb
    the mesh and retry.
    """
    _, pv, qv = section_fn(mesh.vertices)
    norms = np.hypot(pv, qv)
    scale = float(norms.max())
    if scale == 0.0:
        raise ZeroOnVertex("section vanishes identically on the vertices")
    floor = ZERO_FLOOR_REL * scale
    if float(norms.min()) <= floor:
        raise ZeroOnVertex("section vanishes on a mesh vertex")
    centers = unit_rows(mesh.vertices[mesh.faces].mean(axis=1))

    def angles(pts: np.ndarray, frame_centers: np.ndarray) -> np.ndarray:
        _, p, q = section_fn(pts)
        if float(np.hypot(p, q).min()) <= floor:
            raise ZeroOnVertex("section nearly vanishes on a face boundary")
        p, q = transport_pq(pts, frame_centers, p, q)
        return np.arctan2(q, p)

    loop = _face_boundary_samples(mesh)
    F, S, _ = loop.shape
    a = angles(loop.reshape(-1, 3), centers).reshape(F, S)
    # the boundary segments still to count: face, end points (K, 2, 3), end angles (K, 2)
    face = np.repeat(np.arange(F), S)
    ends = np.stack([loop, np.roll(loop, -1, axis=1)], axis=2).reshape(-1, 2, 3)
    ends_a = np.stack([a, np.roll(a, -1, axis=1)], axis=2).reshape(-1, 2)
    turns = np.zeros(F)
    while True:
        d = np.mod(ends_a[:, 1] - ends_a[:, 0] + math.pi, 2.0 * math.pi) - math.pi
        bad = np.abs(d) >= QUARTER_TURN
        turns += np.bincount(face[~bad], weights=d[~bad], minlength=F)
        face, ends, ends_a = face[bad], ends[bad], ends_a[bad]
        if not face.size:
            break
        if float(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).min()) < MIN_BOUNDARY_SEGMENT:
            raise ZeroOnVertex("section hugs zero along a face boundary")
        mid = unit_rows(ends.sum(axis=1))
        mid_a = angles(mid, centers[face])
        face = np.concatenate([face, face])
        ends = np.concatenate([np.stack([ends[:, 0], mid], axis=1), np.stack([mid, ends[:, 1]], axis=1)])
        ends_a = np.concatenate([np.column_stack([ends_a[:, 0], mid_a]),
                                 np.column_stack([mid_a, ends_a[:, 1]])])
    turns /= 2.0 * math.pi
    rounded = np.round(turns)
    if turns.size and float(np.abs(turns - rounded).max()) > 0.25:
        raise LiftFailure("face boundary loop degree did not settle")
    return int(rounded.sum())


# ---------------------------------------------------------------------------
# the single-start loop that the batched descent replaced


def refine_on_sphere(f, x0: np.ndarray, minimize: bool = True,
                     step: float = 0.1, min_step: float = 1e-13,
                     max_sweeps: int = 200) -> tuple[np.ndarray, float]:
    """Local coordinate descent of a scalar f over the unit sphere.

    Moves along the two tangent frame directions with step halving; a
    sweep that improves nothing halves the step.  Deterministic.
    """
    sign = 1.0 if minimize else -1.0
    x = np.asarray(x0, dtype=float)
    x = x / np.linalg.norm(x)
    best = sign * float(f(x))
    h = step
    for _ in range(max_sweeps):
        if h < min_step:
            break
        t1, t2 = tangent_frames(x)
        improved = False
        for d in (t1, -t1, t2, -t2):
            cand = x + h * d
            cand /= np.linalg.norm(cand)
            val = sign * float(f(cand))
            if val < best:
                best = val
                x = cand
                improved = True
        if not improved:
            h *= 0.5
    return x, sign * best


# ---------------------------------------------------------------------------
# the (u, w) unpacking and the chart 2 consistency check.  Chart 2 has
# coordinate 1/z; its representative of a symbol is the chart 1 formula
# applied to the pushed-forward polynomials, and it agrees with the chart 1
# representative once the inversion's frame turn acts on (u, w).


def rep_to_matrix(u, w) -> np.ndarray:
    """Coefficient matrix of (u, w), elementwise over arrays: column 1 (the
    xi1 slot) is p + i q = (u + w)/sqrt(2), column 2 is r + i s =
    i (u - w)/sqrt(2)."""
    pq = (u + w) / SQRT2
    rs = 1j * (u - w) / SQRT2
    return np.array([[pq.real, rs.real], [pq.imag, rs.imag]])


def rotate_rep(u: complex, w: complex, theta: float) -> tuple[complex, complex]:
    """Rotation action on the complex pair: (u, w) -> (e^{i theta} u, e^{3 i theta} w)."""
    return (complex(math.cos(theta), math.sin(theta)) * u,
            complex(math.cos(3.0 * theta), math.sin(3.0 * theta)) * w)


def transition(f: PolyVF) -> PolyVF:
    """Pushforward of a polynomial vector field under z -> 1/z, again of degree <= 2."""
    return PolyVF(-f.a2, -f.a1, -f.a0)


def chart2_symbol(sym: SphereSymbol) -> SphereSymbol:
    """The symbol whose chart 1 formula gives sym's chart 2 representative."""
    return SphereSymbol(v=transition(sym.v), factors=tuple(transition(f) for f in sym.factors))


def chart_transition_angle(z: complex) -> float:
    """Angle the chart 2 frame is turned against the chart 1 frame at z != 0.

    The inversion has complex derivative -1/z^2, so frames rotate by
    pi - 2 arg(z) (equivalently pi + 2 arg(z) modulo 2 pi, which acts the
    same on representatives because e^{3 i pi} = e^{i pi}).
    """
    return math.pi - 2.0 * cmath.phase(z)


def rep_consistency_gap(sym: SphereSymbol, z: complex) -> float:
    """Gap between the live chart 1 representative at z and the chart 2
    one at 1/z (full-quadratic kernel) once frames align; zero to
    rounding for every well formed symbol."""
    u1, w1 = (complex(a[0]) for a in sym.rep_grid(np.array([z])))
    u2, w2 = (complex(a[0]) for a in rep_grid_full(chart2_symbol(sym), np.array([1.0 / z])))
    u, w = rotate_rep(u1, w1, chart_transition_angle(z))
    return math.hypot(abs(u - u2), abs(w - w2))


# ---------------------------------------------------------------------------
# the determinant from the complex pair, and the whole-grid det grid with
# the masks that contouring once kept, which the band sweep of
# (|u|^2, |w|^2) replaced; that band sweep, which the sparse det grid
# replaced; and (|u|^2, |w|^2) of a sphere symbol written out


def det_norm2(u, w) -> tuple[np.ndarray, np.ndarray]:
    """((|u|^2 - |w|^2) / 2, |u|^2 + |w|^2) of arrays of (u, w), in real arithmetic."""
    a = u.real * u.real + u.imag * u.imag
    b = w.real * w.real + w.imag * w.imag
    return 0.5 * (a - b), a + b


def _points(X, Y) -> np.ndarray:
    Z = np.empty(np.broadcast_shapes(np.shape(X), np.shape(Y)), dtype=complex)
    Z.real, Z.imag = X, Y
    return Z


@functools.cache
def abs2_from_rep(rep_fn):
    """abs2_fn of a field given by its rep_fn: |u|^2 and |w|^2 of rep_fn at
    the points X + i Y.  Cached, so two fields on one rep_fn compare equal."""
    def abs2_fn(X, Y):
        u, w = rep_fn(_points(X, Y))
        return u.real * u.real + u.imag * u.imag, w.real * w.real + w.imag * w.imag
    return abs2_fn


def abs2_written_out(sym: SphereSymbol, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(|u|^2, |w|^2) of sym from moduli: L2 = (2 / (r2 + 1))^2,
    |u|^2 = L2 |v|^2 and |w|^2 = ((L2 L2) L2) |f1|^2 |f2|^2 |f3|^2, where
    |z|^2 and |z^2|^2 are r2 and r2 r2, a constant 1 factor is skipped and
    any other polynomial is a full complex quadratic."""
    r2 = X * X + Y * Y
    lam = 2.0 / (r2 + 1.0)
    L2 = lam * lam
    mod2 = {PolyVF.monomial(0): None, PolyVF.monomial(1): r2, PolyVF.monomial(2): r2 * r2}
    for f in (sym.v, *sym.factors):
        if f not in mod2:
            p = _horner_full(f, _points(X, Y))
            mod2[f] = p.real * p.real + p.imag * p.imag
    a = L2 if mod2[sym.v] is None else L2 * mod2[sym.v]
    b = L2 * L2 * L2
    for f in sym.factors:
        if mod2[f] is not None:
            b = b * mod2[f]
    return a, b


def det_grid_whole(fld) -> np.ndarray:
    """F = det M with abs2_fn run once on every node."""
    xs, ys = fld.nodes()
    a, b = fld.abs2_fn(xs[:, None], ys[None, :])
    return 0.5 * (a - b)


def det_grid_bands(fld) -> tuple[np.ndarray, np.ndarray]:
    """(codes, corners) of det_grid from a sweep of every node: abs2_fn on
    16 rows of xs at a time, each band carrying the last row of the one
    before, and the crossed cells of each band from its sign mask."""
    xs, ys = fld.nodes()
    rows, cols = 16, ys.size
    buf = np.empty((rows + 1, cols))
    corner = np.array([0, cols, 1, cols + 1])
    codes, corners = [], []
    for i0 in range(0, xs.size, rows):
        n = min(rows, xs.size - i0)
        a, b = fld.abs2_fn(xs[i0:i0 + n, None], ys)
        band = buf[1:n + 1]
        np.multiply(0.5, a - b, out=band)
        # rows i0 - 1 .. i0 + n - 1, the first band without a carried row
        F = buf[:n + 1] if i0 else band
        S = F >= 0.0
        step = S[:-1] != S[1:]
        cross = step[:, :-1] | step[:, 1:] | (S[:-1, :-1] != S[:-1, 1:])
        k = np.flatnonzero(cross)
        r, j = np.divmod(k, cols - 1)
        codes.append(k + max(i0 - 1, 0) * (cols - 1))
        corners.append(F.ravel()[(r * cols + j)[:, None] + corner])
        buf[0] = buf[n]
    return np.concatenate(codes), np.concatenate(corners)


def crossing_cells_whole(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, corners) of the cells of a whole grid F whose corners do not
    all share the sign F >= 0, from the sign mask and the two edge masks
    and the cell mask: codes i * ny + j, corners at (i, j), (i+1, j),
    (i, j+1), (i+1, j+1)."""
    S = F >= 0.0
    hx = S[:-1, :] != S[1:, :]
    vx = S[:, :-1] != S[:, 1:]
    cell_cross = hx[:, :-1] | hx[:, 1:] | vx[:-1, :] | vx[1:, :]
    codes = np.flatnonzero(cell_cross)
    ci, cj = np.divmod(codes, cell_cross.shape[1])
    return codes, np.column_stack([F[ci, cj], F[ci + 1, cj], F[ci, cj + 1], F[ci + 1, cj + 1]])


def neighbour_walks(tail: np.ndarray, head: np.ndarray, n: int) -> list[tuple[list[int], bool]]:
    """Chains of the undirected graph on 0..n-1 with the edges tail[k]-head[k],
    every degree 1 or 2, by walking sorted neighbour lists: paths first, each
    from its lesser end, in ascending order of it; then cycles, each from its
    least element toward the lesser of its two neighbours.  (chain, closed)."""
    if n == 0:
        return []
    # each element has one or two neighbours; both lists hold them in
    # ascending order (-1 for none)
    tail, head = np.concatenate([tail, head]), np.concatenate([head, tail])
    order = np.lexsort((head, tail))
    tail, head = tail[order], head[order]
    first = np.searchsorted(tail, np.arange(n))
    degree = np.bincount(tail, minlength=n)
    nb_lo = head[first].tolist()
    nb_hi = np.where(degree == 2, head[np.minimum(first + 1, tail.size - 1)], -1).tolist()

    visited = [False] * n
    chains: list[tuple[list[int], bool]] = []

    def walk(start: int) -> list[int]:
        chain = [start]
        visited[start] = True
        cur = start
        while True:
            for nxt in (nb_lo[cur], nb_hi[cur]):
                if nxt >= 0 and not visited[nxt]:
                    break
            else:
                return chain
            chain.append(nxt)
            visited[nxt] = True
            cur = nxt

    for e in np.nonzero(degree == 1)[0].tolist():
        if not visited[e]:
            chains.append((walk(e), False))
    for e in range(n):
        if not visited[e]:
            chains.append((walk(e), True))
    return chains


# ---------------------------------------------------------------------------
# the sphere symbol kernel that the fixed-order one replaced: every
# polynomial a full complex quadratic, s multiplied into ones.  On arrays
# of 256 KiB or more numpy elides the temporary in s * f and computes f * s,
# so compare against it only on smaller arrays.


def _horner_full(f, z):
    return (f.a2 * z + f.a1) * z + f.a0


def rep_grid_full(sym, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam = 2.0 / (1.0 + (Z.real**2 + Z.imag**2))
    u = lam * _horner_full(sym.v, Z)
    s = np.ones_like(Z)
    for f in sym.factors:
        s = s * _horner_full(f, Z)
    return u, lam * lam * lam * s


# ---------------------------------------------------------------------------
# the per-value CSV writer that the row formatter replaced


def polylines_csv_per_value(components) -> str:
    lines = ["curve_id,x1,x2,kernel_angle_lifted"]
    for cid, comp in enumerate(components):
        for (x, y), ang in zip(comp.base.polyline, comp.kernel_angles):
            lines.append(f"{cid},{fmt_float(x)},{fmt_float(y)},{fmt_float(ang)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the per-value OBJ writers that the block formatter replaced: lines
# without their newline, appended to out


def obj_vertex_lines(vertices: np.ndarray, out: list[str]) -> None:
    v = np.asarray(vertices, dtype=float)
    if not np.isfinite(v).all():
        raise InputError("non-finite value in serialized output")
    # + 0.0 turns -0.0 into 0.0, as fmt_float does
    out.extend(f"v {_g17(x)} {_g17(y)} {_g17(z)}" for x, y, z in (v + 0.0).tolist())


def obj_face_lines(faces: np.ndarray, offset: int, out: list[str]) -> None:
    rows = (np.asarray(faces, dtype=int) + 1 + offset).tolist()
    out.extend("f %d %d %d" % (a, b, c) for a, b, c in rows)


# ---------------------------------------------------------------------------
# the np.cross tangent frames that the written-out cross product replaced


def tangent_frames_cross(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    a = np.where(np.abs(pts[:, 2:3]) > 0.9, [[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]])
    t1 = np.cross(a, pts)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(pts, t1)
    if single:
        return t1[0], t2[0]
    return t1, t2


# ---------------------------------------------------------------------------
# the midpoint-dict icosphere that the edge-table subdivision replaced


def icosphere_loop(subdivisions: int = 0) -> SurfaceMesh:
    verts, faces = _icosahedron()
    verts = [np.array(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}
        new_faces = []

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        for a, b, c in faces:
            ab = midpoint(int(a), int(b))
            bc = midpoint(int(b), int(c))
            ca = midpoint(int(c), int(a))
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = np.array(new_faces)
    return SurfaceMesh(vertices=np.array(verts), faces=faces)


# ---------------------------------------------------------------------------
# the edge-table icosphere that the twin-table subdivision replaced: each
# level finds its edges by np.unique of the half-edge keys, and numbers
# them by their first half-edge through a double argsort


def icosphere_unique(subdivisions: int = 0) -> SurfaceMesh:
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        tail, head = faces.reshape(-1), faces[:, [1, 2, 0]].reshape(-1)
        n = len(verts)
        keys = np.minimum(tail, head) * n + np.maximum(tail, head)
        _, first, half = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        first = np.sort(first)
        lo, hi = np.divmod(keys[first], n)
        mids = unit_rows(verts[lo] + verts[hi])
        ab, bc, ca = (len(verts) + rank[half]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.column_stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]).reshape(-1, 3)
        verts = np.vstack([verts, mids])
    return SurfaceMesh(vertices=verts, faces=faces)


# ---------------------------------------------------------------------------
# the kept boundary from a sort of the kept faces' half-edge keys, whose
# single-face edges are the rim; the gluing sorts the removed faces instead


def boundary_half_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the half-edges on edges of one face only."""
    edge, falling, starts, s = _edge_runs(faces)
    single = starts[:-1] & starts[1:]
    lo, hi = edge[single] >> s, edge[single] & ((1 << s) - 1)
    return np.where(falling[single], hi, lo), np.where(falling[single], lo, hi)


def extract_singular_set_masked(fld, rel_tol: float = CONTOUR_REL_TOL) -> list[SingularCurve]:
    """extract_singular_set with the bisection loop that the live-edge loop
    replaced: every halving gathers and scatters both coordinates and both
    end values of every crossed edge through masks, live or converged; and
    the least vertex of a closed curve from np.lexsort."""
    if not 0.0 < rel_tol < math.inf:
        raise InputError("rel_tol must be positive and finite")
    codes, corners = fld.det_grid()
    max_abs = fld.max_abs_det
    if max_abs <= 1e-14 * max(1.0, fld.max_norm2):
        raise DegenerateField("det M vanishes on the whole grid")
    tol = rel_tol * max_abs
    if codes.size == 0:
        return []

    xs, ys = fld.nodes()
    rows, cols = xs.size, ys.size
    ci, cj = np.divmod(codes, cols - 1)
    # an edge is coded (kind * (nx + 1) + i) * (ny + 1) + j, kind 0 for the
    # edge (i, j)-(i+1, j) and 1 for (i, j)-(i, j+1), so codes sort like
    # (kind, i, j); the sides of a cell in the order S, E, N, W, with the
    # values at their (i, j) ends and at their far ends
    side = np.column_stack([ci * cols + cj, (rows + ci + 1) * cols + cj,
                            ci * cols + cj + 1, (rows + ci) * cols + cj])
    near, far = corners[:, [0, 1, 2, 0]], corners[:, [1, 3, 3, 2]]
    crossed = (near >= 0.0) != (far >= 0.0)
    # refine every crossing edge to a vertex by bisection along the edge;
    # slot holds the edge index of each crossed side of a cell
    edge_keys, first, inverse = np.unique(side[crossed], return_index=True, return_inverse=True)
    slot = np.zeros_like(side)
    slot[crossed] = inverse
    # a crossed cell has two crossing edges, or four at a saddle (parity
    # rules out odd counts).  A segment enters its cell through a crossed
    # side whose counter clockwise first corner (S: SW, E: SE, N: NE, W: NW)
    # has f >= 0, which puts f >= 0 on its left, and leaves through another
    entry = crossed & (corners[:, [0, 1, 3, 2]] >= 0.0)
    entry_slot = slot.copy()
    saddle = crossed.all(axis=1)
    if saddle.any():
        # a center sample picks the branch pairing
        si, sj = ci[saddle], cj[saddle]
        fc = fld.det_at(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
        # a center of the SW corner's sign joins that corner's region, and
        # the branches cut off SE and NW, pairing entry and exit sides in
        # S, E, N, W order; otherwise they cut off SW and NE, crosswise
        cross_pair = np.flatnonzero(saddle)[(fc >= 0.0) != (corners[saddle, 0] >= 0.0)]
        entry_slot[cross_pair] = slot[cross_pair][:, [2, 3, 0, 1]]

    n_edges = edge_keys.size
    vert, node = np.divmod(edge_keys, rows * cols)
    vert = vert.astype(bool)
    ei, ej = np.divmod(node, cols)
    bi = ei + ~vert   # far end (i+1, j) of an "h" edge, (i, j+1) of a "v" edge
    bj = ej + vert
    ax, ay, fa = xs[ei], ys[ej], near[crossed][first]
    bx, by, fb = xs[bi], ys[bj], far[crossed][first]
    # orient brackets so fa >= 0 > fb
    swap = fa < 0.0
    ax[swap], bx[swap] = bx[swap], ax[swap].copy()
    ay[swap], by[swap] = by[swap], ay[swap].copy()
    fa[swap], fb[swap] = fb[swap], fa[swap].copy()

    vx_ = 0.5 * (ax + bx)
    vy_ = 0.5 * (ay + by)
    done = np.zeros(n_edges, dtype=bool)
    res = np.empty(n_edges)
    # endpoints already on the curve count as converged immediately
    for end_x, end_y, end_f in ((ax, ay, fa), (bx, by, fb)):
        hit = ~done & (np.abs(end_f) <= tol)
        vx_[hit], vy_[hit], res[hit] = end_x[hit], end_y[hit], np.abs(end_f[hit])
        done |= hit
    for _ in range(64):
        if done.all():
            break
        act = ~done
        mx = 0.5 * (ax[act] + bx[act])
        my = 0.5 * (ay[act] + by[act])
        fm = fld.det_at(mx, my)
        idx = np.nonzero(act)[0]
        conv = np.abs(fm) <= tol
        vx_[idx], vy_[idx] = mx, my
        res[idx] = np.abs(fm)
        done[idx[conv]] = True
        pos = fm >= 0.0
        upd_pos = idx[~conv & pos]
        upd_neg = idx[~conv & ~pos]
        sel_pos = ~conv & pos
        sel_neg = ~conv & ~pos
        ax[upd_pos], ay[upd_pos], fa[upd_pos] = mx[sel_pos], my[sel_pos], fm[sel_pos]
        bx[upd_neg], by[upd_neg], fb[upd_neg] = mx[sel_neg], my[sel_neg], fm[sel_neg]

    succ = np.full(n_edges, -1)
    succ[entry_slot[entry]] = slot[crossed & ~entry]
    curves = []
    for idxs, closed in _chains(succ):
        x, y = vx_[idxs], vy_[idxs]
        if not (np.any(x != x[0]) or np.any(y != y[0])):
            # every crossing edge converged to one grid node: an isolated
            # zero of f, a point and not a curve
            continue
        if closed:
            if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0.0:   # clockwise
                idxs, x, y = idxs[::-1], x[::-1], y[::-1]
            # from the first least vertex round to it again
            idxs = idxs.take(np.lexsort((y, x))[0] + np.arange(idxs.size + 1), mode="wrap")
        elif (x[-1], y[-1]) < (x[0], y[0]):
            idxs = idxs[::-1]
        pts = np.column_stack([vx_[idxs], vy_[idxs]])
        curves.append(SingularCurve(polyline=pts, closed=closed, length=_polyline_length(pts), residuals=res[idxs]))

    curves.sort(key=lambda c: (-c.length, c.polyline[0, 0], c.polyline[0, 1]))
    return curves
