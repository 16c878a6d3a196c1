"""Eigenline manifolds of symmetric symbol fields over the sphere.

Away from its multiplicity points a symbol field splits into two
eigenvalue branches with eigenline fields.  The eigenline manifold
resolves the conical multiplicity points: remove a small disk around
each point from both branch sheets and glue the resulting boundary
circles through the projectivized eigenspace of the point.  Each conical
point contributes one cylinder whose core circle is parametrized by the
doubled eigenline angle, so the glued surface is closed with

    chi = 2 (2 - k),    genus = k - 1

for k multiplicity points.  The eigenvalue branch rides along as a per
vertex field; its critical points are counted combinatorially by star
sign changes, which reproduces chi exactly.  For a biaxial crystal the
report reads the sheet extrema and the half-trace gradient at each
conical point in closed form from the inverse permittivity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GluingMismatch, InputError, NotConnected, ZeroOnVertex
from .multiplicity import lift_angles
from .spheremesh import (
    MeshTopology,
    SurfaceMesh,
    _edge_table,
    boundary_loops,
    icosphere,
    mesh_topology,
    min_separation,
    tangent_frames,
    transport_pq,
)
# perfbench/tracing.py wraps these four at their eigenline names
from .spheremesh import (  # noqa: F401
    connected_components,
    euler_characteristic,
    is_consistently_oriented,
    refine_on_sphere,
)
from .sym2 import eigenvalues_grid

SHEET1_RADIUS = 0.95
SHEET2_RADIUS = 1.05
LIFT_TOTAL_TOL = 0.15


@dataclass
class CylinderRecord:
    point: np.ndarray
    core: np.ndarray
    angles: np.ndarray          # lifted eigenline angles along the gluing loop
    lift_total: float


@dataclass
class EigenlineManifold:
    """Closed surface carrying the two eigenvalue branches of a section.

    lambda_s holds the eigenvalue branch per vertex: the lower eigenvalue
    on sheet 1, the upper on sheet 2, and on each cylinder core the
    double eigenvalue t/2 of the section at its conical point.
    """

    mesh: SurfaceMesh
    lambda_s: np.ndarray
    cylinders: list[CylinderRecord]
    face_groups: list[tuple[str, int, int]]
    tube_radius: float
    collar: float
    subdivisions: int

    @functools.cached_property
    def topology(self) -> MeshTopology:
        """One pass over the mesh's edge table, made on first use; chi,
        genus, the orientation checks and the component count all read it."""
        return mesh_topology(self.mesh)

    @property
    def chi(self) -> int:
        return self.topology.chi

    @property
    def genus(self) -> int:
        return self.topology.genus


def _angular_dist(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(points @ p, -1.0, 1.0))


def build_eigenline_manifold(section_fn, multiplicity_points: np.ndarray,
                             tube_radius: float = 0.1, collar: float = 0.5,
                             subdivisions: int = 4) -> EigenlineManifold:
    """Glue the two eigenvalue sheets of a section through its conical points.

    section_fn maps (N, 3) unit directions to component arrays (t, p, q)
    in the deterministic tangent frames.  multiplicity_points is a
    (k, 3) array of directions where the section vanishes; a disk of
    angular radius tube_radius (but never less than one vertex) is
    removed around each and replaced by a cylinder through the
    projectivized eigenspace.  k = 0 yields the disjoint sheet pair.
    """
    man = _glue_sheets(section_fn, multiplicity_points, tube_radius, collar, subdivisions)
    # checked once the gluing's temporaries are freed: the edge-table pass
    # on top of them would set the peak memory of the whole build
    if man.cylinders and not man.topology.oriented:
        raise GluingMismatch("glued surface is not consistently oriented")
    return man


def _glue_sheets(section_fn, multiplicity_points: np.ndarray, tube_radius: float,
                 collar: float, subdivisions: int) -> EigenlineManifold:
    if not (0.0 < collar < 1.0):
        raise InputError("collar must sit strictly between 0 and 1")
    if not (0.0 < tube_radius <= 0.5):
        raise InputError("tube_radius must lie in (0, 0.5]")
    pts = np.asarray(multiplicity_points, dtype=float).reshape(-1, 3)
    k = pts.shape[0]
    if k:
        nrm = np.linalg.norm(pts, axis=1)
        if np.any(nrm <= 0.0):
            raise InputError("multiplicity points must be nonzero directions")
        pts = pts / nrm[:, None]
        if min_separation(pts) <= 3.0 * tube_radius:
            raise InputError("multiplicity points closer than 3 tube radii")

    base = icosphere(subdivisions)
    V = base.vertices
    removed = np.zeros(base.n_vertices, dtype=bool)
    for i in range(k):
        d = _angular_dist(V, pts[i])
        inside = d < tube_radius
        if not inside.any():
            inside[np.argmin(d)] = True
        removed |= inside

    faces = base.faces
    while True:
        keep_face = ~removed[faces].any(axis=1)
        kept = faces[keep_face]
        # vertices whose link is pinched would give non simple boundaries
        edges, counts, half = _edge_table(kept)
        bad = np.bincount(edges[counts == 1].reshape(-1), minlength=base.n_vertices) > 2
        if not bad.any():
            break
        removed |= bad

    used = np.zeros(base.n_vertices, dtype=bool)
    used[kept.reshape(-1)] = True
    if k and not used.any():
        raise InputError("tube disks swallow the whole sphere")

    loops_base = boundary_loops(kept, counts, half)
    if len(loops_base) < k:
        # a disk is at least one vertex star, grown by the pinch repair, so
        # on a coarse mesh disks merge although the points are 3 radii apart
        raise InputError(
            f"tube disks merge at subdivision {subdivisions} with tube radius {tube_radius:g}: "
            f"{len(loops_base)} boundary loops for {k} points; use a finer subdivision")
    if len(loops_base) > k:
        raise GluingMismatch(
            f"disk removal produced {len(loops_base)} boundary loops for {k} points")
    loop_of_point: list[list[int]] = []
    assigned = set()
    for i in range(k):
        best, best_d = None, math.inf
        for li, loop in enumerate(loops_base):
            if li in assigned:
                continue
            d = float(_angular_dist(V[loop], pts[i]).mean())
            if d < best_d:
                best, best_d = li, d
        assigned.add(best)
        loop_of_point.append(loops_base[best])

    # index maps for the two sheet copies of the kept vertices
    old_ids = np.nonzero(used)[0]
    new_of_old = -np.ones(base.n_vertices, dtype=int)
    new_of_old[old_ids] = np.arange(old_ids.size)
    n_kept = old_ids.size

    tK, pK, qK = section_fn(V[old_ids])
    lam1, lam2 = eigenvalues_grid(tK, pK, qK)

    verts: list[np.ndarray] = [SHEET1_RADIUS * V[old_ids], SHEET2_RADIUS * V[old_ids]]
    lam: list[np.ndarray] = [lam1, lam2]

    kept_new = new_of_old[kept]
    sheet1_faces = kept_new[:, ::-1]
    sheet2_faces = kept_new + n_kept
    face_list: list[np.ndarray] = [sheet1_faces, sheet2_faces]
    face_groups = [("sheet1", 0, len(sheet1_faces)),
                   ("sheet2", len(sheet1_faces), len(sheet1_faces) + len(sheet2_faces))]

    cylinders: list[CylinderRecord] = []
    next_vert = 2 * n_kept
    face_cursor = face_groups[-1][2]
    for i in range(k):
        loop = np.array(loop_of_point[i], dtype=int)
        L = loop.size
        if L < 3:
            raise GluingMismatch("gluing loop has fewer than 3 vertices")
        p = pts[i]
        loop_pts = V[loop]
        # top eigenline angles in the frame transported from p, so they
        # are comparable along the loop
        _, lp, lq = section_fn(loop_pts)
        pr, qr = transport_pq(loop_pts, p, lp, lq)
        if float(np.hypot(pr, qr).min()) <= 1e-14:
            raise ZeroOnVertex("section vanishes on a gluing loop")
        lift, total = lift_angles(0.5 * np.arctan2(qr, pr), cyclic=True)
        if abs(abs(total) - math.pi) > LIFT_TOTAL_TOL * math.pi:
            raise GluingMismatch(
                f"eigenline angle advances {total:.6f} around point {i}; expected +-pi")

        t1, t2 = tangent_frames(p)
        psi = 2.0 * lift
        rc = tube_radius * collar
        core_pts = (
            math.cos(rc) * p[None, :]
            + math.sin(rc) * (np.cos(psi)[:, None] * t1[None, :] + np.sin(psi)[:, None] * t2[None, :])
        )
        tP, _, _ = section_fn(p[None, :])
        core_ids = np.arange(next_vert, next_vert + L)
        next_vert += L

        verts.append(core_pts)
        lam.append(np.full(L, 0.5 * float(tP[0])))

        a = new_of_old[loop]
        b = new_of_old[loop] + n_kept
        c = core_ids
        jn = np.roll(np.arange(L), -1)
        tri = []
        # ring A (sheet1) to core: traverse a opposite to sheet1's boundary
        tri.append(np.column_stack([a[jn], a, c]))
        tri.append(np.column_stack([a[jn], c, c[jn]]))
        # core to ring B (sheet2): traverse b along the returned loop order
        tri.append(np.column_stack([b, b[jn], c[jn]]))
        tri.append(np.column_stack([b, c[jn], c]))
        cyl_faces = np.vstack(tri)
        face_list.append(cyl_faces)
        face_groups.append((f"cyl_{i}", face_cursor, face_cursor + len(cyl_faces)))
        face_cursor += len(cyl_faces)

        cylinders.append(CylinderRecord(
            point=p.copy(), core=core_ids, angles=lift, lift_total=total,
        ))

    return EigenlineManifold(
        mesh=SurfaceMesh(vertices=np.vstack(verts), faces=np.vstack(face_list)),
        lambda_s=np.concatenate(lam),
        cylinders=cylinders,
        face_groups=face_groups,
        tube_radius=tube_radius,
        collar=collar,
        subdivisions=subdivisions,
    )


# ---------------------------------------------------------------------------
# combinatorial critical point counts


def _tie_break_jitter(n: int, scale: float) -> np.ndarray:
    idx = np.arange(1, n + 1, dtype=float)
    u = np.modf(np.sin(idx * 12.9898) * 43758.5453123)[0]
    return (2.0 * u - 1.0) * 1e-12 * scale


def ds_r_norm(inv_eps: np.ndarray, x: np.ndarray) -> float:
    """|d s_r| at the unit direction x, in closed form.

    The half trace s_r = (tr A - x^T A x)/2 of the diagonal inverse
    permittivity A has sphere gradient -(Ax - (x^T A x) x).
    """
    ax = np.diagonal(inv_eps) * x
    g = ax - (ax[0] * x[0] + ax[1] * x[1] + ax[2] * x[2]) * x
    return math.hypot(*g)


def critical_scan(man: EigenlineManifold) -> dict:
    """Star based critical point census of the eigenvalue field.

    Each vertex contributes 1 - sc/2 to the Euler characteristic, where
    sc counts sign changes of the field around its neighbor cycle; ties
    are broken by a tiny deterministic jitter.  Returns the counts of
    minima, maxima and saddle multiplicity, the Euler characteristic
    they give and the mesh's own, and whether the two agree.
    """
    values = man.lambda_s
    scale = max(float(np.abs(values).max()), 1.0)
    g = values + _tie_break_jitter(values.size, scale)
    faces = man.mesh.faces
    n = man.mesh.n_vertices
    if not np.bincount(faces.reshape(-1), minlength=n).all():
        raise GluingMismatch("isolated vertex in glued surface")
    if not man.topology.oriented:
        raise GluingMismatch("glued surface is not closed and consistently oriented")
    # on a closed oriented mesh face (v, a, b) makes a, b consecutive in v's star
    v = faces.reshape(-1)
    up_a = (g[faces[:, [1, 2, 0]].reshape(-1)] - g[v]) > 0.0
    up_b = (g[faces[:, [2, 0, 1]].reshape(-1)] - g[v]) > 0.0
    sc = np.bincount(v[up_a != up_b], minlength=n)
    n_up = np.bincount(v[up_a], minlength=n)
    is_min = (sc == 0) & (n_up > 0)
    is_max = (sc == 0) & (n_up == 0)
    is_saddle = sc >= 4
    # each star is a cycle, so every sc is even
    chi_combinatorial = n - int(sc.sum()) // 2
    return {
        "minima": int(is_min.sum()),
        "maxima": int(is_max.sum()),
        "saddle_multiplicity": int((sc[is_saddle] // 2 - 1).sum()),
        "chi_from_criticals": chi_combinatorial,
        "chi": man.chi,
        "consistent": chi_combinatorial == man.chi,
    }


def eigenline_report(man: EigenlineManifold, crystal) -> dict:
    """Topology, critical census and crystal data of the manifold as a serializable dict.

    Besides the census, each sheet's extrema come in closed form from the
    principal values a_lo <= a_mid <= a_hi of the crystal's inverse
    permittivity: by Cauchy interlacing sheet 1 spans [a_lo, a_mid] and
    sheet 2 spans [a_mid, a_hi].  Each conical point reports its raw
    |d s_r| value; the derivative condition along a multiplicity curve
    is vacuous for isolated points, so no classification is attempted.
    """
    crit = critical_scan(man)
    a_lo, a_mid, a_hi = sorted(float(v) for v in np.diagonal(crystal.inv_eps))
    conds = [
        {
            "point": [float(c) for c in cyl.point],
            "ds_r_norm": ds_r_norm(crystal.inv_eps, cyl.point),
            "status": "vacuous (isolated multiplicity point); classification deferred",
            "lift_total": cyl.lift_total,
        }
        for cyl in man.cylinders
    ]
    report = {
        "chi": man.chi,
        "cylinders": len(man.cylinders),
        "vertices": man.mesh.n_vertices,
        "faces": man.mesh.n_faces,
        "tube_radius": man.tube_radius,
        "collar": man.collar,
        "subdivisions": man.subdivisions,
        "census": {
            k: crit[k]
            for k in ("minima", "maxima", "saddle_multiplicity",
                      "chi_from_criticals", "consistent")
        },
        "necessary_condition": conds,
        "sheet_extrema": {"sheet1": {"min": a_lo, "max": a_mid},
                          "sheet2": {"min": a_mid, "max": a_hi}},
    }
    try:
        report["genus"] = man.genus
    except NotConnected:
        report["genus"] = None
        report["components"] = man.topology.components
    return report
