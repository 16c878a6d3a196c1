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

import math
from dataclasses import dataclass

import numpy as np

from .errors import GluingMismatch, InputError, NotConnected, ZeroOnVertex
from .multiplicity import lift_angles
from .spheremesh import (
    MeshTopology,
    SurfaceMesh,
    _rim_from_removed,
    boundary_loops,
    icosphere,
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
# depth of each cylinder's core ring, as a fraction of the tube radius
CORE_COLLAR = 0.5
# faces per block of the critical scan: the corner values of a block take
# 768 KiB, below the 1 MiB from which malloc maps every block afresh (see
# cli.MALLOC_MMAP_THRESHOLD) and the kernel faults in each of its pages
SCAN_BLOCK_FACES = 32768


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
    double eigenvalue t/2 of the section at its conical point.  topology
    is the mesh's, which `build_eigenline_manifold` reads from the
    counts of its gluing.
    """

    mesh: SurfaceMesh
    lambda_s: np.ndarray
    cylinders: list[CylinderRecord]
    face_groups: list[tuple[str, int, int]]
    tube_radius: float
    subdivisions: int
    topology: MeshTopology

    @property
    def chi(self) -> int:
        return self.topology.chi

    @property
    def genus(self) -> int:
        return self.topology.genus


def build_eigenline_manifold(section_fn, multiplicity_points: np.ndarray,
                             tube_radius: float = 0.1, subdivisions: int = 4) -> EigenlineManifold:
    """Glue the two eigenvalue sheets of a section through its conical points.

    section_fn maps (N, 3) unit directions to component arrays (t, p, q)
    in the deterministic tangent frames.  multiplicity_points is a
    (k, 3) array of directions where the section vanishes; a disk of
    angular radius tube_radius (but never less than one vertex) is
    removed around each and replaced by a cylinder through the
    projectivized eigenspace, its core ring at the angle
    CORE_COLLAR * tube_radius from the point.  k = 0 yields the disjoint
    sheet pair.

    The topology comes from the gluing's counts, with no pass over the
    glued mesh.  Let K be the kept faces of the sphere: n_kept vertices,
    n_faces faces and a rim of `ring` half-edges.  The glued mesh is
    closed and oriented.  Each sheet copies K under an injective
    relabelling, sheet 1 reversed, so K's interior edges pair within
    each sheet as the icosphere's twins do.  The seam check makes every
    rim half-edge run loop[j+1] -> loop[j] of its loop, so each rim edge
    pairs with the cylinder face on that loop, on both sheets; the
    cylinder's own edges pair among its faces.  So V = 2 n_kept + ring,
    F = 2 n_faces + 4 ring and E = 3F/2, and chi = 2 chi(K) with
    chi(K) = n_kept - (3 n_faces + ring)/2 + n_faces.  The pinch repair
    and the loop count make K a surface whose boundary is exactly k
    circles.  A compact subsurface of the sphere with c components and
    b boundary circles has chi = 2c - b, so K has c = (chi(K) + k)/2
    components.  For k >= 1 every component of K meets a loop, else it
    would be the whole sphere, and that loop's cylinder joins the
    component's two sheet copies: the glued mesh has c components.  For
    k = 0 it has two, the sheets.
    """
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
    # a disk is the vertices within tube_radius of its point, compared by
    # cosine, and always the nearest vertex
    cos_radius = math.cos(tube_radius)
    for p in pts:
        c = V @ p
        inside = c > cos_radius
        inside[np.argmax(c)] = True
        removed |= inside

    faces = base.faces
    while True:
        keep_face = ~(removed[faces[:, 0]] | removed[faces[:, 1]] | removed[faces[:, 2]])
        tail, head = _rim_from_removed(faces, keep_face)
        # vertices whose link is pinched would give non simple boundaries
        bad = np.bincount(np.concatenate([tail, head]), minlength=base.n_vertices) > 2
        if not bad.any():
            break
        removed |= bad

    if k and not keep_face.any():
        raise InputError("tube disks swallow the whole sphere")

    loops_base = boundary_loops(tail, head)
    if len(loops_base) < k:
        # a disk is at least one vertex star, grown by the pinch repair, so
        # on a coarse mesh disks merge although the points are 3 radii apart
        raise InputError(
            f"tube disks merge at subdivision {subdivisions} with tube radius {tube_radius:g}: "
            f"{len(loops_base)} boundary loops for {k} points; use a finer subdivision")
    if len(loops_base) > k:
        raise GluingMismatch(
            f"disk removal produced {len(loops_base)} boundary loops for {k} points")
    loop_of_point: list[np.ndarray] = []
    free = list(range(len(loops_base)))
    for i in range(k):
        best = max(free, key=lambda li: float((V[loops_base[li]] @ pts[i]).mean()))
        free.remove(best)
        loop_of_point.append(np.array(loops_base[best], dtype=int))
    # the seam check: every rim half-edge runs loop[j+1] -> loop[j] of its
    # loop, as the cylinder faces below expect on both sheets (tail[:0]
    # keeps the concatenation defined at k = 0)
    n = base.n_vertices
    seam = [np.roll(loop, -1) * n + loop for loop in loop_of_point]
    if not np.array_equal(np.sort(np.concatenate(seam + [tail[:0]])), np.sort(tail * n + head)):
        raise GluingMismatch("glued surface is not consistently oriented")

    # both sheets, then a core circle per cylinder, in one vertex and one face
    # array; the loops hold each rim vertex once.  Sheet 1's slot holds the
    # kept faces of the sphere until sheet 2 is built from them
    n_faces, ring = int(np.count_nonzero(keep_face)), len(tail)
    all_faces = np.empty((2 * n_faces + 4 * ring, 3), dtype=int)
    kept = np.compress(keep_face, faces, axis=0, out=all_faces[:n_faces])

    # index maps for the two sheet copies of the kept vertices
    used = np.zeros(base.n_vertices, dtype=bool)
    used[kept.reshape(-1)] = True
    old_ids = np.nonzero(used)[0]
    new_of_old = -np.ones(base.n_vertices, dtype=int)
    new_of_old[old_ids] = np.arange(old_ids.size)
    n_kept = old_ids.size
    chi_k = n_kept - (3 * n_faces + ring) // 2 + n_faces
    if (chi_k + k) % 2 or chi_k + k < 2:
        raise GluingMismatch(
            f"kept sphere region has chi {chi_k} and {k} boundary loops, as no subsurface of the sphere has")
    topology = MeshTopology(
        n_vertices=2 * n_kept + ring, n_edges=3 * n_faces + 6 * ring, n_faces=2 * n_faces + 4 * ring,
        open_edges=0, oriented=True, components=(chi_k + k) // 2 if k else 2)

    verts = np.empty((2 * n_kept + ring, 3))
    lam = np.empty(2 * n_kept + ring)
    kept_v = V[old_ids]
    tK, pK, qK = section_fn(kept_v)
    lam[:n_kept], lam[n_kept:2 * n_kept] = eigenvalues_grid(tK, pK, qK)
    np.multiply(SHEET1_RADIUS, kept_v, out=verts[:n_kept])
    np.multiply(SHEET2_RADIUS, kept_v, out=verts[n_kept:2 * n_kept])
    sheet2 = all_faces[n_faces:2 * n_faces]
    np.take(new_of_old, kept, out=sheet2, mode="clip")     # every index is in range
    kept[:] = sheet2[:, ::-1]
    sheet2 += n_kept
    face_groups = [("sheet1", 0, n_faces), ("sheet2", n_faces, 2 * n_faces)]

    cylinders: list[CylinderRecord] = []
    next_vert = 2 * n_kept
    face_cursor = 2 * n_faces
    for i in range(k):
        loop = loop_of_point[i]
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
        rc = tube_radius * CORE_COLLAR
        core_ids = np.arange(next_vert, next_vert + L)
        verts[core_ids] = (
            math.cos(rc) * p[None, :]
            + math.sin(rc) * (np.cos(psi)[:, None] * t1[None, :] + np.sin(psi)[:, None] * t2[None, :])
        )
        tP, _, _ = section_fn(p[None, :])
        lam[core_ids] = 0.5 * float(tP[0])
        next_vert += L

        a = new_of_old[loop]
        b = new_of_old[loop] + n_kept
        c = core_ids
        jn = np.roll(np.arange(L), -1)
        cyl_faces = all_faces[face_cursor:face_cursor + 4 * L].reshape(4, L, 3)
        # ring A (sheet1) to core: traverse a opposite to sheet1's boundary
        cyl_faces[0] = np.column_stack([a[jn], a, c])
        cyl_faces[1] = np.column_stack([a[jn], c, c[jn]])
        # core to ring B (sheet2): traverse b along the returned loop order
        cyl_faces[2] = np.column_stack([b, b[jn], c[jn]])
        cyl_faces[3] = np.column_stack([b, c[jn], c])
        face_groups.append((f"cyl_{i}", face_cursor, face_cursor + 4 * L))
        face_cursor += 4 * L

        cylinders.append(CylinderRecord(
            point=p.copy(), core=core_ids, angles=lift, lift_total=total,
        ))

    return EigenlineManifold(
        mesh=SurfaceMesh(vertices=verts, faces=all_faces),
        lambda_s=lam,
        cylinders=cylinders,
        face_groups=face_groups,
        tube_radius=tube_radius,
        subdivisions=subdivisions,
        topology=topology,
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
    sc = np.zeros(n, dtype=np.intp)
    n_up = np.zeros(n, dtype=np.intp)
    for lo in range(0, len(faces), SCAN_BLOCK_FACES):
        block = faces[lo:lo + SCAN_BLOCK_FACES]
        corner = g[block]
        up_a, up_b = np.empty(block.shape, dtype=bool), np.empty(block.shape, dtype=bool)
        for c in range(3):
            np.greater(corner[:, (c + 1) % 3], corner[:, c], out=up_a[:, c])
            np.greater(corner[:, (c + 2) % 3], corner[:, c], out=up_b[:, c])
        v = block.reshape(-1)
        sc += np.bincount(v[(up_a != up_b).reshape(-1)], minlength=n)
        n_up += np.bincount(v[up_a.reshape(-1)], minlength=n)
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
        "collar": CORE_COLLAR,
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
