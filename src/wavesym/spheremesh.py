"""Triangle meshes on the unit sphere and their combinatorics.

The icosphere here is the polar orientation: vertices at both poles plus
two pentagonal rings, so (0, 0, +-1) are exact mesh vertices at every
subdivision level.  Midpoint subdivision is deterministic, which keeps
every export byte reproducible: each level appends the edge midpoints
numbered by first appearance in the face-major half-edge walk (a->b,
b->c, c->a of face 0, then of face 1, ...), and the four children of
each face follow one another in its place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotClosed, NotConnected, TransportFailure, WavesymError


@dataclass
class SurfaceMesh:
    """Triangle mesh: vertices (V, 3) float, faces (F, 3) int."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_faces(self) -> int:
        return int(self.faces.shape[0])


def _half_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the 3F half-edges a->b, b->c, c->a, face by face."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    return faces.reshape(-1), faces[:, [1, 2, 0]].reshape(-1)


def _edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique undirected edges of a triangle list.

    Returns (edges, counts, half): the sorted vertex pairs (E, 2), the
    number of faces on each edge, and the edge id of every half-edge in
    the order of `_half_edges`.
    """
    keys, n = _edge_keys(faces)
    keys, half, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return np.column_stack([keys // n, keys % n]), counts, half


def _edge_keys(faces: np.ndarray) -> tuple[np.ndarray, int]:
    """lo * n + hi for the undirected edge of every half-edge, and n.

    Built in place so that only the keys are alive while np.unique sorts
    them: its own copies make the peak memory of a mesh pass.
    """
    tail, head = _half_edges(faces)
    hi = np.maximum(tail, head)
    n = int(hi.max(initial=0)) + 1
    keys = np.minimum(tail, head)
    keys *= n
    keys += hi
    return keys, n


class MeshTopology(NamedTuple):
    """What one pass over a mesh's edge table tells; see `mesh_topology`."""

    n_vertices: int
    n_edges: int
    n_faces: int
    open_edges: int     # edges not shared by exactly two faces
    oriented: bool      # closed, and every edge traversed once in each direction
    components: int     # vertex components of the edge graph, faceless vertices not counted

    @property
    def closed(self) -> bool:
        return self.open_edges == 0

    @property
    def chi(self) -> int:
        """V - E + F of a closed mesh.  Raises NotClosed on boundary edges."""
        if self.open_edges:
            raise NotClosed(f"{self.open_edges} edges are not shared by exactly two faces")
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def genus(self) -> int:
        """(2 - chi)/2 for a closed connected orientable mesh."""
        if self.components != 1:
            raise NotConnected("genus requires a connected surface")
        chi = self.chi
        if chi % 2 != 0:
            raise WavesymError(f"odd Euler characteristic {chi}; mesh is not an orientable surface")
        return (2 - chi) // 2


def _component_count(n_vertices: int, edges: np.ndarray, faces: np.ndarray) -> int:
    """Number of vertex components under the edge graph, over vertices on a face."""
    a, b = edges[:, 0], edges[:, 1]
    # min-label propagation: every label is a vertex of the same component,
    # never above its own id; hooking the labels (not the end vertices) and
    # pointer jumping keep the number of rounds logarithmic
    label = np.arange(n_vertices)
    while True:
        la, lb = label[a], label[b]
        low = np.minimum(la, lb)
        new = label.copy()
        np.minimum.at(new, la, low)
        np.minimum.at(new, lb, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            # each component keeps one root, its least vertex, labelled by itself
            on_face = np.bincount(faces.reshape(-1), minlength=n_vertices) > 0
            return int(np.count_nonzero(on_face & (label == np.arange(n_vertices))))
        label = new


def mesh_topology(mesh: SurfaceMesh) -> MeshTopology:
    """Closedness, orientation, chi and component count from one edge table."""
    edges, counts, half = _edge_table(mesh.faces)
    tail, head = _half_edges(mesh.faces)
    open_edges = int(np.count_nonzero(counts != 2))
    rising = np.bincount(half[tail < head], minlength=counts.size)
    return MeshTopology(
        n_vertices=mesh.n_vertices, n_edges=len(edges), n_faces=mesh.n_faces,
        open_edges=open_edges, oriented=open_edges == 0 and bool(np.all(rising == 1)),
        components=_component_count(mesh.n_vertices, edges, mesh.faces))


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F of a closed mesh.  Raises NotClosed on boundary edges."""
    return mesh_topology(mesh).chi


def connected_components(mesh: SurfaceMesh) -> int:
    """Number of vertex components under the edge graph."""
    return mesh_topology(mesh).components


def is_consistently_oriented(mesh: SurfaceMesh) -> bool:
    """Each edge must be traversed exactly once in each direction."""
    return mesh_topology(mesh).oriented


def boundary_loops(faces: np.ndarray, counts: np.ndarray, half: np.ndarray) -> list[list[int]]:
    """Vertex cycles of the boundary (edges used by exactly one face).

    counts and half are the faces' edge table, as `_edge_table` returns them.
    """
    tail, head = _half_edges(faces)
    on_boundary = counts[half] == 1
    # boundary is traversed opposite to the face direction
    directed = dict(zip(head[on_boundary].tolist(), tail[on_boundary].tolist()))
    loops: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(directed):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = directed[start]
        while cur != start:
            if cur in seen:
                raise WavesymError(f"boundary is pinched at vertex {cur}")
            loop.append(cur)
            seen.add(cur)
            cur = directed[cur]
        loops.append(loop)
    return loops


_PHI_RING_Z = 1.0 / math.sqrt(5.0)
_RING_R = 2.0 / math.sqrt(5.0)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    verts = [(0.0, 0.0, 1.0)]
    for k in range(5):
        a = 2.0 * math.pi * k / 5.0
        verts.append((_RING_R * math.cos(a), _RING_R * math.sin(a), _PHI_RING_Z))
    for k in range(5):
        a = 2.0 * math.pi * k / 5.0 + math.pi / 5.0
        verts.append((_RING_R * math.cos(a), _RING_R * math.sin(a), -_PHI_RING_Z))
    verts.append((0.0, 0.0, -1.0))
    top = [(0, 1 + k, 1 + (k + 1) % 5) for k in range(5)]
    upper = [(1 + k, 6 + k, 1 + (k + 1) % 5) for k in range(5)]
    lower = [(1 + (k + 1) % 5, 6 + k, 6 + (k + 1) % 5) for k in range(5)]
    bottom = [(11, 6 + (k + 1) % 5, 6 + k) for k in range(5)]
    return np.array(verts), np.array(top + upper + lower + bottom)


def icosphere(subdivisions: int = 0) -> SurfaceMesh:
    """Unit icosphere with poles at (0, 0, +-1); 20 * 4^n faces.

    Each level keeps the vertices of the one before as a prefix and
    appends the edge midpoints, numbered by first appearance in the
    face-major half-edge walk a->b, b->c, c->a; the midpoint of an edge
    is m / |m| with m = V[tail] + V[head] of its first half-edge.  Face i
    of a level becomes faces 4i..4i+3 of the next, (a, ab, ca),
    (ab, b, bc), (ca, bc, c), (ab, bc, ca).
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        keys, _ = _edge_keys(faces)
        _, first, half = np.unique(keys, return_index=True, return_inverse=True)
        # edges numbered by their first half-edge in the face-major walk
        rank = np.argsort(np.argsort(first))
        first = np.sort(first)
        tail, head = _half_edges(faces)
        mids = unit_rows(verts[tail[first]] + verts[head[first]])
        ab, bc, ca = (len(verts) + rank[half]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.column_stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]).reshape(-1, 3)
        verts = np.vstack([verts, mids])
    return SurfaceMesh(vertices=verts, faces=faces)


def tangent_frames(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent frames (t1, t2) at unit points x.

    t1 = normalize(a cross x) with a = e3, switching to a = e1 when
    |<x, e3>| > 0.9; t2 = x cross t1.  Vectorized over (..., 3).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    polar = np.abs(pts[:, 2]) > 0.9
    a = (np.where(polar, 1.0, 0.0), np.zeros(len(pts)), np.where(polar, 0.0, 1.0))
    t1 = _cross(a, pts.T)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = _cross(pts.T, t1.T)
    if single:
        return t1[0], t2[0]
    return t1, t2


def _cross(a, b) -> np.ndarray:
    """Rows of a cross b from the columns (a0, a1, a2) and (b0, b1, b2).

    The products and differences are np.cross's own, in its order, so the
    rows are bit-equal to it; writing them out skips its axis handling,
    which dominated the small calls of the descents and the gluing.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    out = np.empty((len(a0), 3))
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def rotate_pq(p: np.ndarray, q: np.ndarray, angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate 2-vectors (p, q) by the given angles."""
    c, s = np.cos(angle), np.sin(angle)
    return c * p - s * q, s * p + c * q


def transport_pq(points: np.ndarray, centers: np.ndarray, p: np.ndarray,
                 q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-express (p, q) given in each point's own frame in the frame of its center.

    points is (N, 3); centers is (M, 3) with M dividing N, each center
    serving the next N/M points, or one (3,) center for all.  The center
    frame is carried to each point by tangent projection of its t1.
    Raises TransportFailure where that projection degenerates.
    """
    t1c, _ = tangent_frames(centers)
    if t1c.ndim == 2:
        t1c = np.repeat(t1c, len(points) // len(t1c), axis=0)
    proj = t1c - np.einsum("ij,ij->i", np.broadcast_to(t1c, points.shape), points)[:, None] * points
    nrm = np.linalg.norm(proj, axis=1)
    if float(nrm.min()) <= 1e-12:
        raise TransportFailure("point lies on the first frame axis of its center")
    proj /= nrm[:, None]
    t1x, t2x = tangent_frames(points)
    delta = np.arctan2(np.einsum("ij,ij->i", proj, t2x), np.einsum("ij,ij->i", proj, t1x))
    return rotate_pq(p, q, -2.0 * delta)


def min_separation(dirs: np.ndarray) -> float:
    """Smallest angle between two rows of unit directions; pi for fewer than two."""
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    i, j = np.triu_indices(len(dirs), 1)
    if not i.size:
        return math.pi
    # acos decreases, so the smallest angle is the acos of the largest cosine;
    # the fixed-order sum rounds alike on every BLAS kernel, a gemm does not
    a, b = dirs[i], dirs[j]
    cos = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]
    return math.acos(float(np.clip(cos.max(), -1.0, 1.0)))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows of an (N, 3) array scaled to unit length.

    sqrt(vecdot) rounds like np.linalg.norm of each row on its own; the
    axis=1 norm, sqrt(sum(x * x)) and einsum forms all differ from it in
    the last bit on a share of rows.
    """
    return x / np.sqrt(np.vecdot(x, x))[:, None]


# refine_on_sphere: first step, the step below which a row stops, and the sweep cap
REFINE_STEP = 0.1
REFINE_MIN_STEP = 1e-13
REFINE_MAX_SWEEPS = 200


def refine_on_sphere(f, x0: np.ndarray,
                     minimize: bool | np.ndarray = True) -> tuple[np.ndarray, np.ndarray | float]:
    """Local coordinate descent of a scalar f over the unit sphere, one row per start.

    x0 is (N, 3) or (3,); f maps an (N, 3) array of unit points to (N,)
    values.  minimize is one bool for every row or an (N,) bool array;
    a row that maximizes descends on -f, and a sign of +-1.0 is exact.
    Each sweep tries x + h t1, x - h t1, x + h t2, x - h t2 in
    that order along the tangent frame of the sweep's start, and a row
    takes a candidate only when it is strictly better.  h starts at
    REFINE_STEP; a sweep that improves nothing halves that row's h; a row
    stops once h < REFINE_MIN_STEP, and every row after REFINE_MAX_SWEEPS
    sweeps.  Each row follows the path it would follow alone.  Returns
    (x, f(x)) shaped like x0: (N, 3) and (N,), or (3,) and a float.
    """
    x = np.asarray(x0, dtype=float)
    single = x.ndim == 1
    x = unit_rows(np.atleast_2d(x))
    sign = np.broadcast_to(np.where(minimize, 1.0, -1.0), len(x))
    best = sign * f(x)
    h = np.full(len(x), REFINE_STEP)
    for _ in range(REFINE_MAX_SWEEPS):
        rows = np.flatnonzero(h >= REFINE_MIN_STEP)
        if not rows.size:
            break
        xr, br, hr, sr = x[rows], best[rows], h[rows, None], sign[rows]
        t1, t2 = tangent_frames(xr)
        improved = np.zeros(rows.size, dtype=bool)
        for d in (t1, -t1, t2, -t2):
            cand = unit_rows(xr + hr * d)
            val = sr * f(cand)
            better = val < br
            xr[better] = cand[better]
            br[better] = val[better]
            improved |= better
        x[rows] = xr
        best[rows] = br
        h[rows[~improved]] *= 0.5
    if single:
        return x[0], float(sign[0] * best[0])
    return x, sign * best
