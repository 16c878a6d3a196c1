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

from .errors import InputError, NotClosed, NotConnected, TransportFailure, WavesymError

# largest working set that a command may allocate (multiplicity.DET_GRID_BYTE_CAP
# for the det grid): icospheres up to subdivision 9
BYTE_CAP = 2**30
# bytes held per face of an icosphere's finest level, measured with
# tracemalloc at subdivisions 6 to 8: 57-58 B in icosphere itself, 92 B in
# the fresnel command and 198 B in the eigenline command with its OBJ
_FACE_BYTES = 200


@dataclass
class SurfaceMesh:
    """Triangle mesh: vertices (V, 3) float, faces (F, 3) int."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int).reshape(-1, 3)

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_faces(self) -> int:
        return int(self.faces.shape[0])


def _edge_keys(faces: np.ndarray) -> tuple[np.ndarray, int]:
    """(lo << s | hi) << 1 | [tail > head] of each half-edge, and s.

    The keys come corner by corner: a->b of every face, then b->c, then
    c->a, so half-edge c of face i has key c F + i, and each corner's keys
    are built in place in a contiguous row.  s is the bit length of the
    largest vertex id, so hi < 2**s, and int64 holds every key below 2**31
    vertices.  lo << s | hi is lo (2**s - 1) + tail + head: no other (3F,)
    array is made.
    """
    s = max(int(faces.max(initial=0)).bit_length(), 1)
    keys = np.empty((3, len(faces)), dtype=np.int64)
    for c in range(3):
        tail, head, key = faces[:, c], faces[:, (c + 1) % 3], keys[c]
        np.minimum(tail, head, out=key)
        key *= (1 << s) - 1
        key += tail
        key += head
        key <<= 1
        key += tail > head
    return keys.reshape(-1), s


def _edge_runs(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The half-edge keys sorted in place: a run per edge, rising half-edges first.

    Returns per half-edge lo << s | hi and the low bit, a mask of run starts and of the end, and s.
    """
    keys, s = _edge_keys(faces)
    keys.sort()
    falling = np.bitwise_and(keys, 1, out=np.empty(keys.size, dtype=bool), casting="unsafe")
    keys >>= 1
    starts = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:-1])
    return keys, falling, starts, s


class MeshTopology(NamedTuple):
    """A mesh's counts, orientation and components.

    `mesh_topology` reads them from one pass over the edge table of any
    mesh; `build_eigenline_manifold` reads them from the counts of its
    gluing, with no pass over the glued mesh.
    """

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


def _component_count(n_vertices: int, a: np.ndarray, b: np.ndarray, faces: np.ndarray) -> int:
    """Number of vertex components under the edges a-b, over vertices on a face.

    Hook and shortcut (Shiloach and Vishkin, J. Algorithms 3, 1982) on a contracting edge
    list: each round hooks the larger root of every edge onto the smaller, jumps each label
    to its root and keeps the edges between two roots, as root pairs.  It ends, as every
    round hooks at least one root and labels only decrease.
    """
    label = np.arange(n_vertices)
    while a.size:
        np.minimum.at(label, a, b)   # both ways: of two roots only the larger moves
        np.minimum.at(label, b, a)
        while not np.array_equal(up := label[label], label):
            label = up
        a, b = label[a], label[b]
        join = a != b
        a, b = a[join], b[join]
    # each component keeps one root, its least vertex, labelled by itself
    on_face = np.bincount(faces.reshape(-1), minlength=n_vertices) > 0
    return int(np.count_nonzero(on_face & (label == np.arange(n_vertices))))


def mesh_topology(mesh: SurfaceMesh) -> MeshTopology:
    """Closedness, orientation, chi and component count from one sort of the half-edges."""
    edge, falling, starts, s = _edge_runs(mesh.faces)
    hi = edge[starts[:-1]]
    lo = hi >> s
    hi &= (1 << s) - 1
    # runs of two half-edges: a start, one more, then the next start
    open_edges = lo.size - int(np.count_nonzero(starts[:-2] & ~starts[1:-1] & starts[2:]))
    # closed, each run is the half-edges 2i (rising) and 2i + 1 (falling)
    oriented = open_edges == 0 and not falling[::2].any() and bool(falling[1::2].all())
    del edge, falling, starts   # not held through the component count
    return MeshTopology(
        n_vertices=mesh.n_vertices, n_edges=lo.size, n_faces=mesh.n_faces, open_edges=open_edges,
        oriented=oriented, components=_component_count(mesh.n_vertices, lo, hi, mesh.faces))


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F of a closed mesh.  Raises NotClosed on boundary edges."""
    return mesh_topology(mesh).chi


def connected_components(mesh: SurfaceMesh) -> int:
    """Number of vertex components under the edge graph."""
    return mesh_topology(mesh).components


def is_consistently_oriented(mesh: SurfaceMesh) -> bool:
    """Each edge must be traversed exactly once in each direction."""
    return mesh_topology(mesh).oriented


def successor_walks(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paths and cycles of an injective successor array, -1 ending a path:
    the elements walk by walk, the offsets of the walks (n last) and which
    walks are cycles.  A path starts at the element nothing leads into, a
    cycle at its least element; walks come in order of their starts.  Found
    by pointer doubling (Wyllie, 1979), with no loop per element.  A
    self-loop, which no caller makes, would read as a one-element path."""
    n = succ.size
    own = np.arange(n)
    back = own.copy()
    back[succ[succ >= 0]] = own[succ >= 0]
    # jump back, staying at a path's start; low is the least element passed
    up, low = back, own.copy()
    for _ in range(n.bit_length()):
        np.minimum(low, low[up], out=low)
        up = up[up]
    cyclic = back[up] != up
    start = np.where(cyclic, low, up)
    # cut each cycle in front of its least element and count the steps back to the start
    up = np.where(start == own, own, back)
    rank = (up != own).astype(np.int64)
    for _ in range(n.bit_length()):
        rank += rank[up]
        up = up[up]
    order = np.lexsort((rank, start))
    starts = np.flatnonzero(rank[order] == 0)
    return order, np.append(starts, n), cyclic[order[starts]]


def _rim_from_removed(faces: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the boundary half-edges of the kept faces of a closed mesh.

    keep is a mask over `faces`.  The rim is read from the faces not
    kept, usually the few: their half-edges whose edge lies on none of
    the others, reversed, since each edge of a closed oriented mesh is
    run once each way.
    """
    edge, falling, starts, s = _edge_runs(faces[~keep])
    single = starts[:-1] & starts[1:]
    lo, hi = edge[single] >> s, edge[single] & ((1 << s) - 1)
    # a removed half-edge runs lo -> hi unless it falls; its kept twin the other way
    return np.where(falling[single], lo, hi), np.where(falling[single], hi, lo)


def boundary_loops(tail: np.ndarray, head: np.ndarray) -> list[list[int]]:
    """Vertex cycles of the boundary half-edges tail->head of a mesh, in any
    order, each from its least vertex, in ascending order of it."""
    # boundary is traversed opposite to the face direction
    by_head = np.argsort(head)
    heads, tails, sorted_tails = head[by_head], tail[by_head], np.sort(tail)
    # where the sorted heads and tails part or repeat, a vertex is not one head and one tail
    bad = np.flatnonzero((heads != sorted_tails) | np.append(heads[1:] == heads[:-1], False))
    if bad.size:
        raise WavesymError(f"boundary is pinched at vertex {min(heads[bad[0]], sorted_tails[bad[0]])}")
    order, offsets, _ = successor_walks(np.searchsorted(heads, tails))
    loops = heads[order].tolist()
    return [loops[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


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


# per corner c of a face, the half-edges of its four children (child j's
# half-edge c is 3 j + c) that halve the face's half-edge c from its tail
# and into its head, and the inner half-edges with their twins
_FIRST_HALF = np.array([0, 4, 8])
_SECOND_HALF = np.array([3, 7, 2])
_INNER = np.array([1, 5, 6, 9, 10, 11])
_INNER_TWIN = np.array([11, 9, 10, 5, 6, 1])


def _child_twins(twin: np.ndarray) -> np.ndarray:
    """The twin table of the four-way split of every face; the first half
    of a half-edge pairs with the second half of its twin."""
    nf = twin.size // 3
    base = 12 * np.arange(nf)[:, None]
    first, second = (base + _FIRST_HALF).reshape(-1), (base + _SECOND_HALF).reshape(-1)
    out = np.empty((nf, 12), dtype=np.intp)
    out[:, _FIRST_HALF] = second[twin].reshape(nf, 3)
    out[:, _SECOND_HALF] = first[twin].reshape(nf, 3)
    out[:, _INNER] = base + _INNER_TWIN
    return out.reshape(-1)


def icosphere(subdivisions: int = 0) -> SurfaceMesh:
    """Unit icosphere with poles at (0, 0, +-1); 20 * 4^n faces.

    Each level keeps the vertices of the one before as a prefix and
    appends the edge midpoints, numbered by first appearance in the
    face-major half-edge walk a->b, b->c, c->a; the midpoint of an edge
    is m / |m| with m = V[tail] + V[head] of its first half-edge.  Face i
    of a level becomes faces 4i..4i+3 of the next, (a, ab, ca),
    (ab, b, bc), (ca, bc, c), (ab, bc, ca).

    The edges come from a twin table carried from level to level:
    half-edge 3 i + c runs from corner c of face i to corner c + 1, and
    twin[h] is the other half-edge of its edge, so an edge's first
    half-edge is the one below its twin.  The finest level needs none.
    A level whose faces could need more than BYTE_CAP is refused with
    InputError before anything is allocated.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    # the clamped exponent prices an absurd level without computing 4^level
    if 20 * 4 ** min(subdivisions, 32) * _FACE_BYTES > BYTE_CAP:
        raise InputError(f"subdivision {subdivisions} may need {_FACE_BYTES} bytes for each of its "
                         f"20 * 4^{subdivisions} faces, above the {BYTE_CAP:,}-byte cap")
    corners, faces = _icosahedron()
    verts = np.empty((10 * 4**subdivisions + 2, 3))
    n = len(corners)
    verts[:n] = corners
    # each edge's two half-edges are neighbours in the order of their keys;
    # key c F + i is half-edge 3 i + c
    order = np.argsort(_edge_keys(faces)[0] >> 1, kind="stable")
    by_edge = (3 * (order % len(faces)) + order // len(faces)).reshape(-1, 2)
    twin = np.empty(by_edge.size, dtype=np.intp)
    twin[by_edge[:, 0]], twin[by_edge[:, 1]] = by_edge[:, 1], by_edge[:, 0]
    for level in range(subdivisions):
        tail = faces.reshape(-1)
        first = np.flatnonzero(twin > np.arange(twin.size))
        mid = np.empty(twin.size, dtype=np.intp)
        mid[first] = np.arange(n, n + first.size)
        mid[twin[first]] = mid[first]
        verts[n:n + first.size] = unit_rows(verts[tail[first]] + verts[tail[twin[first]]])
        n += first.size
        ab, bc, ca = mid.reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.column_stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca]).reshape(-1, 3)
        if level < subdivisions - 1:
            twin = _child_twins(twin)
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
