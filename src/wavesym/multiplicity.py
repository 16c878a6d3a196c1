"""Multiplicity sets of 2x2 symbol fields over planar charts.

A chart field assigns to every chart point x the complex pair (u, w) of
a symbol, whose coefficient matrix M maps a covector xi to the traceless
part of the operator the symbol assigns to xi (see sym2).  The
multiplicity locus of the field projects to the zero set of
f = det M = (|u|^2 - |w|^2) / 2, which is extracted here by marching
squares with edgewise bisection.  On a closed extracted curve the kernel
line of M turns by an integer number of half turns; that integer
classifies the multiplicity curve as a (2, m) torus knot or link.

Everything is deterministic: grids, traversal order, tie breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateField,
    InputError,
    LiftFailure,
    RankZero,
)
from .serialize import float_row_lines, join_lines
from .spheremesh import tangent_frames, transport_pq
from .sym2 import det_norm2, kernel_angle

CONTOUR_REL_TOL = 1e-10
GRADIENT_FLOOR_REL = 1e-6
WINDING_RESIDUAL = 0.1
_JUMP_LIMIT = (math.pi / 2.0) * (1.0 - 1e-9)
# rows of xs per rep_fn call in det_grid.  Swept over 4 to 64 at grid 2048
# on a 2.1 GHz Xeon with 2 MiB of L2 per core: 8 to 24 rows were equally fast
# (within 4%), 4 and 32 rows 10-20% slower, 64 about 30% slower
DET_BAND_ROWS = 16
# peak bytes per node of the det grid and its contouring: F (float64) plus
# the sign, two edge-crossing and cell-crossing masks (bool) ...
_GRID_BYTES_PER_NODE = 8 + 4
# ... plus, per node of one band, the temporaries of rep_fn and det_norm2
# (at most 105 B for the sphere symbols under tracemalloc)
_BAND_BYTES_PER_NODE = 160
# largest det_grid_peak_bytes a ChartSymbolField accepts: square grids up to 9352
DET_GRID_BYTE_CAP = 2**30
# points on the local_degree circle
LOCAL_DEGREE_SAMPLES = 180


def det_grid_peak_bytes(nx: int, ny: int) -> int:
    """Peak working set of det_grid plus contouring on an nx x ny grid."""
    cols = int(ny) + 1
    rows = int(nx) + 1
    return rows * cols * _GRID_BYTES_PER_NODE + min(DET_BAND_ROWS, rows) * cols * _BAND_BYTES_PER_NODE


def _chart_points(X, Y) -> np.ndarray:
    """Complex chart coordinates X + i Y, built without complex arithmetic."""
    Z = np.empty(np.broadcast_shapes(np.shape(X), np.shape(Y)), dtype=complex)
    Z.real, Z.imag = X, Y
    return Z


@dataclass
class ChartSymbolField:
    """Symbol field on the rectangle [x0, x1] x [y0, y1].

    rep_fn maps an array of complex chart coordinates z = x + i y to the
    arrays (u, w) of the symbol's complex pair; it must be pure, so
    repeated evaluation at the same point is bit identical.  That includes
    arrays of different sizes: det_grid evaluates whole bands of nodes and
    det_at a few points, and contouring compares the two.  So rep_fn fixes
    its operation order instead of leaving it to numpy, which elides a
    temporary operand of 256 KiB or more into an in-place ufunc and may
    swap the operands of a commutative one to do so; a complex product can
    then round differently in the last bit (see the sphere module).
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    rep_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InputError("empty chart rectangle")
        if self.nx < 16 or self.ny < 16:
            raise InputError("grid resolution must be at least 16 per axis")
        need = det_grid_peak_bytes(self.nx, self.ny)
        if need > DET_GRID_BYTE_CAP:
            raise InputError(f"a {self.nx} x {self.ny} grid needs about {need / 2**30:.2f} GiB for its "
                             f"det grid, above the {DET_GRID_BYTE_CAP / 2**30:.0f} GiB cap")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        if "nodes" not in self._cache:
            xs = np.linspace(self.x0, self.x1, self.nx + 1)
            ys = np.linspace(self.y0, self.y1, self.ny + 1)
            self._cache["nodes"] = (xs, ys)
        return self._cache["nodes"]

    def det_at(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return det_norm2(*self.rep_fn(_chart_points(X, Y)))[0]

    def det_grid(self) -> np.ndarray:
        """Determinant on the nodes, indexed [i, j] = (xs[i], ys[j]).

        rep_fn runs on DET_BAND_ROWS rows of xs at a time, so only the
        result and one band of temporaries are ever held.
        """
        if "det_grid" not in self._cache:
            xs, ys = self.nodes()
            F = np.empty((xs.size, ys.size))
            norm2 = []
            # the nodes of one band: the imaginary parts are the same for
            # every band, the real parts are refilled in place
            Z = _chart_points(np.zeros((min(DET_BAND_ROWS, xs.size), 1)), ys)
            for i0 in range(0, xs.size, DET_BAND_ROWS):
                rows = min(DET_BAND_ROWS, xs.size - i0)
                Z.real[:rows] = xs[i0:i0 + rows, None]
                F[i0:i0 + rows], n2 = det_norm2(*self.rep_fn(Z[:rows]))
                norm2.append(n2.max())
            self._cache["det_grid"] = F
            self._cache["max_abs_det"] = float(max(F.max(), -F.min()))
            self._cache["max_norm2"] = float(np.max(norm2))
        return self._cache["det_grid"]

    @property
    def max_abs_det(self) -> float:
        self.det_grid()
        return self._cache["max_abs_det"]

    @property
    def max_norm2(self) -> float:
        self.det_grid()
        return self._cache["max_norm2"]


@dataclass
class SingularCurve:
    """Polyline on the zero set of det M.

    Closed curves repeat their first vertex at the end and run counter
    clockwise in chart coordinates.
    """

    polyline: np.ndarray
    closed: bool
    length: float
    residuals: np.ndarray


def _polyline_length(pts: np.ndarray) -> float:
    return float(np.sum(np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))))


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def extract_singular_set(fld: ChartSymbolField, rel_tol: float = CONTOUR_REL_TOL) -> list[SingularCurve]:
    """Marching squares on det M with edgewise bisection refinement.

    Vertices are pushed down to |f| <= rel_tol * max|f| along their grid
    edge.  Curves come back ordered by descending arclength, closed ones
    oriented counter clockwise and starting at their lexicographically
    smallest vertex.  A grid node where f vanishes inside a neighbourhood
    of one sign is an isolated zero, not a curve, and is left out.
    """
    if rel_tol <= 0.0:
        raise InputError("rel_tol must be positive")
    F = fld.det_grid()
    max_abs = fld.max_abs_det
    if max_abs <= 1e-14 * max(1.0, fld.max_norm2):
        raise DegenerateField("det M vanishes on the whole grid")
    tol = rel_tol * max_abs

    xs, ys = fld.nodes()
    S = F >= 0.0
    hx = S[:-1, :] != S[1:, :]   # edge (i,j)-(i+1,j), shape (nx, ny+1)
    vx = S[:, :-1] != S[:, 1:]   # edge (i,j)-(i,j+1), shape (nx+1, ny)

    cell_cross = hx[:, :-1] | hx[:, 1:] | vx[:-1, :] | vx[1:, :]
    # flatnonzero: np.nonzero on a 2-d mask is an order of magnitude slower
    ci, cj = np.divmod(np.flatnonzero(cell_cross), cell_cross.shape[1])
    if ci.size == 0:
        return []

    # an edge is coded (kind * (nx + 1) + i) * (ny + 1) + j, kind 0 for the
    # edge (i, j)-(i+1, j) and 1 for (i, j)-(i, j+1), so codes sort like
    # (kind, i, j); the crossing edges of a cell in the order S, E, N, W
    rows, cols = F.shape
    side = np.column_stack([ci * cols + cj, (rows + ci + 1) * cols + cj,
                            ci * cols + cj + 1, (rows + ci) * cols + cj])
    crossed = np.column_stack([hx[ci, cj], vx[ci + 1, cj], hx[ci, cj + 1], vx[ci, cj]])
    # a crossed cell has two crossing edges, or four at a saddle (parity
    # rules out odd counts)
    saddle = crossed.all(axis=1)
    plain = ~saddle
    pairs = [side[plain][crossed[plain]].reshape(-1, 2)]
    if saddle.any():
        # a center sample picks the branch pairing
        si, sj = ci[saddle], cj[saddle]
        fc = fld.det_at(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
        # a center of the SW corner's sign joins that corner's region, and
        # the branches cut off SE and NW; otherwise they cut off SW and NE
        sw = (fc >= 0.0) == S[si, sj]
        south, east, north, west = side[saddle].T
        pairs.append(np.column_stack([south, np.where(sw, east, west)]))
        pairs.append(np.column_stack([north, np.where(sw, west, east)]))
    pairs = np.concatenate(pairs)

    # refine every crossing edge to a vertex by bisection along the edge
    edge_keys, ends = np.unique(pairs, return_inverse=True)
    ends = ends.reshape(pairs.shape)
    n_edges = edge_keys.size
    vert, node = np.divmod(edge_keys, rows * cols)
    vert = vert.astype(bool)
    ei, ej = np.divmod(node, cols)
    bi = ei + ~vert   # far end (i+1, j) of an "h" edge, (i, j+1) of a "v" edge
    bj = ej + vert
    ax, ay, fa = xs[ei], ys[ej], F[ei, ej]
    bx, by, fb = xs[bi], ys[bj], F[bi, bj]
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

    # each edge lies in at most two cells, so it has one or two neighbours;
    # both lists hold them in ascending edge order (-1 for none)
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    order = np.lexsort((head, tail))
    tail, head = tail[order], head[order]
    first = np.searchsorted(tail, np.arange(n_edges))
    degree = np.bincount(tail, minlength=n_edges)
    nb_lo = head[first].tolist()
    nb_hi = np.where(degree == 2, head[np.minimum(first + 1, tail.size - 1)], -1).tolist()

    visited = [False] * n_edges
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
    for e in range(n_edges):
        if not visited[e]:
            chains.append((walk(e), True))

    curves = []
    for chain, closed in chains:
        idxs = np.array(chain)
        pts = np.column_stack([vx_[idxs], vy_[idxs]])
        if not np.any(pts != pts[0]):
            # every crossing edge converged to one grid node: an isolated
            # zero of f, a point and not a curve
            continue
        rr = res[idxs]
        if closed:
            if _shoelace(np.vstack([pts, pts[:1]])) < 0.0:
                pts = pts[::-1].copy()
                rr = rr[::-1].copy()
            start = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
            pts = np.roll(pts, -start, axis=0)
            rr = np.roll(rr, -start)
            pts = np.vstack([pts, pts[:1]])
            rr = np.append(rr, rr[0])
        else:
            if tuple(pts[-1]) < tuple(pts[0]):
                pts = pts[::-1].copy()
                rr = rr[::-1].copy()
        curves.append(SingularCurve(polyline=pts, closed=closed, length=_polyline_length(pts), residuals=rr))

    curves.sort(key=lambda c: (-c.length, c.polyline[0, 0], c.polyline[0, 1]))
    return curves


class RegularValueCertificate(NamedTuple):
    transversal: bool
    min_gradient: float
    floor: float


def regular_value_check(fld: ChartSymbolField, curve: SingularCurve) -> RegularValueCertificate:
    """Certify 0 as a regular value of det M along the curve.

    Central differences with a dyadic step much smaller than the grid
    keep truncation error far below the floor, so a genuine tangency
    (zero gradient) separates from discretization noise by orders of
    magnitude.
    """
    pts = curve.polyline[:-1] if curve.closed else curve.polyline
    dx = (fld.x1 - fld.x0) * 2.0**-20
    dy = (fld.y1 - fld.y0) * 2.0**-20
    gx = (fld.det_at(pts[:, 0] + dx, pts[:, 1]) - fld.det_at(pts[:, 0] - dx, pts[:, 1])) / (2.0 * dx)
    gy = (fld.det_at(pts[:, 0], pts[:, 1] + dy) - fld.det_at(pts[:, 0], pts[:, 1] - dy)) / (2.0 * dy)
    gnorm = np.hypot(gx, gy)
    half_width = 0.5 * max(fld.x1 - fld.x0, fld.y1 - fld.y0)
    floor = GRADIENT_FLOOR_REL * fld.max_abs_det / half_width
    mg = float(gnorm.min())
    return RegularValueCertificate(transversal=mg > floor, min_gradient=mg, floor=floor)


def kernel_angles_along(fld: ChartSymbolField, pts: np.ndarray) -> np.ndarray:
    """Line angles in [0, pi) spanned by ker M (covector side) at (K, 2) points.

    Only meaningful on the singular set, where det M is already small.
    Raises RankZero where M itself vanishes.
    """
    u, w = fld.rep_fn(_chart_points(pts[:, 0], pts[:, 1]))
    if np.any(det_norm2(u, w)[1] <= 1e-24 * fld.max_norm2):
        raise RankZero("coefficient matrix vanishes on the curve")
    return kernel_angle(u, w)


def lift_angles(angles: np.ndarray, period: float = math.pi,
                cyclic: bool = False) -> tuple[np.ndarray, float]:
    """Continuous lift of angles given mod period; returns (lift, total).

    Consecutive representatives are chosen nearest to the running lift;
    a step of a quarter turn or more aborts with LiftFailure.  total is
    the advance from the first sample to the last, or around the whole
    cycle back to the first when cyclic.
    """
    raw = np.asarray(angles, dtype=float)
    if raw.size == 0:
        return raw.copy(), 0.0
    # steps between consecutive angles wrapped into [-period/2, period/2),
    # the closing step last when cyclic
    d = np.diff(raw, append=raw[:1]) if cyclic else np.diff(raw)
    d = np.mod(d + period / 2.0, period) - period / 2.0
    if d.size and float(np.abs(d).max()) >= _JUMP_LIMIT:
        raise LiftFailure("angle step of a quarter turn or more; sampling too coarse")
    steps, closing = (d[:-1], float(d[-1])) if cyclic else (d, 0.0)
    lift = raw[0] + np.concatenate([[0.0], np.cumsum(steps)])
    return lift, float(lift[-1] + closing - lift[0])


@dataclass
class MultiplicityComponent:
    """Curve of the singular set with its lifted kernel angle data."""

    base: SingularCurve
    kernel_angles: np.ndarray
    winding: int
    knot: tuple[int, int]
    connected: bool
    winding_residual: float


def trace_component(fld: ChartSymbolField, curve: SingularCurve) -> MultiplicityComponent:
    """Lift the kernel line along a closed curve and read off the winding."""
    if not curve.closed:
        raise InputError("winding requires a closed base curve")
    lifted, total = lift_angles(kernel_angles_along(fld, curve.polyline))
    total /= math.pi
    m = int(round(total))
    residual = abs(total - m)
    if residual >= WINDING_RESIDUAL:
        raise LiftFailure(f"winding residual {residual:.3g} exceeds {WINDING_RESIDUAL}")
    kt = knot_type(m)
    return MultiplicityComponent(base=curve, kernel_angles=lifted, winding=m, knot=kt.pair,
                                 connected=kt.connected, winding_residual=residual)


class KnotType(NamedTuple):
    pair: tuple[int, int]
    connected: bool


def knot_type(m: int) -> KnotType:
    """(2, m) torus knot for odd m, two-component link for even m."""
    return KnotType(pair=(2, m), connected=(m % 2 != 0))


def knot_polyline(m: int, samples: int = 256) -> list[np.ndarray]:
    """Polylines in solid torus coordinates (base angle, fiber angle).

    One component of 2*samples points when m is odd, two components of
    samples points each when m is even.  Rows close up modulo 2 pi.
    """
    if samples < 8:
        raise InputError("samples must be at least 8")
    if m % 2 != 0:
        t = np.linspace(0.0, 4.0 * math.pi, 2 * samples, endpoint=False)
        return [np.column_stack([np.mod(t, 2.0 * math.pi), np.mod(0.5 * m * t, 2.0 * math.pi)])]
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    comps = []
    for offset in (0.0, math.pi):
        comps.append(np.column_stack([t, np.mod(offset + 0.5 * m * t, 2.0 * math.pi)]))
    return comps


def polylines_csv(components: list[MultiplicityComponent]) -> str:
    """CSV rows curve_id,x1,x2,kernel_angle_lifted for every vertex.

    Values print as serialize.fmt_float does.
    """
    lines = ["curve_id,x1,x2,kernel_angle_lifted"]
    for cid, comp in enumerate(components):
        float_row_lines(str(cid), ",", np.column_stack([comp.base.polyline, comp.kernel_angles]), lines)
    return join_lines(lines)


# ---------------------------------------------------------------------------
# degrees of traceless sections around loops on the sphere


def vector_loop_turns(p: np.ndarray, q: np.ndarray) -> int:
    """Degree of a closed nonvanishing loop of 2-vectors around 0."""
    _, total = lift_angles(np.arctan2(q, p), period=2.0 * math.pi, cyclic=True)
    total /= 2.0 * math.pi
    n = int(round(total))
    if abs(total - n) > 0.25:
        raise LiftFailure(f"loop degree residual {abs(total - n):.3g}")
    return n


def local_degree(section_fn, center: np.ndarray, radius: float) -> int:
    """Degree of (p, q) around a small spherical circle about center."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    t1, t2 = tangent_frames(c)
    beta = np.linspace(0.0, 2.0 * math.pi, LOCAL_DEGREE_SAMPLES, endpoint=False)
    pts = (
        math.cos(radius) * c[None, :]
        + math.sin(radius) * (np.cos(beta)[:, None] * t1[None, :] + np.sin(beta)[:, None] * t2[None, :])
    )
    _, p, q = section_fn(pts)
    return vector_loop_turns(*transport_pq(pts, c, p, q))
