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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateField,
    InputError,
    LiftFailure,
    RankZero,
)
from .serialize import float_rows_csv
from .spheremesh import BYTE_CAP, successor_walks, tangent_frames, transport_pq
from .sym2 import kernel_angle

CONTOUR_REL_TOL = 1e-10
GRADIENT_FLOOR_REL = 1e-6
WINDING_RESIDUAL = 0.1
_JUMP_LIMIT = (math.pi / 2.0) * (1.0 - 1e-9)
# det_grid bounds tiles of DET_TILE_MAX cells a side, quarters them down to
# DET_TILE and evaluates the finest ones it cannot skip.  Over the 21
# sigma_mn pairs at grid 2048, tiles of 8 cells evaluate 2% of the nodes
# and bound 5k tiles a job, tiles of 16 cells 4% and 3k, in about the
# same time
DET_TILE = 8
DET_TILE_MAX = 128
# nodes a side of the lattice of the chart that sets the tolerance scale
SCALE_NODES = 129
# abs2_fn evaluates as many tiles per call as hold about the nodes of
# _CALL_ROWS rows of the grid
_CALL_ROWS = 16
# bytes held, measured with tracemalloc on sphere fields.  Per node of one
# abs2_fn call, its temporaries and sign masks: 42 B for sigma_mn, 106 B
# for general quadratics, whose complex Horner steps dominate (a
# tile_bound_fn call holds fewer).  Per tile of DET_TILE cells, were every
# tile kept: its indices, cell counts, sign and quartering temporaries,
# 43 B.  Per crossed cell, det_grid and extract_singular_set together:
# 420 B on curves through many cells and 850 B where every cell closes a
# loop of its own; the table's pieces, concatenation and sorted copy are
# 88 B of it
_CALL_NODE_BYTES = 112
_TILE_BYTES = 48
_CROSSED_CELL_BYTES = 1024
# largest working set a ChartSymbolField accepts: square grids up to 36656
DET_GRID_BYTE_CAP = BYTE_CAP
# bytes knot_polyline holds per sample, measured with tracemalloc: 80 B for
# odd windings (2 * samples points), 48 B for even ones
_SAMPLE_BYTES = 80
# points on the local_degree circle
LOCAL_DEGREE_SAMPLES = 180


def _chart_points(X, Y) -> np.ndarray:
    """Complex chart coordinates X + i Y, built without complex arithmetic."""
    Z = np.empty(np.broadcast_shapes(np.shape(X), np.shape(Y)), dtype=complex)
    Z.real, Z.imag = X, Y
    return Z


@dataclass
class ChartSymbolField:
    """Symbol field on the rectangle [x0, x1] x [y0, y1].

    rep_fn maps complex chart coordinates z = x + i y to the arrays (u, w)
    of the symbol's complex pair, for the kernel lines; abs2_fn maps real
    coordinate arrays X, Y that broadcast to (|u|^2, |w|^2), for det M and
    |M|^2.  Both must be pure: repeated evaluation at the same point is bit
    identical, also across array sizes and shapes, since det_grid
    evaluates tiles of nodes and det_at a few points and contouring
    compares the two.  The operation-order rule of the sphere module
    serves that for rep_fn; real arithmetic needs no such rule.

    tile_bound_fn, if given, maps tile centres cx, cy (arrays that
    broadcast) and a radius rho to a sign: at every point within rho of a
    centre, the det computed from abs2_fn is >= 0 where the sign is 1 and
    < 0 where it is -1.  Without it every tile is evaluated.

    The tolerances of contouring and of its certificates scale with
    max_abs_det and max_norm2, the maxima of |det M| and |u|^2 + |w|^2
    over a lattice of SCALE_NODES x SCALE_NODES nodes of the rectangle,
    so they mean the same at every grid.  A grid whose tiles, were none
    skipped, and call buffers could exceed DET_GRID_BYTE_CAP is refused
    here, and one whose zero set crosses more cells than the cap leaves
    room for is refused by det_grid.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    rep_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    abs2_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    tile_bound_fn: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InputError("empty chart rectangle")
        if self.nx < 16 or self.ny < 16:
            raise InputError("grid resolution must be at least 16 per axis")
        # every tile of DET_TILE cells kept
        need = self._held_bytes(-(-self.nx // DET_TILE) * -(-self.ny // DET_TILE))
        if need > DET_GRID_BYTE_CAP:
            raise InputError(f"a {self.nx} x {self.ny} grid may need {need:,} bytes for the tiles and buffers "
                             f"of its det grid, above the {DET_GRID_BYTE_CAP:,}-byte cap")

    def _held_bytes(self, tiles: int, cells: int = 0) -> int:
        """Bytes that det_grid and contouring hold with this many tiles of
        DET_TILE cells and crossed cells, and one call's buffers."""
        return (tiles * _TILE_BYTES + cells * _CROSSED_CELL_BYTES
                + max(_CALL_ROWS * (self.ny + 1), SCALE_NODES**2) * _CALL_NODE_BYTES)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        if "nodes" not in self._cache:
            xs = np.linspace(self.x0, self.x1, self.nx + 1)
            ys = np.linspace(self.y0, self.y1, self.ny + 1)
            self._cache["nodes"] = (xs, ys)
        return self._cache["nodes"]

    def det_at(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        a, b = self.abs2_fn(X, Y)
        return 0.5 * (a - b)

    def _tile_bounds(self, size: int, ti: np.ndarray, tj: np.ndarray) -> np.ndarray:
        """tile_bound_fn's signs on the size x size cell tiles (ti, tj), cut
        short at the end of the grid: every node of a tile lies within rho
        of its centre."""
        if self.tile_bound_fn is None:
            return np.zeros(ti.size)
        xs, ys = self.nodes()
        # a bound takes about six times the bytes of a node (250 B against
        # 42 B measured on sigma_mn), so a call holds about as many bytes
        # as abs2_fn's
        step = max(1, _CALL_ROWS * (self.ny + 1) // 6)
        signs = []
        for k in range(0, ti.size, step):
            centres, reach = [], []
            for t, i, n in ((xs, ti[k:k + step], self.nx), (ys, tj[k:k + step], self.ny)):
                lo, hi = t[i * size], t[np.minimum(i * size + size, n)]
                c = lo + 0.5 * (hi - lo)
                centres.append(c)
                reach.append(float(np.maximum(c - lo, hi - c).max()))
            # the subtractions and hypot round by less than a part in 2^40
            signs.append(self.tile_bound_fn(*centres, math.hypot(*reach) * (1.0 + 2.0**-40)))
        return np.concatenate(signs)

    def det_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cells whose corners do not all share the sign f >= 0, as ascending
        codes i * ny + j of [xs[i], xs[i+1]] x [ys[j], ys[j+1]], and their
        values at the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1).

        Tiles of cells are bounded by tile_bound_fn from DET_TILE_MAX cells
        a side down; a tile proven one-signed is skipped, any other is
        quartered, down to DET_TILE cells, and those left are evaluated for
        their crossed cells.  A skipped tile holds no zero of the computed
        det at its nodes.  The cells skipped and evaluated go to the cache
        as "det_cells".  InputError refuses a crossed-cell table above
        DET_GRID_BYTE_CAP as it grows.
        """
        if "det_grid" not in self._cache:
            counts = {"skipped": 0, "sign": 0}
            size = DET_TILE_MAX
            ti, tj = np.divmod(np.arange(-(-self.nx // size) * -(-self.ny // size)), -(-self.ny // size))
            while True:
                cells = np.minimum(size, self.nx - ti * size) * np.minimum(size, self.ny - tj * size)
                known = self._tile_bounds(size, ti, tj) != 0   # proven one-signed
                counts["skipped"] += int(cells[known].sum())
                ti, tj = ti[~known], tj[~known]
                if size == DET_TILE or not ti.size:
                    break
                # the quarters of each tile left that lie on the grid
                ti = (2 * ti[:, None] + [0, 0, 1, 1]).ravel()
                tj = (2 * tj[:, None] + [0, 1, 0, 1]).ravel()
                size //= 2
                on = (ti * size < self.nx) & (tj * size < self.ny)
                ti, tj = ti[on], tj[on]
            counts["sign"] = int(cells[~known].sum())
            codes, corners = self._eval_tiles(size, ti, tj)
            order = np.argsort(codes)
            self._cache["det_grid"] = codes[order], corners[order]
            self._cache["det_cells"] = counts
        return self._cache["det_grid"]

    def _eval_tiles(self, size: int, ti: np.ndarray, tj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The crossed cells of the size x size cell tiles (ti, tj), as codes
        and corners in the order of the tiles."""
        steps = np.arange(size + 1)
        chunk = max(1, _CALL_ROWS * (self.ny + 1) // (size + 1) ** 2)
        codes, corners, held = [np.empty(0, dtype=np.intp)], [np.empty((0, 4))], 0
        for k in range(0, ti.size, chunk):
            # node rows and columns of each tile, the last repeated past the grid
            code, corner = self._eval_nodes(np.minimum(ti[k:k + chunk, None] * size + steps, self.nx),
                                            np.minimum(tj[k:k + chunk, None] * size + steps, self.ny))
            codes.append(code)
            corners.append(corner)
            held += code.size
            if self._held_bytes(ti.size, held) > DET_GRID_BYTE_CAP:
                raise InputError(f"the zero set crosses {held:,} cells or more of a {self.nx} x {self.ny} grid, "
                                 f"whose contouring needs more than the {DET_GRID_BYTE_CAP:,}-byte cap")
        return np.concatenate(codes), np.concatenate(corners)

    def _eval_nodes(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One abs2_fn call on the node rows by the node columns of each
        tile: the codes and corners of its crossed cells."""
        xs, ys = self.nodes()
        a, b = self.abs2_fn(xs[rows][:, :, None], ys[cols][:, None, :])
        F = 0.5 * (a - b)
        S = F >= 0.0
        step = S[:, :-1] != S[:, 1:]
        # parity: a cell whose corners differ has two sides that differ, so
        # three of its sides tell
        cross = step[:, :, :-1] | step[:, :, 1:] | (S[:, :-1, :-1] != S[:, :-1, 1:])
        cross &= (rows[:, :-1] < self.nx)[:, :, None] & (cols[:, :-1] < self.ny)[:, None, :]
        t, r, c = np.nonzero(cross)
        return (rows[t, r] * self.ny + cols[t, c],
                np.column_stack([F[t, r, c], F[t, r + 1, c], F[t, r, c + 1], F[t, r + 1, c + 1]]))

    def _scale(self) -> tuple[float, float]:
        if "scale" not in self._cache:
            a, b = self.abs2_fn(np.linspace(self.x0, self.x1, SCALE_NODES)[:, None],
                                np.linspace(self.y0, self.y1, SCALE_NODES))
            F = 0.5 * (a - b)
            self._cache["scale"] = float(max(F.max(), -F.min())), float((a + b).max())
        return self._cache["scale"]

    @property
    def max_abs_det(self) -> float:
        """max |det M| over the SCALE_NODES x SCALE_NODES lattice."""
        return self._scale()[0]

    @property
    def max_norm2(self) -> float:
        """max |u|^2 + |w|^2 over the SCALE_NODES x SCALE_NODES lattice."""
        return self._scale()[1]


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


def _chains(succ: np.ndarray) -> Iterator[tuple[np.ndarray, bool]]:
    """The walks of `successor_walks` as a walk over the undirected graph
    meets them: paths from their lesser end, then cycles from their least
    element toward its lesser neighbour, each in ascending order of its start.
    """
    order, offsets, cyclic = successor_walks(succ)
    ends = np.minimum(order[offsets[:-1]], order[offsets[1:] - 1])
    for k in np.argsort(ends + cyclic * succ.size).tolist():
        walk, turn = order[offsets[k]:offsets[k + 1]], int(cyclic[k])
        # a path turns round whole, a cycle about its first element
        if walk[-1] < walk[turn]:
            walk = np.roll(walk[::-1], turn)
        yield walk, bool(turn)


def extract_singular_set(fld: ChartSymbolField, rel_tol: float = CONTOUR_REL_TOL) -> list[SingularCurve]:
    """Marching squares on det M with edgewise bisection refinement.

    Vertices are pushed down to |f| <= rel_tol * max|f|, the maximum over
    the chart's scale lattice (ChartSymbolField.max_abs_det), along their
    grid edge, or left at the midpoint of its 64th halving, whose |f| their
    residual then reports.  Curves come back ordered by descending
    arclength, closed ones oriented counter clockwise and starting at
    their lexicographically smallest vertex.  A grid node where f vanishes
    inside a neighbourhood of one sign is an isolated zero, not a curve,
    and is left out.
    """
    if not 0.0 < rel_tol < math.inf:
        raise InputError("rel_tol must be positive and finite")
    max_abs = fld.max_abs_det
    if max_abs <= 1e-14 * max(1.0, fld.max_norm2):
        raise DegenerateField(f"det M vanishes on the {SCALE_NODES} x {SCALE_NODES} scale lattice of the chart")
    tol = rel_tol * max_abs
    codes, corners = fld.det_grid()
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

    # a crossing edge moves x on the n_h "h" edges, which come first, and y
    # on the "v" edges; its other coordinate c is fixed, the midpoint
    # 0.5 * (c + c) being c, so only the moving one is bisected
    n_edges = edge_keys.size
    n_h = int(np.searchsorted(edge_keys, rows * cols))
    ei, ej = np.divmod(edge_keys % (rows * cols), cols)
    lo = np.concatenate((xs[ei[:n_h]], ys[ej[n_h:]]))
    hi = np.concatenate((xs[ei[:n_h] + 1], ys[ej[n_h:] + 1]))
    fixed = np.concatenate((ys[ej[:n_h]], xs[ei[n_h:]]))
    fa, fb = near[crossed][first], far[crossed][first]
    # orient brackets so f(lo) = fa >= 0 > fb = f(hi)
    swap = fa < 0.0
    lo, hi, fa, fb = np.where(swap, hi, lo), np.where(swap, lo, hi), np.where(swap, fb, fa), np.where(swap, fa, fb)
    # an end already on the curve is the vertex, the lo end first
    on_lo = np.abs(fa) <= tol
    move, res = np.where(on_lo, lo, hi), np.where(on_lo, np.abs(fa), np.abs(fb))
    # the live edges, "h" first: their indices, brackets and fixed coordinates
    live = np.flatnonzero(~(on_lo | (np.abs(fb) <= tol)))
    lo, hi, fix, k = lo[live], hi[live], fixed[live], np.count_nonzero(live < n_h)
    for step in range(64):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        fm = fld.det_at(np.concatenate((mid[:k], fix[k:])), np.concatenate((fix[:k], mid[k:])))
        # np.where, not copyto(..., where=): on the random masks here the
        # masked copy takes three times as long
        pos = fm >= 0.0
        lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
        # an edge still live after the 64th halving keeps its last midpoint
        out = (np.abs(fm) <= tol) | (step == 63)
        if out.any():
            at = live[out]
            move[at], res[at] = mid[out], np.abs(fm[out])
            keep = ~out
            k = np.count_nonzero(keep[:k])
            live, lo, hi, fix = live[keep], lo[keep], hi[keep], fix[keep]
    vx_ = np.concatenate((move[:n_h], fixed[n_h:]))
    vy_ = np.concatenate((fixed[:n_h], move[n_h:]))

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
            # from the first least vertex, the least y among the least x, round to it again
            least_x = np.flatnonzero(x == x.min())
            idxs = idxs.take(least_x[np.argmin(y[least_x])] + np.arange(idxs.size + 1), mode="wrap")
        elif (x[-1], y[-1]) < (x[0], y[0]):
            idxs = idxs[::-1]
        pts = np.column_stack([vx_[idxs], vy_[idxs]])
        curves.append(SingularCurve(polyline=pts, closed=closed, length=_polyline_length(pts), residuals=res[idxs]))

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
    magnitude.  The floor is GRADIENT_FLOOR_REL * max|det M| per half
    width of the chart, the maximum over its scale lattice, so it does
    not depend on the grid.
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
    a, b = fld.abs2_fn(pts[:, 0], pts[:, 1])
    if np.any(a + b <= 1e-24 * fld.max_norm2):
        raise RankZero("coefficient matrix vanishes on the curve")
    return kernel_angle(*fld.rep_fn(_chart_points(pts[:, 0], pts[:, 1])))


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
    if samples * _SAMPLE_BYTES > BYTE_CAP:
        raise InputError(f"{samples:,} samples may need {samples * _SAMPLE_BYTES:,} bytes, "
                         f"above the {BYTE_CAP:,}-byte cap")
    if m % 2 != 0:
        t = np.linspace(0.0, 4.0 * math.pi, 2 * samples, endpoint=False)
        return [np.column_stack([np.mod(t, 2.0 * math.pi), np.mod(0.5 * m * t, 2.0 * math.pi)])]
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    comps = []
    for offset in (0.0, math.pi):
        comps.append(np.column_stack([t, np.mod(offset + 0.5 * m * t, 2.0 * math.pi)]))
    return comps


def polylines_csv(components: list[MultiplicityComponent], path) -> None:
    """Write the CSV rows curve_id,x1,x2,kernel_angle_lifted of every vertex to path.

    Values print as serialize.fmt_float does; a non-finite value leaves no file.
    """
    float_rows_csv("curve_id,x1,x2,kernel_angle_lifted",
                   [np.column_stack([comp.base.polyline, comp.kernel_angles]) for comp in components], path)


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
