import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavesym import multiplicity
from wavesym.errors import (
    DegenerateField,
    InputError,
    LiftFailure,
    RankZero,
    ZeroOnVertex,
)
from wavesym.fresnel import Crystal, singular_directions
from wavesym.multiplicity import (
    DET_TILE,
    ChartSymbolField,
    MultiplicityComponent,
    SingularCurve,
    _chains,
    extract_singular_set,
    kernel_angles_along,
    knot_polyline,
    knot_type,
    lift_angles,
    local_degree,
    polylines_csv,
    regular_value_check,
    trace_component,
    vector_loop_turns,
)
from wavesym.spheremesh import icosphere, transport_pq
from wavesym.sphere import PolyVF, SphereSymbol, sigma_mn

from .oracles import (
    _face_boundary_samples,
    abs2_from_rep,
    crossing_cells_whole,
    det_grid_whole,
    extract_singular_set_masked,
    fibonacci_sphere,
    neighbour_walks,
    optic_axes_closed_form,
    polylines_csv_per_value,
    rep_to_matrix,
    signed_zero_count,
)


def square_field(rep_fn, halfwidth=2.0, grid=256):
    return ChartSymbolField(x0=-halfwidth, x1=halfwidth, y0=-halfwidth, y1=halfwidth,
                            nx=grid, ny=grid, rep_fn=rep_fn, abs2_fn=abs2_from_rep(rep_fn))


def pair(u, w):
    """(u, w) as complex arrays, u and w real or complex arrays of one shape."""
    return np.asarray(u, dtype=complex), np.asarray(w, dtype=complex)


def scaled_identity(Z):
    # (u, w) = (2, 0) is M = sqrt(2) I: det 2, kernel nowhere
    return pair(np.full(Z.shape, 2.0), np.zeros(Z.shape))


def radial_h(m, n, r):
    # independent restatement of the determinant profile of sigma_mn:
    # h(r) = (lam r^m)^2 - (lam^3 r^n)^2, lam = 2/(1+r^2)
    lam = 2.0 / (1.0 + r * r)
    return (lam * r**m) ** 2 - (lam**3 * r**n) ** 2


# --- det_at ------------------------------------------------------------------


def det_at(fld, x, y):
    """det M at one chart point, as a float."""
    return float(fld.det_at(np.array([x]), np.array([y]))[0])


def test_det_identity_field():
    fld = square_field(scaled_identity)
    assert det_at(fld, 0.3, -1.2) == 2.0


def test_det_equal_rows_is_zero():
    # u = (x + y) + i (x - y), w = (x - y) + i (x + y): both rows of M are
    # sqrt(2) (x, y), and |u|^2, |w|^2 sum the same two squares
    def equal_rows(Z):
        s, d = Z.real + Z.imag, Z.real - Z.imag
        return s + 1j * d, d + 1j * s
    fld = square_field(equal_rows)
    assert det_at(fld, 0.5, 0.7) == 0.0


def test_det_sigma06_profile():
    # oracle: h(r)/2 with h the radial determinant profile
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=64)
    on = det_at(fld, 1.0, 0.0)
    off = det_at(fld, 0.5, 0.0)
    assert abs(on) <= 1e-14
    assert abs(off - 0.5 * radial_h(0, 6, 0.5)) <= 1e-12
    assert abs(off) > 0.1


# --- extract_singular_set ----------------------------------------------------


def test_extract_sigma06_single_circle():
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=256)
    curves = extract_singular_set(fld)
    assert len(curves) == 1
    c = curves[0]
    assert type(c.closed) is bool and c.closed
    assert np.array_equal(c.polyline[0], c.polyline[-1])
    radii = np.hypot(c.polyline[:, 0], c.polyline[:, 1])
    assert float(np.abs(radii - 1.0).max()) <= 1e-3


def test_extract_sigma01_two_circles():
    fld = sigma_mn(0, 1).chart_field(halfwidth=2.0, grid=256)
    curves = extract_singular_set(fld)
    assert len(curves) == 2
    # descending length: unit circle first, alpha circle second
    r_big = np.hypot(curves[0].polyline[:, 0], curves[0].polyline[:, 1])
    r_small = np.hypot(curves[1].polyline[:, 0], curves[1].polyline[:, 1])
    assert abs(float(r_big.mean()) - 1.0) <= 1e-3
    assert abs(float(r_small.mean()) - 0.29559774252208476) <= 1e-3


def test_extract_no_zeros():
    def positive(Z):
        # 2 det = (1 + |z|^2)^2 - |z|^2 > 0 everywhere
        return pair(1.0 + (Z.real * Z.real + Z.imag * Z.imag), Z)
    curves = extract_singular_set(square_field(positive, grid=64))
    assert curves == []


def test_extract_degenerate_field():
    def zero(Z):
        return pair(np.zeros(Z.shape), np.zeros(Z.shape))
    with pytest.raises(DegenerateField):
        extract_singular_set(square_field(zero, grid=32))


def crossing_lines(fx, fy, grid=64):
    """Field with det = (x - a)(y - b): the lines x = a and y = b cross at
    (a, b), placed at fractions (fx, fy) of the cell [xs[20], xs[21]] x
    [ys[24], ys[25]], which marching squares sees as a saddle cell."""
    h = 4.0 / grid
    a = -2.0 + (20 + fx) * h
    b = -2.0 + (24 + fy) * h

    def rep_fn(Z):
        # real u = P + Q, w = P - Q: det = ((P + Q)^2 - (P - Q)^2) / 2 = 2 P Q
        P, Q = Z.real - a, Z.imag - b
        return pair(P + Q, P - Q)

    return square_field(rep_fn, grid=grid), a, b


@pytest.mark.parametrize("fx,fy,joins_southeast", [(0.2, 0.2, True), (0.2, 0.8, False),
                                                   (0.7, 0.6, True), (0.9, 0.4, False)])
def test_extract_saddle_pairs_branches_by_center_sign(fx, fy, joins_southeast):
    # the SW corner is positive; a positive center joins it, so the branches
    # cut the SE and NW corners: the line below the saddle turns east
    fld, a, b = crossing_lines(fx, fy)
    curves = extract_singular_set(fld)
    assert len(curves) == 2 and not any(c.closed for c in curves)
    assert all(type(c.closed) is bool for c in curves)
    ends = sorted((tuple(np.round(c.polyline[0], 6)), tuple(np.round(c.polyline[-1], 6)))
                  for c in curves)
    a, b = round(a, 6), round(b, 6)
    if joins_southeast:
        want = [((-2.0, b), (a, 2.0)), ((a, -2.0), (2.0, b))]
    else:
        want = [((-2.0, b), (a, -2.0)), ((a, 2.0), (2.0, b))]
    assert ends == want
    for c in curves:
        assert float(c.residuals.max()) <= 1e-10 * fld.max_abs_det


@pytest.mark.parametrize("rel_tol", [0.0, -1e-10, math.inf, math.nan])
def test_extract_refuses_a_tolerance_not_positive_and_finite(rel_tol):
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=32)
    with pytest.raises(InputError, match="rel_tol"):
        extract_singular_set(fld, rel_tol=rel_tol)


def general_quadratics():
    """Quadratics with every coefficient drawn, or with both roots drawn
    inside the chart; no monomials."""
    coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    root = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    by_roots = st.builds(lambda r1, r2, lead: PolyVF(lead * r1 * r2, -lead * (r1 + r2), lead),
                         root, root, st.sampled_from([1 + 0j, -0.7 + 0.2j, 2.5 + 0j]))
    return st.one_of(st.builds(PolyVF, coeff, coeff, coeff), by_roots)


@st.composite
def contour_fields(draw):
    """sigma_mn on a square chart at grids 64 to 512, or a symbol of general
    quadratics on an off-centre chart of 64 to 256 by 64 to 256 cells."""
    if draw(st.booleans()):
        m, n = draw(st.tuples(st.integers(0, 2), st.integers(0, 6)))
        return sigma_mn(m, n).chart_field(halfwidth=draw(st.floats(1.0, 3.0)), grid=draw(st.integers(64, 512)))
    sym = SphereSymbol(v=draw(general_quadratics()), factors=tuple(draw(general_quadratics()) for _ in range(3)))
    x0, y0 = draw(st.floats(-3.0, -0.5)), draw(st.floats(-3.0, -0.5))
    return ChartSymbolField(x0=x0, x1=x0 + draw(st.floats(1.0, 5.0)), y0=y0, y1=y0 + draw(st.floats(1.0, 5.0)),
                            nx=draw(st.integers(64, 256)), ny=draw(st.integers(64, 256)),
                            rep_fn=sym.rep_grid, abs2_fn=sym.abs2_grid, tile_bound_fn=sym.tile_bounds)


def extract_tracing_det_at(extract, fld, rel_tol):
    """extract(fld, rel_tol) and the points it passed to fld.det_at, as rows
    in ascending order."""
    calls = []

    def recording(X, Y):
        calls.append(np.column_stack([X, Y]))
        return ChartSymbolField.det_at(fld, X, Y)

    fld.det_at = recording
    try:
        curves = extract(fld, rel_tol=rel_tol)
    finally:
        del fld.det_at
    pts = np.concatenate(calls) if calls else np.empty((0, 2))
    return curves, pts[np.lexsort((pts[:, 1], pts[:, 0]))]


@settings(max_examples=40, deadline=None)
@given(contour_fields(), st.floats(-300.0, -1.0).map(lambda e: 10.0**e))
@example(sigma_mn(0, 3).chart_field(halfwidth=2.0, grid=256), 1e-300)
@example(sigma_mn(2, 5).chart_field(halfwidth=2.0, grid=512), 1e-10)
def test_extraction_equals_masked_bisection_bit_for_bit(fld, rel_tol):
    """The live-edge bisection gives the masked loop's curves: polylines and
    residuals byte for byte, closed and length, and it passes det_at the
    same multiset of points.  rel_tol runs log-uniform down to 1e-300,
    where most edges end at the cap of 64 halvings.  40 examples take
    about 1.5 s on a 2-vCPU Xeon."""
    try:
        want, want_pts = extract_tracing_det_at(extract_singular_set_masked, fld, rel_tol)
    except DegenerateField:
        with pytest.raises(DegenerateField):
            extract_singular_set(fld, rel_tol=rel_tol)
        return
    got, got_pts = extract_tracing_det_at(extract_singular_set, fld, rel_tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.polyline.shape == w.polyline.shape and g.polyline.tobytes() == w.polyline.tobytes()
        assert g.residuals.tobytes() == w.residuals.tobytes()
        assert type(g.closed) is bool and g.closed == w.closed
        assert g.length == w.length
    assert got_pts.shape == want_pts.shape and got_pts.tobytes() == want_pts.tobytes()


def test_extraction_equals_masked_bisection_where_edges_converge_at_the_cap():
    """det = x - c(y), c(y) spread over [1, 2) h 2^-50 for the cell width h,
    on a chart whose middle cell has x = 0 as its midpoint: each row's edge
    there halves toward c(y), and at tol 2^-70 max|f| some edges converge
    at the 64th halving while others are left after it.  Both must write
    the midpoint of that halving, as the masked loop does."""
    nx = 33
    h = 2.0 / nx
    phi = 0.5 * (math.sqrt(5.0) - 1.0)

    def abs2_fn(X, Y):
        X, Y = np.broadcast_arrays(X, Y)
        return 2.0 * X, 2.0 * h * 2.0**-50 * (1.0 + np.mod(37.0 * phi * (Y + 1.0), 1.0))

    fld = ChartSymbolField(x0=-1.0, x1=1.0, y0=-1.0, y1=1.0, nx=nx, ny=64,
                           rep_fn=lambda Z: (Z, Z), abs2_fn=abs2_fn)
    sizes = []
    fld.det_at = lambda X, Y: (sizes.append(X.size), ChartSymbolField.det_at(fld, X, Y))[1]
    (curve,) = extract_singular_set(fld, rel_tol=2.0**-70)
    del fld.det_at
    left = int(np.count_nonzero(curve.residuals > 2.0**-70 * fld.max_abs_det))
    assert len(sizes) == 64 and sizes[-1] > left > 0
    want, want_pts = extract_tracing_det_at(extract_singular_set_masked, fld, 2.0**-70)
    got, got_pts = extract_tracing_det_at(extract_singular_set, fld, 2.0**-70)
    assert [(c.polyline.tobytes(), c.residuals.tobytes(), c.closed, c.length) for c in got] == \
        [(c.polyline.tobytes(), c.residuals.tobytes(), c.closed, c.length) for c in want]
    assert got_pts.tobytes() == want_pts.tobytes()


def vertex_rows(curves):
    """Every vertex of the curves, a closed curve's repeated one once, as
    rows in ascending order."""
    pts = np.concatenate([c.polyline[:-1] if c.closed else c.polyline for c in curves])
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


def transposed(fld):
    """The field f(y, x) on the chart with x and y swapped."""
    bound = fld.tile_bound_fn
    return ChartSymbolField(x0=fld.y0, x1=fld.y1, y0=fld.x0, y1=fld.x1, nx=fld.ny, ny=fld.nx,
                            rep_fn=lambda Z: fld.rep_fn(Z.imag + 1j * Z.real),
                            abs2_fn=lambda X, Y: fld.abs2_fn(Y, X),
                            tile_bound_fn=None if bound is None else lambda cx, cy, rho: bound(cy, cx, rho))


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-300])
@pytest.mark.parametrize("make", [
    lambda: sigma_mn(0, 1).chart_field(halfwidth=2.0, grid=256),
    lambda: sigma_mn(1, 4).chart_field(halfwidth=2.0, grid=200),
    lambda: SphereSymbol(v=PolyVF(0.3 - 0.2j, 1.1 + 0.4j, -0.5 + 0j),
                         factors=(PolyVF(0.2j, -0.6 + 0j, 1.0 + 0.3j), PolyVF(1 + 0j, 0.7 - 0.1j, 0j),
                                  PolyVF(-0.4 + 0.4j, 0j, 0.9 + 0j))).chart_field(halfwidth=1.5, grid=160),
    lambda: crossing_lines(0.3, 0.7)[0],
], ids=["sigma01", "sigma14", "general", "saddle"])
def test_transposed_field_gives_the_swapped_vertices(make, rel_tol):
    """On a square chart, where xs == ys, the vertices of f(y, x) are those
    of f(x, y) with their coordinates swapped, bit for bit: an "h" edge of
    one is a "v" edge of the other, so each kind must be bisected along its
    own moving coordinate."""
    fld = make()
    xs, ys = fld.nodes()
    assert np.array_equal(xs, ys)
    want = vertex_rows(extract_singular_set(fld, rel_tol=rel_tol))[:, ::-1]
    got = vertex_rows(extract_singular_set(transposed(fld), rel_tol=rel_tol))
    assert got.tobytes() == want[np.lexsort((want[:, 1], want[:, 0]))].tobytes()


@st.composite
def paths_and_cycles(draw):
    """A union of paths of 2 to 40 elements and cycles of 3 to 41, at most
    12 of them, on a random labelling of 0..n-1, n up to 492, each run in
    the direction of its labels: its successor array and its edges."""
    parts = draw(st.lists(st.tuples(st.booleans(), st.integers(2, 40)), max_size=12))
    n = sum(size + closed for closed, size in parts)
    labels = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    succ = np.full(n, -1)
    tail, head = [labels[:0]], [labels[:0]]
    at = 0
    for closed, size in parts:
        run = labels[at:at + size + closed]
        at += run.size
        nxt = np.roll(run, -1) if closed else run[1:]
        succ[run[:nxt.size]] = nxt
        tail.append(run[:nxt.size])
        head.append(nxt)
    return succ, np.concatenate(tail), np.concatenate(head)


@settings(max_examples=300, deadline=None)
@given(paths_and_cycles())
def test_chains_match_the_neighbour_walk(graph):
    """The successor walk with its start rule gives the walks of the
    neighbour-list walk over the undirected graph, element for element and
    in the same order, whichever way each walk's successors run.  300
    examples, about 2 s."""
    succ, tail, head = graph
    chains = list(_chains(succ))
    assert all(type(closed) is bool for _, closed in chains)
    assert [(walk.tolist(), closed) for walk, closed in chains] == neighbour_walks(tail, head, succ.size)


def test_residuals_below_tolerance():
    fld = sigma_mn(0, 3).chart_field(halfwidth=2.0, grid=128)
    for c in extract_singular_set(fld):
        assert float(c.residuals.max()) <= 1e-10 * fld.max_abs_det


def test_refinement_keeps_vertices_on_curve():
    """Bisection pins vertices to the zero set, so doubling the grid moves
    them by far less than the O(h^2) interpolation bound."""
    for grid in (128, 256):
        fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=grid)
        c = extract_singular_set(fld)[0]
        radii = np.hypot(c.polyline[:, 0], c.polyline[:, 1])
        h = 4.0 / grid
        assert float(np.abs(radii - 1.0).max()) <= h * h


def test_closed_curves_counterclockwise():
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=128)
    c = extract_singular_set(fld)[0]
    x, y = c.polyline[:-1, 0], c.polyline[:-1, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert area > 0.0


# --- regular_value_check ------------------------------------------------------


def test_regular_sigma06():
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=128)
    c = extract_singular_set(fld)[0]
    assert regular_value_check(fld, c).transversal is True


def test_degenerate_sigma02_invisible_to_sign_marching():
    # n - m = 2: det has a tangential double zero on |z| = 1, no sign
    # change, so the contour extractor finds nothing
    fld = sigma_mn(0, 2).chart_field(halfwidth=2.0, grid=256)
    assert extract_singular_set(fld) == []


def test_degenerate_sigma02_fails_certificate():
    # hand the checker the true zero circle: gradient vanishes on it
    fld = sigma_mn(0, 2).chart_field(halfwidth=2.0, grid=64)
    th = np.linspace(0.0, 2.0 * math.pi, 257)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    from wavesym.multiplicity import SingularCurve
    curve = SingularCurve(polyline=ring, closed=True, length=2.0 * math.pi,
                          residuals=np.zeros(257))
    cert = regular_value_check(fld, curve)
    assert cert.transversal is False
    assert cert.min_gradient < cert.floor


def test_linear_field_gradient_exact():
    def linear(Z):
        # real u = 1 + x/2, w = 1 - x/2: det = (u^2 - w^2) / 2 = x
        half = 0.5 * Z.real
        return pair(1.0 + half, 1.0 - half)
    fld = square_field(linear, grid=64)
    curves = extract_singular_set(fld)
    assert len(curves) == 1
    cert = regular_value_check(fld, curves[0])
    assert cert.transversal is True
    assert cert.min_gradient == pytest.approx(1.0, abs=1e-9)


# --- kernel angles -----------------------------------------------------------


def kernel_angle(fld, x, y):
    """kernel_angles_along at one chart point, as a float."""
    return float(kernel_angles_along(fld, np.array([[x, y]]))[0])


def test_kernel_angle_row_kill():
    def fld_fn(Z):
        # u = w = 1: M = [[sqrt(2), 0], [0, 0]], kernel = e2
        return pair(np.ones(Z.shape), np.ones(Z.shape))
    fld = square_field(fld_fn, grid=32)
    assert kernel_angle(fld, 0.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_kernel_angle_column():
    def fld_fn(Z):
        # u = -i, w = i: rows (0, sqrt(2)), (0, 0), kernel = e1
        return pair(np.full(Z.shape, -1j), np.full(Z.shape, 1j))
    fld = square_field(fld_fn, grid=32)
    assert kernel_angle(fld, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_kernel_angle_nullvector_residual():
    # certified by ||M xi|| <= 1e-8 ||M||
    fld = sigma_mn(1, 4).chart_field(halfwidth=2.0, grid=64)
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        x, y = math.cos(theta), math.sin(theta)
        ang = kernel_angle(fld, x, y)
        M = rep_to_matrix(*(complex(a[0]) for a in fld.rep_fn(np.array([complex(x, y)]))))
        xi = np.array([math.cos(ang), math.sin(ang)])
        assert np.linalg.norm(M @ xi) <= 1e-8 * np.linalg.norm(M)


def test_kernel_angle_sigma_formula():
    # closed form on the unit circle: 1/2 (n-m) theta + pi/2 mod pi
    for (m, n) in ((0, 6), (1, 4), (0, 1)):
        fld = sigma_mn(m, n).chart_field(halfwidth=2.0, grid=64)
        for theta in (0.1, 0.9, 2.4, 4.0):
            got = kernel_angle(fld, math.cos(theta), math.sin(theta))
            want = (0.5 * (n - m) * theta + math.pi / 2.0) % math.pi
            delta = abs(got - want) % math.pi
            assert min(delta, math.pi - delta) <= 1e-8


def test_kernel_angle_rank_zero():
    def spiral(Z):
        # u = z, w = 0: M = [[x, -y], [y, x]] / sqrt(2), zero at the origin
        return Z, np.zeros(Z.shape, dtype=complex)
    fld = square_field(spiral, grid=32)
    with pytest.raises(RankZero):
        kernel_angle(fld, 0.0, 0.0)


def test_lift_failure_on_quarter_jump():
    with pytest.raises(LiftFailure):
        lift_angles(np.array([0.0, math.pi / 2.0]))


def test_lift_continuity():
    raw = np.mod(np.linspace(0.0, 3.0 * math.pi, 400), math.pi)
    lifted, total = lift_angles(raw)
    assert np.all(np.abs(np.diff(lifted)) < math.pi / 2.0)
    assert lifted[-1] - lifted[0] == pytest.approx(3.0 * math.pi, abs=1e-9)
    assert total == lifted[-1] - lifted[0]


@pytest.mark.parametrize("k", [-1, 1, 3])
def test_cyclic_lift_total_counts_half_turns(k):
    # a line field turning k half turns around a closed loop; the samples
    # stop short of the start, so only the closing step completes the cycle
    beta = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    raw = np.mod(0.5 * k * beta + 0.3, math.pi)
    lifted, total = lift_angles(raw, cyclic=True)
    assert lifted.shape == raw.shape
    assert abs(total - k * math.pi) <= 1e-12


def test_cyclic_lift_refuses_closing_jump():
    # every open step is small; only the step back to the start is not
    with pytest.raises(LiftFailure):
        lift_angles(np.linspace(0.0, 0.6 * math.pi, 50), period=2.0 * math.pi, cyclic=True)


@pytest.mark.parametrize("k", [-2, 0, 1, 3])
def test_vector_lift_matches_loop_turns(k):
    th = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    p, q = np.cos(k * th + 0.4), np.sin(k * th + 0.4)
    _, total = lift_angles(np.arctan2(q, p), period=2.0 * math.pi, cyclic=True)
    assert abs(total - 2.0 * math.pi * k) <= 1e-12
    assert vector_loop_turns(p, q) == k


# --- winding -----------------------------------------------------------------


def test_winding_sigma06_is_six():
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=256)
    c = extract_singular_set(fld)[0]
    comp = trace_component(fld, c)
    assert comp.winding == 6
    assert comp.knot == (2, 6)
    assert comp.connected is False


def test_winding_sigma14_is_three():
    fld = sigma_mn(1, 4).chart_field(halfwidth=2.0, grid=256)
    curves = extract_singular_set(fld)
    comp = trace_component(fld, curves[0])
    assert comp.winding == 3
    assert comp.connected is True


def test_winding_constant_kernel():
    def shifted(Z):
        # u = |z|^2, w = -1: det = (r^4 - 1) / 2, -conj(u) w = r^2 > 0 so
        # the kernel is e1 on the circle
        return pair(Z.real * Z.real + Z.imag * Z.imag, np.full(Z.shape, -1.0))
    fld = square_field(shifted, grid=256)
    c = extract_singular_set(fld)[0]
    comp = trace_component(fld, c)
    assert comp.winding == 0
    assert comp.knot == (2, 0)
    assert comp.connected is False


def test_winding_stable_under_grid_refinement():
    for grid in (128, 256, 512):
        fld = sigma_mn(0, 3).chart_field(halfwidth=2.0, grid=grid)
        curves = extract_singular_set(fld)
        comp = trace_component(fld, curves[0])
        assert comp.winding == 3


def test_winding_negates_under_reversal():
    fld = sigma_mn(0, 3).chart_field(halfwidth=2.0, grid=256)
    c = extract_singular_set(fld)[0]
    comp = trace_component(fld, c)
    rev = type(c)(polyline=c.polyline[::-1].copy(), closed=True,
                  length=c.length, residuals=c.residuals[::-1].copy())
    comp_rev = trace_component(fld, rev)
    assert comp_rev.winding == -comp.winding


def test_component_lift_steps_bounded():
    fld = sigma_mn(0, 6).chart_field(halfwidth=2.0, grid=256)
    comp = trace_component(fld, extract_singular_set(fld)[0])
    steps = np.abs(np.diff(comp.kernel_angles))
    assert float(steps.max()) < math.pi / 2.0


# --- knots -------------------------------------------------------------------


def test_knot_types():
    assert knot_type(3).pair == (2, 3)
    assert knot_type(3).connected is True
    assert knot_type(2).pair == (2, 2)
    assert knot_type(2).connected is False
    assert knot_type(0).connected is False


def test_knot_polyline_components():
    assert len(knot_polyline(3)) == 1
    assert len(knot_polyline(2)) == 2
    assert len(knot_polyline(0)) == 2
    one = knot_polyline(5, samples=64)[0]
    assert one.shape == (128, 2)
    # fiber angle advances m/2 turns per base turn
    assert one[0, 0] == 0.0


def test_knot_polyline_rejects_tiny_sample_count():
    with pytest.raises(InputError):
        knot_polyline(3, samples=4)


def written_csv(tmp_path, comps) -> str:
    polylines_csv(comps, tmp_path / "curves.csv")
    return (tmp_path / "curves.csv").read_bytes().decode("ascii")


def test_polylines_csv_shape(tmp_path):
    fld = sigma_mn(0, 1).chart_field(halfwidth=2.0, grid=128)
    comps = [trace_component(fld, c) for c in extract_singular_set(fld)]
    text = written_csv(tmp_path, comps)
    lines = text.strip().split("\n")
    assert lines[0] == "curve_id,x1,x2,kernel_angle_lifted"
    assert len(lines) == 1 + sum(len(c.base.polyline) for c in comps)
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 4


def csv_component(values):
    vals = np.asarray(values, dtype=float).reshape(-1, 3)
    curve = SingularCurve(polyline=vals[:, :2], closed=False, length=0.0, residuals=np.zeros(len(vals)))
    return MultiplicityComponent(base=curve, kernel_angles=vals[:, 2], winding=0, knot=(2, 0),
                                 connected=False, winding_residual=0.0)


def test_polylines_csv_matches_per_value_oracle(tmp_path):
    special = [-0.0, 0.0, 1.0, -3.0, 4.0, 1e-5, -2.5e-5, 1.0000000000000002, 0.1, 1e16, -1e16,
               1e16 + 2.0, 2.0**53 + 2.0, 1e17, 4503599627370495.5, 123456789.0, 1e-300, -7.0]
    rng = np.random.default_rng(5)
    scaled = rng.standard_normal(300) * 10.0 ** rng.integers(-7, 18, 300)
    comps = [csv_component(special), csv_component(scaled),
             csv_component(np.trunc(scaled)), csv_component(rng.standard_normal(30))]
    assert written_csv(tmp_path, comps) == polylines_csv_per_value(comps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_polylines_csv_refuses_non_finite(tmp_path, bad, where):
    row = [0.5, 1.0, -2.0]
    row[where] = bad
    comps = [csv_component([0.25, 0.5, 0.75]), csv_component([0.1, 0.2, 0.3] + row)]
    with pytest.raises(InputError, match="non-finite"):
        polylines_csv_per_value(comps)
    # the streamed writer checks every value before it opens the file
    with pytest.raises(InputError, match="non-finite"):
        polylines_csv(comps, tmp_path / "curves.csv")
    assert not (tmp_path / "curves.csv").exists()


# --- signed zero counts ------------------------------------------------------


def crystal_section(eps):
    inv = np.array([1.0 / e for e in eps])

    def section(pts):
        X = np.asarray(pts, dtype=float)
        from wavesym.spheremesh import tangent_frames
        t1, t2 = tangent_frames(X)
        a11 = np.einsum("ij,ij->i", t1 * inv[None, :], t1)
        a22 = np.einsum("ij,ij->i", t2 * inv[None, :], t2)
        a12 = np.einsum("ij,ij->i", t1 * inv[None, :], t2)
        return a11 + a22, 0.5 * (a11 - a22), a12

    return section


def rotated_icosphere(subdiv):
    """Icosphere turned by a generic rotation.

    The section zeros (the principal-plane directions) sit on icosphere
    edge arcs for an axis-aligned mesh, which the boundary-hugging guard
    correctly rejects; a generic turn moves the edges off those arcs.
    """
    axis = np.array([1.0, 2.0, 3.0])
    axis /= np.linalg.norm(axis)
    ang = 0.41
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + math.sin(ang) * K + (1.0 - math.cos(ang)) * (K @ K)
    mesh = icosphere(subdiv)
    return type(mesh)(vertices=mesh.vertices @ R.T, faces=mesh.faces)


def test_signed_zero_count_crystal_is_four():
    mesh = rotated_icosphere(3)
    assert signed_zero_count(mesh, crystal_section((2.0, 2.5, 3.0))) == 4


def test_signed_zero_count_subdivision_invariant():
    sec = crystal_section((2.0, 3.0, 4.0))
    counts = {signed_zero_count(rotated_icosphere(k), sec) for k in (2, 3, 4)}
    assert counts == {4}


def quaternion_rotation(q):
    """Rotation matrix of the unit quaternion q / |q| = (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([[1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
                     [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
                     [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)]])


def edge_distance(mesh, x):
    """Smallest angle from the unit direction x to the edge arcs of the mesh."""
    a = mesh.vertices[mesh.faces.reshape(-1)]
    b = mesh.vertices[mesh.faces[:, [1, 2, 0]].reshape(-1)]
    n = np.cross(a, b)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    s = n @ x
    foot = x[None, :] - s[:, None] * n
    # the foot of x on each edge's great circle lies on the arc, or an end is nearest
    on_arc = ((np.einsum("ij,ij->i", np.cross(a, foot), n) >= 0.0)
              & (np.einsum("ij,ij->i", np.cross(foot, b), n) >= 0.0))
    ends = np.arccos(np.clip(np.maximum(a @ x, b @ x), -1.0, 1.0))
    return float(np.where(on_arc, np.arcsin(np.minimum(np.abs(s), 1.0)), ends).min())


unit_interval = st.floats(min_value=-1.0, max_value=1.0)
permittivity = st.floats(min_value=1.0, max_value=5.0)


@settings(max_examples=60, deadline=None)
@given(st.tuples(unit_interval, unit_interval, unit_interval, unit_interval),
       st.tuples(permittivity, permittivity, permittivity), st.sampled_from([2, 3]))
# two optic axes 0.0012 rad from a mesh edge, once refused as a zero on the boundary
@example((-0.3564839878928615, -0.6456936861586746, -0.6539680615081901, 0.16829915198255005),
         (4.0590887784630345, 2.5322408567022316, 4.2594223131585975), 2)
def test_signed_zero_count_is_euler_number(q, eps, subdiv):
    # Poincare-Hopf: the four optic axes of a biaxial crystal, each of index
    # +1, add up to the Euler number 4 of the traceless operator bundle; the
    # face-by-face count agrees with the sum of the axis search's indices
    assume(np.linalg.norm(q) >= 1e-3)
    lo, mid, hi = sorted(eps)
    assume(hi - lo >= 0.1 and 1e-2 <= (mid - lo) / (hi - lo) <= 1.0 - 1e-2)
    mesh = icosphere(subdiv)
    turned = type(mesh)(vertices=mesh.vertices @ quaternion_rotation(q).T, faces=mesh.faces)
    # an axis on a face boundary is refused by design (the count is not
    # defined there); hypothesis finds such turns, a random one never does
    axes = optic_axes_closed_form(Crystal(eps=eps))
    assume(min(edge_distance(turned, x) for x in axes) >= 1e-6)
    assert signed_zero_count(turned, crystal_section(eps)) == 4
    assert sum(a.local_index for a in singular_directions(Crystal(eps=eps))) == 4


@pytest.mark.parametrize("subdiv", [2, 3, 4])
def test_face_center_frames_serve_their_samples(subdiv):
    # signed_zero_count passes one center per face for the S samples of
    # its boundary; that equals one repeated center per sample
    mesh = rotated_icosphere(subdiv)
    loop = _face_boundary_samples(mesh)
    pts = loop.reshape(-1, 3)
    _, p, q = crystal_section((2.0, 2.5, 3.0))(pts)
    centers = mesh.vertices[mesh.faces].mean(axis=1)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    got = transport_pq(pts, centers, p, q)
    want = transport_pq(pts, np.repeat(centers, loop.shape[1], axis=0), p, q)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_local_degree_identity_map():
    def section(pts):
        X = np.asarray(pts, dtype=float)
        return np.zeros(len(X)), X[:, 0], X[:, 1]

    # planar (p,q) = (x1, x2) around the origin: degree +1
    assert local_degree(section, np.array([0.0, 0.0, 1.0]), radius=1e-2) == 1


def test_vector_loop_turns():
    th = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    assert vector_loop_turns(np.cos(th), np.sin(th)) == 1
    assert vector_loop_turns(np.cos(2 * th), np.sin(2 * th)) == 2
    assert vector_loop_turns(np.ones_like(th), np.zeros_like(th)) == 0


def test_zero_on_vertex_raises():
    mesh = icosphere(2)

    def capped(pts):
        X = np.asarray(pts, dtype=float)
        p = np.maximum(X[:, 2] - 0.9, 0.0)
        return np.zeros(len(X)), p, np.zeros(len(X))

    with pytest.raises(ZeroOnVertex):
        signed_zero_count(mesh, capped)


# --- field bookkeeping --------------------------------------------------------


def test_field_requires_min_grid():
    with pytest.raises(InputError):
        square_field(scaled_identity, grid=8)


def test_field_rejects_empty_rectangle():
    with pytest.raises(InputError):
        ChartSymbolField(x0=1.0, x1=-1.0, y0=0.0, y1=1.0, nx=32, ny=32,
                         rep_fn=scaled_identity, abs2_fn=abs2_from_rep(scaled_identity))


def test_field_cache_is_not_state():
    # the cache is neither set by callers nor compared
    with pytest.raises(TypeError):
        ChartSymbolField(x0=0.0, x1=1.0, y0=0.0, y1=1.0, nx=16, ny=16,
                         rep_fn=scaled_identity, abs2_fn=abs2_from_rep(scaled_identity), _cache={})
    fld = square_field(scaled_identity, grid=16)
    fld.det_grid()
    assert fld == square_field(scaled_identity, grid=16)


def accepts_square_grid(grid):
    try:
        square_field(scaled_identity, grid=grid)
    except InputError:
        return False
    return True


def test_field_refuses_grid_above_byte_cap():
    # construction only: a refused field never allocates its grid
    lo, hi = 16, 10**6
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts_square_grid(mid) else (lo, mid)
    # the largest square grid the whole-grid figure of the cap once accepted
    assert lo >= 9352
    tiles = (-(-lo // DET_TILE)) ** 2
    assert square_field(scaled_identity, grid=lo)._held_bytes(tiles) <= multiplicity.DET_GRID_BYTE_CAP
    with pytest.raises(InputError, match=f"a {hi} x {hi} grid .* cap"):
        square_field(scaled_identity, grid=hi)
    with pytest.raises(InputError, match="cap"):
        ChartSymbolField(x0=0.0, x1=1.0, y0=0.0, y1=1.0, nx=16, ny=10**9, rep_fn=scaled_identity,
                         abs2_fn=abs2_from_rep(scaled_identity))
    with pytest.raises(InputError, match="cap"):
        sigma_mn(1, 4).chart_field(grid=100_000)


# --- tiles of the det grid ----------------------------------------------------


def wavy(Z):
    X, Y = Z.real, Z.imag
    return np.sin(3.0 * X) * Y + 1j * (X * X - Y), np.cos(X * Y) + 1j * (X + Y**3)


def diagonal_lines(Z):
    # det = ((x - y)^2 - 0.09) / 2: the lines x - y = +-0.3 cross every row
    # seam of the tiles of every BAND_SHAPES grid on the chart below
    return pair(Z.real - Z.imag, np.full(Z.shape, 0.3))


BAND_FNS = {f"sigma{m}{n}": (sigma_mn(m, n).rep_grid, sigma_mn(m, n).abs2_grid)
            for m, n in ((0, 3), (1, 4), (2, 5), (2, 6))}
BAND_FNS["wavy"] = (wavy, abs2_from_rep(wavy))
BAND_FNS["lines"] = (diagonal_lines, abs2_from_rep(diagonal_lines))
# grids whose nx + 1 node rows fill whole tiles of 8 or 16 cells, or overrun
# them by one or two rows
BAND_SHAPES = [(16, 16), (17, 17), (31, 31), (32, 32), (33, 33), (33, 23), (17, 48)]


@pytest.mark.parametrize("name", sorted(BAND_FNS))
@pytest.mark.parametrize("nx,ny", BAND_SHAPES)
def test_banded_det_grid_matches_whole_grid(name, nx, ny):
    """Fields without a tile bound evaluate every tile, through the same
    sweep as the bounded sphere fields."""
    rep_fn, abs2_fn = BAND_FNS[name]
    fld = ChartSymbolField(x0=-2.6, x1=2.2, y0=-1.9, y1=2.6, nx=nx, ny=ny, rep_fn=rep_fn,
                           abs2_fn=abs2_fn)
    codes_ref, corners_ref = crossing_cells_whole(det_grid_whole(fld))
    codes, corners = fld.det_grid()
    assert codes_ref.size > 0
    if name == "lines":
        seam_rows = range(DET_TILE - 1, nx, DET_TILE)
        assert set(seam_rows) <= set((codes_ref // ny).tolist())
    assert codes.tobytes() == codes_ref.tobytes()
    assert corners.tobytes() == corners_ref.tobytes()


def checkerboard(grid, halfwidth=1.0):
    """det = 2 cos(pi i) cos(pi j) at node (i, j) of a grid on the square of
    that halfwidth: its sign alternates from node to node, so the zero set
    crosses every cell, each a saddle."""
    h = 2.0 * halfwidth / grid

    def rep(Z):
        c = np.cos(np.pi * (Z.real + halfwidth) / h) * np.cos(np.pi * (Z.imag + halfwidth) / h)
        return pair(1.0 + c, 1.0 - c)
    return rep


def traced_peaks(fld):
    """tracemalloc peaks of det_grid, and of det_grid then contouring."""
    fld.nodes()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fld.det_grid()
        det_peak = tracemalloc.get_traced_memory()[1] - base
        extract_singular_set(fld)
        return det_peak, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_det_grid_memory_stays_near_its_result():
    fld = sigma_mn(1, 4).chart_field(halfwidth=2.6, grid=1024)
    det_peak, peak = traced_peaks(fld)
    codes, corners = fld.det_grid()
    # ten float64 arrays over 17 node rows of the grid, plus the crossed-cell
    # table twice: its pieces and their concatenation.  One abs2_fn call
    # evaluates about 16 rows' worth of tile nodes (42 B a node measured) and
    # one tile_bound_fn call a sixth as many tiles; the tile indices and
    # signs held between calls scale with the tiles kept, not with the
    # 1025 node rows of the grid.  0.76 MB measured against 1.6 MB here
    table = codes.nbytes + corners.nbytes
    assert det_peak <= 10 * 8 * 17 * 1025 + 2 * table
    # the figure the byte cap is checked against covers contouring too
    assert peak <= fld._held_bytes((1024 // DET_TILE) ** 2, codes.size)
    # without a bound every tile is kept, which the figure checked up front
    # covers
    flat = square_field(scaled_identity, grid=1024)
    assert traced_peaks(flat)[0] <= flat._held_bytes((1024 // DET_TILE) ** 2)


def test_det_grid_refuses_a_crossed_cell_table_above_the_cap(monkeypatch):
    fld = square_field(checkerboard(32), halfwidth=1.0, grid=32)
    _, peak = traced_peaks(fld)
    # every cell crossed and closing a loop of its own: the most that
    # contouring holds per crossed cell
    assert fld.det_grid()[0].size == 32 * 32
    assert peak <= fld._held_bytes((32 // DET_TILE) ** 2, 32 * 32)
    # a cap that the tiles and buffers fit, but not the table
    monkeypatch.setattr(multiplicity, "DET_GRID_BYTE_CAP", 2**21)
    fld = square_field(checkerboard(32), halfwidth=1.0, grid=32)
    with pytest.raises(InputError, match="cells or more of a 32 x 32 grid"):
        fld.det_grid()


@given(st.integers(min_value=-8, max_value=8))
def test_knot_parity_matches_connectivity(m):
    assert knot_type(m).connected == (m % 2 != 0)
