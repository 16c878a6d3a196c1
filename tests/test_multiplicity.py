import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavesym.errors import (
    DegenerateField,
    InputError,
    LiftFailure,
    RankZero,
    ZeroOnVertex,
)
from wavesym.fresnel import Crystal, singular_directions
from wavesym.multiplicity import (
    DET_BAND_ROWS,
    DET_GRID_BYTE_CAP,
    ChartSymbolField,
    MultiplicityComponent,
    SingularCurve,
    det_grid_peak_bytes,
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
from wavesym.sphere import sigma_mn

from .oracles import (
    _face_boundary_samples,
    det_grid_whole,
    fibonacci_sphere,
    optic_axes_closed_form,
    polylines_csv_per_value,
    rep_to_matrix,
    signed_zero_count,
)


def square_field(rep_fn, halfwidth=2.0, grid=256):
    return ChartSymbolField(x0=-halfwidth, x1=halfwidth, y0=-halfwidth, y1=halfwidth,
                            nx=grid, ny=grid, rep_fn=rep_fn)


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
    assert c.closed
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


def test_polylines_csv_shape():
    fld = sigma_mn(0, 1).chart_field(halfwidth=2.0, grid=128)
    comps = [trace_component(fld, c) for c in extract_singular_set(fld)]
    text = polylines_csv(comps)
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


def test_polylines_csv_matches_per_value_oracle():
    special = [-0.0, 0.0, 1.0, -3.0, 4.0, 1e-5, -2.5e-5, 1.0000000000000002, 0.1, 1e16, -1e16,
               1e16 + 2.0, 2.0**53 + 2.0, 1e17, 4503599627370495.5, 123456789.0, 1e-300, -7.0]
    rng = np.random.default_rng(5)
    scaled = rng.standard_normal(300) * 10.0 ** rng.integers(-7, 18, 300)
    comps = [csv_component(special), csv_component(scaled),
             csv_component(np.trunc(scaled)), csv_component(rng.standard_normal(30))]
    assert polylines_csv(comps) == polylines_csv_per_value(comps)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_polylines_csv_refuses_non_finite(bad, where):
    row = [0.5, 1.0, -2.0]
    row[where] = bad
    comps = [csv_component([0.25, 0.5, 0.75]), csv_component([0.1, 0.2, 0.3] + row)]
    for write in (polylines_csv, polylines_csv_per_value):
        with pytest.raises(InputError, match="non-finite"):
            write(comps)


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
                         rep_fn=scaled_identity)


def test_field_cache_is_not_state():
    # the cache is neither set by callers nor compared
    with pytest.raises(TypeError):
        ChartSymbolField(x0=0.0, x1=1.0, y0=0.0, y1=1.0, nx=16, ny=16,
                         rep_fn=scaled_identity, _cache={})
    fld = square_field(scaled_identity, grid=16)
    fld.det_grid()
    assert fld == square_field(scaled_identity, grid=16)


def test_field_refuses_grid_above_byte_cap():
    # construction only: a refused field never allocates its grid
    side = max(g for g in range(16, 20000) if det_grid_peak_bytes(g, g) <= DET_GRID_BYTE_CAP)
    square_field(scaled_identity, grid=side)
    with pytest.raises(InputError, match="cap"):
        square_field(scaled_identity, grid=side + 1)
    with pytest.raises(InputError, match="cap"):
        ChartSymbolField(x0=0.0, x1=1.0, y0=0.0, y1=1.0, nx=16, ny=10**9, rep_fn=scaled_identity)
    with pytest.raises(InputError, match="cap"):
        sigma_mn(1, 4).chart_field(grid=100_000)


# --- banded det grid -----------------------------------------------------------


def wavy(Z):
    X, Y = Z.real, Z.imag
    return np.sin(3.0 * X) * Y + 1j * (X * X - Y), np.cos(X * Y) + 1j * (X + Y**3)


BAND_FNS = {f"sigma{m}{n}": sigma_mn(m, n).chart_field().rep_fn
            for m, n in ((0, 3), (1, 4), (2, 5), (2, 6))}
BAND_FNS["wavy"] = wavy
# grids whose nx + 1 node rows fill whole bands exactly or overrun by one or two rows
BAND_GRIDS = sorted({g for g in (16, DET_BAND_ROWS - 1, DET_BAND_ROWS, DET_BAND_ROWS + 1,
                                 2 * DET_BAND_ROWS - 1, 2 * DET_BAND_ROWS, 2 * DET_BAND_ROWS + 1)
                     if g >= 16})
BAND_SHAPES = [(g, g) for g in BAND_GRIDS] + [(2 * DET_BAND_ROWS + 1, 23), (17, 3 * DET_BAND_ROWS)]


@pytest.mark.parametrize("name", sorted(BAND_FNS))
@pytest.mark.parametrize("nx,ny", BAND_SHAPES)
def test_banded_det_grid_matches_whole_grid(name, nx, ny):
    fld = ChartSymbolField(x0=-2.6, x1=2.2, y0=-1.9, y1=2.6, nx=nx, ny=ny, rep_fn=BAND_FNS[name])
    F_ref, max_abs_ref, norm2_ref = det_grid_whole(fld)
    F = fld.det_grid()
    assert F.shape == (nx + 1, ny + 1)
    assert F.tobytes() == F_ref.tobytes()
    assert fld.max_abs_det == max_abs_ref
    assert fld.max_norm2 == norm2_ref


def test_det_grid_memory_stays_near_its_result():
    fld = sigma_mn(1, 4).chart_field(halfwidth=2.6, grid=1024)
    fld.nodes()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        F = fld.det_grid()
        det_peak = tracemalloc.get_traced_memory()[1] - base
        extract_singular_set(fld)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert det_peak <= 2 * F.nbytes
    # the figure the byte cap is checked against covers contouring too
    assert peak <= det_grid_peak_bytes(1024, 1024)


@given(st.integers(min_value=-8, max_value=8))
def test_knot_parity_matches_connectivity(m):
    assert knot_type(m).connected == (m % 2 != 0)
