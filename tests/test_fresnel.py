import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesym.errors import ComputationError, InputError, NotBiaxial
from wavesym.fresnel import (
    Crystal,
    compressed_grid,
    det_j_floor,
    fresnel_mesh,
    fresnel_report,
    sheet_speeds,
    singular_directions,
    traceless_slope,
)
from wavesym.multiplicity import local_degree
from wavesym.spheremesh import icosphere, min_separation, tangent_frames, transport_pq
from wavesym.sym2 import eigenvalues_grid

from .oracles import (
    AXIS_COS_BETA,
    AXIS_SEPARATION,
    AXIS_SIN_BETA,
    fibonacci_sphere,
    maxwell_root_residual,
    maxwell_symbol,
    optic_axes_closed_form,
    sheet_values_brute,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

BIAXIAL = Crystal(eps=(2.0, 2.5, 3.0))

# --- crystal ------------------------------------------------------------------


def test_crystal_validation():
    with pytest.raises(InputError):
        Crystal(eps=(0.0, 1.0, 2.0))
    with pytest.raises(InputError):
        Crystal(eps=(1.0, -2.0, 2.0))


def test_biaxial_detection():
    assert BIAXIAL.is_biaxial()
    assert not Crystal(eps=(2.0, 2.0, 3.0)).is_biaxial()
    assert not Crystal(eps=(2.0, 2.0, 2.0)).is_biaxial()


def test_inv_eps_is_computed_once_and_read_only():
    crystal = Crystal(eps=(2.0, 2.5, 4.0))
    ie = crystal.inv_eps
    assert crystal.inv_eps is ie
    assert ie.tobytes() == np.diag([0.5, 0.4, 0.25]).tobytes()
    with pytest.raises(ValueError):
        ie[0, 0] = 1.0


# --- the 6x6 symbol that the characteristic-equation checks use -----------------


def maxwell_apply(crystal, xi, E, B):
    out = maxwell_symbol(crystal.inv_eps, xi) @ np.concatenate([E, B])
    return out[:3], out[3:]


def test_apply_cross_only():
    out_e, out_b = maxwell_apply(BIAXIAL, E3, np.zeros(3), E1)
    assert np.allclose(out_e, E2)
    assert np.allclose(out_b, 0.0)


def test_apply_isotropic():
    iso = Crystal(eps=(1.0, 1.0, 1.0))
    out_e, out_b = maxwell_apply(iso, E3, E1, E2)
    assert np.allclose(out_e, -E1)
    assert np.allclose(out_b, -E2)


def test_apply_kernel_direction():
    xi = np.array([0.3, -0.7, 1.1])
    out_e, _ = maxwell_apply(BIAXIAL, xi, xi, xi)
    assert np.allclose(out_e, 0.0)


def test_matrix_agrees_with_apply():
    # the symbol acts as (E, B) -> (xi x B, -xi x (eps^{-1} E))
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi, E, B = rng.standard_normal((3, 3))
        ae, ab = maxwell_apply(BIAXIAL, xi, E, B)
        assert np.allclose(ae, np.cross(xi, B), atol=1e-14)
        assert np.allclose(ab, -np.cross(xi, BIAXIAL.inv_eps @ E), atol=1e-14)


# --- compression ----------------------------------------------------------------


def test_compressed_isotropic():
    iso = Crystal(eps=(1.0, 1.0, 1.0))
    t, p, q = compressed_grid(iso, E3[None, :])
    assert t[0] == pytest.approx(2.0, abs=1e-15)
    assert math.hypot(p[0], q[0]) <= 1e-15


def test_compressed_axis_eigenvalues():
    lo, hi = eigenvalues_grid(*compressed_grid(Crystal(eps=(2.0, 3.0, 4.0)), E3[None, :]))
    assert lo[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert hi[0] == pytest.approx(1.0 / 2.0, abs=1e-15)


def test_compressed_frame_independent():
    # eigenvalues agree with dense eigensolves of the projected tensor
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    t, p, q = compressed_grid(BIAXIAL, pts)
    rad = np.hypot(p, q)
    lam1, lam2 = 0.5 * t - rad, 0.5 * t + rad
    b1, b2 = sheet_values_brute(BIAXIAL.inv_eps, pts)
    assert float(np.abs(lam1 - b1).max()) <= 1e-12
    assert float(np.abs(lam2 - b2).max()) <= 1e-12


# --- slowness sheets -------------------------------------------------------------


def test_sample_isotropic_doubles_sphere():
    iso = Crystal(eps=(1.0, 1.0, 1.0))
    xi = np.array([0.6, 0.0, 0.8])
    v1, v2 = sheet_speeds(iso, xi[None, :])
    assert np.allclose(v1[0] * xi, xi, atol=1e-14)
    assert np.allclose(v2[0] * xi, xi, atol=1e-14)


def test_sample_axis_radii():
    v1, v2 = sheet_speeds(Crystal(eps=(2.0, 3.0, 4.0)), E3[None, :])
    assert v1[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert v2[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
    assert v1[0] <= v2[0]


def test_sample_speeds_solve_full_characteristic_equation():
    # +-sqrt(lambda_i) must be roots of det(tau I + sigma(xi)) for the
    # 6x6 operator; located independently by bracketed bisection
    rng = np.random.default_rng(23)
    inv_eps = BIAXIAL.inv_eps
    for _ in range(24):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        for speed in sheet_speeds(BIAXIAL, xi[None, :]):
            for sign in (1.0, -1.0):
                tau = sign * float(speed[0])
                assert maxwell_root_residual(inv_eps, xi, tau) <= 1e-9


def test_sheet_speeds_ordering():
    pts = fibonacci_sphere(500)
    v1, v2 = sheet_speeds(BIAXIAL, pts)
    assert np.all(v1 <= v2 + 1e-15)
    assert np.all(v1 > 0.0)


# --- singular directions ----------------------------------------------------------


def test_four_axes_frozen_components():
    axes = singular_directions(BIAXIAL)
    assert len(axes) == 4
    for a in axes:
        assert a.residual <= 1e-10
        assert abs(a.x[1]) <= 1e-8
        assert abs(abs(a.x[0]) - AXIS_SIN_BETA) <= 1e-9
        assert abs(abs(a.x[2]) - AXIS_COS_BETA) <= 1e-9
        assert a.local_index == 1
    assert sum(a.local_index for a in axes) == 4


def test_axes_come_in_antipodal_pairs():
    axes = singular_directions(BIAXIAL)
    xs = [a.x for a in axes]
    for x in xs:
        assert any(np.linalg.norm(x + y) <= 1e-8 for y in xs)


def test_axes_match_dense_grid_minimum():
    # independent location: coarse global scan of the brute sheet gap,
    # then confirm exact degeneracy at the frozen direction
    pts = fibonacci_sphere(200_000)
    b1, b2 = sheet_values_brute(BIAXIAL.inv_eps, pts)
    best = pts[int(np.argmin(b2 - b1))]
    frozen = np.array([AXIS_SIN_BETA, 0.0, AXIS_COS_BETA])
    dist = min(np.linalg.norm(best - s * f)
               for s in (1.0, -1.0)
               for f in (frozen, frozen * np.array([-1.0, 1.0, 1.0])))
    assert dist <= 6e-3
    g1, g2 = sheet_values_brute(BIAXIAL.inv_eps, frozen[None, :])
    assert float(g2[0] - g1[0]) <= 1e-12


def test_closed_form_axes_agree():
    cf = optic_axes_closed_form(BIAXIAL)
    axes = singular_directions(BIAXIAL)
    for a in axes:
        assert min(np.linalg.norm(a.x - c) for c in cf) <= 1e-9


@pytest.mark.parametrize("eps", [(2.0, 2.000001, 3.0), (2.0, 2.999999, 3.0),
                                 (3.0, 2.000001, 2.0)])
def test_near_uniaxial_axes_have_index_one(eps):
    # axis pairs only 1.6e-3 to 2.5e-3 rad apart, closer than an index
    # circle of fixed radius could tell apart: each axis has index +1
    crystal = Crystal(eps=eps)
    cf = optic_axes_closed_form(crystal)
    axes = singular_directions(crystal)
    assert len(axes) == 4
    for a in axes:
        assert a.local_index == 1
        assert min(np.linalg.norm(a.x - c) for c in cf) <= 1e-9


@pytest.mark.parametrize("eps", [(2.0, 2.0000001, 3.0), (2.0, 2.00000001, 3.0),
                                 (2.0, 2.9999999, 3.0)])
def test_merged_axes_are_refused(eps):
    # axis pairs closer than AXIS_MERGE_ANGLE merge in the search; two axes
    # of index 2 must not pass for the four conical points
    with pytest.raises(NotBiaxial):
        singular_directions(Crystal(eps=eps))


def test_axis_separation_value():
    axes = singular_directions(BIAXIAL)
    assert min_separation(np.array([a.x for a in axes])) == pytest.approx(AXIS_SEPARATION, abs=1e-9)


def test_uniaxial_rejected():
    with pytest.raises(NotBiaxial):
        singular_directions(Crystal(eps=(2.0, 2.0, 3.0)))


def test_axes_permutation_invariant_up_to_relabeling():
    # permuting the dielectric eigenvalues permutes the axis components
    axes = singular_directions(Crystal(eps=(3.0, 2.5, 2.0)))
    assert len(axes) == 4
    for a in axes:
        assert abs(a.x[1]) <= 1e-8
        assert abs(abs(a.x[0]) - AXIS_COS_BETA) <= 1e-9
        assert abs(abs(a.x[2]) - AXIS_SIN_BETA) <= 1e-9


def test_tiny_det_j_is_refused():
    # a spread of 2.5e-9 in eps^{-1}: the four axes are well apart, but det J
    # = s^2 / 4 = 1.6e-18 sits below the floor 8 s AXIS_RESIDUAL_TOL = 2e-18
    crystal = Crystal(eps=(2.0, 2.0 + 5e-9, 2.0 + 1e-8))
    assert crystal.is_biaxial()
    with pytest.raises(ComputationError):
        singular_directions(crystal)


# --- the Jacobian of (p, q) and the Newton axes ------------------------------------


def _spread(crystal):
    a = np.diagonal(crystal.inv_eps)
    return float(a.max() - a.min())


def _closed_form_det_j(crystal):
    a_hi, a_mid, a_lo = sorted((1.0 / e for e in crystal.eps), reverse=True)
    return (a_hi - a_mid) * (a_mid - a_lo)


def _crystal_at_gap_ratio(lo, width, ratio, low_end, order):
    """Lowest eps lo, highest lo + width, middle at the gap ratio from the chosen end."""
    hi = lo + width
    mid = lo + ratio * width if low_end else hi - ratio * width
    return Crystal(eps=tuple(np.array([lo, mid, hi])[list(order)]))


def _random_crystals(rng, count):
    return [_crystal_at_gap_ratio(rng.uniform(1.5, 4.0), rng.uniform(0.5, 2.0),
                                  10.0 ** rng.uniform(-6.0, math.log10(0.5)), k % 2 == 0, rng.permutation(3))
            for k in range(count)]


def test_jacobian_matches_central_differences():
    # J = -[[b1, -b2], [b2, b1]] against central differences of (p, q) from
    # compressed_grid, carried into the frame at x by transport_pq.  Error:
    # the truncation, h^2 / 6 times the third derivative of z along the
    # geodesic, below s h^2, and the roundoff of two evaluations, below
    # 1e-15 each, over 2 h
    rng = np.random.default_rng(41)
    h = 1e-5
    for crystal in _random_crystals(rng, 12):
        x = rng.normal(size=(16, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        t1, t2, _, beta = traceless_slope(crystal, x)
        want = {0: (-beta.real, -beta.imag), 1: (beta.imag, -beta.real)}
        for k, tk in enumerate((t1, t2)):
            ends = []
            for sign in (1.0, -1.0):
                pts = math.cos(h) * x + sign * math.sin(h) * tk
                _, p, q = compressed_grid(crystal, pts)
                ends.append(transport_pq(pts, x, p, q))
            (p_plus, q_plus), (p_minus, q_minus) = ends
            dp, dq = (p_plus - p_minus) / (2.0 * h), (q_plus - q_minus) / (2.0 * h)
            err = np.hypot(dp - want[k][0], dq - want[k][1])
            assert float(err.max()) <= _spread(crystal) * h * h + 1e-15 / h


def test_linear_model_remainder_is_below_the_floor_bound():
    # det_j_floor rests on |z(x') - (z(x) - beta (d1 + i d2))| <= s r^2 at
    # angle r from x, z(x') taken in the frame carried along the geodesic
    rng = np.random.default_rng(43)
    for crystal in _random_crystals(rng, 12):
        x = rng.normal(size=(16, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        t1, t2, z, beta = traceless_slope(crystal, x)
        for r in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            phi = rng.uniform(0.0, 2.0 * math.pi, len(x))
            u = np.cos(phi)[:, None] * t1 + np.sin(phi)[:, None] * t2
            moved = math.cos(r) * x + math.sin(r) * u
            # the geodesic rotation in the plane (x, u) carries t1 to carried_t1
            carried_t1 = t1 + np.einsum("ij,ij->i", t1, u)[:, None] * ((math.cos(r) - 1.0) * u - math.sin(r) * x)
            _, p, q = compressed_grid(crystal, moved)
            m1, m2 = tangent_frames(moved)
            turn = np.arctan2(np.einsum("ij,ij->i", carried_t1, m2), np.einsum("ij,ij->i", carried_t1, m1))
            carried_z = (p + 1j * q) * np.exp(-2j * turn)
            model = z - beta * r * np.exp(1j * phi)
            assert float(np.abs(carried_z - model).max()) <= _spread(crystal) * r * r


def test_cone_slope_is_the_sheet_split_rate():
    # lambda_2 - lambda_1 = 2 |(p, q)| on a circle of r = 1e-6 about each axis,
    # in 64 directions, against cone_slope r: off by at most the remainder
    # 2 s r plus residual and roundoff (1e-15) over r
    rng = np.random.default_rng(47)
    r = 1e-6
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for crystal in [BIAXIAL, Crystal(eps=(2.0, 2.000001, 3.0))] + _random_crystals(rng, 10):
        for a in singular_directions(crystal):
            t1, t2 = tangent_frames(a.x)
            pts = math.cos(r) * a.x + math.sin(r) * (np.cos(phi)[:, None] * t1 + np.sin(phi)[:, None] * t2)
            _, p, q = compressed_grid(crystal, pts)
            split = 2.0 * np.hypot(p, q)
            bound = 2.0 * _spread(crystal) * r + 2.0 * (a.residual + 1e-15) / r
            assert float(np.abs(split / r - a.cone_slope).max()) <= bound
            assert a.cone_slope == 2.0 * math.sqrt(a.det_j)


gap_crystals = st.builds(_crystal_at_gap_ratio, st.floats(1.5, 4.0), st.floats(0.5, 2.0),
                         st.floats(-6.0, math.log10(0.5)).map(lambda e: 10.0 ** e), st.booleans(),
                         st.permutations([0, 1, 2]))


@settings(max_examples=150, deadline=None)
@given(gap_crystals)
def test_newton_axes_match_the_closed_form(crystal):
    # four axes within 1e-12 of the closed form, det J at the closed form
    # (a_hi - a_mid)(a_mid - a_lo) to 1e-12 relative and above its floor,
    # index +1, and the loop oracle reads +1 about each axis at a quarter
    # of the axis separation
    cf = optic_axes_closed_form(crystal)
    axes = singular_directions(crystal)
    assert len(axes) == 4
    want = _closed_form_det_j(crystal)
    xs = np.array([a.x for a in axes])
    radius = min_separation(xs) / 4.0
    section = lambda pts: compressed_grid(crystal, pts)
    for a in axes:
        assert float(np.linalg.norm(cf - a.x, axis=1).min()) <= 1e-12
        assert abs(a.det_j - want) <= 1e-12 * want
        assert a.det_j > det_j_floor(crystal)
        assert a.local_index == 1
        assert local_degree(section, a.x, radius=radius) == 1


# --- meshes ---------------------------------------------------------------------


def test_isotropic_mesh_is_double_unit_sphere():
    inner, outer, _ = fresnel_mesh(Crystal(eps=(1.0, 1.0, 1.0)), subdivisions=3)
    for mesh in (inner, outer):
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert float(np.abs(norms - 1.0).max()) <= 1e-12
    assert np.array_equal(inner.faces, outer.faces)


def test_sheets_touch_near_axes():
    subdiv = 4
    dirs = icosphere(subdiv).vertices
    v1, v2 = sheet_speeds(BIAXIAL, dirs)
    gap = v2 - v1
    loc = dirs[int(np.argmin(gap))]
    axes = singular_directions(BIAXIAL)
    edge = 4.0 / (2.0**subdiv * math.sqrt(2.0))  # generous icosphere edge bound
    assert min(np.linalg.norm(loc - a.x) for a in axes) <= edge


def test_min_sheet_gap_frozen():
    assert fresnel_mesh(BIAXIAL, subdivisions=4)[2] == pytest.approx(
        0.00035881061591636065, rel=1e-12)


def test_gap_antipodal_symmetry():
    pts = fibonacci_sphere(400)
    v1, v2 = sheet_speeds(BIAXIAL, pts)
    w1, w2 = sheet_speeds(BIAXIAL, -pts)
    assert float(np.abs((v2 - v1) - (w2 - w1)).max()) <= 1e-13


def test_gap_shrinks_toward_isotropy():
    gaps = [fresnel_mesh(Crystal(eps=e), subdivisions=3)[2]
            for e in ((2.0, 2.5, 3.0), (2.2, 2.5, 2.8), (2.4, 2.5, 2.6))]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


# --- report ----------------------------------------------------------------------


def test_report_shape():
    rep = fresnel_report(BIAXIAL, singular_directions(BIAXIAL),
                         fresnel_mesh(BIAXIAL, subdivisions=3)[2])
    assert rep["epsilon"] == [2.0, 2.5, 3.0]
    assert len(rep["singular_directions"]) == 4
    entry = rep["singular_directions"][0]
    assert set(entry) == {"x", "residual", "index", "det_j", "cone_slope"}
    assert len(entry["x"]) == 3
    assert rep["min_sheet_gap"] > 0.0
