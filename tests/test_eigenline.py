import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesym.errors import GluingMismatch, InputError, NotConnected
from wavesym.eigenline import (
    LIFT_TOTAL_TOL,
    EigenlineManifold,
    build_eigenline_manifold,
    critical_scan,
    ds_r_norm,
    eigenline_report,
)
from wavesym.fresnel import Crystal, compressed_grid, singular_directions
from wavesym.spheremesh import connected_components, tangent_frames

from .oracles import (
    AXIS_DSR_NORM,
    AXIS_SIN_BETA,
    AXIS_COS_BETA,
    fibonacci_sphere,
    half_trace_sphere_gradient,
    sheet_values_dense,
)

BIAXIAL = Crystal(eps=(2.0, 2.5, 3.0))


def crystal_section(crystal):
    return lambda pts: compressed_grid(crystal, pts)


def crystal_axes(crystal):
    return np.array([a.x for a in singular_directions(crystal)])


def build_crystal_manifold(crystal=BIAXIAL, tube_radius=0.1, collar=0.5,
                           subdivisions=4):
    return build_eigenline_manifold(
        crystal_section(crystal), crystal_axes(crystal),
        tube_radius=tube_radius, collar=collar, subdivisions=subdivisions)


@pytest.fixture(scope="module")
def man():
    return build_crystal_manifold()


# --- topology -------------------------------------------------------------------


def test_crystal_manifold_is_genus_three(man):
    assert man.chi == -4
    assert man.genus == 3
    assert len(man.cylinders) == 4


def test_chi_stable_under_tube_radius(man):
    for rho in (0.05, 0.2):
        m = build_crystal_manifold(tube_radius=rho)
        assert m.chi == -4
        assert m.genus == 3


def test_two_conical_points_give_torus():
    axes = crystal_axes(BIAXIAL)
    pair = np.array([axes[0], -axes[0]])
    m = build_eigenline_manifold(crystal_section(BIAXIAL), pair,
                                 tube_radius=0.1, collar=0.5, subdivisions=4)
    assert m.chi == 0
    assert m.genus == 1
    assert len(m.cylinders) == 2


def test_no_points_give_disjoint_spheres():
    m = build_eigenline_manifold(crystal_section(BIAXIAL), np.zeros((0, 3)),
                                 tube_radius=0.1, collar=0.5, subdivisions=3)
    assert m.chi == 4
    assert connected_components(m.mesh) == 2
    with pytest.raises(NotConnected):
        m.genus
    rep = eigenline_report(m, crystal_section(BIAXIAL))
    assert rep["genus"] is None
    assert rep["components"] == 2


def test_sheets_touch_only_through_cylinders(man):
    # drop the cylinder faces; the rest must fall apart into the 2 sheets
    sheet_faces = []
    for name, lo, hi in man.face_groups:
        if name.startswith("sheet"):
            sheet_faces.append(man.mesh.faces[lo:hi])
    faces = np.vstack(sheet_faces)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for f in faces:
        union(int(f[0]), int(f[1]))
        union(int(f[0]), int(f[2]))
    roots = {find(int(v)) for v in np.unique(faces)}
    assert len(roots) == 2


# --- fields ----------------------------------------------------------------------


def test_lambda_decomposition(man):
    err = np.abs(man.lambda_s - (man.s_r + man.lambda_s0))
    assert float(err.max()) <= 1e-15
    assert np.all(man.lambda_s0[man.region == 0] < 0.0)
    assert np.all(man.lambda_s0[man.region == 1] > 0.0)
    assert np.all(man.lambda_s0[man.region >= 2] == 0.0)


def test_isotropic_eigenvalue_constant():
    iso = Crystal(eps=(1.0, 1.0, 1.0))
    m = build_eigenline_manifold(crystal_section(iso), np.zeros((0, 3)),
                                 tube_radius=0.1, collar=0.5, subdivisions=3)
    assert float(np.abs(m.lambda_s - 1.0).max()) <= 1e-14


def test_core_rings_sit_at_collar_depth(man):
    for cyl in man.cylinders:
        core = man.mesh.vertices[cyl.core]
        ang = np.arccos(np.clip(core @ cyl.point, -1.0, 1.0))
        rc = man.tube_radius * man.collar
        assert float(np.abs(ang - rc).max()) <= 1e-12


def test_core_azimuth_doubles_lifted_angle(man):
    # psi = 2 * lifted eigenline angle, read back from the embedded ring
    for cyl in man.cylinders:
        t1, t2 = tangent_frames(cyl.point)
        core = man.mesh.vertices[cyl.core]
        rel = core - (core @ cyl.point)[:, None] * cyl.point[None, :]
        psi = np.arctan2(rel @ t2, rel @ t1)
        want = 2.0 * cyl.angles
        d = np.mod(psi - want + math.pi, 2.0 * math.pi) - math.pi
        assert float(np.abs(d).max()) <= 1e-9


def test_gluing_loops_make_half_turns(man):
    for cyl in man.cylinders:
        assert abs(abs(cyl.lift_total) - math.pi) <= LIFT_TOTAL_TOL * math.pi


# --- half-trace derivative ----------------------------------------------------------


def test_ds_r_norm_against_analytic_gradient():
    sec = crystal_section(BIAXIAL)
    inv = BIAXIAL.inv_eps
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        got = ds_r_norm(sec, x)
        want = float(np.linalg.norm(half_trace_sphere_gradient(inv, x)))
        assert abs(got - want) <= 1e-8


def test_ds_r_norm_at_axes_frozen():
    sec = crystal_section(BIAXIAL)
    for a in crystal_axes(BIAXIAL):
        assert abs(ds_r_norm(sec, a) - AXIS_DSR_NORM) <= 1e-6


def test_constant_trace_section_has_flat_half_trace():
    base = crystal_section(BIAXIAL)

    def sec(pts):
        t, p, q = base(pts)
        return np.full_like(t, 2.0), p, q

    for x in ([0.0, 0.0, 1.0], [AXIS_SIN_BETA, 0.0, AXIS_COS_BETA]):
        assert ds_r_norm(sec, np.array(x)) <= 1e-9


# --- critical census -----------------------------------------------------------------


def test_census_consistent(man):
    crit = critical_scan(man)
    assert crit["chi"] == -4
    assert crit["chi_from_criticals"] == -4
    assert crit["consistent"] is True
    assert crit["minima"] >= 1 and crit["maxima"] >= 1
    for p in crit["points"]:
        assert p["kind"] in ("min", "max", "saddle")
        assert len(p["where"]) == 3


def test_criticals_exclude_core_vertices(man):
    crit = critical_scan(man)
    core_dirs = {tuple(np.round(c.point, 12)) for c in man.cylinders}
    for p in crit["points"]:
        assert tuple(np.round(p["where"], 12)) not in core_dirs


def test_sheet_extrema_frozen_values():
    # interlacing pins every sheet extremum at a principal value of
    # eps^{-1}: lam1 in [1/4, 1/3], lam2 in [1/3, 1/2] for eps = (2,3,4)
    c = Crystal(eps=(2.0, 3.0, 4.0))
    sec = crystal_section(c)
    m = build_eigenline_manifold(sec, crystal_axes(c),
                                 tube_radius=0.1, collar=0.5, subdivisions=4)
    ex = eigenline_report(m, sec)["sheet_extrema"]
    assert ex["sheet1"]["min"] == pytest.approx(0.25, abs=1e-12)
    assert ex["sheet1"]["max"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ex["sheet2"]["min"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ex["sheet2"]["max"] == pytest.approx(0.5, abs=1e-12)


def test_sheet_extrema_are_global_dense_grid():
    # certify globality with a frame-free scan of a million directions
    pts = fibonacci_sphere(1_000_000)
    l1, l2 = sheet_values_dense(1.0 / np.array([2.0, 3.0, 4.0]), pts)
    assert abs(float(l1.min()) - 0.25) <= 1e-9
    assert abs(float(l1.max()) - 1.0 / 3.0) <= 1e-9
    assert abs(float(l2.min()) - 1.0 / 3.0) <= 1e-9
    assert abs(float(l2.max()) - 0.5) <= 1e-9


# --- report ---------------------------------------------------------------------------


def test_report_schema(man):
    sec = crystal_section(BIAXIAL)
    rep = eigenline_report(man, sec)
    assert rep["chi"] == -4
    assert rep["genus"] == 3
    assert rep["cylinders"] == 4
    assert rep["tube_radius"] == 0.1
    assert rep["collar"] == 0.5
    assert rep["subdivisions"] == 4
    assert rep["census"]["consistent"] is True
    assert len(rep["necessary_condition"]) == 4
    for entry in rep["necessary_condition"]:
        assert entry["ds_r_norm"] == pytest.approx(AXIS_DSR_NORM, abs=1e-6)
        assert "vacuous" in entry["status"]
        assert "classification deferred" in entry["status"]
        assert abs(abs(entry["lift_total"]) - math.pi) <= LIFT_TOTAL_TOL * math.pi
    assert set(rep["sheet_extrema"]) == {"sheet1", "sheet2"}


# --- validation -----------------------------------------------------------------------


def test_close_points_rejected():
    sec = crystal_section(BIAXIAL)
    p = np.array([[0.0, 0.0, 1.0],
                  [math.sin(0.2), 0.0, math.cos(0.2)]])
    with pytest.raises(InputError):
        build_eigenline_manifold(sec, p, tube_radius=0.1)


def test_parameter_validation():
    sec = crystal_section(BIAXIAL)
    with pytest.raises(InputError):
        build_eigenline_manifold(sec, np.zeros((0, 3)), collar=1.5)
    with pytest.raises(InputError):
        build_eigenline_manifold(sec, np.zeros((0, 3)), tube_radius=0.0)
    with pytest.raises(InputError):
        build_eigenline_manifold(sec, np.zeros((0, 3)), tube_radius=math.nan)
    with pytest.raises(InputError):
        build_eigenline_manifold(sec, np.array([[0.0, 0.0, 0.0]]))


def test_nondegenerate_point_fails_gluing():
    # at a declared point where the section does not vanish the eigenline
    # cannot complete a half turn around the loop
    sec = crystal_section(BIAXIAL)
    with pytest.raises(GluingMismatch):
        build_eigenline_manifold(sec, np.array([[0.0, 0.0, 1.0]]),
                                 tube_radius=0.1, collar=0.5, subdivisions=4)


# axes 0.30 rad apart, more than 3 tube radii, whose tube disks merge at subdiv 4
CLOSE_AXES = Crystal(eps=(5.718431480418933, 1.5844479112835204, 5.395485578415656))


@settings(max_examples=60, deadline=None)
@example(eps=CLOSE_AXES.eps, subdivisions=4)
@given(eps=st.lists(st.floats(1.5, 6.0), min_size=3, max_size=3, unique=True).map(tuple),
       subdivisions=st.sampled_from([3, 4]))
def test_random_crystals_glue_to_genus_three_or_refuse(eps, subdivisions):
    """Every crystal glues to a closed, oriented, connected genus-3 surface
    or is refused with an InputError, never with a GluingMismatch.

    Of 400 seeded uniform draws, 11% are refused at subdiv 3 and 7.5% at
    subdiv 4: axes closer than 3 tube radii, or axes farther apart whose
    tube disks merge on the mesh.  Of 1000 draws of this strategy, 9.4%
    are refused.  The three values are distinct: with repeats allowed,
    most draws were uniaxial and tested only that refusal.
    """
    try:
        man = build_crystal_manifold(Crystal(eps=eps), subdivisions=subdivisions)
    except InputError:
        return
    topo = man.topology
    assert topo.closed and topo.oriented and topo.components == 1
    assert man.genus == 3 and len(man.cylinders) == 4
