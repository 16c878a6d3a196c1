import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesym.errors import GluingMismatch, InputError, NotConnected
from wavesym.eigenline import (
    LIFT_TOTAL_TOL,
    build_eigenline_manifold,
    critical_scan,
    ds_r_norm,
    eigenline_report,
)
from wavesym.fresnel import Crystal, compressed_grid, singular_directions
from wavesym.spheremesh import connected_components, tangent_frames, unit_rows

from .oracles import (
    AXIS_DSR_NORM,
    AXIS_SIN_BETA,
    AXIS_COS_BETA,
    ds_r_norm_central,
    fibonacci_sphere,
    half_trace_sphere_gradient,
    refine_on_sphere,
    sheet_values_brute,
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
    rep = eigenline_report(m, BIAXIAL)
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


def sheet_vertices(man, name):
    """Vertex ids of one sheet, from its face group."""
    lo, hi = next((lo, hi) for group, lo, hi in man.face_groups if group == name)
    return np.unique(man.mesh.faces[lo:hi])


def test_lambda_is_lower_upper_and_double_eigenvalue(man):
    # sheet 1 carries the lower eigenvalue and sheet 2 the upper, at the
    # same kept directions; each core carries the double eigenvalue, which
    # for a crystal is the middle principal value 1/2.5
    one, two = sheet_vertices(man, "sheet1"), sheet_vertices(man, "sheet2")
    for sheet, ids in enumerate((one, two)):
        want = sheet_values_brute(BIAXIAL.inv_eps, unit_rows(man.mesh.vertices[ids]))[sheet]
        assert float(np.abs(man.lambda_s[ids] - want).max()) <= 1e-15
    # the second copy of a kept vertex follows the first at a fixed offset
    assert np.array_equal(two - one, np.full(one.size, one.size))
    assert np.all(man.lambda_s[one] < man.lambda_s[two])
    for cyl in man.cylinders:
        assert float(np.abs(man.lambda_s[cyl.core] - 0.4).max()) <= 1e-15


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
    inv = BIAXIAL.inv_eps
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        got = ds_r_norm(inv, x)
        want = float(np.linalg.norm(half_trace_sphere_gradient(inv, x)))
        # the projection cancels, so both round to ulps of the largest entry
        assert abs(got - want) <= 4.0 * math.ulp(0.5)


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-5])
def test_ds_r_norm_against_central_difference(h):
    """The closed form against central differences of the section's t/2.

    s_r is quadratic, so along each great circle it is a sinusoid of
    twice the angle, and each difference at angle atan(h) is exactly the
    directional derivative over 1 + h^2: the O(h^2) error is
    |d s_r| h^2 / (1 + h^2), with no higher terms.  What is left is
    roundoff: at most 8 ulps of a_hi in each t value, which the
    difference divides by 2h, root 2 for the two components, and the
    closed form's own few ulps.  Over 300 random crystals and points the
    largest remainder was 1.5 eps a_hi / h.
    """
    rng = np.random.default_rng(9)
    for _ in range(100):
        crystal = Crystal(eps=tuple(rng.uniform(1.5, 6.0, 3)))
        a_hi = float(np.diagonal(crystal.inv_eps).max())
        x = unit_rows(rng.standard_normal((1, 3)))[0]
        got = ds_r_norm(crystal.inv_eps, x)
        fd = ds_r_norm_central(crystal_section(crystal), x, h)
        assert abs(fd - got / (1.0 + h * h)) <= 8.0 * np.finfo(float).eps * a_hi / h


def test_ds_r_norm_at_axes_frozen():
    for a in crystal_axes(BIAXIAL):
        assert abs(ds_r_norm(BIAXIAL.inv_eps, a) - AXIS_DSR_NORM) <= 4.0 * math.ulp(AXIS_DSR_NORM)


def test_isotropic_crystal_has_flat_half_trace():
    iso = Crystal(eps=(2.0, 2.0, 2.0))
    for x in ([0.0, 0.0, 1.0], [AXIS_SIN_BETA, 0.0, AXIS_COS_BETA]):
        x = np.array(x)
        assert ds_r_norm(iso.inv_eps, x) <= 1e-16
        assert ds_r_norm_central(crystal_section(iso), x) <= 1e-9


# --- critical census -----------------------------------------------------------------


def test_census_consistent(man):
    crit = critical_scan(man)
    assert crit["chi"] == -4
    assert crit["chi_from_criticals"] == -4
    assert crit["consistent"] is True
    assert crit["minima"] >= 1 and crit["maxima"] >= 1


def test_sheet_extrema_frozen_values():
    # interlacing pins every sheet extremum at a principal value of
    # eps^{-1}: lam1 in [1/4, 1/3], lam2 in [1/3, 1/2] for eps = (2,3,4)
    c = Crystal(eps=(2.0, 3.0, 4.0))
    m = build_eigenline_manifold(crystal_section(c), crystal_axes(c),
                                 tube_radius=0.1, collar=0.5, subdivisions=4)
    ex = eigenline_report(m, c)["sheet_extrema"]
    assert ex == {"sheet1": {"min": 0.25, "max": 1.0 / 3.0},
                  "sheet2": {"min": 1.0 / 3.0, "max": 0.5}}


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
    rep = eigenline_report(man, BIAXIAL)
    assert rep["chi"] == -4
    assert rep["genus"] == 3
    assert rep["cylinders"] == 4
    assert rep["tube_radius"] == 0.1
    assert rep["collar"] == 0.5
    assert rep["subdivisions"] == 4
    assert rep["census"]["consistent"] is True
    assert len(rep["necessary_condition"]) == 4
    for entry in rep["necessary_condition"]:
        assert abs(entry["ds_r_norm"] - AXIS_DSR_NORM) <= 4.0 * math.ulp(AXIS_DSR_NORM)
        assert "vacuous" in entry["status"]
        assert "classification deferred" in entry["status"]
        assert abs(abs(entry["lift_total"]) - math.pi) <= LIFT_TOTAL_TOL * math.pi
    assert set(rep["sheet_extrema"]) == {"sheet1", "sheet2"}
    assert "criticals" not in rep


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


@settings(max_examples=40, deadline=None)
@example(eps=(3.0, 3.0001, 3.0002))
@given(eps=st.lists(st.floats(1.5, 6.0), min_size=3, max_size=3, unique=True).map(tuple))
def test_sheet_extrema_are_sorted_principal_values(eps):
    """The reported sheet levels are sorted(1/eps) bit for bit, and a
    descent on dense 3x3 eigenvalues from each sheet's extreme vertices
    lands on them.

    The descent lands within 1e-13 (a_hi - a_lo), plus 8 ulps of a_hi:
    no evaluation of an eigenvalue resolves it closer than a few ulps of
    the largest entry, which matters only for nearly equal
    permittivities; eps (3, 3.0001, 3.0002), a_hi - a_lo = 2.2e-5,
    lands 5 ulps of a_hi off.  Refused draws return, as in the gluing
    test above.
    """
    crystal = Crystal(eps=eps)
    try:
        man = build_crystal_manifold(crystal, subdivisions=3)
    except InputError:
        return
    a_lo, a_mid, a_hi = sorted(np.diagonal(crystal.inv_eps))
    ex = eigenline_report(man, crystal)["sheet_extrema"]
    assert ex == {"sheet1": {"min": a_lo, "max": a_mid}, "sheet2": {"min": a_mid, "max": a_hi}}
    tol = 1e-13 * (a_hi - a_lo) + 8.0 * math.ulp(a_hi)
    for name, sheet in (("sheet1", 0), ("sheet2", 1)):
        ids = sheet_vertices(man, name)
        dirs = unit_rows(man.mesh.vertices[ids])

        def lam(x):
            return float(sheet_values_brute(crystal.inv_eps, x[None, :])[sheet][0])

        for key, pick, minimize in (("min", np.argmin, True), ("max", np.argmax, False)):
            _, level = refine_on_sphere(lam, dirs[pick(man.lambda_s[ids])], minimize=minimize)
            assert abs(level - ex[name][key]) <= tol
