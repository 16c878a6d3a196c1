"""The vectorized mesh combinatorics against the face-by-face loops, the
shared frame transport, cyclic line lift and axis separation against the
per-caller copies they replaced, and the batched descent against the
single-start loop."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesym.eigenline import EigenlineManifold, build_eigenline_manifold, critical_scan
from wavesym.errors import GluingMismatch, NotClosed, TransportFailure, WavesymError
from wavesym.fresnel import Crystal, compressed_grid, singular_directions
from wavesym.multiplicity import lift_angles
from wavesym.spheremesh import (
    SurfaceMesh,
    _edge_table,
    boundary_loops,
    connected_components,
    euler_characteristic,
    icosphere,
    is_consistently_oriented,
    mesh_topology,
    min_separation,
    refine_on_sphere,
    tangent_frames,
    transport_pq,
    unit_rows,
)

from . import oracles

BIAXIAL = Crystal(eps=(2.0, 2.5, 3.0))


def _punctured(subdivisions, n_removed, seed):
    mesh = icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    drop = rng.choice(mesh.n_faces, size=n_removed, replace=False)
    return SurfaceMesh(vertices=mesh.vertices, faces=np.delete(mesh.faces, drop, axis=0))


def _two_spheres():
    a, b = icosphere(2), icosphere(1)
    return SurfaceMesh(vertices=np.vstack([a.vertices, b.vertices + 3.0]),
                       faces=np.vstack([a.faces, b.faces + a.n_vertices]))


def _flipped_face():
    mesh = icosphere(2)
    faces = mesh.faces.copy()
    faces[7] = faces[7, ::-1]
    return SurfaceMesh(vertices=mesh.vertices, faces=faces)


def _glued(k):
    axes = np.array([a.x for a in singular_directions(BIAXIAL)])
    points = {0: np.zeros((0, 3)), 2: np.array([axes[0], -axes[0]]), 4: axes}[k]
    return build_eigenline_manifold(lambda pts: compressed_grid(BIAXIAL, pts), points,
                                    tube_radius=0.1, collar=0.5, subdivisions=3)


def _field_manifold(mesh, seed):
    """A mesh dressed as a manifold, carrying a smooth or a random field."""
    if seed is None:
        values = mesh.vertices @ np.array([0.3, -0.2, 1.0]) + mesh.vertices[:, 0] ** 2
    else:
        values = np.random.default_rng(seed).standard_normal(mesh.n_vertices)
    return EigenlineManifold(
        mesh=mesh, lambda_s=values, cylinders=[], face_groups=[],
        tube_radius=0.1, collar=0.5, subdivisions=0)


MESHES = {
    **{f"icosphere{s}": (lambda s=s: icosphere(s)) for s in range(5)},
    **{f"punctured{n}_seed{seed}": (lambda n=n, seed=seed: _punctured(3, n, seed))
       for n in (1, 4, 30) for seed in (0, 1, 2)},
    "two_spheres": _two_spheres,
    "flipped_face": _flipped_face,
    "isolated_vertex": lambda: SurfaceMesh(vertices=np.vstack([icosphere(1).vertices, [[0.0, 0.0, 2.0]]]),
                                           faces=icosphere(1).faces),
    **{f"glued_k{k}": (lambda k=k: _glued(k).mesh) for k in (0, 2, 4)},
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotClosed as exc:
        return ("NotClosed", str(exc))


def _pinched(faces):
    """True when some vertex touches more than two boundary edges."""
    degree = {}
    for (a, b), c in oracles._edge_counts(faces).items():
        if c == 1:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
    return any(d > 2 for d in degree.values())


def _assert_topology_matches_loops(mesh):
    topo = mesh_topology(mesh)
    want_chi = _outcome(oracles.euler_characteristic, mesh)
    assert _outcome(lambda m: topo.chi, mesh) == want_chi
    assert topo.closed == (not isinstance(want_chi, tuple))
    assert topo.components == oracles.connected_components(mesh)
    assert topo.oriented == oracles.is_consistently_oriented(mesh)
    return topo


@pytest.mark.parametrize("name", sorted(MESHES))
def test_combinatorics_match_loops(name):
    mesh = MESHES[name]()
    _assert_topology_matches_loops(mesh)
    assert _outcome(euler_characteristic, mesh) == _outcome(oracles.euler_characteristic, mesh)
    assert connected_components(mesh) == oracles.connected_components(mesh)
    assert is_consistently_oriented(mesh) == oracles.is_consistently_oriented(mesh)
    if _pinched(mesh.faces):
        # the loop walk never returns to its start on a pinched boundary
        with pytest.raises(WavesymError, match="pinched"):
            boundary_loops(mesh.faces, *_edge_table(mesh.faces)[1:])
    else:
        assert boundary_loops(mesh.faces, *_edge_table(mesh.faces)[1:]) == oracles.boundary_loops(mesh.faces)


@pytest.mark.parametrize("subdivisions", range(7))
def test_icosphere_bit_equal_to_midpoint_loop(subdivisions):
    got, want = icosphere(subdivisions), oracles.icosphere_loop(subdivisions)
    for g, w in ((got.vertices, want.vertices), (got.faces, want.faces)):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("k", range(6))
def test_icosphere_level_structure(k):
    coarse, fine = icosphere(k), icosphere(k + 1)
    V, F = coarse.n_vertices, coarse.n_faces
    assert (V, F) == (10 * 4**k + 2, 20 * 4**k)
    assert (fine.n_vertices, fine.n_faces) == (10 * 4 ** (k + 1) + 2, 20 * 4 ** (k + 1))
    assert fine.vertices[:V].tobytes() == coarse.vertices.tobytes()
    # rows 4i..4i+3 are the children of face i: (a, ab, ca), (ab, b, bc),
    # (ca, bc, c), (ab, bc, ca), each of ab, bc, ca a new vertex at the
    # normalized sum of its edge's ends
    a, b, c = coarse.faces.T
    kids = fine.faces.reshape(F, 4, 3)
    ab, bc, ca = kids[:, 0, 1], kids[:, 1, 2], kids[:, 2, 0]
    want = np.stack([np.column_stack(corners) for corners in
                     ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))], axis=1)
    assert np.array_equal(kids, want)
    cv = coarse.vertices
    for mid, (i, j) in ((ab, (a, b)), (bc, (b, c)), (ca, (c, a))):
        assert mid.min() >= V
        s = cv[i] + cv[j]
        assert np.abs(fine.vertices[mid] - s / np.linalg.norm(s, axis=1, keepdims=True)).max() <= 1e-15
    # the new vertices are numbered by first appearance in the face-major walk
    seen: dict[int, None] = {}
    for v in np.column_stack([ab, bc, ca]).ravel().tolist():
        seen.setdefault(v)
    assert list(seen) == list(range(V, fine.n_vertices))
    topo = mesh_topology(fine)
    assert (topo.closed, topo.oriented, topo.chi, topo.components) == (True, True, 2, 1)
    assert np.abs(np.linalg.norm(fine.vertices, axis=1) - 1.0).max() <= 4 * 2.0**-53


def test_topology_fin_edge_is_open_and_unoriented():
    # an oriented tetrahedron on vertices 0, 1, 3, 4 and a fin (3, 1, 2)
    # on its edge 1-3: every edge has exactly one rising half-edge, but
    # three faces share 1-3
    tetra = [(0, 3, 1), (0, 1, 4), (0, 4, 3), (1, 3, 4)]
    mesh = SurfaceMesh(vertices=np.random.default_rng(0).normal(size=(5, 3)), faces=tetra + [(3, 1, 2)])
    topo = _assert_topology_matches_loops(mesh)
    assert (topo.open_edges, topo.oriented, topo.components) == (3, False, 1)
    assert is_consistently_oriented(SurfaceMesh(vertices=mesh.vertices, faces=tetra))


@functools.cache
def _built(name):
    return MESHES[name]()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(n for n in MESHES if n not in ("icosphere3", "icosphere4"))),
       seed=st.integers(0, 2**32 - 1))
def test_topology_ignores_vertex_labels_and_face_order(name, seed):
    # relabel the vertices, shuffle the faces and rotate each face's
    # corners: the surface and its orientation stay the same
    mesh = _built(name)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    turns = rng.integers(0, 3, size=mesh.n_faces)
    faces = perm[mesh.faces]
    faces = faces[np.arange(mesh.n_faces)[:, None], (np.arange(3) + turns[:, None]) % 3]
    faces = faces[rng.permutation(mesh.n_faces)]
    moved = SurfaceMesh(vertices=vertices, faces=faces)
    assert _assert_topology_matches_loops(moved) == mesh_topology(mesh)


def test_pinched_boundary_is_refused():
    # two faces of an icosphere that share exactly one vertex
    mesh = icosphere(1)
    f = mesh.faces
    i, j = next((i, j) for i in range(len(f)) for j in range(i + 1, len(f))
                if len(set(f[i]) & set(f[j])) == 1)
    faces = np.delete(f, [i, j], axis=0)
    assert _pinched(faces)
    with pytest.raises(WavesymError, match="pinched"):
        boundary_loops(faces, *_edge_table(faces)[1:])


CENSUS_KEYS = ("minima", "maxima", "saddle_multiplicity", "chi_from_criticals")


@pytest.mark.parametrize("name", [f"icosphere{s}" for s in range(5)] + ["two_spheres"])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_census_matches_star_walk(name, seed):
    man = _field_manifold(MESHES[name](), seed)
    crit = critical_scan(man)
    want = oracles.critical_census(man)
    assert {k: crit[k] for k in CENSUS_KEYS} == want
    assert crit["chi_from_criticals"] == crit["chi"]


@pytest.mark.parametrize("k", [0, 2, 4])
def test_glued_census_matches_star_walk(k):
    man = _glued(k)
    crit = critical_scan(man)
    assert {k: crit[k] for k in CENSUS_KEYS} == oracles.critical_census(man)
    assert crit["consistent"] is True


def test_census_refuses_flipped_face():
    with pytest.raises(GluingMismatch):
        critical_scan(_field_manifold(_flipped_face(), 0))


# --- frame transport, cyclic line lift, axis separation -----------------------


def _unit_rows(rng, n):
    x = rng.normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _circles(centers, radii, samples):
    """(F, S, 3) points on circles of the given angular radii about each center."""
    t1, t2 = tangent_frames(centers)
    beta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    ring = np.cos(beta)[None, :, None] * t1[:, None, :] + np.sin(beta)[None, :, None] * t2[:, None, :]
    return np.cos(radii)[:, None, None] * centers[:, None, :] + np.sin(radii)[:, None, None] * ring


@pytest.mark.parametrize("seed", range(4))
def test_transport_matches_face_loop_copy(seed):
    rng = np.random.default_rng(seed)
    centers = _unit_rows(rng, 40)
    loops = _circles(centers, rng.uniform(1e-3, 0.5, 40), 24)
    p, q = rng.normal(size=(2, 40, 24))
    want = oracles._pq_in_center_frames(loops, centers, p, q)
    got = transport_pq(loops.reshape(-1, 3), np.repeat(centers, 24, axis=0), p.reshape(-1), q.reshape(-1))
    for g, w in zip(got, want):
        assert np.array_equal(g.reshape(40, 24), w)
    # one shared center gives the same values as the repeated one
    for f in range(0, 40, 7):
        single = transport_pq(loops[f], centers[f], p[f], q[f])
        assert np.array_equal(single[0], want[0][f]) and np.array_equal(single[1], want[1][f])


@pytest.mark.parametrize("seed", range(4))
def test_gluing_lift_matches_eigenline_copy(seed):
    rng = np.random.default_rng(seed)
    section = lambda pts: compressed_grid(BIAXIAL, pts)
    axes = np.array([a.x for a in singular_directions(BIAXIAL)])
    centers = np.vstack([axes, _unit_rows(rng, 12)])
    loops = _circles(centers, rng.uniform(0.02, 0.4, len(centers)), 60)
    for c, loop in zip(centers, loops):
        raw_copy = oracles._eigenline_angles_about(section, loop, c)
        want_lift, want_total = oracles._lift_cyclic_line_angles(raw_copy)
        lift, total = lift_angles(raw_copy, cyclic=True)
        assert np.array_equal(lift, want_lift) and total == want_total
        # the copy's projection dot went through BLAS gemv, the shared
        # transport's through einsum; the two round apart in the last bit
        _, p, q = section(loop)
        pr, qr = transport_pq(loop, c, p, q)
        lift, total = lift_angles(0.5 * np.arctan2(qr, pr), cyclic=True)
        assert np.abs(lift - want_lift).max() <= 4.0 * np.spacing(np.pi)
        assert abs(total - want_total) <= 4.0 * np.spacing(np.pi)


@pytest.mark.parametrize("seed", range(4))
def test_min_separation_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    for n in range(9):
        dirs = _unit_rows(rng, n)
        assert min_separation(dirs) == oracles.min_pair_angle(list(dirs))
    assert min_separation(np.zeros((0, 3))) == np.pi


_SEPARATION_PROBE = """
import numpy as np
from tests import oracles
from wavesym.spheremesh import min_separation
for seed in range(4):
    rng = np.random.default_rng(seed)
    for n in range(9):
        x = rng.normal(size=(n, 3))
        dirs = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert min_separation(dirs) == oracles.min_pair_angle(list(dirs)), (seed, n)
"""


def test_min_separation_matches_pair_loop_on_haswell_blas():
    """The comparison above in a child process whose OpenBLAS runs its
    Haswell kernel, where a gemm and a ddot of the same rows round apart.

    Where OpenBLAS picks that kernel anyway, or the numpy build ignores
    OPENBLAS_CORETYPE, this repeats the comparison above and is trivially
    equal.
    """
    root = Path(__file__).resolve().parent.parent
    src = Path(min_separation.__code__.co_filename).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(src), str(root)]))
    proc = subprocess.run([sys.executable, "-c", _SEPARATION_PROBE],
                          capture_output=True, text=True, cwd=root, env=env)
    assert proc.returncode == 0, proc.stderr


def test_transport_refuses_point_on_center_axis():
    center = np.array([0.3, -0.4, np.sqrt(0.75)])
    t1, _ = tangent_frames(center)
    with pytest.raises(TransportFailure):
        transport_pq(np.vstack([center, t1]), center, np.ones(2), np.zeros(2))


def test_tangent_frames_bit_equal_to_np_cross():
    rng = np.random.default_rng(7)
    x = _unit_rows(rng, 20000)
    polar = _unit_rows(rng, 3000)
    polar[:, 2] = np.sign(polar[:, 2]) * rng.uniform(0.9, 1.0, 3000)
    on_x0 = _unit_rows(rng, 3000)
    on_x0[:, 0] = 0.0
    pts = np.vstack([x, unit_rows(polar), unit_rows(on_x0), np.eye(3), -np.eye(3)])
    assert (np.abs(pts[:, 2]) > 0.9).sum() > 3000 and (pts[:, 0] == 0.0).sum() >= 3000
    got, want = tangent_frames(pts), oracles.tangent_frames_cross(pts)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    for p in pts[::997]:
        for g, w in zip(tangent_frames(p), oracles.tangent_frames_cross(p)):
            assert g.shape == (3,) and g.tobytes() == w.tobytes()


def test_unit_rows_round_like_single_row_norm():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-8, 8, size=(20000, 1))
    want = np.array([row / np.linalg.norm(row) for row in x])
    assert unit_rows(x).tobytes() == want.tobytes()


def _random_crystal(rng, ratio, low_end):
    """Lowest eps in [1.5, 4], highest 0.5..2 above it, middle at the gap
    ratio from the chosen end."""
    lo = rng.uniform(1.5, 4.0)
    hi = lo + rng.uniform(0.5, 2.0)
    mid = lo + ratio * (hi - lo) if low_end else hi - ratio * (hi - lo)
    return Crystal(eps=tuple(rng.permutation([lo, mid, hi])))


def _gap_squared(crystal):
    """|(p, q)|^2 of the crystal's section, a smooth function to descend on."""
    def fn(pts):
        _, p, q = compressed_grid(crystal, pts)
        return p * p + q * q
    return fn


def _assert_rows_match_single_starts(f, starts, rows, minimize):
    xs, vals = refine_on_sphere(f, starts, minimize=minimize)
    assert xs.shape == starts.shape and vals.shape == (len(starts),)
    row_minimize = np.broadcast_to(minimize, len(starts))
    for i in rows:
        x, v = oracles.refine_on_sphere(lambda p: f(p[None, :])[0], starts[i],
                                        minimize=bool(row_minimize[i]))
        assert np.array_equal(xs[i], x) and vals[i] == v


@pytest.mark.parametrize("seed,ratio,low_end", [(0, 1e-6, True), (1, 1e-6, False), (2, 3e-4, True),
                                                (3, 0.4, False)])
def test_batched_axis_descent_matches_single_starts(seed, ratio, low_end):
    # all 48 seeds descend together, rows leaving at different sweeps;
    # every sixth is replayed on its own
    rng = np.random.default_rng(seed)
    gap2 = _gap_squared(_random_crystal(rng, ratio, low_end))
    mesh = icosphere(3)
    seeds = mesh.vertices[np.argsort(gap2(mesh.vertices))[:48]]
    _assert_rows_match_single_starts(gap2, seeds, range(0, 48, 6), minimize=True)


@pytest.mark.parametrize("minimize", [True, False, np.array([True, False, False, True, False, True])])
def test_batched_sheet_descent_matches_single_starts(minimize):
    rng = np.random.default_rng(11)
    crystal = _random_crystal(rng, 1e-6, False)

    def lam2(pts):
        t, p, q = compressed_grid(crystal, pts)
        return 0.5 * t + np.hypot(p, q)

    _assert_rows_match_single_starts(lam2, _unit_rows(rng, 6), range(6), minimize)


def test_batched_descent_keeps_a_single_start_single():
    gap2 = _gap_squared(BIAXIAL)
    start = np.array([0.6, 0.1, 0.8])
    x, v = refine_on_sphere(gap2, start)
    want_x, want_v = oracles.refine_on_sphere(lambda p: gap2(p[None, :])[0], start)
    assert x.shape == (3,) and isinstance(v, float)
    assert np.array_equal(x, want_x) and v == want_v
