"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its own runtime budget and states its tolerance
inline; run with -v to get one pass/fail line per criterion.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wavesym
from wavesym.errors import NotBiaxial
from wavesym.eigenline import build_eigenline_manifold
from wavesym.fresnel import Crystal, compressed_grid, sheet_speeds, singular_directions
from wavesym.multiplicity import extract_singular_set, trace_component
from wavesym.sphere import analyze_mn, sigma_mn, transversality_h, z_set
from wavesym.sym2 import eigenvalues_grid

from .oracles import alpha_root, maxwell_root_residuals

ALL_MN = [(m, n) for m in range(3) for n in range(7)]


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s"
        return elapsed


def test_criterion_01_eigenvalue_closed_form():
    """10^5 random symmetric operators: closed form vs quadratic roots, 1e-12."""
    budget = Budget(1.0)
    rng = np.random.default_rng(101)
    t, p, q = rng.standard_normal((3, 100_000)) * 10.0 ** rng.uniform(-3, 3, (3, 100_000))
    lam1, lam2 = eigenvalues_grid(t, p, q)

    # oracle: entries -> trace, determinant, stable discriminant, root pairing
    m00 = t / 2.0 + p
    m11 = t / 2.0 - p
    tr = m00 + m11
    det = m00 * m11 - q * q
    disc = np.hypot(m00 - m11, 2.0 * q)
    big = np.where(tr >= 0.0, (tr + disc) / 2.0, (tr - disc) / 2.0)
    other = np.where(big != 0.0, det / np.where(big == 0.0, 1.0, big), 0.0)
    o1 = np.minimum(big, other)
    o2 = np.maximum(big, other)

    # relative to the operator scale; a vanishing eigenvalue has no
    # scale of its own to be relative to
    scale = np.abs(tr) / 2.0 + disc / 2.0 + 1e-300
    err = np.maximum(np.abs(lam1 - o1), np.abs(lam2 - o2)) / scale
    assert float(err.max()) <= 1e-12
    budget.check()


def test_criterion_02_rotation_equivariance():
    """(p,q) turns by exactly 2 theta, (u,w) by (theta, 3 theta); 360 x 100 grid."""
    budget = Budget(1.0)
    rng = np.random.default_rng(202)
    thetas = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    rot = np.zeros((360, 2, 2))
    rot[:, 0, 0] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    rot[:, 1, 1] = c
    rot2 = np.zeros((360, 2, 2))
    c2, s2 = np.cos(2.0 * thetas), np.sin(2.0 * thetas)
    rot2[:, 0, 0] = c2
    rot2[:, 0, 1] = -s2
    rot2[:, 1, 0] = s2
    rot2[:, 1, 1] = c2

    worst_sym = 0.0
    worst_rep = 0.0
    for _ in range(100):
        t, p, q = rng.standard_normal(3)
        S = np.array([[t / 2.0 + p, q], [q, t / 2.0 - p]])
        conj = np.einsum("kab,bc,kdc->kad", rot, S, rot)   # R S R^T
        p_t = 0.5 * (conj[:, 0, 0] - conj[:, 1, 1])
        q_t = conj[:, 0, 1]
        scale = 1.0 + abs(t) + math.hypot(p, q)
        worst_sym = max(worst_sym, float(np.abs(p_t - (c2 * p - s2 * q)).max()) / scale)
        worst_sym = max(worst_sym, float(np.abs(q_t - (s2 * p + c2 * q)).max()) / scale)
        worst_sym = max(worst_sym, float(np.abs(conj[:, 0, 0] + conj[:, 1, 1] - t).max()) / scale)

        u = complex(*rng.standard_normal(2))
        w = complex(*rng.standard_normal(2))
        col1 = (u + w) / math.sqrt(2.0)
        col2 = 1j * (u - w) / math.sqrt(2.0)
        M = np.array([[col1.real, col2.real], [col1.imag, col2.imag]])
        # frame change: M' = Rot(2 theta) M Rot(-theta)
        conj = np.einsum("kab,bc,kcd->kad", rot2, M, np.transpose(rot, (0, 2, 1)))
        u_t = np.exp(1j * thetas) * u
        w_t = np.exp(3j * thetas) * w
        c1_t = (u_t + w_t) / math.sqrt(2.0)
        c2_t = 1j * (u_t - w_t) / math.sqrt(2.0)
        want = np.stack([np.stack([c1_t.real, c2_t.real], axis=1),
                         np.stack([c1_t.imag, c2_t.imag], axis=1)], axis=1)
        scale = 1.0 + abs(u) + abs(w)
        worst_rep = max(worst_rep, float(np.abs(conj - want).max()) / scale)

    assert worst_sym <= 1e-12
    assert worst_rep <= 1e-12
    budget.check()


def test_criterion_03_z_sets():
    """Z_{0,1} = {alpha, 1}, Z_{0,3} = {1, 1/alpha}, {1} otherwise, shift rule."""
    budget = Budget(1.0)
    a = alpha_root()
    assert abs(((a + 1.0) * a + 3.0) * a - 1.0) <= 1e-12

    z01 = z_set(0, 1)
    assert len(z01.radii) == 2
    assert abs(z01.radii[0] - a) <= 1e-12
    assert z01.radii[1] == 1.0

    z03 = z_set(0, 3)
    assert len(z03.radii) == 2
    assert z03.radii[0] == 1.0
    assert abs(z03.radii[1] - 1.0 / a) <= 1e-11

    for m in range(3):
        assert z_set(m, 0).radii == (1.0,)
    for n in range(7):
        if n not in (1, 3):
            assert z_set(0, n).radii == (1.0,)

    for m in range(1, 3):
        for n in range(1, 7):
            assert z_set(m, n).radii == z_set(m - 1, n - 1).radii
    budget.check()


def test_criterion_04_transversality_slope():
    """dh/dr(1) = 2(2+m-n) within 1e-6 on all 21 pairs; flag false iff n-m=2."""
    budget = Budget(1.0)
    for m, n in ALL_MN:
        tv = transversality_h(m, n)
        assert tv.analytic_slope == 2.0 * (2.0 + m - n)
        assert abs(tv.numeric_slope - tv.analytic_slope) <= 1e-6
        assert tv.transversal == (n - m != 2)
    budget.check()


def test_criterion_05_unit_circle_winding():
    """Extracted unit-circle winding equals n-m exactly, parity sets connectivity."""
    budget = Budget(30.0)
    for m, n in ALL_MN:
        if n - m == 2:
            continue
        fld = sigma_mn(m, n).chart_field(halfwidth=2.0, grid=512)
        curves = extract_singular_set(fld)
        assert curves, (m, n)
        radii = [float(np.hypot(c.polyline[:, 0], c.polyline[:, 1]).mean()) for c in curves]
        unit = curves[int(np.argmin(np.abs(np.array(radii) - 1.0)))]
        comp = trace_component(fld, unit)
        assert comp.winding == n - m, (m, n, comp.winding)
        assert comp.connected == ((n - m) % 2 != 0)
    budget.check()


def test_criterion_06_fresnel_singularities():
    """Biaxial crystal: exactly 4 conical directions, paired, planar, index sum 4."""
    budget = Budget(10.0)
    axes = singular_directions(Crystal(eps=(2.0, 2.5, 3.0)))
    assert len(axes) == 4
    xs = [a.x for a in axes]
    for a in axes:
        assert a.residual <= 1e-10
        assert abs(a.x[1]) <= 1e-8
        assert any(np.linalg.norm(a.x + y) <= 1e-8 for y in xs)
    assert sum(a.local_index for a in axes) == 4
    budget.check()


def test_criterion_07_characteristic_equation():
    """10^3 directions: +-sqrt(lambda_i) are roots of the 6x6 determinant, 1e-9."""
    budget = Budget(10.0)
    crystal = Crystal(eps=(2.0, 2.5, 3.0))
    inv_eps = crystal.inv_eps
    rng = np.random.default_rng(707)
    xis = rng.standard_normal((1000, 3))
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    roots = np.column_stack(sheet_speeds(crystal, xis))
    taus = np.stack([roots[:, 0], -roots[:, 0], roots[:, 1], -roots[:, 1]], axis=1).ravel()
    res = maxwell_root_residuals(inv_eps, np.repeat(xis, 4, axis=0), taus)
    assert float(res.max()) <= 1e-9
    budget.check()


def test_criterion_08_genus_three_stability():
    """Glued manifold: chi = -4, genus 3, stable over tube radii and subdivisions."""
    budget = Budget(30.0)
    crystal = Crystal(eps=(2.0, 2.5, 3.0))
    section = lambda pts: compressed_grid(crystal, pts)
    points = np.array([a.x for a in singular_directions(crystal)])
    for subdiv in (4, 5):
        for rho in (0.05, 0.1, 0.2):
            man = build_eigenline_manifold(section, points, tube_radius=rho,
                                           subdivisions=subdiv)
            assert man.chi == -4, (subdiv, rho)
            assert man.genus == 3, (subdiv, rho)
    budget.check()


def test_criterion_09_degenerate_control():
    """Uniaxial input refused; tangential family reports no winding."""
    budget = Budget(1.0)
    with pytest.raises(NotBiaxial):
        singular_directions(Crystal(eps=(2.0, 2.0, 3.0)))
    rep = analyze_mn(0, 2, grid=256)
    assert rep["transversal"] is False
    assert all(c["winding"] is None for c in rep["circles"])
    budget.check()


def test_criterion_10_cli_determinism(tmp_path):
    """Every artifact type byte-identical across 3 consecutive CLI runs.

    The child interpreters import wavesym from the directory that holds
    the package this test imported, put first on their PYTHONPATH as an
    absolute path: a relative entry such as ``src`` would resolve against
    each run's own cwd, and an installed copy need not be the code under
    test.
    """
    package_file = Path(wavesym.__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_file.parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = subprocess.run(
        [sys.executable, "-c", "import wavesym; print(wavesym.__file__)"],
        capture_output=True, cwd=tmp_path, env=env)
    assert probe.returncode == 0, probe.stderr.decode()
    assert Path(probe.stdout.decode().strip()).resolve() == package_file
    jobs = [
        ("zset", ["zset", "--m", "0", "--n", "1"], []),
        ("sphere", ["sphere", "--m", "1", "--n", "4", "--grid", "128"], []),
        ("winding", ["winding", "--m", "0", "--n", "3", "--grid", "128"],
         [("--out", "w.json"), ("--out-csv", "w.csv")]),
        ("fresnel", ["fresnel", "--subdiv", "3"],
         [("--out", "f.json"), ("--out-obj", "f.obj")]),
        ("eigenline", ["eigenline", "--subdiv", "3"],
         [("--out", "e.json"), ("--out-obj", "e.obj")]),
        ("knots", ["knots", "--winding", "3", "--samples", "64"],
         [("--out", "k.json"), ("--out-csv", "k.csv")]),
    ]
    for name, argv, outputs in jobs:
        captures = []
        for run in range(3):
            rundir = tmp_path / f"{name}_{run}"
            rundir.mkdir()
            cmd = [sys.executable, "-m", "wavesym"] + argv
            for flag, fname in outputs:
                cmd += [flag, str(rundir / fname)]
            proc = subprocess.run(cmd, capture_output=True, cwd=rundir, env=env)
            assert proc.returncode == 0, (name, proc.stderr.decode())
            blob = [proc.stdout]
            for _, fname in outputs:
                blob.append((rundir / fname).read_bytes())
            captures.append(blob)
        assert captures[0] == captures[1] == captures[2], name
