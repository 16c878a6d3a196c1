"""Closed-form checks of every artifact a benchmark job writes.

The verifiers import nothing from `wavesym`.  They recompute what each
job should say from the model itself:

* sigma_mn: multiplicity radii {1} plus alpha (n - m = 1) or 1/alpha
  (n - m = 3), alpha the real root of r^3 + r^2 + 3 r - 1; kernel-line
  winding n - m; kernel angle (n - m) theta / 2 + pi / 2 (mod pi) at
  base angle theta on every circle.
* Biaxial crystal: the four optic axes from cos^2 b = (a2 - a3)/(a1 - a3)
  (Berry & Jeffrey 2007) and the two sheet speeds from the trace and
  determinant of eps^{-1} restricted to the tangent plane.
* Eigenline manifold: chi = -4 and genus 3 recomputed from the OBJ
  faces (closed, consistently oriented, connected), four cylinders,
  and the Morse count minima - saddles + maxima = chi.

A verdict names the first violated expectation.  A failure that matches
a documented defect carries that defect's name; it still fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import REFUSAL_SEPARATION, TUBE_RADIUS, axis_separation, optic_axes

AXIS_TOL = 1e-10
SPEED_TOL = 1e-7
ANGLE_TOL = 1e-6
RADIUS_CELLS = 2.0
# local_degree samples a fixed circle of 5e-3 rad: axes closer than that
# share the circle and each reports index 2; at about that separation the
# circle runs through the neighbouring axis and the loop lift fails (exit 3)
INDEX_DEFECT = ("local-index: near-uniaxial axes meet the fixed local_degree circle "
                "(index 2 per axis, or exit 3 'vector loop sampled too coarsely')")
INDEX_DEFECT_SEPARATION = 1e-2


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    defect: str | None = None


class Wrong(Exception):
    """A job's output contradicts the closed form; `defect` names a known cause."""

    def __init__(self, reason: str, defect: str | None = None):
        super().__init__(reason)
        self.defect = defect


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _alpha() -> float:
    roots = np.roots([1.0, 1.0, 3.0, -1.0])
    r = float(roots[np.argmin(np.abs(roots.imag))].real)
    for _ in range(3):
        r -= (((r + 1.0) * r + 3.0) * r - 1.0) / ((3.0 * r + 2.0) * r + 3.0)
    return r


ALPHA = _alpha()


def sigma_radii(m: int, n: int) -> list[float]:
    d = n - m
    return sorted([1.0] + ([ALPHA] if d == 1 else []) + ([1.0 / ALPHA] if d == 3 else []))


def _json(files: dict):
    _expect("json" in files, "missing json artifact")
    return json.loads(files["json"])


def _match_circles(found: list[dict], m: int, n: int, cell: float) -> None:
    """found: dicts with r, winding, knot, connected (one per curve)."""
    d = n - m
    if d == 2:
        _expect(all(c["winding"] is None for c in found), "tangential pair reports a winding")
        return
    used = set()
    for rc in sigma_radii(m, n):
        hits = [i for i, c in enumerate(found) if abs(c["r"] - rc) <= RADIUS_CELLS * cell]
        _expect(len(hits) == 1, f"radius {rc:.12g} matched by {len(hits)} curves")
        c = found[hits[0]]
        _expect(c["winding"] == d, f"winding {c['winding']} at r={rc:.6g}, expected {d}")
        _expect(list(c["knot"]) == [2, d], f"knot {c['knot']} at r={rc:.6g}")
        _expect(c["connected"] == (d % 2 != 0), f"connectivity {c['connected']} at r={rc:.6g}")
        used.add(hits[0])
    for i, c in enumerate(found):
        if i in used:
            continue
        _expect(m > 0 and n > 0, f"extra curve at r={c['r']:.6g} but the origin is regular")
        _expect(c["r"] <= RADIUS_CELLS * cell and c["winding"] is None,
                f"extra curve at r={c['r']:.6g} with winding {c['winding']}")


def _halfwidth(m: int, n: int) -> float:
    return max(2.0, 1.3 * max(sigma_radii(m, n)))


def verify_sphere(params: dict, rc: int, files: dict, output: str) -> None:
    m, n, grid = params["m"], params["n"], params["grid"]
    _expect(rc == 0, f"exit code {rc}: {output.strip()}")
    rep = _json(files)
    hw = _halfwidth(m, n)
    _expect((rep["m"], rep["n"], rep["grid"]) == (m, n, grid), "report echoes wrong m, n, grid")
    _expect(abs(rep["halfwidth"] - hw) <= 1e-12 * hw, f"halfwidth {rep['halfwidth']}")
    radii = sigma_radii(m, n)
    _expect(len(rep["radii"]) == len(radii)
            and all(abs(a - b) <= 1e-12 * b for a, b in zip(rep["radii"], radii)),
            f"radii {rep['radii']} != {radii}")
    _expect(rep["includes_zero"] == (m > 0 and n > 0), "includes_zero")
    _expect(rep["includes_infinity"] == (m < 2 and n < 6), "includes_infinity")
    _expect(rep["dh_dr_1"] == 2.0 * (2 + m - n), f"dh_dr_1 {rep['dh_dr_1']}")
    _expect(rep["transversal"] == (n - m != 2), "transversal flag")
    _match_circles(rep["circles"], m, n, 2.0 * hw / grid)


def verify_winding(params: dict, rc: int, files: dict, output: str) -> None:
    m, n, grid = params["m"], params["n"], params["grid"]
    _expect(rc == 0, f"exit code {rc}: {output.strip()}")
    rep = _json(files)
    _expect("csv" in files, "missing csv artifact")
    lines = files["csv"].decode().split("\n")
    _expect(lines[0] == "curve_id,x1,x2,kernel_angle_lifted" and lines[-1] == "", "csv framing")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]]).reshape(-1, 4)
    traced = [c for c in rep["curves"] if c["winding"] is not None]
    ids = np.unique(rows[:, 0]).astype(int)
    _expect(list(ids) == list(range(len(traced))), f"csv curve ids {list(ids)} for {len(traced)} traced curves")
    hw = _halfwidth(m, n)
    cell = 2.0 * hw / grid
    found = []
    trace_iter = iter(range(len(traced)))
    for c in rep["curves"]:
        if c["winding"] is None:
            found.append({"r": c["length"] / (2.0 * math.pi), **c})
            continue
        cid = next(trace_iter)
        pts = rows[rows[:, 0] == cid]
        _expect(c["transversal"], "traced curve not certified transversal")
        _expect(bool(np.all(pts[0, 1:3] == pts[-1, 1:3])), f"curve {cid} not closed")
        total = (pts[-1, 3] - pts[0, 3]) / math.pi
        _expect(abs(total - c["winding"]) <= ANGLE_TOL, f"curve {cid} lifted total {total:.9g} vs winding {c['winding']}")
        theta = np.arctan2(pts[:, 2], pts[:, 1])
        pred = 0.5 * (n - m) * theta + 0.5 * math.pi
        err = np.mod(pts[:, 3] - pred + 0.5 * math.pi, math.pi) - 0.5 * math.pi
        _expect(float(np.abs(err).max()) <= ANGLE_TOL, f"curve {cid} kernel angle off by {float(np.abs(err).max()):.3g}")
        found.append({"r": float(np.hypot(pts[:, 1], pts[:, 2]).mean()), **c})
    _match_circles(found, m, n, cell)


def sheet_speeds(eps, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (slow, fast) phase speeds along unit directions."""
    a = 1.0 / np.asarray(eps, dtype=float)
    x2 = dirs * dirs
    t = a.sum() - x2 @ a
    det = x2 @ np.array([a[1] * a[2], a[0] * a[2], a[0] * a[1]])
    rad = np.sqrt(np.maximum(0.25 * t * t - det, 0.0))
    return np.sqrt(np.maximum(0.5 * t - rad, 0.0)), np.sqrt(0.5 * t + rad)


def parse_obj(data: bytes) -> tuple[np.ndarray, np.ndarray, list[tuple[str, str, int, int]]]:
    """(vertices, 0-based faces, [(kind, name, first vertex, first face)])."""
    v_rows, f_rows, heads = [], [], []
    for line in data.decode().split("\n"):
        if line.startswith("v "):
            v_rows.append(line[2:])
        elif line.startswith("f "):
            f_rows.append(line[2:])
        elif line.startswith(("o ", "g ")):
            heads.append((line[0], line[2:], len(v_rows), len(f_rows)))
        else:
            _expect(line == "", f"unexpected OBJ line {line[:40]!r}")
    verts = np.array(" ".join(v_rows).split(), dtype=float).reshape(-1, 3)
    faces = np.array(" ".join(f_rows).split(), dtype=np.int64).reshape(-1, 3) - 1
    return verts, faces, heads


def _match_axes(points: list, eps) -> None:
    """Reported axes must match the closed-form ones, one to one."""
    cf = optic_axes(eps)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    _expect(len(pts) == 4, f"{len(pts)} axes, expected 4")
    dist = np.linalg.norm(pts[:, None, :] - cf[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    _expect(len(set(nearest.tolist())) == 4, "two reported axes match one closed-form axis")
    worst = float(dist.min(axis=1).max())
    _expect(worst <= AXIS_TOL, f"axis off the closed form by {worst:.3g}")


def verify_fresnel(params: dict, rc: int, files: dict, output: str) -> None:
    eps, s = params["eps"], params["subdiv"]
    sep = axis_separation(optic_axes(eps))
    if rc == 3 and "vector loop sampled too coarsely" in output and sep < INDEX_DEFECT_SEPARATION:
        raise Wrong(f"exit code 3 ({output.strip()}), closed-form axis separation {sep:.3g} rad", INDEX_DEFECT)
    _expect(rc == 0, f"exit code {rc}: {output.strip()}")
    rep = _json(files)
    _expect(rep["epsilon"] == eps, "report echoes wrong epsilon")
    axes = rep["singular_directions"]
    _match_axes([a["x"] for a in axes], eps)
    worst = max(a["residual"] for a in axes)
    _expect(worst <= AXIS_TOL, f"axis residual {worst:.3g}")
    idx = [a["index"] for a in axes]
    if idx != [1, 1, 1, 1]:
        known = idx == [2, 2, 2, 2] and sep < INDEX_DEFECT_SEPARATION
        raise Wrong(f"local indices {idx} (sum {sum(idx)}), closed-form axis separation {sep:.3g} rad",
                    INDEX_DEFECT if known else None)

    _expect("obj" in files, "missing obj artifact")
    verts, faces, heads = parse_obj(files["obj"])
    nv, nf = 10 * 4**s + 2, 20 * 4**s
    _expect([(k, name) for k, name, _, _ in heads] == [("o", "fresnel_inner"), ("o", "fresnel_outer")],
            f"OBJ objects {heads}")
    _expect(verts.shape == (2 * nv, 3) and faces.shape == (2 * nf, 3), "OBJ sizes")
    _expect(heads[1][2:] == (nv, nf), "OBJ object split")
    _expect(faces[:nf].min() >= 0 and faces[:nf].max() < nv
            and bool(np.all(faces[nf:] == faces[:nf] + nv)), "OBJ face indices")
    r_in = np.linalg.norm(verts[:nv], axis=1)
    r_out = np.linalg.norm(verts[nv:], axis=1)
    dirs = verts[nv:] / r_out[:, None]
    _expect(float(np.abs(verts[:nv] - r_in[:, None] * dirs).max()) <= 1e-12, "sheets along different directions")
    slow, fast = sheet_speeds(eps, dirs)
    err = max(float(np.abs(r_in - slow).max()), float(np.abs(r_out - fast).max()))
    _expect(err <= SPEED_TOL, f"sheet radius off the closed form by {err:.3g}")
    gap = float((fast - slow).min())
    _expect(abs(rep["min_sheet_gap"] - gap) <= SPEED_TOL, f"min_sheet_gap {rep['min_sheet_gap']} vs {gap}")


def mesh_topology(faces: np.ndarray, n_vertices: int) -> tuple[int, bool, bool, int]:
    """(chi, closed, consistently oriented, components) of a triangle mesh."""
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    key = directed[:, 0] * n_vertices + directed[:, 1]
    oriented = np.unique(key).size == key.size
    und = np.sort(directed, axis=1)
    ukey, counts = np.unique(und[:, 0] * n_vertices + und[:, 1], return_counts=True)
    closed = bool(np.all(counts == 2))
    chi = n_vertices - ukey.size + faces.shape[0]
    # label propagation with pointer jumping over the edge graph
    u, v = ukey // n_vertices, ukey % n_vertices
    lab = np.arange(n_vertices)
    while True:
        low = np.minimum(lab[u], lab[v])
        new = lab.copy()
        np.minimum.at(new, lab[u], low)
        np.minimum.at(new, lab[v], low)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            break
        lab = new
    used = np.zeros(n_vertices, dtype=bool)
    used[faces.reshape(-1)] = True
    return int(chi), closed, bool(oriented), int(np.unique(lab[used]).size)


def verify_eigenline(params: dict, rc: int, files: dict, output: str) -> None:
    sep = params["separation"]
    if abs(sep - REFUSAL_SEPARATION) < 1e-9:
        _expect(rc in (0, 2), f"exit code {rc} at the refusal threshold")
        if rc == 2:
            return
    elif params["refuse"]:
        _expect(rc == 2 and "closer than 3 tube radii" in output,
                f"exit code {rc} ({output.strip()}); closed-form axis separation {sep:.4g} <= {REFUSAL_SEPARATION}")
        _expect(not files, f"refused job wrote {sorted(files)}")
        return
    _expect(rc == 0, f"exit code {rc} ({output.strip()}); closed-form axis separation {sep:.4g}")
    rep = _json(files)
    for key, want in (("chi", -4), ("genus", 3), ("cylinders", 4), ("subdivisions", params["subdiv"]),
                      ("tube_radius", TUBE_RADIUS), ("collar", 0.5)):
        _expect(rep[key] == want, f"{key} {rep[key]}, expected {want}")
    census = rep["census"]
    _expect(census["consistent"] and census["chi_from_criticals"] == -4, f"census {census}")
    _expect(census["minima"] - census["saddle_multiplicity"] + census["maxima"] == -4,
            f"Morse count {census}")
    conds = rep["necessary_condition"]
    _match_axes([c["point"] for c in conds], params["eps"])
    worst = max(abs(abs(c["lift_total"]) - math.pi) for c in conds)
    _expect(worst <= 1e-9, f"eigenline lift total off +-pi by {worst:.3g}")

    _expect("obj" in files, "missing obj artifact")
    verts, faces, heads = parse_obj(files["obj"])
    names = [name for kind, name, _, _ in heads]
    _expect(names == ["sheet1", "sheet2", "cyl_0", "cyl_1", "cyl_2", "cyl_3"], f"OBJ groups {names}")
    _expect(verts.shape[0] == rep["vertices"] and faces.shape[0] == rep["faces"], "OBJ sizes vs report")
    _expect(faces.min() >= 0 and faces.max() < verts.shape[0], "OBJ face indices")
    chi, closed, oriented, comps = mesh_topology(faces, verts.shape[0])
    _expect(closed and oriented and comps == 1, f"OBJ surface closed={closed} oriented={oriented} components={comps}")
    _expect(chi == -4, f"OBJ Euler characteristic {chi}")


VERIFIERS = {
    "sphere": verify_sphere,
    "winding": verify_winding,
    "fresnel": verify_fresnel,
    "eigenline": verify_eigenline,
}


def verify(job, rc: int, files: dict[str, bytes], output: str = "") -> Verdict:
    """Check one job's exit code, messages and artifacts against the closed forms."""
    try:
        VERIFIERS[job.subcommand](job.params, rc, files, output)
    except Wrong as exc:
        return Verdict(False, str(exc), exc.defect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Verdict(False, f"malformed artifact: {type(exc).__name__}: {exc}")
    return Verdict(True)
