"""Layer spans and counters for the traced benchmark pass.

The wrappers live here, not in `wavesym`: `install` replaces each
target at the name its callers look up (a module global such as
`wavesym.cli.compressed_grid`, or a class attribute such as
`ChartSymbolField.det_grid`) and `uninstall` puts the originals back.
A target that no longer exists raises `MissingTarget`, so a renamed
function can never read as a layer that took no time.

Spans (name, start, end, parent) and counters are kept in memory and
written out once at the end.  A span's self time is its duration minus
the durations of its direct children; the job's root span holds the
CLI's own work (argparse, validation, file writes).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# layer span -> the names callers look up, as "module:attr" or "module:Class.attr"
SPAN_TARGETS = {
    "sphere.z_set": ["wavesym.sphere:z_set", "wavesym.cli:z_set"],
    "sphere.symbol_eval": ["wavesym.sphere:SphereSymbol.rep_grid"],
    "multiplicity.det_grid": ["wavesym.multiplicity:ChartSymbolField.det_grid"],
    "multiplicity.extract": ["wavesym.sphere:extract_singular_set", "wavesym.cli:extract_singular_set"],
    "multiplicity.certify": ["wavesym.sphere:regular_value_check", "wavesym.sphere:trace_component",
                             "wavesym.cli:regular_value_check", "wavesym.cli:trace_component"],
    "multiplicity.polylines_csv": ["wavesym.cli:polylines_csv"],
    "multiplicity.local_degree": ["wavesym.fresnel:local_degree"],
    "fresnel.axis_search": ["wavesym.fresnel:singular_directions", "wavesym.cli:singular_directions"],
    "fresnel.sheets": ["wavesym.fresnel:sheet_speeds", "wavesym.cli:fresnel_mesh"],
    "spheremesh.refine": ["wavesym.fresnel:refine_on_sphere", "wavesym.eigenline:refine_on_sphere"],
    "spheremesh.tangent_frames": ["wavesym.spheremesh:tangent_frames", "wavesym.fresnel:tangent_frames",
                                  "wavesym.multiplicity:tangent_frames", "wavesym.eigenline:tangent_frames"],
    "spheremesh.icosphere": ["wavesym.fresnel:icosphere", "wavesym.eigenline:icosphere"],
    "spheremesh.euler": ["wavesym.spheremesh:euler_characteristic", "wavesym.eigenline:euler_characteristic"],
    "spheremesh.orientation": ["wavesym.eigenline:is_consistently_oriented"],
    "spheremesh.boundary_loops": ["wavesym.eigenline:boundary_loops"],
    "spheremesh.components": ["wavesym.spheremesh:connected_components", "wavesym.eigenline:connected_components"],
    "eigenline.build": ["wavesym.cli:build_eigenline_manifold"],
    "eigenline.critical_scan": ["wavesym.eigenline:critical_scan"],
    "eigenline.report": ["wavesym.cli:eigenline_report"],
    "serialize.json": ["wavesym.cli:canonical_json"],
    "serialize.obj": ["wavesym.cli:obj_objects", "wavesym.cli:obj_face_groups"],
}

# counted, not timed: their time stays with the calling span.
# spec -> (counter prefix, index of the points argument, only inside this span)
COUNT_TARGETS = {
    "wavesym.fresnel:compressed_grid": ("fresnel.compressed_grid", 1, None),
    "wavesym.cli:compressed_grid": ("eigenline.section", 1, None),
    "wavesym.multiplicity:ChartSymbolField.det_at": ("multiplicity.bisection", 1, "multiplicity.extract"),
}

# (metric, unit); every value is the median over traced jobs of a per-job figure
PER_LAYER = [
    ("cli.self_s", "s"), ("trace.coverage", "ratio"), ("trace.overhead_frac", "ratio"),
    ("sphere.symbol_eval_s", "s"), ("sphere.symbol_eval_points", "count"),
    ("sphere.symbol_eval_bytes", "bytes"), ("sphere.z_set_s", "s"),
    ("multiplicity.det_grid_s", "s"), ("multiplicity.extract_s", "s"),
    ("multiplicity.bisection_points", "count"), ("multiplicity.curve_vertices", "count"),
    ("multiplicity.points_per_vertex", "ratio"), ("multiplicity.certify_s", "s"),
    ("multiplicity.polylines_csv_s", "s"), ("multiplicity.local_degree_s", "s"),
    ("multiplicity.local_degree_calls", "count"),
    ("fresnel.axis_search_s", "s"), ("fresnel.compressed_grid_calls", "count"),
    ("fresnel.compressed_grid_points", "count"), ("fresnel.points_per_call", "ratio"),
    ("fresnel.axis_yield", "ratio"), ("fresnel.sheets_s", "s"),
    ("spheremesh.refine_s", "s"), ("spheremesh.refine_calls", "count"),
    ("spheremesh.refine_evals", "count"), ("spheremesh.tangent_frames_s", "s"),
    ("spheremesh.tangent_frames_calls", "count"), ("spheremesh.icosphere_s", "s"),
    ("spheremesh.icosphere_calls", "count"), ("spheremesh.euler_s", "s"),
    ("spheremesh.euler_calls", "count"), ("spheremesh.orientation_s", "s"),
    ("spheremesh.boundary_loops_s", "s"), ("spheremesh.components_s", "s"),
    ("eigenline.build_s", "s"), ("eigenline.critical_scan_s", "s"), ("eigenline.report_s", "s"),
    ("eigenline.section_calls", "count"), ("eigenline.section_points", "count"),
    ("eigenline.mesh_faces", "count"),
    ("serialize.obj_s", "s"), ("serialize.json_s", "s"), ("serialize.bytes_out", "bytes"),
]

ROOT = "cli"


class MissingTarget(RuntimeError):
    """A wrapped name disappeared from the program."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans and per-job counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []     # (job, name id, start, end, parent span)
        self.stack: list[list] = []             # [name id, start, child time, span index]
        self.jobs: list[dict] = []              # per job: wall, self times, counts
        self._self = defaultdict(float)
        self._counts = defaultdict(float)
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def innermost(self) -> str:
        return self.names[self.stack[-1][0]]

    def count(self, name: str, n: float = 1) -> None:
        self._counts[name] += n

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        frame = [nid, 0.0, 0.0, len(self.spans)]
        self.spans.append(None)
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[1]
        parent = -1
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][3]
        self.spans[frame[3]] = (self._job, frame[0], frame[1], end, parent)
        self._self[frame[0]] += dur - frame[2]
        return dur

    def run_job(self, job_id: int, fn):
        """Run fn() under the job's root span and record the job's totals."""
        self._job = job_id
        self._self.clear()
        self._counts.clear()
        frame = self._enter(self.name_id(ROOT))
        try:
            return fn()
        finally:
            wall = self._exit(frame)
            self.jobs.append({"job": job_id, "wall": wall,
                              "self": {self.names[k]: v for k, v in self._self.items()},
                              "counts": dict(self._counts)})

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        hook = _HOOKS.get(name)
        calls = name + "_calls"
        counts, enter, leave = self._counts, self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if hook is not None:
                args = hook.before(self, args)
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook.after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, entry: tuple, fn):
        prefix, point_arg, inside = entry
        calls, points = prefix + "_calls", prefix + "_points"
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or self.innermost() == inside:
                counts[calls] += 1
                counts[points] += len(args[point_arg])
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        specs = [(spec, self._span_wrapper, name) for name, group in SPAN_TARGETS.items() for spec in group]
        specs += [(spec, self._count_wrapper, entry) for spec, entry in COUNT_TARGETS.items()]
        plan, missing = [], []
        for spec, make, what in specs:
            found = _resolve(spec)
            if found is None:
                missing.append(spec)
            else:
                plan.append((*found, make(what, found[2])))
        if missing:
            raise MissingTarget("trace targets not found: " + ", ".join(missing))
        for owner, attr, original, wrapper in plan:
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def job_metrics(self, job: dict, bytes_out: int) -> dict[str, float]:
        """Per-layer figures of one traced job."""
        s, c = job["self"], job["counts"]
        out = {
            "cli.self_s": s.get(ROOT, 0.0),
            "trace.coverage": 1.0 - _ratio(s.get(ROOT, 0.0), job["wall"]),
            "sphere.symbol_eval_points": c.get("sphere.symbol_eval_points", 0.0),
            "sphere.symbol_eval_bytes": c.get("sphere.symbol_eval_bytes", 0.0),
            "multiplicity.bisection_points": c.get("multiplicity.bisection_points", 0.0),
            "multiplicity.curve_vertices": c.get("multiplicity.curve_vertices", 0.0),
            "multiplicity.points_per_vertex": _ratio(c.get("multiplicity.curve_vertices", 0.0),
                                                     c.get("multiplicity.bisection_points", 0.0)),
            "multiplicity.local_degree_calls": c.get("multiplicity.local_degree_calls", 0.0),
            "fresnel.compressed_grid_calls": c.get("fresnel.compressed_grid_calls", 0.0),
            "fresnel.compressed_grid_points": c.get("fresnel.compressed_grid_points", 0.0),
            "fresnel.points_per_call": _ratio(c.get("fresnel.compressed_grid_points", 0.0),
                                              c.get("fresnel.compressed_grid_calls", 0.0)),
            "fresnel.axis_yield": _ratio(c.get("fresnel.axes_kept", 0.0), c.get("fresnel.refinements", 0.0)),
            "spheremesh.refine_calls": c.get("spheremesh.refine_calls", 0.0),
            "spheremesh.refine_evals": c.get("spheremesh.refine_evals", 0.0),
            "spheremesh.tangent_frames_calls": c.get("spheremesh.tangent_frames_calls", 0.0),
            "spheremesh.icosphere_calls": c.get("spheremesh.icosphere_calls", 0.0),
            "spheremesh.euler_calls": c.get("spheremesh.euler_calls", 0.0),
            "eigenline.section_calls": c.get("eigenline.section_calls", 0.0),
            "eigenline.section_points": c.get("eigenline.section_points", 0.0),
            "eigenline.mesh_faces": c.get("eigenline.mesh_faces", 0.0),
            "serialize.bytes_out": float(bytes_out),
        }
        for name in SPAN_TARGETS:
            out[name + "_s"] = s.get(name, 0.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as TSV (times relative to the first span) plus per-job counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write("# job\tspan\tname\tstart_s\tend_s\tparent\n")
            for i, (job, nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{job}\t{i}\t{self.names[nid]}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
            for job in self.jobs:
                fh.write(f"# counts job {job['job']}\t{dict(sorted(job['counts'].items()))}\n")


def _resolve(spec: str):
    """(owner, attribute, original) for "module:attr" / "module:Class.attr", or None."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class _Hook:
    def before(self, tracer: Tracer, args: tuple) -> tuple:
        return args

    def after(self, tracer: Tracer, args: tuple, result) -> None:
        pass


class _SymbolEval(_Hook):
    def after(self, tracer, args, result):
        u, w = result
        tracer.count("sphere.symbol_eval_points", np.size(args[1]))
        tracer.count("sphere.symbol_eval_bytes", u.nbytes + w.nbytes)


class _Extract(_Hook):
    def after(self, tracer, args, result):
        tracer.count("multiplicity.curve_vertices",
                     sum(c.polyline.shape[0] - (1 if c.closed else 0) for c in result))


class _AxisSearch(_Hook):
    def after(self, tracer, args, result):
        tracer.count("fresnel.axes_kept", len(result))


class _Refine(_Hook):
    def before(self, tracer, args):
        if tracer.innermost() == "fresnel.axis_search":
            tracer.count("fresnel.refinements")
        f = args[0]

        def counted(x):
            tracer.count("spheremesh.refine_evals")
            return f(x)

        return (counted, *args[1:])


class _Build(_Hook):
    def after(self, tracer, args, result):
        tracer.count("eigenline.mesh_faces", result.mesh.n_faces)


_HOOKS = {
    "sphere.symbol_eval": _SymbolEval(),
    "multiplicity.extract": _Extract(),
    "fresnel.axis_search": _AxisSearch(),
    "spheremesh.refine": _Refine(),
    "eigenline.build": _Build(),
}


def summarize(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Median over jobs of each per-layer figure."""
    return {name: statistics.median(j[name] for j in per_job) for name, _ in PER_LAYER if name in per_job[0]}
