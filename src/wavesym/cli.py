"""Command line front end with bit-reproducible output.

Every artifact (JSON report, CSV polyline, OBJ mesh) is assembled from
deterministic module results and printed through the fixed-width float
formatter, so rerunning a command with the same configuration yields
byte-identical files.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigenline import build_eigenline_manifold, eigenline_report
from .errors import InputError, WavesymError
from .fresnel import Crystal, compressed_grid, fresnel_mesh, fresnel_report, singular_directions
from .multiplicity import CONTOUR_REL_TOL, knot_polyline, knot_type, polylines_csv
# perfbench/tracing.py wraps these three at their cli names
from .multiplicity import extract_singular_set, regular_value_check, trace_component  # noqa: F401
from .serialize import canonical_json, float_row_lines, join_lines, obj_face_groups, obj_objects
from .sphere import ROOT_REL_TOL, _validate_mn, analyze_mn, trace_sigma_mn, z_set

# glibc mallopt parameters (malloc.h) and the values main() fixes them at
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MALLOC_MMAP_THRESHOLD = 1 << 20
MALLOC_TRIM_THRESHOLD = 2 << 20

# config-file keys and their parsers; flag values override these
_FIELD_PARSERS = {
    "m": int,
    "n": int,
    "epsilon": lambda s: tuple(float(t) for t in s.split(",")),
    "grid": int,
    "subdiv": int,
    "samples": int,
    "winding": int,
    "tube_radius": float,
    "collar": float,
    "tol_contour": float,
    "tol_root": float,
    "out": str,
    "out_csv": str,
    "out_obj": str,
}


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    subcommand: str
    m: int = 0
    n: int = 1
    epsilon: tuple[float, float, float] = (2.0, 2.5, 3.0)
    grid: int = 512
    subdiv: int = 4
    samples: int = 256
    winding: int = 3
    tube_radius: float = 0.1
    collar: float = 0.5
    tol_contour: float = CONTOUR_REL_TOL
    tol_root: float = ROOT_REL_TOL
    out: str | None = None
    out_csv: str | None = None
    out_obj: str | None = None

    def validate(self) -> None:
        _validate_mn(self.m, self.n)
        # nan fails no comparison and inf is positive: both need isfinite
        if len(self.epsilon) != 3 or not all(math.isfinite(e) and e > 0.0 for e in self.epsilon):
            raise InputError("epsilon must be three finite positive comma-separated numbers")
        for name in ("tol_contour", "tol_root", "tube_radius", "collar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name.replace('_', '-')} must be finite and strictly positive")
        if self.grid < 16:
            raise InputError("grid must be at least 16")
        if self.subdiv < 2:
            raise InputError("subdiv must be at least 2")
        if self.samples < 8:
            raise InputError("samples must be at least 8")


def read_config_file(path: str) -> dict:
    """Flat key=value text; # starts a comment, blank lines ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_PARSERS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val.strip())
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    config_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig(subcommand=args.subcommand)
    for name in _FIELD_PARSERS:
        flag = getattr(args, name, None)
        if flag is not None:
            if isinstance(flag, str) and name == "epsilon":
                try:
                    flag = _FIELD_PARSERS[name](flag)
                except ValueError as exc:
                    raise InputError(f"bad value for epsilon: {exc}") from exc
            setattr(cfg, name, flag)
        elif name in config_values:
            setattr(cfg, name, config_values[name])
    cfg.validate()
    return cfg


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_zset(cfg: RunConfig) -> None:
    zs = z_set(cfg.m, cfg.n, tol=cfg.tol_root)
    report = {
        "m": cfg.m,
        "n": cfg.n,
        "radii": list(zs.radii),
        "includes_zero": zs.includes_zero,
        "includes_infinity": zs.includes_infinity,
    }
    _write_or_print(canonical_json(report), cfg.out)


def _cmd_sphere(cfg: RunConfig) -> None:
    report = analyze_mn(cfg.m, cfg.n, grid=cfg.grid,
                        tol_contour=cfg.tol_contour, tol_root=cfg.tol_root)
    _write_or_print(canonical_json(report), cfg.out)


def _cmd_winding(cfg: RunConfig) -> None:
    *_, rows = trace_sigma_mn(cfg.m, cfg.n, grid=cfg.grid,
                              tol_contour=cfg.tol_contour, tol_root=cfg.tol_root)
    entries = [
        {"length": row.curve.length, "min_grad": row.cert.min_gradient, "grad_floor": row.cert.floor,
         "transversal": row.cert.transversal, **row.winding_fields()}
        for row in rows
    ]
    _write_or_print(canonical_json({"curves": entries}), cfg.out)
    if cfg.out_csv is not None:
        components = [row.component for row in rows if row.component is not None]
        Path(cfg.out_csv).write_text(polylines_csv(components))


def _cmd_fresnel(cfg: RunConfig) -> None:
    crystal = Crystal(eps=cfg.epsilon)
    axes = singular_directions(crystal)
    inner, outer, gap = fresnel_mesh(crystal, subdivisions=cfg.subdiv)
    _write_or_print(canonical_json(fresnel_report(crystal, axes, gap)), cfg.out)
    if cfg.out_obj is not None:
        Path(cfg.out_obj).write_text(
            obj_objects([("fresnel_inner", inner), ("fresnel_outer", outer)]))


def _cmd_eigenline(cfg: RunConfig) -> None:
    crystal = Crystal(eps=cfg.epsilon)
    section = lambda pts: compressed_grid(crystal, pts)
    axes = singular_directions(crystal)
    points = np.array([a.x for a in axes])
    man = build_eigenline_manifold(section, points, tube_radius=cfg.tube_radius,
                                   collar=cfg.collar, subdivisions=cfg.subdiv)
    report = eigenline_report(man, crystal)
    _write_or_print(canonical_json(report), cfg.out)
    if cfg.out_obj is not None:
        groups = [(name, np.arange(lo, hi)) for name, lo, hi in man.face_groups]
        Path(cfg.out_obj).write_text(obj_face_groups(man.mesh, groups))


def _cmd_knots(cfg: RunConfig) -> None:
    kt = knot_type(cfg.winding)
    report = {
        "winding": cfg.winding,
        "knot": list(kt.pair),
        "connected": kt.connected,
    }
    _write_or_print(canonical_json(report), cfg.out)
    if cfg.out_csv is not None:
        lines = ["component_id,base_angle,fiber_angle"]
        for cid, comp in enumerate(knot_polyline(cfg.winding, samples=cfg.samples)):
            float_row_lines(str(cid), ",", comp, lines)
        Path(cfg.out_csv).write_text(join_lines(lines))


_DISPATCH = {
    "zset": _cmd_zset,
    "sphere": _cmd_sphere,
    "winding": _cmd_winding,
    "fresnel": _cmd_fresnel,
    "eigenline": _cmd_eigenline,
    "knots": _cmd_knots,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags take precedence")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_mn(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="exponent of the linear factor v = z^m")
    p.add_argument("--n", type=int, help="exponent of the cubic factor s = z^n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesym",
        description="hyperbolic symbol analysis: multiplicity circles, "
                    "Fresnel surfaces, eigenline manifolds")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("zset", help="singular radii of the sigma_mn family")
    _add_mn(p)
    p.add_argument("--tol-root", dest="tol_root", type=float)
    _add_common(p)

    p = sub.add_parser("sphere", help="full multiplicity report for sigma_mn")
    _add_mn(p)
    p.add_argument("--grid", type=int)
    p.add_argument("--tol-contour", dest="tol_contour", type=float)
    p.add_argument("--tol-root", dest="tol_root", type=float)
    _add_common(p)

    p = sub.add_parser("winding", help="kernel-line winding along extracted contours")
    _add_mn(p)
    p.add_argument("--grid", type=int)
    p.add_argument("--tol-contour", dest="tol_contour", type=float)
    p.add_argument("--tol-root", dest="tol_root", type=float)
    p.add_argument("--out-csv", dest="out_csv", help="polyline CSV destination")
    _add_common(p)

    p = sub.add_parser("fresnel", help="Fresnel surface and optic axes of a crystal")
    p.add_argument("--epsilon", help="three principal permittivities a,b,c")
    p.add_argument("--subdiv", type=int)
    p.add_argument("--out-obj", dest="out_obj", help="two-object OBJ destination")
    _add_common(p)

    p = sub.add_parser("eigenline", help="glued eigenline manifold of a crystal")
    p.add_argument("--epsilon", help="three principal permittivities a,b,c")
    p.add_argument("--subdiv", type=int)
    p.add_argument("--tube-radius", dest="tube_radius", type=float)
    p.add_argument("--collar", type=float)
    p.add_argument("--out-obj", dest="out_obj", help="grouped OBJ destination")
    _add_common(p)

    p = sub.add_parser("knots", help="(2, m) torus knot data for a winding number")
    p.add_argument("--winding", type=int, help="half-turn count m of the kernel line")
    p.add_argument("--samples", type=int)
    p.add_argument("--out-csv", dest="out_csv", help="torus-coordinate CSV destination")
    _add_common(p)
    return parser


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 2 MiB.

    By default glibc raises both to the size of each mapped block freed,
    up to 32 and 64 MiB.  From then on multi-megabyte buffers (mesh
    arrays, OBJ text) come from the brk heap, and one small long-lived
    block above them stops the heap from shrinking, so a process that
    runs many commands peaks tens of MB higher or lower depending on the
    commands before.  With the thresholds fixed every buffer of 1 MiB or
    more has its own mapping, returned to the system when it is freed.
    They are not set lower: at 128 KiB the det grid's band temporaries
    (up to 512 KiB at grid 2048) would be mapped and faulted in again on
    every band.  Other C libraries are left alone.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version   # raises unless the C library is glibc
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of the process.

    parse_args leaves a parser as it found it, so one serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _fix_malloc_thresholds()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve(args)
        _DISPATCH[cfg.subcommand](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WavesymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
