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
from pathlib import Path

import numpy as np

from .eigenline import build_eigenline_manifold, eigenline_report
from .errors import InputError, WavesymError
from .fresnel import Crystal, compressed_grid, fresnel_mesh, fresnel_report, singular_directions
from .multiplicity import CONTOUR_REL_TOL, knot_polyline, knot_type, polylines_csv
# perfbench/tracing.py wraps these three at their cli names
from .multiplicity import extract_singular_set, regular_value_check, trace_component  # noqa: F401
from .serialize import canonical_json, float_rows_csv, obj_face_groups, obj_objects
from .sphere import _validate_mn, analyze_mn, trace_sigma_mn, z_set

# glibc mallopt parameters (malloc.h) and the values main() fixes them at
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MALLOC_MMAP_THRESHOLD = 1 << 20
MALLOC_TRIM_THRESHOLD = 4 << 20


def _epsilon(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


# every option: its parser, default and help.  A flag --tube-radius and a
# config-file key tube-radius or tube_radius set option tube_radius; both
# arrive as text and go through its parser
_OPTIONS = {
    "m": (int, 0, "exponent of the linear factor v = z^m"),
    "n": (int, 1, "exponent of the cubic factor s = z^n"),
    "epsilon": (_epsilon, (2.0, 2.5, 3.0), "three principal permittivities a,b,c"),
    "grid": (int, 512, "chart grid cells per axis"),
    "subdiv": (int, 4, "icosphere subdivision level of the mesh"),
    "samples": (int, 256, "knot samples per half turn of the base circle"),
    "winding": (int, 3, "half-turn count m of the kernel line"),
    "tube_radius": (float, 0.1, "angular radius of the disk removed around each conical point"),
    "tol_contour": (float, CONTOUR_REL_TOL, "contour tolerance relative to max |det M|"),
    "out": (str, None, "write the JSON report here instead of stdout"),
    "out_csv": (str, None, "CSV destination: polylines (winding) or torus coordinates (knots)"),
    "out_obj": (str, None, "OBJ destination: two objects (fresnel) or face groups (eigenline)"),
}


def _parse(name: str, text: str):
    try:
        return _OPTIONS[name][0](text)
    except ValueError as exc:
        raise InputError(f"bad value for {name.replace('_', '-')}: {exc}") from exc


def validate(cfg: argparse.Namespace) -> None:
    """Check the options cfg holds: those of one subcommand."""
    given = vars(cfg)
    if "m" in given:
        _validate_mn(cfg.m, cfg.n)
    # nan fails no comparison and inf is positive: both need isfinite
    if "epsilon" in given and (len(cfg.epsilon) != 3
                               or not all(math.isfinite(e) and e > 0.0 for e in cfg.epsilon)):
        raise InputError("epsilon must be three finite positive comma-separated numbers")
    for name in ("tol_contour", "tube_radius"):
        if name in given and not (math.isfinite(given[name]) and given[name] > 0.0):
            raise InputError(f"{name.replace('_', '-')} must be finite and strictly positive")
    for name, least in (("grid", 16), ("subdiv", 2), ("samples", 8)):
        if name in given and given[name] < least:
            raise InputError(f"{name} must be at least {least}")


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
        if key not in _OPTIONS:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse(key, val.strip())
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Each option of the subcommand from its flag, else the config file, else its default."""
    values = read_config_file(args.config) if args.config else {}
    cfg = argparse.Namespace()
    for name in _SUBCOMMANDS[args.subcommand][2]:
        flag = getattr(args, name)
        setattr(cfg, name, _parse(name, flag) if flag is not None else values.get(name, _OPTIONS[name][1]))
    validate(cfg)
    return cfg


def _write_or_print(text: str, path: str | None) -> None:
    """Print the text, or write it to path as ASCII bytes: no locale encoding, no "\\r\\n"."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_bytes(text.encode("ascii"))


def _cmd_zset(cfg: argparse.Namespace) -> None:
    zs = z_set(cfg.m, cfg.n)
    report = {
        "m": cfg.m,
        "n": cfg.n,
        "radii": list(zs.radii),
        "includes_zero": zs.includes_zero,
        "includes_infinity": zs.includes_infinity,
    }
    _write_or_print(canonical_json(report), cfg.out)


def _cmd_sphere(cfg: argparse.Namespace) -> None:
    report = analyze_mn(cfg.m, cfg.n, grid=cfg.grid, tol_contour=cfg.tol_contour)
    _write_or_print(canonical_json(report), cfg.out)


def _cmd_winding(cfg: argparse.Namespace) -> None:
    *_, rows = trace_sigma_mn(cfg.m, cfg.n, grid=cfg.grid, tol_contour=cfg.tol_contour)
    entries = [
        {"length": row.curve.length, "min_grad": row.cert.min_gradient, "grad_floor": row.cert.floor,
         "transversal": row.cert.transversal, **row.winding_fields()}
        for row in rows
    ]
    _write_or_print(canonical_json({"curves": entries}), cfg.out)
    if cfg.out_csv is not None:
        components = [row.component for row in rows if row.component is not None]
        polylines_csv(components, cfg.out_csv)


def _cmd_fresnel(cfg: argparse.Namespace) -> None:
    crystal = Crystal(eps=cfg.epsilon)
    axes = singular_directions(crystal)
    inner, outer, gap = fresnel_mesh(crystal, subdivisions=cfg.subdiv)
    _write_or_print(canonical_json(fresnel_report(crystal, axes, gap)), cfg.out)
    if cfg.out_obj is not None:
        obj_objects([("fresnel_inner", inner), ("fresnel_outer", outer)], cfg.out_obj)


def _cmd_eigenline(cfg: argparse.Namespace) -> None:
    crystal = Crystal(eps=cfg.epsilon)
    section = lambda pts: compressed_grid(crystal, pts)
    axes = singular_directions(crystal)
    points = np.array([a.x for a in axes])
    man = build_eigenline_manifold(section, points, tube_radius=cfg.tube_radius, subdivisions=cfg.subdiv)
    report = eigenline_report(man, crystal)
    _write_or_print(canonical_json(report), cfg.out)
    if cfg.out_obj is not None:
        obj_face_groups(man.mesh, man.face_groups, cfg.out_obj)


def _cmd_knots(cfg: argparse.Namespace) -> None:
    kt = knot_type(cfg.winding)
    # sampled first: samples above the byte cap are refused before any output
    rows = knot_polyline(cfg.winding, samples=cfg.samples) if cfg.out_csv is not None else None
    report = {
        "winding": cfg.winding,
        "knot": list(kt.pair),
        "connected": kt.connected,
    }
    _write_or_print(canonical_json(report), cfg.out)
    if rows is not None:
        float_rows_csv("component_id,base_angle,fiber_angle", rows, cfg.out_csv)


# every subcommand: its handler, help and options
_SUBCOMMANDS = {
    "zset": (_cmd_zset, "singular radii of the sigma_mn family", ("m", "n", "out")),
    "sphere": (_cmd_sphere, "full multiplicity report for sigma_mn", ("m", "n", "grid", "tol_contour", "out")),
    "winding": (_cmd_winding, "kernel-line winding along extracted contours",
                ("m", "n", "grid", "tol_contour", "out", "out_csv")),
    "fresnel": (_cmd_fresnel, "Fresnel surface and optic axes of a crystal", ("epsilon", "subdiv", "out", "out_obj")),
    "eigenline": (_cmd_eigenline, "glued eigenline manifold of a crystal",
                  ("epsilon", "subdiv", "tube_radius", "out", "out_obj")),
    "knots": (_cmd_knots, "(2, m) torus knot data for a winding number", ("winding", "samples", "out", "out_csv")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesym",
        description="hyperbolic symbol analysis: multiplicity circles, "
                    "Fresnel surfaces, eigenline manifolds")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (_, help_text, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=_OPTIONS[name][2])
        p.add_argument("--config", help="flat key=value config file; flags take precedence")
    return parser


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 4 MiB.

    By default glibc raises both to the size of each mapped block freed,
    up to 32 and 64 MiB.  From then on multi-megabyte buffers (mesh
    arrays, OBJ text) come from the brk heap, and one small long-lived
    block above them stops the heap from shrinking, so a process that
    runs many commands peaks tens of MB higher or lower depending on the
    commands before.  With the thresholds fixed every buffer of 1 MiB or
    more has its own mapping, returned to the system when it is freed.
    The mmap threshold is not set lower: at 128 KiB the det grid's
    temporaries (up to 256 KiB each at grid 2048) would be mapped and
    faulted in again on every abs2_fn call.  The trim threshold sits above
    the temporaries of one call together (at most 1.4 MB for an
    evaluation or for a tile bound at grid 2048): when they are
    freed at the top of the heap, the next call reuses their pages
    instead of the heap being trimmed and grown again on every call.
    Other C libraries are left alone.
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
        _SUBCOMMANDS[args.subcommand][0](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WavesymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
