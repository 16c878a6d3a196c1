"""Deterministic text serialization for reports and geometry.

Floats are printed with 17 significant digits everywhere, including
inside JSON, so that repeated runs of one configuration produce byte
identical artifacts.  json.dumps has no hook for float formatting, so
the JSON emitter here is hand rolled: keys sorted, no whitespace
games, trailing newline, non-finite values rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .spheremesh import SurfaceMesh


def fmt_float(x: float) -> str:
    """17 significant digit decimal form; -0.0 collapses to 0."""
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise InputError("non-finite value in serialized output")
    # + 0.0 normalizes -0.0 so sign noise cannot break golden files
    return _g17(v + 0.0)


def _g17(v: float) -> str:
    """.17g text of a finite float, with .0 appended to integral values."""
    text = format(v, ".17g")
    return text if "." in text or "e" in text else text + ".0"


def _emit(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(fmt_float(value))
    elif isinstance(value, dict):
        out.append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise InputError("JSON object keys must be strings")
            if not first:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value[key], out)
            first = False
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Sorted-key JSON text with .17g floats and a trailing newline."""
    out: list[str] = []
    _emit(value, out)
    out.append("\n")
    return "".join(out)


# rows per % in the OBJ and CSV writers; 256 to 16384 format a subdiv-6
# eigenline OBJ equally fast, and a block bounds the tuple of values
TEXT_BLOCK_ROWS = 4096


def _row_blocks(row_fmt: str, rows: np.ndarray, out: list[str]) -> None:
    """Append row_fmt % row for every row, as newline-joined blocks of rows."""
    for lo in range(0, len(rows), TEXT_BLOCK_ROWS):
        block = rows[lo:lo + TEXT_BLOCK_ROWS]
        out.append("\n".join([row_fmt] * len(block)) % tuple(block.ravel().tolist()))


def float_row_lines(head: str, sep: str, values: np.ndarray, out: list[str]) -> None:
    """Append sep.join([head] + [fmt_float(x) for x in row]) for every row of a 2-d array.

    Raises InputError on a non-finite value.  .17g text carries a "." or
    an "e" unless the value is integral, so only rows holding an integral
    value go through _g17, which appends the ".0"; the rows between them
    are formatted in blocks.
    """
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise InputError("non-finite value in serialized output")
    v = v + 0.0     # -0.0 prints as 0.0, as in fmt_float
    row_fmt = sep.join([head] + ["%.17g"] * v.shape[1])
    lo = 0
    for i in np.flatnonzero((v == np.trunc(v)).any(axis=1)).tolist():
        _row_blocks(row_fmt, v[lo:i], out)
        out.append(sep.join([head] + [_g17(x) for x in v[i].tolist()]))
        lo = i + 1
    _row_blocks(row_fmt, v[lo:], out)


def join_lines(lines: list[str]) -> str:
    """The lines, each ended by a newline; "\n" for no lines.

    Appending "" puts the last newline in the one join, so the text is
    not copied again by a trailing + "\n".
    """
    lines.append("")
    return "\n".join(lines) or "\n"


def _face_lines(faces: np.ndarray, offset: int, out: list[str]) -> None:
    rows = np.asarray(faces, dtype=int).reshape(-1, 3) + 1 + offset
    _row_blocks("f %d %d %d", rows, out)


def obj_objects(parts: list[tuple[str, SurfaceMesh]]) -> str:
    """OBJ text with one named object per mesh, indices 1-based global."""
    out: list[str] = []
    offset = 0
    for name, mesh in parts:
        out.append(f"o {name}")
        float_row_lines("v", " ", mesh.vertices, out)
        _face_lines(mesh.faces, offset, out)
        offset += mesh.n_vertices
    return join_lines(out)


def obj_face_groups(mesh: SurfaceMesh, groups: list[tuple[str, np.ndarray]]) -> str:
    """OBJ text for one vertex pool whose faces are split into named groups."""
    out: list[str] = []
    float_row_lines("v", " ", mesh.vertices, out)
    for name, face_idx in groups:
        out.append(f"g {name}")
        _face_lines(mesh.faces[np.asarray(face_idx, dtype=int)], 0, out)
    return join_lines(out)
