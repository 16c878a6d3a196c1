"""Deterministic text serialization for reports and geometry.

Floats are printed with 17 significant digits everywhere, including
inside JSON, so that repeated runs of one configuration produce byte
identical artifacts.  json.dumps has no hook for float formatting, so
the JSON emitter here is hand rolled: keys sorted, no whitespace
games, trailing newline, non-finite values rejected.

OBJ and CSV rows hold hundreds of thousands of floats, so they do not
call format() per value.  A numpy byte kernel writes the same bytes as
_g17, the .17g text with ".0" on integral values:

- Which values.  A finite v with 1e-4 <= |v| < 1e16 has a decimal
  exponent k in -4..15, where .17g prints fixed notation: 17 digits
  d0..d16 of D = round(|v| * 10**(16 - k)), with the point after d_k,
  or after "0." and -k - 1 zeros when k < 0, and trailing zeros
  dropped down to one digit after the point.  0.0, |v| < 1e-4 and
  |v| >= 1e16 are rare in meshes and curves; they take _g17.
- Exact digits.  q = 16 - k lies in 0..20, and 10**q is an exact double
  there (5**20 < 2**53).  Veltkamp's split and Dekker's two-product
  (Numer. Math. 18, 1971) give y = fl(|v| * 10**q) and its rounding
  error err, with |v| * 10**q = y + err exactly, from float64 + - *
  alone.  Once y >= 2**53, y is an even integer, so rounding y + err to
  an integer, ties to even, gives y + rint(err): np.rint rounds halves
  to even, and adding an even y keeps the parity.  That is D correctly
  rounded, ties to even, as dtoa rounds.
- The exponent.  floor(log10 |v|) is only a first guess, within one of
  the true k.  D falls as k grows.  While D < 10**16 the guess is too
  high, while D >= 10**17 too low; the kernel moves k by one and
  recomputes D until 10**16 <= D < 10**17.  (Below 2**53, y + rint(err)
  may be off by one, but it is then far below 10**16.)  The nearest
  doubles below 0.001, 0.01, 0.1 and the powers 1 .. 1e16 lie at least
  8e-17 below them, relative, so no double in the range rounds up to a
  power of ten at 17 digits, and exactly one k passes: the loop ends on
  it from any first guess.  So the bytes do not depend on how np.log10
  rounds on one CPU dispatch path or another.
- Text.  D's digit groups read four ASCII digits at once from a table
  of uint32 entries; the group holding D's last nonzero digit, and
  every group after it, read entries whose trailing zeros are zero
  bytes.  A frame per k and sign
  adds the sign, the "0." lead or the point, and a "0" under the
  integer digits and the first fraction digit; OR-ing a digit onto "0"
  leaves the digit.  Each block of rows is a zero-padded byte matrix,
  and dropping its zero bytes leaves the text.
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


# rows per byte matrix in the OBJ and CSV writers: 4096 vertex rows are
# a 4096 x 77 byte matrix, so the temporaries of a block stay near 2 MB
# however large the mesh.  On a 2-vCPU Xeon a subdiv-6 eigenline OBJ
# (81k vertex and 163k face rows) formats in 68 ms at 4096 rows, 72 ms
# at 1024, about 100 ms at 256 or 16384, and 150 ms at 65536, where the
# tracemalloc peak rises from 16.7 to 44 MB.
TEXT_BLOCK_ROWS = 4096


def _row_blocks(head: str, sep: str, rows: np.ndarray, cell_text, out: list[str]) -> None:
    """Append head + sep + cell + sep + cell ... for every row of a 2-d array.

    cell_text maps a 1-d array of n values to an (n, width) uint8 matrix
    holding the text of each value with zero bytes before, between or
    after its characters.  Each block of TEXT_BLOCK_ROWS rows becomes one
    zero-padded byte matrix with the head, separators and newlines in
    place; dropping its zero bytes leaves the newline-joined text.
    """
    h = np.frombuffer(head.encode("ascii"), np.uint8)
    s = np.frombuffer(sep.encode("ascii"), np.uint8)
    for lo in range(0, len(rows), TEXT_BLOCK_ROWS):
        block = rows[lo:lo + TEXT_BLOCK_ROWS]
        r, c = block.shape
        cells = cell_text(block.ravel())
        buf = np.empty((r, len(h) + c * (len(s) + cells.shape[1]) + 1), np.uint8)
        buf[:, :len(h)] = h
        row = buf[:, len(h):-1].reshape(r, c, len(s) + cells.shape[1])
        row[:, :, :len(s)] = s
        row[:, :, len(s):] = cells.reshape(r, c, cells.shape[1])
        buf[:, -1] = ord("\n")
        flat = buf.ravel()
        out.append(flat[flat != 0][:-1].tobytes().decode("ascii"))


# ---------------------------------------------------------------------------
# the .17g byte kernel

_SPLIT = 134217729.0    # 2**27 + 1, Veltkamp's splitting constant


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each half of at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


# 10**q for q = 16 - k, k = -4..16: exact doubles, split once
_P10 = np.array([float(10**q) for q in range(21)])
_P10_HI, _P10_LO = _split(_P10)


def _group_table() -> np.ndarray:
    """Four ASCII digits of every g < 10000 as one uint32 each, three ways.

    Entry g is g with leading zeros ("0042"), entry _TRAIL + g has its
    trailing zeros blanked to zero bytes ("0042" -> "0042", "4200" ->
    "42\\0\\0", 0 -> four zero bytes) and entry _LEAD + g its leading
    zeros ("\\0\\042").
    """
    g = np.arange(10000)
    places = (1000, 100, 10, 1)
    ascii = np.stack([g // p % 10 + ord("0") for p in places], axis=1).astype(np.uint8)
    # kept: some digit from this one on, or up to this one, is nonzero
    before_trailing = np.stack([g % (10 * p) != 0 for p in places], axis=1)
    after_leading = np.stack([g >= p for p in places], axis=1)
    table = np.concatenate([ascii, ascii * before_trailing, ascii * after_leading])
    return table.view(np.uint32).ravel()


_GROUPS = _group_table()
_TRAIL, _LEAD = 10000, 20000


def _float_frames() -> tuple[np.ndarray, np.ndarray]:
    """The non-digit bytes of a float cell, and the mask of its integer digits.

    A cell is 24 bytes.  Byte 0 is the sign.  The digit groups fill
    bytes 4..23, so d0 sits at byte 7 and d_i at 7 + i.  For k < 0 the
    text is "0." and -k - 1 zeros (bytes 1..1 - k) before all 17 digits.
    For k >= 0 the integer digits d0..dk move one byte left, to 6..6 + k,
    and the point takes byte 7 + k.  Frame row 2 (k + 4) + negative
    holds the sign, the "0.000" lead or the point, and "0" under every
    integer digit and under d(k+1); OR-ing a digit onto "0" leaves the
    digit, so these show only where a trailing zero was blanked.
    """
    pos = np.arange(24)
    k = np.arange(-4, 16)[:, None]
    point = np.where(k < 0, 2, 7 + k)
    zeros = np.where(k < 0, (pos >= 1) & (pos <= 1 - k), (pos >= 6) & (pos <= 8 + k))
    frame = np.where(pos == point, ord("."), np.where(zeros, ord("0"), 0))
    frames = np.stack([frame, frame], axis=1)
    frames[:, 1, 0] = ord("-")
    int_mask = np.where((pos >= 7) & (pos <= 7 + k), 255, 0)
    return frames.reshape(40, 24).astype(np.uint8), int_mask.astype(np.uint8)


_FRAMES, _INT_MASK = _float_frames()


def _digits17(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(w * 10**(16 - k)) as int64, exact once it is >= 2**53."""
    q = 16 - k
    x = w * _P10.take(q)
    hi, lo = _split(w)
    p_hi, p_lo = _P10_HI.take(q), _P10_LO.take(q)
    err = lo * p_lo - (((x - hi * p_hi) - lo * p_hi) - hi * p_lo)
    return x.astype(np.int64) + np.rint(err).astype(np.int64)


def _float_cells(v: np.ndarray) -> np.ndarray:
    """(n, 24) uint8 cells of the _g17 text of n finite floats, -0.0 as 0.0."""
    n = len(v)
    a = np.abs(v)
    special = (a < 1e-4) | (a >= 1e16)              # 0.0 included
    w = np.clip(a, 1e-4, 9999999999999998.0)        # a special's cell is overwritten
    k = np.floor(np.log10(w)).astype(np.intp)       # a first guess, corrected below
    d = _digits17(w, k)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    while len(off):
        k[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _digits17(w[off], k[off])
        off = off[(d[off] < 10**16) | (d[off] >= 10**17)]
    hi = d // 10**8                                 # d0..d8
    lo = d - hi * 10**8                             # d9..d16
    d0 = hi // 10**8
    mid = hi - d0 * 10**8
    g1 = mid // 10**4
    g3 = lo // 10**4
    g4 = lo - g3 * 10**4
    g2 = mid - g1 * 10**4
    # a group is blanked from its trailing zeros on when every later group is 0
    groups = np.empty((n, 6), np.intp)
    groups[:, 0] = _TRAIL                           # four zero bytes
    groups[:, 1] = d0 + _LEAD                       # "\0\0\0" d0
    groups[:, 2] = g1 + _TRAIL * ((lo == 0) & (g2 == 0))
    groups[:, 3] = g2 + _TRAIL * (lo == 0)
    groups[:, 4] = g3 + _TRAIL * (g4 == 0)
    groups[:, 5] = g4 + _TRAIL
    text = _GROUPS.take(groups).view(np.uint8)
    moved = np.zeros(n * 24 + 1, np.uint8)
    np.bitwise_and(text, _INT_MASK.take(k + 4, axis=0), out=moved[:-1].reshape(n, 24))
    text ^= moved[:-1].reshape(n, 24)               # leaves d(k+1)..d16
    cells = _FRAMES.take(2 * k + 8 + (v < 0), axis=0)
    cells |= text
    cells |= moved[1:].reshape(n, 24)               # d0..dk one byte left
    idx = np.flatnonzero(special)
    if len(idx):
        texts = "".join([_g17(x).ljust(24, "\0") for x in (v[idx] + 0.0).tolist()])
        cells[idx] = np.frombuffer(texts.encode("ascii"), np.uint8).reshape(-1, 24)
    return cells


def _int_cells(v: np.ndarray, groups: int) -> np.ndarray:
    """(n, 4 groups) uint8 cells of the decimal text of n positive integers."""
    g = np.empty((len(v), groups), np.intp)
    rest = v
    for j in range(groups - 1, 0, -1):
        g[:, j] = rest % 10**4
        rest = rest // 10**4
    g[:, 0] = rest
    # a group is blanked up to its first nonzero digit while every earlier group is 0
    leading = np.ones(len(v), dtype=bool)
    for j in range(groups):
        nonzero = g[:, j] != 0
        g[:, j] += _LEAD * leading
        leading &= ~nonzero
    return _GROUPS.take(g).view(np.uint8)


def float_row_lines(head: str, sep: str, values: np.ndarray, out: list[str]) -> None:
    """Append sep.join([head] + [fmt_float(x) for x in row]) for every row of a 2-d array.

    Raises InputError on a non-finite value.  Rows go out in blocks of
    TEXT_BLOCK_ROWS, each one newline-joined string.  A value of
    magnitude in [1e-4, 1e16) gets its text from the byte kernel (see the
    module docstring); 0.0 and the magnitudes outside that range get
    _g17 text, written into the same 24-byte cells.
    """
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise InputError("non-finite value in serialized output")
    _row_blocks(head, sep, v, _float_cells, out)


def join_lines(lines: list[str]) -> str:
    """The lines, each ended by a newline; "\n" for no lines.

    Appending "" puts the last newline in the one join, so the text is
    not copied again by a trailing + "\n".
    """
    lines.append("")
    return "\n".join(lines) or "\n"


def _face_lines(faces: np.ndarray, offset: int, out: list[str]) -> None:
    """Append "f a b c" for every face, indices 1-based and shifted by offset."""
    rows = np.asarray(faces, dtype=int).reshape(-1, 3) + 1 + offset
    if rows.size and rows.min() < 1:
        raise InputError("face index below 1 in serialized output")
    groups = (len(str(int(rows.max(initial=1)))) + 3) // 4
    _row_blocks("f", " ", rows, lambda v: _int_cells(v, groups), out)


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
