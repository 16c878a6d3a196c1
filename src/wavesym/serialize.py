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
  dropped down to one digit after the point.  0.0 gets the text "0.0"
  in one assignment; |v| < 1e-4 and |v| >= 1e16 are rare in meshes and
  curves, and take _g17.
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
  leaves the digit.
- Rows.  Each cell is led by groups that hold its separator, or in a
  row's first cell a newline, the row's head and the separator, so the
  cells of a block of rows, in row-major order, are the block's
  zero-padded bytes.  Face rows gather whole cells, "\\nf " or " " and an
  index's digits, from an index-text table built once per call for the
  indices 1..V.  Dropping a block's zero bytes leaves its text, which
  goes straight to the artifact file as bytes: no text is decoded,
  joined or encoded.  The writers check every value before they open
  the file, so a refused artifact leaves no file.
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
# a 4096 x 84 byte matrix, so the temporaries of a block stay near 2 MB
# however large the mesh.  On a 2-vCPU Xeon a subdiv-6 eigenline OBJ
# (81k vertex and 162k face rows) is written in 38-44 ms at 4096 rows,
# 41-46 ms at 1024, 52-64 ms at 256 or 16384 and 79-89 ms at 65536,
# where the tracemalloc peak rises from 4.7 to 49.6 MB.
TEXT_BLOCK_ROWS = 4096


def _write_rows(f, n_rows: int, cells) -> None:
    """Write n_rows rows of text to the binary file f, TEXT_BLOCK_ROWS at a time.

    cells(lo, hi) returns rows lo..hi - 1 as one zero-padded byte matrix,
    each row led by a newline: its nonzero bytes are the text.  They go to
    f as they are, but for the first newline; a newline ends the last row.
    bytes.translate drops the zero bytes in one pass without a mask, 20 to
    40% faster than boolean indexing, which copies run by run.
    """
    for lo in range(0, n_rows, TEXT_BLOCK_ROWS):
        text = cells(lo, min(lo + TEXT_BLOCK_ROWS, n_rows)).tobytes().translate(None, b"\0")
        f.write(memoryview(text)[1:] if lo == 0 else text)
    if n_rows:
        f.write(b"\n")


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


_ZERO_CELL = np.frombuffer(b"0.0".ljust(24, b"\0"), np.uint8)


def _float_cells(v: np.ndarray, groups: np.ndarray, table: np.ndarray, frames: np.ndarray,
                 int_mask: np.ndarray) -> np.ndarray:
    """(n, width) uint8 cells: the prefix, then the _g17 text of n finite floats, -0.0 as 0.0.

    groups is an (n, p + 6) index array into table whose first p columns
    name the prefix's entries and whose last six the kernel fills; frames
    and int_mask are _FRAMES and _INT_MASK behind 4 p zero bytes.
    """
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
    digit_groups = groups[:, -6:]
    digit_groups[:, 0] = _TRAIL                     # four zero bytes
    np.add(d0, _LEAD, out=digit_groups[:, 1])       # "\0\0\0" d0
    np.add(g1, _TRAIL * ((lo == 0) & (g2 == 0)), out=digit_groups[:, 2])
    np.add(g2, _TRAIL * (lo == 0), out=digit_groups[:, 3])
    np.add(g3, _TRAIL * (g4 == 0), out=digit_groups[:, 4])
    np.add(g4, _TRAIL, out=digit_groups[:, 5])
    n, width = len(v), frames.shape[1]
    text = table.take(groups).view(np.uint8)
    moved = np.zeros(n * width + 1, np.uint8)
    np.bitwise_and(text, int_mask.take(k + 4, axis=0), out=moved[:-1].reshape(n, width))
    text ^= moved[:-1].reshape(n, width)           # leaves d(k+1)..d16
    cells = frames.take(2 * k + 8 + (v < 0), axis=0)
    cells |= text
    cells |= moved[1:].reshape(n, width)            # d0..dk one byte left
    rows = np.flatnonzero(special)
    if len(rows):
        zero = a[rows] == 0.0
        cells[rows[zero], -24:] = _ZERO_CELL
        rare = rows[~zero]
        if len(rare):
            texts = "".join([_g17(x).ljust(24, "\0") for x in v[rare].tolist()])
            cells[rare, -24:] = np.frombuffer(texts.encode("ascii"), np.uint8).reshape(-1, 24)
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


def _index_table(top: int) -> np.ndarray:
    """Face-row cells of the indices 1..top: row i is "\\nf " and the text of
    i + 1, row top + i " " and that text; leading zeros and the padding to
    8 or 16 bytes are zero bytes, so `_face_rows` gathers whole cells."""
    digits = len(str(top))
    groups = (digits + 3) // 4
    text = _int_cells(np.arange(1, top + 1), groups)[:, 4 * groups - digits:]
    width = -(-(3 + digits) // 8) * 8
    table = np.zeros((2, top, width), np.uint8)
    table[0, :, :3] = np.frombuffer(b"\nf ", np.uint8)
    table[0, :, 3:3 + digits] = text
    table[1, :, 0] = ord(" ")
    table[1, :, 1:1 + digits] = text
    return table.reshape(2 * top, width)


def _check_finite(values: np.ndarray) -> None:
    # min and max carry a NaN or an infinity up, with no temporary the size of the values
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise InputError("non-finite value in serialized output")


def _check_faces(faces: np.ndarray, n_vertices: int) -> None:
    if faces.size and (faces.min() < 0 or faces.max() >= n_vertices):
        raise InputError("face index outside the vertex list in serialized output")


def _float_rows(f, head: bytes, sep: bytes, values: np.ndarray) -> None:
    """Write sep.join([head] + [fmt_float(x) for x in row]) and a newline for every row.

    The values must be finite.  A value of magnitude in [1e-4, 1e16) gets
    its text from the byte kernel (see the module docstring); 0.0 gets the
    text "0.0", and the magnitudes outside that range _g17 text, written
    into the same 24-byte cells.  Each cell is led by p groups of 4 bytes:
    the separator, or in a row's first cell a newline, the head and the
    separator, so a block's cells are its rows' bytes in order.
    """
    p = (len(head) + len(sep)) // 4 + 1
    prefixes = np.frombuffer((b"\n" + head + sep).ljust(4 * p, b"\0") + sep.ljust(4 * p, b"\0"), np.uint32)
    table = np.concatenate([_GROUPS, prefixes])
    frames = np.zeros((len(_FRAMES), 4 * p + 24), np.uint8)
    frames[:, 4 * p:] = _FRAMES
    int_mask = np.zeros((len(_INT_MASK), 4 * p + 24), np.uint8)
    int_mask[:, 4 * p:] = _INT_MASK
    c = values.shape[1]
    groups = np.empty((min(len(values), TEXT_BLOCK_ROWS), c, p + 6), np.intp)
    groups[:, :, :p] = len(_GROUPS) + p + np.arange(p)
    groups[:, 0, :p] -= p

    def cells(lo, hi):
        return _float_cells(values[lo:hi].ravel(), groups[:hi - lo].reshape(-1, p + 6),
                            table, frames, int_mask)
    _write_rows(f, len(values), cells)


def _face_rows(f, table: np.ndarray, faces: np.ndarray, offset: int) -> None:
    """Write "f a b c" for every face, indices 1-based and shifted by offset,
    its cells gathered from the `_index_table` of the largest index."""
    shift = offset + len(table) // 2 * np.array([0, 1, 1])
    _write_rows(f, len(faces), lambda lo, hi: table.take(faces[lo:hi] + shift, axis=0))


def obj_objects(parts: list[tuple[str, SurfaceMesh]], path) -> None:
    """Write an OBJ file with one named object per mesh, indices 1-based global.

    Every value is checked before the file is opened, so a refused
    artifact leaves no file.
    """
    for _, mesh in parts:
        _check_finite(mesh.vertices)
        _check_faces(mesh.faces, mesh.n_vertices)
    table = _index_table(sum(mesh.n_vertices for _, mesh in parts))
    offset = 0
    with open(path, "wb") as f:
        for name, mesh in parts:
            f.write(f"o {name}\n".encode("ascii"))
            _float_rows(f, b"v", b" ", mesh.vertices)
            _face_rows(f, table, mesh.faces, offset)
            offset += mesh.n_vertices
        if not f.tell():
            f.write(b"\n")


def obj_face_groups(mesh: SurfaceMesh, groups: list[tuple[str, int, int]], path) -> None:
    """Write an OBJ file for one vertex pool whose faces lo:hi form each named group.

    Every value is checked before the file is opened, so a refused
    artifact leaves no file.
    """
    _check_finite(mesh.vertices)
    for _, lo, hi in groups:
        if not 0 <= lo <= hi <= mesh.n_faces:
            raise InputError(f"face group {lo}:{hi} outside the {mesh.n_faces} faces")
        _check_faces(mesh.faces[lo:hi], mesh.n_vertices)
    table = _index_table(mesh.n_vertices)
    with open(path, "wb") as f:
        _float_rows(f, b"v", b" ", mesh.vertices)
        for name, lo, hi in groups:
            f.write(f"g {name}\n".encode("ascii"))
            _face_rows(f, table, mesh.faces[lo:hi], 0)
        if not f.tell():
            f.write(b"\n")


def float_rows_csv(header: str, components: list[np.ndarray], path) -> None:
    """Write a CSV file: the header line, then i,x,y,... for every row of component i.

    Values print as fmt_float does.  Every value is checked before the
    file is opened, so a refused artifact leaves no file.
    """
    components = [np.asarray(comp, dtype=float) for comp in components]
    for comp in components:
        _check_finite(comp)
    with open(path, "wb") as f:
        f.write(header.encode("ascii") + b"\n")
        for cid, comp in enumerate(components):
            _float_rows(f, str(cid).encode("ascii"), b",", comp)
