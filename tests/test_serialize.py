import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavesym.errors import InputError
from wavesym.serialize import (
    TEXT_BLOCK_ROWS,
    _face_rows,
    _g17,
    _float_rows,
    _index_table,
    _int_cells,
    canonical_json,
    float_rows_csv,
    fmt_float,
    obj_face_groups,
    obj_objects,
)
from wavesym.spheremesh import SurfaceMesh

from . import oracles


def test_fmt_float_basics():
    assert fmt_float(1.0) == "1.0"
    assert fmt_float(-0.0) == "0.0"
    assert fmt_float(0.5) == "0.5"
    assert fmt_float(1e300) == "1.0000000000000001e+300"
    assert fmt_float(2.0**100) == "1.2676506002282294e+30"
    assert fmt_float(0.29559774252208476) == "0.29559774252208476"


def test_fmt_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            fmt_float(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips(x):
    assert float(fmt_float(x)) == (0.0 if x == 0.0 else x)


def test_canonical_json_sorted_keys_and_newline():
    text = canonical_json({"b": 1, "a": [True, None, "s"], "c": {"z": 2.0, "y": 0}})
    assert text == '{"a": [true, null, "s"], "b": 1, "c": {"y": 0, "z": 2.0}}\n'
    assert json.loads(text) == {"a": [True, None, "s"], "b": 1, "c": {"y": 0, "z": 2.0}}
    assert json.loads(text)["c"]["z"] == 2.0


def test_canonical_json_floats_keep_17_digits():
    text = canonical_json({"x": [1.0 / 3.0, 2.0]})
    assert text == '{"x": [0.33333333333333331, 2.0]}\n'


def test_canonical_json_numpy_values():
    text = canonical_json({
        "arr": np.array([1.0, 2.5]),
        "flag": np.bool_(True),
        "count": np.int64(3),
        "val": np.float64(-0.0),
    })
    assert text == '{"arr": [1.0, 2.5], "count": 3, "flag": true, "val": 0.0}\n'


def test_canonical_json_rejects_bad_input():
    with pytest.raises(InputError):
        canonical_json({"x": float("nan")})
    with pytest.raises(InputError):
        canonical_json({1: "non-string key"})
    with pytest.raises(InputError):
        canonical_json({"x": object()})


def test_canonical_json_is_valid_json():
    value = {"nested": [{"a": [0.1, -2]}, "text", False]}
    assert json.loads(canonical_json(value)) == value


def written(tmp_path, writer, *args) -> str:
    """The text a streamed writer puts in its file, which must be ASCII."""
    path = tmp_path / "artifact"
    writer(*args, path)
    return path.read_bytes().decode("ascii")


def float_rows_text(head: bytes, sep: bytes, values) -> str:
    out = io.BytesIO()
    _float_rows(out, head, sep, np.asarray(values, dtype=float))
    return out.getvalue().decode("ascii")


def per_value_lines(lines: list[str]) -> list[str]:
    """What split("\\n") gives of the text of these lines, each ended by a
    newline; a list, so a mismatch reports its first line quickly."""
    return lines + [""]


TRI = SurfaceMesh(
    vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    faces=np.array([[0, 1, 2]]),
)
QUAD = SurfaceMesh(
    vertices=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
    faces=np.array([[0, 1, 2], [0, 2, 3]]),
)


def test_obj_objects_global_indexing(tmp_path):
    text = written(tmp_path, obj_objects, [("first", TRI), ("second", QUAD)])
    lines = text.split("\n")
    assert lines[0] == "o first"
    assert lines[1] == "v 0.0 0.0 0.0"
    assert lines[4] == "f 1 2 3"
    assert lines[5] == "o second"
    # second object's faces offset by the 3 vertices of the first
    assert lines[10] == "f 4 5 6"
    assert lines[11] == "f 4 6 7"
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_obj_face_groups_single_pool(tmp_path):
    text = written(tmp_path, obj_face_groups, QUAD, [("left", 0, 1), ("right", 1, 2)])
    lines = text.split("\n")
    assert lines[:4] == ["v 0.0 0.0 1.0", "v 1.0 0.0 1.0",
                         "v 1.0 1.0 1.0", "v 0.0 1.0 1.0"]
    assert lines[4] == "g left"
    assert lines[5] == "f 1 2 3"
    assert lines[6] == "g right"
    assert lines[7] == "f 1 3 4"


def test_obj_rejects_non_finite_vertices(tmp_path):
    bad = SurfaceMesh(vertices=np.array([[0.0, 0.0, math.inf]]),
                      faces=np.zeros((0, 3), dtype=int))
    with pytest.raises(InputError):
        obj_objects([("ok", TRI), ("bad", bad)], tmp_path / "a.obj")
    assert not (tmp_path / "a.obj").exists()


def test_obj_vertex_text_matches_fmt_float(tmp_path):
    values = [-0.0, 0.0, 1.0, -3.0, 1e-300, -5e-324, 1e22, 0.1, 2.0**60, -1.0 / 3.0]
    verts = np.array([values[i:i + 3] for i in range(len(values) - 2)])
    text = written(tmp_path, obj_objects, [("m", SurfaceMesh(vertices=verts, faces=np.zeros((0, 3), dtype=int)))])
    lines = text.split("\n")
    assert lines[1:-1] == ["v " + " ".join(fmt_float(c) for c in row) for row in verts]
    assert lines[1] == "v 0.0 0.0 1.0"
    for bad in (math.nan, -math.inf):
        nan_mesh = SurfaceMesh(vertices=np.array([[0.0, bad, 1.0]]), faces=np.zeros((0, 3), dtype=int))
        with pytest.raises(InputError):
            obj_face_groups(nan_mesh, [], tmp_path / "nan.obj")
        assert not (tmp_path / "nan.obj").exists()


def _obj_rows(n, seed, mixed):
    """n vertex rows.  Plain rows hold no integral value; mixed rows carry
    1e16 magnitudes, integral values and -0.0 in about a third of the
    rows, the first and the last.  Both put magnitudes near 1e-5, which
    take _g17, between values of the byte kernel's range."""
    rng = np.random.default_rng(seed)
    top = 16.0 if mixed else 9.0
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.choice([-5.0, 0.0, top], size=(n, 3))
    if mixed:
        for col, special in enumerate((-0.0, 3.0, 0.0)):
            v[rng.random(n) < 0.05, col] = special
        v[[0, -1][:n], 1] = -2.0
    return v


@pytest.mark.parametrize("n", [0, 1, TEXT_BLOCK_ROWS - 1, TEXT_BLOCK_ROWS, TEXT_BLOCK_ROWS + 1])
@pytest.mark.parametrize("mixed", [False, True])
def test_obj_blocks_match_per_value_writer(tmp_path, n, mixed):
    verts = _obj_rows(n, n, mixed)
    integral_rows = int((verts == np.trunc(verts)).any(axis=1).sum())
    assert integral_rows >= min(n, 2) if mixed else integral_rows == 0
    faces = np.random.default_rng(n).integers(0, max(n, 1), size=(n, 3))
    want = []
    oracles.obj_vertex_lines(verts, want)
    assert float_rows_text(b"v", b" ", verts).split("\n") == per_value_lines(want)
    got, want = io.BytesIO(), []
    _face_rows(got, _index_table(n + 7), faces, 7)
    oracles.obj_face_lines(faces, 7, want)
    assert got.getvalue().decode("ascii").split("\n") == per_value_lines(want)
    want = []
    oracles.obj_vertex_lines(verts, want)
    want.append("g all")
    oracles.obj_face_lines(faces, 0, want)
    mesh = SurfaceMesh(vertices=verts, faces=faces)
    assert written(tmp_path, obj_face_groups, mesh, [("all", 0, n)]).split("\n") == per_value_lines(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_obj_blocks_refuse_non_finite_anywhere(tmp_path, bad):
    n = TEXT_BLOCK_ROWS + 1
    path = tmp_path / "refused.obj"
    for row in (0, n // 2, TEXT_BLOCK_ROWS, n - 1):
        for col in range(3):
            verts = _obj_rows(n, 0, False)
            verts[row, col] = bad
            with pytest.raises(InputError):
                obj_face_groups(SurfaceMesh(vertices=verts, faces=np.zeros((0, 3), dtype=int)), [], path)
            assert not path.exists()


def test_obj_text_without_lines_is_one_newline(tmp_path):
    empty = SurfaceMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=int))
    assert written(tmp_path, obj_objects, []) == written(tmp_path, obj_face_groups, empty, []) == "\n"
    assert written(tmp_path, obj_face_groups, empty, [("g", 0, 0)]) == "g g\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the byte kernel's range, [1e-4, 1e16) in magnitude, drawn on its own as well
KERNEL_RANGE = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
VALUES = st.one_of(FINITE, KERNEL_RANGE, KERNEL_RANGE.map(lambda x: -x))


@given(st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=40))
def test_float_rows_match_per_value_oracle(rows):
    v = np.array(rows, dtype=float)
    want = []
    oracles.obj_vertex_lines(v, want)
    assert float_rows_text(b"v", b" ", v).split("\n") == per_value_lines(want)


def _sweep_values():
    """Values where the digits or the exponent are easy to get wrong."""
    values = []
    for k in range(-6, 18):
        below = above = float(f"1e{k}")
        values.append(below)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            values += [below, above]
    # just below a power of ten, where a digit carry or a wrong exponent would show
    values += [0.99999999999999994, 9.9999999999999982, 99999.999999999985, 9999999999999998.0]
    # ties at the 17th digit, rounded half to even
    values += [1e15 + 0.25, 1e15 + 0.75, 2.0**50 + 0.25, 123456789012345.625]
    # short dyadic values: exact decimal expansions, many trailing zeros
    values += [m / 2.0**e for m in (1, 3, 5, 123, 2**20 + 1, 2**52 + 1) for e in range(0, 70, 3)]
    values += [1.0, 10.0, 100.0, 0.5, 0.1, -0.0, 0.0, 5e-324, np.finfo(float).max, np.finfo(float).tiny]
    values += [-x for x in values]
    values += [0.0] * (-len(values) % 3)
    return np.array(values, dtype=float).reshape(-1, 3)


def test_float_rows_sweep_match_per_value_oracle():
    v = _sweep_values()
    want = []
    oracles.obj_vertex_lines(v, want)
    assert float_rows_text(b"v", b" ", v).split("\n") == per_value_lines(want)


@pytest.mark.parametrize("head", [b"v", b"7", b"12345"])
def test_signed_zeros_in_every_cell_match_fmt_float(head):
    # +-0.0 in every column at every row of a block and of the next, the
    # other cells kernel values or tiny ones that take _g17; the CSV
    # heads give the cells of a row other prefix widths
    n = TEXT_BLOCK_ROWS + 3
    rng = np.random.default_rng(len(head))
    for zero in (0.0, -0.0):
        for col in range(3):
            v = rng.normal(size=(n, 3)) * 10.0 ** rng.choice([-6.0, 0.0, 3.0], size=(n, 3))
            v[:, col] = zero
            v[::2, (col + 1) % 3] = -zero
            want = [",".join([head.decode()] + [fmt_float(x) for x in row]) for row in v]
            assert float_rows_text(head, b",", v).split("\n") == per_value_lines(want)


def test_special_values_scattered_in_one_block_match_g17():
    # 0.0, -0.0, tiny (|v| < 1e-4) and huge (|v| >= 1e16) values at random
    # cells among kernel values of one block: each cell is the _g17 text
    # of its value, -0.0 as 0.0, and no kernel cell is overwritten
    rng = np.random.default_rng(13)
    v = rng.uniform(1e-4, 1e6, size=(400, 3)) * rng.choice([-1.0, 1.0], size=(400, 3))
    specials = [0.0, -0.0, 5e-324, 3.7e-5, -9.999e-5, 1e16, -2.5e300, np.finfo(float).max]
    v.flat[rng.choice(v.size, size=96, replace=False)] = rng.choice(specials, size=96)
    assert len(v) < TEXT_BLOCK_ROWS
    want = [" ".join(["v"] + [_g17(x + 0.0) for x in row]) for row in v.tolist()]
    assert float_rows_text(b"v", b" ", v).split("\n") == per_value_lines(want)


@pytest.mark.parametrize("offset", [0, 7])
def test_face_lines_at_digit_boundaries(offset):
    printed = np.array([9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 100001, 123456])
    faces = (printed - 1 - offset).reshape(-1, 3)
    got, want = io.BytesIO(), []
    _face_rows(got, _index_table(int(printed.max())), faces, offset)
    oracles.obj_face_lines(faces, offset, want)
    assert got.getvalue().decode("ascii").split("\n") == per_value_lines(want)
    assert want[0] == "f 9 10 99"
    # the digit text of indices beyond any table built here, up to 17 digits
    big = np.array([99999999, 100000000, 10**12 - 1, 10**12, 10**16, 10**16 + 1])
    cells = _int_cells(big, 5)
    assert [bytes(row[row != 0]).decode("ascii") for row in cells] == [str(x) for x in big]


def test_face_lines_refuse_index_below_one(tmp_path):
    # indices print 1-based, so a face index must name a vertex of its mesh
    path = tmp_path / "refused.obj"
    for face in ([-1, 0, 1], [0, 1, 3]):
        mesh = SurfaceMesh(vertices=TRI.vertices, faces=np.array([face]))
        with pytest.raises(InputError):
            obj_face_groups(mesh, [("g", 0, 1)], path)
        with pytest.raises(InputError):
            obj_objects([("first", TRI), ("m", mesh)], path)
        assert not path.exists()
    with pytest.raises(InputError):
        obj_face_groups(TRI, [("g", 0, 2)], path)
    assert not path.exists()


def test_float_rows_csv_refuses_without_a_file(tmp_path):
    path = tmp_path / "rows.csv"
    with pytest.raises(InputError):
        float_rows_csv("id,x", [np.array([[1.0]]), np.array([[2.0], [math.nan]])], path)
    assert not path.exists()
    float_rows_csv("id,x", [np.array([[1.0]]), np.zeros((0, 1)), np.array([[-0.0], [0.25]])], path)
    assert path.read_bytes() == b"id,x\n0,1.0\n2,0.0\n2,0.25\n"


_PORTABLE_PROBE = """
import sys
import numpy as np
from wavesym.serialize import _float_rows
rng = np.random.default_rng(17)
# random bit patterns reach every binary exponent, subnormals included
bits = rng.integers(0, 0x7FF0000000000000, size=6000, dtype=np.int64)
every_class = bits.view(np.float64) * rng.choice([-1.0, 1.0], size=bits.size)
# the kernel's range: a mantissa times an exact power of ten
p = np.array([float(f"1e{k}") for k in range(-4, 16)])
kernel = rng.uniform(1.0, 10.0, size=(300, p.size)) * p
# up to 1000 ulps either side of each power of ten, where floor(log10) may miss
steps = np.arange(1, 1001)[:, None]
near = np.concatenate([p * (1.0 - steps * 2.0**-53), p * (1.0 + steps * 2.0**-52)])
values = np.concatenate([every_class, kernel.ravel(), near.ravel(), [0.0, -0.0]])
_float_rows(sys.stdout.buffer, b"v", b" ", values.reshape(-1, 3))
"""


def test_float_rows_portable_across_cpu_dispatch():
    """One seeded array spanning every exponent class, formatted in three
    child processes: default settings, numpy's AVX-512 dispatch disabled,
    and OpenBLAS forced to its Haswell kernel.  The text must be equal.

    The kernel takes only a first guess of the decimal exponent from
    np.log10 and corrects it.  On a 2-vCPU AVX-512 Xeon, np.log10 of the
    40000 values near powers of ten differs in the last bit for 1604 of
    them between the AVX-512 and the AVX2 dispatch, and its floor for 7.
    Where a setting has no effect on the host (no AVX-512, or a numpy
    build that ignores OPENBLAS_CORETYPE), its comparison is trivially
    equal.
    """
    root = Path(__file__).resolve().parent.parent
    src = Path(_float_rows.__code__.co_filename).resolve().parent.parent
    base = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(root)]))
    texts = []
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                    {"OPENBLAS_CORETYPE": "Haswell"}):
        proc = subprocess.run([sys.executable, "-c", _PORTABLE_PROBE], capture_output=True,
                              cwd=root, env={**base, **setting})
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts[0].count(b"\n") == (6000 + 6000 + 40000 + 2) // 3
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]
