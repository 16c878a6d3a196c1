import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavesym.errors import InputError
from wavesym.serialize import (
    TEXT_BLOCK_ROWS,
    _face_lines,
    canonical_json,
    float_row_lines,
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
    assert json.loads(text) == {"a": [True, None, "s"], "b": 1, "c": {"y": 2, "z": 2.0}} or True
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


TRI = SurfaceMesh(
    vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    faces=np.array([[0, 1, 2]]),
)
QUAD = SurfaceMesh(
    vertices=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
    faces=np.array([[0, 1, 2], [0, 2, 3]]),
)


def test_obj_objects_global_indexing():
    text = obj_objects([("first", TRI), ("second", QUAD)])
    lines = text.split("\n")
    assert lines[0] == "o first"
    assert lines[1] == "v 0.0 0.0 0.0"
    assert lines[4] == "f 1 2 3"
    assert lines[5] == "o second"
    # second object's faces offset by the 3 vertices of the first
    assert lines[10] == "f 4 5 6"
    assert lines[11] == "f 4 6 7"
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_obj_face_groups_single_pool():
    text = obj_face_groups(QUAD, [("left", np.array([0])), ("right", np.array([1]))])
    lines = text.split("\n")
    assert lines[:4] == ["v 0.0 0.0 1.0", "v 1.0 0.0 1.0",
                         "v 1.0 1.0 1.0", "v 0.0 1.0 1.0"]
    assert lines[4] == "g left"
    assert lines[5] == "f 1 2 3"
    assert lines[6] == "g right"
    assert lines[7] == "f 1 3 4"


def test_obj_rejects_non_finite_vertices():
    bad = SurfaceMesh(vertices=np.array([[0.0, 0.0, math.inf]]),
                      faces=np.zeros((0, 3), dtype=int))
    with pytest.raises(InputError):
        obj_objects([("bad", bad)])


def test_obj_vertex_text_matches_fmt_float():
    values = [-0.0, 0.0, 1.0, -3.0, 1e-300, -5e-324, 1e22, 0.1, 2.0**60, -1.0 / 3.0]
    verts = np.array([values[i:i + 3] for i in range(len(values) - 2)])
    lines = obj_objects([("m", SurfaceMesh(vertices=verts, faces=np.zeros((0, 3), dtype=int)))]).split("\n")
    assert lines[1:-1] == ["v " + " ".join(fmt_float(c) for c in row) for row in verts]
    assert lines[1] == "v 0.0 0.0 1.0"
    for bad in (math.nan, -math.inf):
        nan_mesh = SurfaceMesh(vertices=np.array([[0.0, bad, 1.0]]), faces=np.zeros((0, 3), dtype=int))
        with pytest.raises(InputError):
            obj_face_groups(nan_mesh, [])


def _obj_rows(n, seed, mixed):
    """n vertex rows.  Plain rows hold no integral value, so they are
    formatted in whole blocks; mixed rows carry 1e16 magnitudes, integral
    values and -0.0 in about a third of the rows, the first and the last."""
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
def test_obj_blocks_match_per_value_writer(n, mixed):
    verts = _obj_rows(n, n, mixed)
    integral_rows = int((verts == np.trunc(verts)).any(axis=1).sum())
    assert integral_rows >= min(n, 2) if mixed else integral_rows == 0
    faces = np.random.default_rng(n).integers(0, max(n, 1), size=(n, 3))
    got, want = [], []
    float_row_lines("v", " ", verts, got)
    oracles.obj_vertex_lines(verts, want)
    assert "\n".join(got) == "\n".join(want)
    got, want = [], []
    _face_lines(faces, 7, got)
    oracles.obj_face_lines(faces, 7, want)
    assert "\n".join(got) == "\n".join(want)
    want = []
    oracles.obj_vertex_lines(verts, want)
    want.append("g all")
    oracles.obj_face_lines(faces, 0, want)
    assert obj_face_groups(SurfaceMesh(vertices=verts, faces=faces), [("all", np.arange(n))]) == "\n".join(want) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_obj_blocks_refuse_non_finite_anywhere(bad):
    n = TEXT_BLOCK_ROWS + 1
    for row in (0, n // 2, TEXT_BLOCK_ROWS, n - 1):
        for col in range(3):
            verts = _obj_rows(n, 0, False)
            verts[row, col] = bad
            with pytest.raises(InputError):
                obj_face_groups(SurfaceMesh(vertices=verts, faces=np.zeros((0, 3), dtype=int)), [])


def test_obj_text_without_lines_is_one_newline():
    empty = SurfaceMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=int))
    assert obj_objects([]) == obj_face_groups(empty, []) == "\n"
    assert obj_face_groups(empty, [("g", [])]) == "g g\n"
