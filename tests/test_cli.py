import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavesym import cli, fresnel
from wavesym.errors import GluingMismatch
from wavesym.multiplicity import _JUMP_LIMIT, WINDING_RESIDUAL, knot_polyline
from wavesym.serialize import canonical_json, fmt_float

from .oracles import ALPHA


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- happy paths -----------------------------------------------------------------


def test_zset_stdout(capsys):
    code, out, err = run(capsys, "zset", "--m", "0", "--n", "1")
    assert code == 0
    assert err == ""
    assert out.endswith("\n")
    rep = json.loads(out)
    assert rep["m"] == 0 and rep["n"] == 1
    assert rep["radii"][0] == pytest.approx(ALPHA, abs=1e-12)
    assert rep["radii"][1] == 1.0
    # the alpha radius is printed with all 17 significant digits
    assert "0.29559774252208" in out


def test_out_file_silences_stdout(tmp_path, capsys):
    target = tmp_path / "z.json"
    code, out, _ = run(capsys, "zset", "--m", "0", "--n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["radii"][0] == 1.0


def test_sphere_report(capsys):
    code, out, _ = run(capsys, "sphere", "--m", "0", "--n", "2", "--grid", "64")
    assert code == 0
    rep = json.loads(out)
    assert rep["transversal"] is False
    assert rep["circles"] == []
    assert rep["grid"] == 64


def test_winding_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "curves.csv"
    code, out, _ = run(capsys, "winding", "--m", "0", "--n", "6",
                       "--grid", "128", "--out-csv", str(csv_path))
    assert code == 0
    rep = json.loads(out)
    assert len(rep["curves"]) == 1
    assert rep["curves"][0]["winding"] == 6
    assert rep["curves"][0]["transversal"] is True
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "curve_id,x1,x2,kernel_angle_lifted"
    assert len(lines) > 100
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("m,n", [(m, n) for m in range(3) for n in range(7)])
def test_winding_margins_under_their_thresholds(capsys, m, n):
    code, out, _ = run(capsys, "winding", "--m", str(m), "--n", str(n), "--grid", "512")
    assert code == 0
    curves = json.loads(out)["curves"]
    traced = [c for c in curves if c["winding"] is not None]
    # the unit circle is traced on every transversal pair, nothing on a tangential one
    assert bool(traced) == (n - m != 2)
    for c in curves:
        if c["winding"] is None:
            assert c["winding_residual"] is None and c["max_angle_step"] is None
        else:
            assert c["min_grad"] > c["grad_floor"] > 0.0
            assert 0.0 <= c["winding_residual"] < WINDING_RESIDUAL
            assert 0.0 <= c["max_angle_step"] < _JUMP_LIMIT


def test_fresnel_with_obj(tmp_path, capsys):
    obj_path = tmp_path / "surface.obj"
    code, out, _ = run(capsys, "fresnel", "--subdiv", "3",
                       "--out-obj", str(obj_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["epsilon"] == [2.0, 2.5, 3.0]
    assert len(rep["singular_directions"]) == 4
    text = obj_path.read_text()
    assert "o fresnel_inner" in text
    assert "o fresnel_outer" in text


def test_fresnel_builds_one_sheet_mesh(tmp_path, monkeypatch):
    # one icosphere for the axis search, one for both sheets, and the
    # sheet speeds evaluated once for the report's gap and the OBJ
    calls = {"icosphere": 0, "sheet_speeds": 0}

    def counting(name):
        fn = getattr(fresnel, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fresnel, name, counting(name))
    code = cli.main(["fresnel", "--subdiv", "3", "--out", str(tmp_path / "report.json"),
                     "--out-obj", str(tmp_path / "surface.obj")])
    assert code == 0
    assert calls == {"icosphere": 2, "sheet_speeds": 1}


def test_axis_search_ignores_subdiv(capsys):
    # both crystal commands search one fixed mesh for the optic axes, so
    # fresnel reports the same axes at every --subdiv and eigenline glues
    # its cylinders around them; both refuse --subdiv 0 and 1
    reported, glued = set(), set()
    for k in range(7):
        f_code, f_out, _ = run(capsys, "fresnel", "--subdiv", str(k))
        e_code, e_out, _ = run(capsys, "eigenline", "--subdiv", str(k))
        if k < 2:
            assert f_code == e_code == 2
            continue
        assert f_code == e_code == 0
        reported.add(canonical_json(json.loads(f_out)["singular_directions"]))
        glued.add(canonical_json([c["point"] for c in json.loads(e_out)["necessary_condition"]]))
    assert len(reported) == len(glued) == 1
    axes = np.array([a["x"] for a in json.loads(reported.pop())])
    points = np.array(json.loads(glued.pop()))
    assert np.allclose(points, axes, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2)])
def test_isolated_zero_is_no_curve(capsys, m, n):
    # det M vanishes exactly at the origin node, inside neighbours of one
    # sign; the point is reported as includes_zero, never as a curve
    code, out, _ = run(capsys, "sphere", "--m", str(m), "--n", str(n), "--grid", "512")
    assert code == 0
    rep = json.loads(out)
    assert rep["includes_zero"] is True
    assert rep["circles"] and all(c["r"] > 0.0 for c in rep["circles"])
    code, out, _ = run(capsys, "winding", "--m", str(m), "--n", str(n), "--grid", "512")
    assert code == 0
    curves = json.loads(out)["curves"]
    assert curves and all(c["length"] > 0.0 for c in curves)


def test_eigenline_with_obj(tmp_path, capsys):
    obj_path = tmp_path / "manifold.obj"
    code, out, _ = run(capsys, "eigenline", "--subdiv", "3",
                       "--out-obj", str(obj_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["chi"] == -4
    assert rep["genus"] == 3
    assert rep["census"]["consistent"] is True
    text = obj_path.read_text()
    for group in ("g sheet1", "g sheet2", "g cyl_0", "g cyl_3"):
        assert group in text


def knot_csv_per_value(winding, samples):
    """The knots CSV text written one fmt_float value at a time."""
    lines = ["component_id,base_angle,fiber_angle"]
    for cid, comp in enumerate(knot_polyline(winding, samples=samples)):
        lines += [f"{cid},{fmt_float(base)},{fmt_float(fiber)}" for base, fiber in comp]
    return "\n".join(lines) + "\n"


def test_knots_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "knot.csv"
    code, out, _ = run(capsys, "knots", "--winding", "3",
                       "--samples", "32", "--out-csv", str(csv_path))
    assert code == 0
    rep = json.loads(out)
    assert rep == {"connected": True, "knot": [2, 3], "winding": 3}
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "component_id,base_angle,fiber_angle"
    assert len(lines) == 1 + 64          # one component, 2 * samples rows
    assert all(line.startswith("0,") for line in lines[1:])
    assert csv_path.read_text() == knot_csv_per_value(3, 32)


def test_knots_even_winding_two_components(tmp_path, capsys):
    csv_path = tmp_path / "link.csv"
    code, out, _ = run(capsys, "knots", "--winding", "2",
                       "--samples", "16", "--out-csv", str(csv_path))
    assert code == 0
    assert json.loads(out)["connected"] is False
    lines = csv_path.read_text().strip().split("\n")[1:]
    assert {line.split(",")[0] for line in lines} == {"0", "1"}
    assert csv_path.read_text() == knot_csv_per_value(2, 16)


def test_reruns_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "sphere", "--m", "1", "--n", "4", "--grid", "64")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


# --- config files -----------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# sphere settings\nm = 1\nn = 4\ngrid = 64\n")
    code, out, _ = run(capsys, "sphere", "--config", str(cfgfile))
    assert code == 0
    rep = json.loads(out)
    assert (rep["m"], rep["n"], rep["grid"]) == (1, 4, 64)


def test_flags_override_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid = 64\nm = 0\nn = 1\n")
    code, out, _ = run(capsys, "sphere", "--config", str(cfgfile), "--grid", "128")
    assert code == 0
    assert json.loads(out)["grid"] == 128


def test_config_dashed_keys(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tol-root = 1e-12  # dashes normalize to underscores\n")
    code, out, _ = run(capsys, "zset", "--config", str(cfgfile))
    assert code == 0


def test_config_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("gird = 64\n")
    code, _, err = run(capsys, "zset", "--config", str(cfgfile))
    assert code == 2
    assert "unknown key" in err
    assert "run.cfg:1" in err


def test_config_missing_file(capsys):
    code, _, err = run(capsys, "zset", "--config", "/nonexistent/raccoon.cfg")
    assert code == 2
    assert "cannot read config file" in err


def test_config_bad_line(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid 64\n")
    code, _, err = run(capsys, "zset", "--config", str(cfgfile))
    assert code == 2
    assert "expected key=value" in err


# --- validation exits ----------------------------------------------------------------


def test_m_out_of_range(capsys):
    code, _, err = run(capsys, "zset", "--m", "3", "--n", "0")
    assert code == 2
    assert "m must lie in" in err


def test_bad_epsilon_count(capsys):
    code, _, err = run(capsys, "fresnel", "--epsilon", "2,3")
    assert code == 2


def test_bad_epsilon_sign(capsys):
    code, _, err = run(capsys, "fresnel", "--epsilon", "2,-1,3")
    assert code == 2


def test_uniaxial_crystal_is_a_validation_error(capsys):
    code, _, err = run(capsys, "fresnel", "--epsilon", "2,2,3", "--subdiv", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("subcommand", ["fresnel", "eigenline"])
def test_merged_axes_exit_2_without_artifacts(tmp_path, capsys, subcommand):
    # closed-form axis pairs 7.7e-4 rad apart merge in the axis search
    out, obj = tmp_path / "r.json", tmp_path / "r.obj"
    code, stdout, err = run(capsys, subcommand, "--epsilon", "2,2.0000001,3", "--subdiv", "2",
                            "--out", str(out), "--out-obj", str(obj))
    assert code == 2
    assert stdout == "" and "conical directions" in err
    assert not out.exists() and not obj.exists()


def test_unknown_flag(capsys):
    code = cli.main(["zset", "--frequency", "7"])
    capsys.readouterr()
    assert code == 2


def test_missing_subcommand(capsys):
    code = cli.main([])
    capsys.readouterr()
    assert code == 2


def test_help_exits_zero(capsys):
    code = cli.main(["--help"])
    capsys.readouterr()
    assert code == 0


def test_grid_too_small(capsys):
    code, _, err = run(capsys, "sphere", "--m", "0", "--n", "1", "--grid", "8")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("subcommand", ["sphere", "winding"])
def test_grid_above_byte_cap_exit_2_without_artifacts(tmp_path, capsys, subcommand):
    # refused when the field is built, before its grid is allocated
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    argv = [subcommand, "--m", "1", "--n", "4", "--grid", "100000", "--out", str(out)]
    if subcommand == "winding":
        argv += ["--out-csv", str(csv)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == "" and "GiB cap" in err
    assert not out.exists() and not csv.exists()


def test_n_out_of_range(capsys):
    code, _, err = run(capsys, "sphere", "--m", "0", "--n", "7")
    assert code == 2
    assert "n must lie in [0, 6]" in err


def test_parser_built_once_and_reused(capsys, monkeypatch):
    # consecutive calls share one parser and give what calls with a
    # freshly built parser give, bad arguments included
    argvs = [["zset", "--m", "0", "--n", "1"], ["knots", "--winding", "3"],
             ["zset", "--frequency", "7"], ["sphere", "--m", "1", "--n", "4", "--grid", "16"],
             ["zset", "--m", "1", "--n", "2"], [], ["knots", "--winding", "2"]]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built, build = [], cli.build_parser

    def counted_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 2, 0]


# --- numerical failure exit ------------------------------------------------------------


def test_computation_error_maps_to_exit_3(capsys, monkeypatch):
    def raiser(cfg):
        raise GluingMismatch("seam did not close")

    monkeypatch.setitem(cli._DISPATCH, "eigenline", raiser)
    code, _, err = run(capsys, "eigenline", "--subdiv", "3")
    assert code == 3
    assert "seam did not close" in err


# --- allocator thresholds --------------------------------------------------------------

# In a fresh interpreter: count glibc's mapped blocks (mallinfo2 hblks)
# around a 2 MiB buffer allocated after freeing an 8 MiB one.  At glibc's
# dynamic default that free raises the mmap threshold to 8 MiB, and the
# 2 MiB buffer comes from the heap; once main() has run it is mapped.
_MAPPED_PROBE = """
import ctypes, sys
import numpy as np
from wavesym import cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                               "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
try:
    libc.gnu_get_libc_version
    libc.mallinfo2.restype = Mallinfo2
except AttributeError:
    sys.exit(3)
if sys.argv[1] == "main":
    cli.main(["knots", "--winding", "3", "--out", sys.argv[2]])
big = np.ones(1 << 20)
del big
before = libc.mallinfo2().hblks
buf = np.ones(1 << 18)
print(libc.mallinfo2().hblks - before)
"""


def _mapped_blocks_added(tmp_path, first: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _MAPPED_PROBE, first, str(tmp_path / "k.json")],
                          capture_output=True, text=True, env=env)
    if proc.returncode == 3:
        pytest.skip("needs glibc 2.33 or later")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_main_keeps_megabyte_buffers_in_their_own_mappings(tmp_path):
    assert cli.MALLOC_MMAP_THRESHOLD <= 2 << 20 <= cli.MALLOC_TRIM_THRESHOLD
    assert _mapped_blocks_added(tmp_path, "main") == 1
    # the probe itself tells the two settings apart
    assert _mapped_blocks_added(tmp_path, "none") == 0
