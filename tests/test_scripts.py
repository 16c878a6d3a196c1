"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import wavesym

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _env():
    """The children import the wavesym this test imported, first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(wavesym.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_crystal_demo_writes_its_artifacts(tmp_path):
    outdir = tmp_path / "demo"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "crystal_demo.py"), "--subdiv", "2",
                           "--outdir", str(outdir)], capture_output=True, cwd=tmp_path, env=_env())
    assert proc.returncode == 0, proc.stderr.decode()
    for name in ("fresnel.obj", "eigenline.obj", "report.json"):
        assert (outdir / name).stat().st_size > 0, name
    assert "genus = 3" in proc.stdout.decode()


def test_artifact_digest_refuses_a_setting_without_a_value(tmp_path):
    # the job list takes minutes, so only the refusal runs here
    proc = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digest.py"), "--setting", "OPENBLAS_CORETYPE"],
                          capture_output=True, text=True, cwd=tmp_path, env=_env())
    assert proc.returncode == 2
    assert "KEY=VALUE" in proc.stderr


def test_artifact_digest_refuses_an_unknown_job(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digest.py"), "--job", "zset", "--job", "eigenline7"],
                          capture_output=True, text=True, cwd=tmp_path, env=_env())
    assert proc.returncode == 2
    assert "unknown job 'eigenline7'" in proc.stderr
    assert proc.stdout == ""


def test_artifact_digest_runs_only_the_named_jobs(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digest.py"), "--job", "knots", "--job", "zset"],
                          capture_output=True, text=True, cwd=tmp_path, env=_env())
    assert proc.returncode == 0, proc.stderr
    # in the order of the job list, one line per artifact
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [
        ["zset", "stdout"], ["knots", "stdout"], ["knots", "k.json"], ["knots", "k.csv"]]


def test_artifact_digest_config_jobs_equal_their_flag_twins(tmp_path):
    jobs = ["sphere", "winding", "sphere_config", "winding_config"]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digest.py"), *(f"--job={j}" for j in jobs)],
                          capture_output=True, text=True, cwd=tmp_path, env=_env())
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    for job in ("sphere", "winding"):
        flagged = [row[1:] for row in rows if row[0] == job]
        assert flagged and [row[1:] for row in rows if row[0] == f"{job}_config"] == flagged
