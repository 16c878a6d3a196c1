"""Print a sha256 digest of every CLI artifact of a fixed job list.

The jobs are the six of acceptance criterion 10, `zset` for the
pair (0, 3) whose second radius is 1/alpha, eigenline at the default
subdiv 4, at subdiv 5 for a crystal with close axes and at
subdiv 5 with tube radius 0.3, the large eigenline and fresnel runs,
two near-uniaxial fresnel runs, two `winding` runs at a contour
tolerance of 1e-300 and of 1e-6, and `sphere` plus `winding --out-csv`
for all 21 sigma_mn pairs (m 0..2, n 0..6) at grid 512, for five pairs
at grid 2048 and for one pair at grid 1000, then the `sphere` and
`winding` jobs again with their values read from a `--config` file,
whose digests equal those of the flag-driven jobs.  Each runs in process
through `wavesym.cli.main`, writes its artifacts to a temporary
directory, and yields one line `job artifact sha256` per artifact
(stdout counts as an artifact).  Run it on two commits and diff the
output to show that a change keeps every artifact byte-identical.

`--setting KEY=VALUE` (repeatable) runs the job list in a child process
with those environment variables set, so settings that act at import
time, such as numpy's `NPY_DISABLE_CPU_FEATURES` or `OPENBLAS_CORETYPE`,
reach only that process.  Diff its output against a run without them to
see which artifacts depend on the CPU dispatch path.

`--job NAME` (repeatable) digests only the named jobs, in list order, so
the lines of the jobs a change touches can be compared in seconds.  A
name that is not in the list exits with status 2.

Usage:
    PYTHONPATH=src python3 scripts/artifact_digest.py [--setting KEY=VALUE ...] [--job NAME ...]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from wavesym.cli import main

# (job name, argv, [(output flag, file name)])
JOBS = [
    ("zset", ["zset", "--m", "0", "--n", "1"], []),
    ("zset_03", ["zset", "--m", "0", "--n", "3"], []),
    ("sphere", ["sphere", "--m", "1", "--n", "4", "--grid", "128"], []),
    ("winding", ["winding", "--m", "0", "--n", "3", "--grid", "128"],
     [("--out", "w.json"), ("--out-csv", "w.csv")]),
    ("fresnel", ["fresnel", "--subdiv", "3"], [("--out", "f.json"), ("--out-obj", "f.obj")]),
    ("eigenline", ["eigenline", "--subdiv", "3"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("eigenline4", ["eigenline", "--subdiv", "4"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    # axes 0.30 rad apart: its tube disks merge at subdiv 4, not at subdiv 5
    ("eigenline5_close", ["eigenline", "--subdiv", "5", "--epsilon",
                          "5.718431480418933,1.5844479112835204,5.395485578415656"],
     [("--out", "e.json"), ("--out-obj", "e.obj")]),
    # wide disks: rims of 3x the default tube radius, 18,872 vertices glued
    ("eigenline5_wide", ["eigenline", "--subdiv", "5", "--tube-radius", "0.3"],
     [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("knots", ["knots", "--winding", "3", "--samples", "64"],
     [("--out", "k.json"), ("--out-csv", "k.csv")]),
    ("eigenline6", ["eigenline", "--subdiv", "6"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("eigenline6_thin", ["eigenline", "--subdiv", "6", "--epsilon", "1.5,2.2,4.0",
                         "--tube-radius", "0.05"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("fresnel5", ["fresnel", "--subdiv", "5"], [("--out", "f.json"), ("--out-obj", "f.obj")]),
    # near-uniaxial at either end: axis pairs 2.4e-3 and 6.8e-3 rad apart, where
    # det J is small
    ("fresnel4_low", ["fresnel", "--subdiv", "4", "--epsilon", "2,2.000001,3"],
     [("--out", "f.json"), ("--out-obj", "f.obj")]),
    ("fresnel4_high", ["fresnel", "--subdiv", "4", "--epsilon", "2.31,3.7,2.31001"],
     [("--out", "f.json"), ("--out-obj", "f.obj")]),
    # contour bisection at both ends of its tolerance: at 1e-300, 726 of
    # the 1024 edges reach the cap of 64 halvings and keep their last
    # midpoint; at 1e-6 every edge converges within 12 halvings (26 at
    # the default 1e-10)
    ("winding_cap", ["winding", "--m", "0", "--n", "3", "--grid", "256", "--tol-contour", "1e-300"],
     [("--out", "w.json"), ("--out-csv", "w.csv")]),
    ("winding_shallow", ["winding", "--m", "1", "--n", "5", "--grid", "512", "--tol-contour", "1e-6"],
     [("--out", "w.json"), ("--out-csv", "w.csv")]),
]
# sphere and winding over every sigma_mn pair, tangential ones included
JOBS += [
    (f"{cmd}_{m}{n}", [cmd, "--m", str(m), "--n", str(n), "--grid", "512"], outputs)
    for m in range(3) for n in range(7)
    for cmd, outputs in (("sphere", [("--out", "s.json")]),
                         ("winding", [("--out", "w.json"), ("--out-csv", "w.csv")]))
]
# the band sweep that once filled the det grid evaluated 16 x 2049 nodes at
# grid 2048, 256 KiB per float64 array, at the 256 KiB from which numpy
# elides temporaries into in-place ufuncs and which no grid-512 band
# reached; these pairs are those whose bands once rounded differently from
# det_at at the same nodes, when det M came from complex products.  The
# sparse det grid evaluates up to 404 tiles of 9 x 9 nodes per call
JOBS += [
    (f"{cmd}_{m}{n}_2048", [cmd, "--m", str(m), "--n", str(n), "--grid", "2048"], outputs)
    for m, n in ((0, 3), (0, 6), (1, 6), (2, 5), (2, 6))
    for cmd, outputs in (("sphere", [("--out", "s.json")]),
                         ("winding", [("--out", "w.json"), ("--out-csv", "w.csv")]))
]
# a grid that is no power of two: the last tiles of the det grid stop
# short of 8 and 128 cells
JOBS += [
    (f"{cmd}_14_1000", [cmd, "--m", "1", "--n", "4", "--grid", "1000"], outputs)
    for cmd, outputs in (("sphere", [("--out", "s.json")]),
                         ("winding", [("--out", "w.json"), ("--out-csv", "w.csv")]))
]

# the sphere and winding jobs with their values in a config file instead of flags
CONFIGS = {
    "sphere_config": "m = 1\nn = 4\ngrid = 128\n",
    "winding_config": "m = 0\nn = 3  # a comment\ngrid = 128\ntol-contour = 1e-10\n",
}
JOBS += [("sphere_config", ["sphere"], []),
         ("winding_config", ["winding"], [("--out", "w.json"), ("--out-csv", "w.csv")])]


def run_job(name: str, argv: list[str], outputs: list[tuple[str, str]], root: Path) -> None:
    rundir = root / name
    rundir.mkdir()
    if name in CONFIGS:
        (rundir / "run.cfg").write_text(CONFIGS[name])
        argv = argv + ["--config", str(rundir / "run.cfg")]
    for flag, fname in outputs:
        argv = argv + [flag, str(rundir / fname)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}")
    blobs = [("stdout", stdout.getvalue().encode())]
    blobs += [(fname, (rundir / fname).read_bytes()) for _, fname in outputs]
    for artifact, data in blobs:
        print(f"{name} {artifact} {hashlib.sha256(data).hexdigest()}", flush=True)


def digest(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every CLI artifact of a fixed job list")
    parser.add_argument("--setting", action="append", default=[], metavar="KEY=VALUE",
                        help="run the jobs in a child process with this environment variable set")
    parser.add_argument("--job", action="append", default=[], metavar="NAME",
                        help="digest only this job; by default every job")
    args = parser.parse_args(argv)
    names = [name for name, _, _ in JOBS]
    unknown = [name for name in args.job if name not in names]
    if unknown:
        parser.error(f"unknown job {unknown[0]!r}")
    if args.setting:
        env = dict(os.environ)
        for item in args.setting:
            key, sep, value = item.partition("=")
            if not (key and sep):
                parser.error(f"--setting takes KEY=VALUE, got {item!r}")
            env[key] = value
        jobs = [f"--job={name}" for name in args.job]
        return subprocess.run([sys.executable, __file__, *jobs], env=env).returncode
    with tempfile.TemporaryDirectory() as tmp:
        for job in JOBS:
            if not args.job or job[0] in args.job:
                run_job(*job, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(digest())
