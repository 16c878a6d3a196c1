"""Print a sha256 digest of every CLI artifact of a fixed job list.

The jobs are the six of acceptance criterion 10, the large eigenline
and fresnel runs, two near-uniaxial fresnel runs, and `sphere` plus
`winding --out-csv` for all 21 sigma_mn pairs (m 0..2, n 0..6) at grid
512 and for five pairs at grid 2048.  Each runs in process through `wavesym.cli.main`, writes its
artifacts to a temporary directory, and yields one line
`job artifact sha256` per artifact (stdout counts as an artifact).
Run it on two commits and diff the output to show that a change keeps
every artifact byte-identical.

Usage:
    PYTHONPATH=src python3 scripts/artifact_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from wavesym.cli import main

# (job name, argv, [(output flag, file name)])
JOBS = [
    ("zset", ["zset", "--m", "0", "--n", "1"], []),
    ("sphere", ["sphere", "--m", "1", "--n", "4", "--grid", "128"], []),
    ("winding", ["winding", "--m", "0", "--n", "3", "--grid", "128"],
     [("--out", "w.json"), ("--out-csv", "w.csv")]),
    ("fresnel", ["fresnel", "--subdiv", "3"], [("--out", "f.json"), ("--out-obj", "f.obj")]),
    ("eigenline", ["eigenline", "--subdiv", "3"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("knots", ["knots", "--winding", "3", "--samples", "64"],
     [("--out", "k.json"), ("--out-csv", "k.csv")]),
    ("eigenline6", ["eigenline", "--subdiv", "6"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("eigenline6_thin", ["eigenline", "--subdiv", "6", "--epsilon", "1.5,2.2,4.0",
                         "--tube-radius", "0.05"], [("--out", "e.json"), ("--out-obj", "e.obj")]),
    ("fresnel5", ["fresnel", "--subdiv", "5"], [("--out", "f.json"), ("--out-obj", "f.obj")]),
    # near-uniaxial at either end: axis pairs 2.4e-3 and 6.8e-3 rad apart, where
    # det J is small and Newton seeds take very different numbers of steps
    ("fresnel4_low", ["fresnel", "--subdiv", "4", "--epsilon", "2,2.000001,3"],
     [("--out", "f.json"), ("--out-obj", "f.obj")]),
    ("fresnel4_high", ["fresnel", "--subdiv", "4", "--epsilon", "2.31,3.7,2.31001"],
     [("--out", "f.json"), ("--out-obj", "f.obj")]),
]
# sphere and winding over every sigma_mn pair, tangential ones included
JOBS += [
    (f"{cmd}_{m}{n}", [cmd, "--m", str(m), "--n", str(n), "--grid", "512"], outputs)
    for m in range(3) for n in range(7)
    for cmd, outputs in (("sphere", [("--out", "s.json")]),
                         ("winding", [("--out", "w.json"), ("--out-csv", "w.csv")]))
]
# a grid-2048 det grid band holds 16 x 2049 complex values (524 KiB), above
# the 256 KiB at which numpy elides temporaries into in-place ufuncs, which
# no grid-512 band reaches; these pairs are those whose bands once rounded
# differently from det_at at the same nodes
JOBS += [
    (f"{cmd}_{m}{n}_2048", [cmd, "--m", str(m), "--n", str(n), "--grid", "2048"], outputs)
    for m, n in ((0, 3), (0, 6), (1, 6), (2, 5), (2, 6))
    for cmd, outputs in (("sphere", [("--out", "s.json")]),
                         ("winding", [("--out", "w.json"), ("--out-csv", "w.csv")]))
]


def run_job(name: str, argv: list[str], outputs: list[tuple[str, str]], root: Path) -> None:
    rundir = root / name
    rundir.mkdir()
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for job in JOBS:
            run_job(*job, Path(tmp))
