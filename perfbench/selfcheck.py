"""Self-check of the benchmark's verifier and of test isolation.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Runs one small real job per workload
kind, confirms that its artifacts pass, then feeds the verifier
deliberately wrong copies: a winding off by one, an index sum of 8,
genus 2, and a repeat with one changed byte.  Each must count as a
failure.  Finally it asks pytest, from the root, what it would collect
and requires that none of it lies under perfbench/.  Exits 1 on any
miss.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import wavesym.cli as cli  # noqa: E402

from workloads import WARMUP_EPS, eigenline_job, fresnel_job, sigma_job  # noqa: E402
from worker import Runner, make_record, require_same  # noqa: E402


def edit_json(files: dict, edit) -> dict:
    report = json.loads(files["json"])
    edit(report)
    return {**files, "json": json.dumps(report).encode()}


def main() -> int:
    misses = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'MISS'} {label}")
        if not ok:
            misses.append(label)

    jobs = {
        "winding": sigma_job(0, 0, 3, 256, winding=True),
        "fresnel": fresnel_job(1, WARMUP_EPS, 2),
        "eigenline": eigenline_job(2, WARMUP_EPS, 4),
    }
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        runner = Runner(cli, Path(tmp))
        runs = {name: runner.execute(job) for name, job in jobs.items()}

    def verdict(name: str, files: dict):
        return make_record(jobs[name], "check", runs[name]._replace(files=files))

    for name in jobs:
        rec = verdict(name, runs[name].files)
        expect(f"{name}: genuine artifacts pass ({rec.verdict.reason or 'verified'})", rec.ok)

    def off_by_one(report):
        traced = next(c for c in report["curves"] if c["winding"] is not None)
        traced["winding"] += 1

    def index_sum_8(report):
        for axis in report["singular_directions"]:
            axis["index"] = 2

    def genus_2(report):
        report["genus"] = 2

    for name, edit, label in (("winding", off_by_one, "winding off by one"),
                              ("fresnel", index_sum_8, "index sum 8 on a well-separated crystal"),
                              ("eigenline", genus_2, "genus 2")):
        rec = verdict(name, edit_json(runs[name].files, edit))
        expect(f"{name}: {label} fails ({rec.verdict.reason}); not a known defect",
               not rec.ok and rec.verdict.defect is None)

    files = runs["fresnel"].files
    first = verdict("fresnel", files)
    changed = bytearray(files["obj"])
    changed[len(changed) // 2] ^= 1
    again = verdict("fresnel", {**files, "obj": bytes(changed)})
    require_same(first, again, "repeat not byte-identical")
    expect("repeat with one changed byte fails the repeat check", bool(again.notes) and not again.ok)
    same = verdict("fresnel", dict(files))
    require_same(first, same, "repeat not byte-identical")
    expect("identical repeat passes", same.ok)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    collected = [ln for ln in proc.stdout.splitlines() if "::" in ln]
    stray = [ln for ln in collected if ln.startswith(HERE.name + "/")]
    expect(f"pytest from the root collects {len(collected)} tests, none under {HERE.name}/",
           bool(collected) and not stray)

    print("self-check " + ("passed" if not misses else f"FAILED: {len(misses)} misses"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
