"""One workload in one process: a closed loop of in-process CLI jobs.

Started by run.py with BLAS/OpenMP threads limited to 1 and the
checkout's `src` on PYTHONPATH.  One client runs the jobs back to back:
each job is `wavesym.cli.main(argv)` with every artifact pointed into a
scratch directory, and the next job starts when the previous one has
been verified.  The last stdout line is a JSON summary for run.py.

Every run starts with an untimed warmup, a small fixed job of the
workload's subcommand, and ends with it again untimed: the two must
match byte for byte.  The jobs a run attempts are the warmup and the
workload's job set, a fixed number of leading stream jobs, so a seed
always attempts the same jobs and meets the same known defects.

Untraced run (--trace 0): the whole job set in order, then the set again
from its start while the next job fits into --seconds; each repeat must
match its first run byte for byte, or that job fails.

Traced run (--trace 1): each of the set's first trace_jobs jobs runs
untraced and then at once with the layer wrappers installed; the traced
artifacts must match the untraced ones byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
import verify
import workloads


class Outcome(NamedTuple):
    rc: int | None
    wall: float
    files: dict[str, bytes]
    output: str                 # what the CLI printed (stdout and stderr)
    crash: str | None           # last line of an uncaught exception


@dataclass
class Record:
    job: workloads.Job
    phase: str
    rc: int | None
    wall: float
    hashes: dict[str, str]
    bytes_out: int
    verdict: verify.Verdict
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict.ok and not self.notes

    def summary(self) -> dict:
        return {"index": self.job.index, "phase": self.phase, "argv": self.job.label(), "rc": self.rc,
                "wall": self.wall, "ok": self.ok,
                "reason": "; ".join(([self.verdict.reason] if not self.verdict.ok else []) + self.notes),
                "defect": self.verdict.defect if not self.notes else None}


class Runner:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None      # set while a traced job runs
        self.count = 0

    def execute(self, job: workloads.Job) -> Outcome:
        """Run one CLI call and collect what it left behind."""
        jobdir = self.workdir / f"job{self.count}"
        self.count += 1
        jobdir.mkdir(parents=True)
        paths = {kind: str(jobdir / f"out.{kind}") for kind in job.outputs}
        argv = job.argv(paths)
        crash = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.run_job(job.index, lambda: self.cli.main(argv))
            except Exception:
                rc = None
                crash = traceback.format_exc(limit=4).strip().splitlines()[-1]
            wall = time.perf_counter() - t0
        files = {kind: Path(p).read_bytes() for kind, p in paths.items() if Path(p).exists()}
        shutil.rmtree(jobdir)
        return Outcome(rc, wall, files, sink.getvalue(), crash)

    def run(self, job: workloads.Job, phase: str) -> Record:
        return make_record(job, phase, self.execute(job))


def make_record(job: workloads.Job, phase: str, out: Outcome) -> Record:
    """Verify a job's artifacts and keep their hashes (the bytes are dropped)."""
    if out.crash:
        verdict = verify.Verdict(False, f"exception: {out.crash}")
    else:
        verdict = verify.verify(job, out.rc, out.files, out.output)
    return Record(job, phase, out.rc, out.wall,
                  {kind: hashlib.sha256(data).hexdigest() for kind, data in sorted(out.files.items())},
                  sum(len(d) for d in out.files.values()), verdict)


def require_same(reference: Record, again: Record, note: str) -> None:
    """Fail `again` unless it left the same exit code and artifact bytes."""
    if reference.rc != again.rc or reference.hashes != again.hashes:
        again.notes.append(note)


def check_repeat(reference: Record, again: Record, note: str) -> None:
    """A repeat that differs fails, and so does the attempt it repeats."""
    require_same(reference, again, note)
    if again.notes:
        reference.notes.append(note)


def repeat_loop(runner: Runner, first: list[Record], limit: float, start: float) -> list[Record]:
    """Run the jobs of `first` again, in order and cyclically, while the
    next one is predicted to end before `limit` seconds after `start`."""
    out: list[Record] = []
    took = [r.wall for r in first]
    for k in itertools.count():
        if time.perf_counter() - start + statistics.median(took) > limit:
            return out
        again = runner.run(first[k % len(first)].job, "repeat")
        check_repeat(first[k % len(first)], again, "repeated job is not byte-identical")
        out.append(again)
        took.append(again.wall)


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten jobs beyond it, if above p50."""
    n = len(walls)
    k = n - 10
    if k <= n / 2:
        return None
    return {"percentile": int(100 * k / n), "value": sorted(walls)[k - 1], "n": n, "beyond": n - k}


def env_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args()

    import wavesym.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"wavesym imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    job_set = list(itertools.islice(wl.stream(args.seed), wl.set_size))
    runner = Runner(cli, Path(args.workdir))
    warmup = runner.run(wl.warmup, "warmup")
    records = [warmup]

    result: dict = {"env": env_record()}
    if args.trace == 0:
        start = time.perf_counter()
        timed = [runner.run(job, "timed") for job in job_set]
        repeats = repeat_loop(runner, timed, args.seconds, start)
        records += timed
        runs = timed + repeats
        walls = [r.wall for r in runs]
        answered = [r for r in runs if r.rc == 0]
        digest = hashlib.sha256()
        for r in timed:
            digest.update(json.dumps([r.job.label(), r.rc, r.hashes]).encode())
        result["digest"] = {"sha256": digest.hexdigest(), "jobs": len(timed)}
        result["repeats"] = len(repeats)
        result["metrics"] = {
            "job_s.p50": statistics.median(walls),
            # answers per second of answering: jobs that ran to exit 0 and wrote
            # their artifacts, right or wrong (wrong ones count in failed), over
            # their own wall time; refusals and aborted jobs are left out of both,
            # so a seed's share of refusals or known defects does not move it
            "jobs_per_s": len(answered) / sum(r.wall for r in answered),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["tail"] = tail(walls)
    else:
        # each job runs untraced, then at once traced, so the overhead is
        # measured in pairs; the traced artifacts must match byte for byte
        tracer = tracing.Tracer()
        plain, traced = [], []
        for job in job_set[:wl.trace_jobs]:
            plain.append(runner.run(job, "untraced"))
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.run(job, "traced"))
            finally:
                runner.tracer = None
                tracer.uninstall()
            check_repeat(plain[-1], traced[-1], "traced artifacts differ from the untraced run")
        records += plain
        tracer.write(Path(args.trace_out))
        per_job = [tracer.job_metrics(j, r.bytes_out) for j, r in zip(tracer.jobs, traced)]
        layers = tracing.summarize(per_job)
        plain_p50 = statistics.median(r.wall for r in plain)
        layers["trace.overhead_frac"] = (statistics.median(r.wall for r in traced) - plain_p50) / plain_p50
        result["per_layer"] = layers

    check_repeat(warmup, runner.run(wl.warmup, "repeat"), "repeated warmup is not byte-identical")
    result["jobs"] = [r.summary() for r in records]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
