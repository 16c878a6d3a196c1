"""wavesym benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sphere-family --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory, nothing needs installing.  The workload runs in a
child process (perfbench/worker.py) with BLAS and OpenMP threads
limited to 1.  With --trace 0 the run reports the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced pass.  The last stdout
line is the JSON result; the lines before it record the environment,
every metric with its unit, the artifact digest and each failed job.
Spans of a traced run go to .perfbench-out/trace-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import SPHERE_GRID, WORKLOADS  # noqa: E402

# the metrics of the result line; job_s.p50 is printed above it but not
# gated: with 3-5 eigenline jobs per run it swings with host speed more
# than jobs_per_s, which averages over the time of every job
END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB")]
SETUP_RUNS = 11
SETUP_CODE = "import wavesym.cli as c; c.build_parser()"
WORKER_TIMEOUT = 160.0
THREAD_LIMITS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the det grid at SPHERE_GRID holds, per node: X, Y (float64), Z, u, w, (u+w), i(u-w)
# (complex128) and det (float64)
DET_GRID_BYTES_PER_NODE = 2 * 8 + 5 * 16 + 8


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({k: "1" for k in THREAD_LIMITS})
    return env


def measure_setup(env: dict, root: Path) -> float:
    """Median wall time of a fresh interpreter importing wavesym.cli and
    building its parser, after one run that fills the bytecode cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                                stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout) polls in 50 ms steps, coarser than the figure
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, SETUP_CODE)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_record(nproc: int, cpu: int) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nodes = (SPHERE_GRID + 1) ** 2
    return {"cpu": model, "machine": platform.machine(), "nproc": nproc, "pinned_to_cpu": cpu,
            "caches": _cache_sizes(),
            "det_grid_working_set": f"{nodes * DET_GRID_BYTES_PER_NODE / 2**20:.0f} MiB computed "
                                    f"({nodes} nodes x {DET_GRID_BYTES_PER_NODE} B at grid {SPHERE_GRID})"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # one core for the whole run, the same one every time: the highest
    # numbered, which usually carries the least interrupt and housekeeping work
    allowed = os.sched_getaffinity(0)
    nproc, cpu = len(allowed), max(allowed)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        cpu = None

    root = Path.cwd()
    src = root / "src"
    if not (src / "wavesym" / "cli.py").is_file():
        return fail(f"no wavesym sources under {src}; run from the root of a checkout")
    env = child_env(src)

    setup = None
    if args.trace == 0:
        try:
            setup = measure_setup(env, root)
        except subprocess.CalledProcessError as exc:
            return fail(f"importing wavesym.cli failed: {exc}")

    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src),
           "--workdir", str(work),
           "--trace-out", str(root / ".perfbench-out" / f"trace-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {WORKER_TIMEOUT:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return fail(f"worker exited with {proc.returncode}")
    res = json.loads(lines[-1])
    jobs = res["jobs"]
    failed = [j for j in jobs if not j["ok"]]

    print("# env " + json.dumps({**machine_record(nproc, cpu), **res["env"], "seed": args.seed,
                                 "workload": args.workload, "seconds": args.seconds, "trace": args.trace}))
    print(f"# {args.workload}: {len(jobs)} jobs attempted, {len(failed)} failed")
    if args.trace == 0:
        metrics = {"setup_s": setup, **res["metrics"]}
        table = [(name, metrics[name], unit) for name, unit in END_TO_END]
        n_runs = sum(j["phase"] == "timed" for j in jobs) + res["repeats"]
        t = res["tail"]
        shown = [(name, f"{value:.6g}", unit) for name, value, unit in table]
        shown += [("job_s.p50", f"{metrics['job_s.p50']:.6g} (N={n_runs})", "s"),
                  ("job_s.tail", f"p{t['percentile']} {t['value']:.6g} (N={t['n']}, {t['beyond']} beyond)"
                   if t else f"omitted (N={n_runs})", "s"),
                  ("failed_frac", f"{len(failed) / len(jobs):.6g} ({len(failed)}/{len(jobs)})", "ratio")]
        for name, value, unit in shown:
            print(f"{args.workload:15s} {name:34s} {value} {unit}")
        print(f"# {res['repeats']} timed repeats of the job set, each byte-identical to its first run")
        print(f"# digest {args.workload} sha256 {res['digest']['sha256']} over the "
              f"{res['digest']['jobs']} jobs of the set of seed {args.seed}")
    else:
        metrics = res["per_layer"]
        table = [(name, metrics[name], unit) for name, unit in PER_LAYER]
        for name, value, unit in table:
            print(f"{args.workload:15s} {name:34s} {value:.6g} {unit}")
    for j in failed:
        kind = f"known defect {j['defect']}" if j["defect"] else "UNEXPECTED"
        print(f"# failed [{kind}] job {j['index']} ({j['phase']}): wavesym {j['argv']} -- {j['reason']}")

    print(json.dumps({
        "correct": all(j["defect"] for j in failed),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
