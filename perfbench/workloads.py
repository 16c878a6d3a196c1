"""Seeded job streams of the three benchmark workloads.

Each workload is an endless stream of CLI jobs drawn from one seed; the
benchmark runs a prefix of it.  A job carries the argv that `wavesym`
sees (without output paths), the artifacts it is asked to write, and
the parameters its verifier needs.  Nothing here imports `wavesym`:
the inputs and the expectations come from the seed and from closed
forms only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

SPHERE_GRID = 2048
FRESNEL_SUBDIV = 4
EIGENLINE_SUBDIV = 6
TUBE_RADIUS = 0.1                   # the CLI default, left implicit in argv
REFUSAL_SEPARATION = 3.0 * TUBE_RADIUS

GAP_RATIO_RANGE = (1e-6, 0.5)
GAP_STRATA = 8                      # per end, a power of 2; a pass has 2 * GAP_STRATA jobs


@dataclass(frozen=True)
class Job:
    """One CLI call: argv minus output flags, artifact kinds, verifier data."""

    index: int
    subcommand: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]        # subset of ("json", "csv", "obj")
    params: dict = field(default_factory=dict, compare=False)

    def argv(self, paths: dict[str, str]) -> list[str]:
        flags = {"json": "--out", "csv": "--out-csv", "obj": "--out-obj"}
        out = [self.subcommand, *self.args]
        for kind in self.outputs:
            out += [flags[kind], paths[kind]]
        return out

    def label(self) -> str:
        return " ".join([self.subcommand, *self.args])


def fmt_eps(eps) -> str:
    # repr round-trips, so the verifier sees exactly the floats the CLI parses
    return ",".join(repr(float(e)) for e in eps)


def optic_axes(eps) -> np.ndarray:
    """Closed-form conical directions (wave normals) of a biaxial crystal.

    With a = 1/eps and a_hi > a_mid > a_lo, the four axes are
    +-sin(b) e_hi +- cos(b) e_lo with cos^2 b = (a_mid - a_lo) / (a_hi - a_lo)
    (Berry & Jeffrey, Prog. Opt. 50, 2007, section 2).
    """
    a = 1.0 / np.asarray(eps, dtype=float)
    order = np.argsort(-a)
    a_hi, a_mid, a_lo = a[order]
    c2 = (a_mid - a_lo) / (a_hi - a_lo)
    c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
    e_hi, e_lo = np.eye(3)[order[0]], np.eye(3)[order[2]]
    return np.array([ss * s * e_hi + sc * c * e_lo for ss in (1.0, -1.0) for sc in (1.0, -1.0)])


def axis_separation(axes: np.ndarray) -> float:
    """Smallest angle between two distinct axes."""
    best = math.pi
    for i, j in itertools.combinations(range(len(axes)), 2):
        best = min(best, math.acos(max(-1.0, min(1.0, float(axes[i] @ axes[j])))))
    return best


def sigma_job(index: int, m: int, n: int, grid: int, winding: bool) -> Job:
    args = ("--m", str(m), "--n", str(n), "--grid", str(grid))
    params = {"m": m, "n": n, "grid": grid}
    if winding:
        return Job(index, "winding", args, ("json", "csv"), params)
    return Job(index, "sphere", args, ("json",), params)


def fresnel_job(index: int, eps, subdiv: int) -> Job:
    text = fmt_eps(eps)
    eps = [float(t) for t in text.split(",")]
    return Job(index, "fresnel", ("--epsilon", text, "--subdiv", str(subdiv)), ("json", "obj"),
               {"eps": eps, "subdiv": subdiv})


def eigenline_job(index: int, eps, subdiv: int) -> Job:
    text = fmt_eps(eps)
    eps = [float(t) for t in text.split(",")]
    sep = axis_separation(optic_axes(eps))
    return Job(index, "eigenline", ("--epsilon", text, "--subdiv", str(subdiv)), ("json", "obj"),
               {"eps": eps, "subdiv": subdiv, "separation": sep, "refuse": sep <= REFUSAL_SEPARATION})


def sphere_family(seed: int):
    """All 21 sigma_mn pairs per pass, shuffled, alternating sphere/winding."""
    rng = np.random.default_rng([seed, 1])
    pairs = [(m, n) for m in range(3) for n in range(7)]
    index = 0
    for p in itertools.count():
        for k, i in enumerate(rng.permutation(len(pairs))):
            yield sigma_job(index, *pairs[i], SPHERE_GRID, winding=(k + p) % 2 == 1)
            index += 1


def crystal_axes(seed: int):
    """Biaxial crystals whose middle permittivity sits at a log-uniform
    gap ratio from either end.

    The gap ratio is stratified: every pass of 2 * GAP_STRATA jobs draws
    one ratio from each of GAP_STRATA equal log-width strata for each
    end, and visits the strata in bit-reversed order, so any run of
    jobs holds the near-uniaxial tail close to its true share.
    """
    rng = np.random.default_rng([seed, 2])
    lo_exp, hi_exp = (math.log10(g) for g in GAP_RATIO_RANGE)
    bits = GAP_STRATA.bit_length() - 1
    order = sorted(range(GAP_STRATA), key=lambda k: int(f"{k:0{bits}b}"[::-1], 2))
    index = 0
    while True:
        for k in order:
            for end in ("low", "high"):
                ratio = 10.0 ** (lo_exp + (k + rng.uniform()) / GAP_STRATA * (hi_exp - lo_exp))
                low = rng.uniform(1.5, 4.0)
                high = low + rng.uniform(0.5, 2.0)
                mid = low + ratio * (high - low) if end == "low" else high - ratio * (high - low)
                yield fresnel_job(index, rng.permutation([low, mid, high]), FRESNEL_SUBDIV)
                index += 1


def eigenline_mesh(seed: int):
    """Crystals with three i.i.d. permittivities uniform in [1.5, 6].

    About 6% of draws put two optic axes within 3 tube radii; the CLI
    must refuse those with exit code 2.
    """
    rng = np.random.default_rng([seed, 3])
    for index in itertools.count():
        yield eigenline_job(index, rng.uniform(1.5, 6.0, 3), EIGENLINE_SUBDIV)


@dataclass(frozen=True)
class Workload:
    stream: object          # seed -> endless iterator of Job
    set_size: int           # leading stream jobs a run always executes: its attempted jobs
    trace_jobs: int         # leading set jobs a traced run executes, untraced and traced
    warmup: Job             # untimed, seed-independent, small


# the warmup crystal is far from uniaxial, so a coarse mesh resolves its axes
WARMUP_EPS = (2.0, 2.5, 3.0)

# A run's job set is one whole pass of the stream where the stream has
# passes (every sigma_mn pair; every gap-ratio stratum at both ends), so
# each seed runs the same mix and the same share of the known defect.
# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    "sphere-family": Workload(sphere_family, 21, 14, sigma_job(-1, 0, 3, 256, winding=True)),
    "crystal-axes": Workload(crystal_axes, 2 * GAP_STRATA, 6, fresnel_job(-1, WARMUP_EPS, 2)),
    "eigenline-mesh": Workload(eigenline_mesh, 3, 1, eigenline_job(-1, WARMUP_EPS, 4)),
}
