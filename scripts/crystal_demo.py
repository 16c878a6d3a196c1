"""Run the crystal pipeline through the wavesym CLI and summarize it in one place.

Runs `wavesym fresnel` and `wavesym eigenline` for one permittivity
triple with their OBJ meshes written to the output directory, prints the
conical directions, the sheet gap and the eigenline census (Euler
characteristic, genus, cylinders) from their JSON reports, and stores
both reports together as report.json.

Usage:
    python3 scripts/crystal_demo.py [--epsilon 2.0,2.5,3.0] [--subdiv 4]
                                    [--tube-radius 0.1] [--outdir demo_out]

A flag left out takes the CLI's default.  A failed CLI run ends the
script with the CLI's exit code and message.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from wavesym.cli import main as wavesym_main
from wavesym.serialize import canonical_json


def run(argv: list[str]) -> dict:
    """The JSON report one CLI run prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wavesym_main(argv)
    if code:
        sys.exit(code)
    return json.loads(out.getvalue())


def flags(**values: str | None) -> list[str]:
    """CLI flags for the values given on this script's command line."""
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items() if value is not None]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", help="three principal permittivities, comma separated")
    ap.add_argument("--subdiv")
    ap.add_argument("--tube-radius")
    ap.add_argument("--outdir", type=Path, default=Path("demo_out"))
    ns = ap.parse_args()
    ns.outdir.mkdir(parents=True, exist_ok=True)
    crystal = flags(epsilon=ns.epsilon, subdiv=ns.subdiv)

    fresnel_obj = ns.outdir / "fresnel.obj"
    fresnel = run(["fresnel", *crystal, "--out-obj", str(fresnel_obj)])
    axes = fresnel["singular_directions"]
    print(f"epsilon = {tuple(fresnel['epsilon'])}")
    print(f"conical directions ({len(axes)}):")
    for a in axes:
        x = ", ".join(f"{v:+.6f}" for v in a["x"])
        print(f"  ({x})  residual {a['residual']:.2e}  index {a['index']:+d}")
    print(f"index sum = {sum(a['index'] for a in axes)}")
    print(f"\nslowness sheets: min gap {fresnel['min_sheet_gap']:.6e} -> {fresnel_obj}")

    eigenline_obj = ns.outdir / "eigenline.obj"
    eigenline = run(["eigenline", *crystal, *flags(tube_radius=ns.tube_radius),
                     "--out-obj", str(eigenline_obj)])
    print(f"eigenline manifold: chi = {eigenline['chi']}, genus = {eigenline['genus']}, "
          f"{eigenline['cylinders']} cylinders -> {eigenline_obj}")
    for i, cond in enumerate(eigenline["necessary_condition"]):
        print(f"  cylinder {i}: |ds_r| = {cond['ds_r_norm']:.6e}, "
              f"lift {cond['lift_total']:+.6f} ({cond['status']})")

    json_path = ns.outdir / "report.json"
    json_path.write_text(canonical_json({"fresnel": fresnel, "eigenline": eigenline}))
    print(f"combined report -> {json_path}")


if __name__ == "__main__":
    main()
