"""Command line front end.

Three subcommands drive the pipeline: ``lines`` enumerates the 27 lines of a
family member with their incidence combinatorics, ``monodromy`` tracks one of
the bundled loops and reports the induced permutations and lattice matrix,
``verify`` runs the check battery and renders a report.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input,
3 nearest-point matching stayed ambiguous at the maximum refinement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .curves import family_lambda
from .errors import (AmbiguousIncidence, AmbiguousMatching, GeometryError,
                     NoUniqueMatch)
from .lines import build_surface_data, concurrent_triples
from .report import jsonable, render_csv, render_json, render_text
from .tracking import (TrackingConfig, constant_loop, flex_lattice_map,
                       gamma_minus, gamma_plus, lift_to_lines, trace_loop)
from .verify import run_checks

LOOPS = {"gamma-minus": gamma_minus, "gamma-plus": gamma_plus,
         "constant": lambda: constant_loop(0.0)}


def parse_complex(text: str) -> complex:
    """Accept '0.5', '1+2j', or the pair form 're,im'."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text.replace(" ", ""))


def positive_tolerance(text: str) -> float:
    """A finite, positive tolerance; NaN would switch every `> tol` test off."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}")
    return value


def cycle_notation(perm: np.ndarray) -> str:
    """Disjoint cycles of a permutation given as an image array."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = int(perm[start])
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = int(perm[nxt])
        if len(cyc) > 1:
            out.append("(" + " ".join(str(i) for i in cyc) + ")")
    return "".join(out) if out else "()"


def _complex_cols(z: complex) -> list[str]:
    return [f"{z.real:.12g}", f"{z.imag:.12g}"]


# ---------------------------------------------------------------------------
# lines subcommand

def _lines_payload(lam: complex, tol: float) -> dict:
    surface = build_surface_data(family_lambda(lam), tol=tol)
    triples = concurrent_triples(surface.lines, surface.adjacency)
    return {
        "familyParameter": lam,
        "lines": [{"index": i, "flex": ln.flex, "sheet": ln.n,
                   "hyperplane1": list(ln.h1), "hyperplane2": list(ln.h2)}
                  for i, ln in enumerate(surface.lines)],
        "incidenceDegrees": surface.adjacency.sum(axis=1).tolist(),
        "concurrentTriples": [list(t) for t in triples],
        "sixer": list(surface.sixer),
        "classes": surface.classes.tolist(),
    }


def _render_lines_text(payload: dict) -> str:
    lam = payload["familyParameter"]
    rows = [f"27 lines of the cubic-surface family member at parameter {lam}",
            "",
            f"{'idx':>3}  {'flex':>4}  {'sheet':>5}  class"]
    for entry, cls in zip(payload["lines"], payload["classes"]):
        rows.append(f"{entry['index']:>3}  {entry['flex']:>4}  "
                    f"{entry['sheet']:>5}  {tuple(cls)}")
    rows.append("")
    rows.append("incidence degrees: " + " ".join(
        str(d) for d in payload["incidenceDegrees"]))
    rows.append("concurrent triples: " + " ".join(
        str(tuple(t)) for t in payload["concurrentTriples"]))
    rows.append("pairwise disjoint sixer: " + str(tuple(payload["sixer"])))
    return "\n".join(rows)


def _render_lines_csv(payload: dict) -> str:
    header = ["index", "flex", "sheet"]
    header += [f"h1_{c}_{p}" for c in "xyzw" for p in ("re", "im")]
    header += [f"h2_{c}_{p}" for c in "xyzw" for p in ("re", "im")]
    out = [",".join(header)]
    for entry in payload["lines"]:
        cols = [str(entry["index"]), str(entry["flex"]), str(entry["sheet"])]
        for key in ("hyperplane1", "hyperplane2"):
            for z in entry[key]:
                cols += _complex_cols(z)
        out.append(",".join(cols))
    return "\n".join(out)


def cmd_lines(args: argparse.Namespace) -> int:
    lam = parse_complex(args.lam)
    payload = _lines_payload(lam, args.tol)
    if args.format == "json":
        print(json.dumps(jsonable(payload), indent=2))
    elif args.format == "csv":
        print(_render_lines_csv(payload))
    else:
        print(_render_lines_text(payload))
    return 0


# ---------------------------------------------------------------------------
# monodromy subcommand

def _monodromy_payload(loop_name: str, cfg: TrackingConfig) -> dict:
    trace = trace_loop(LOOPS[loop_name](), cfg)
    roots, flexes = trace.root_perm, trace.flex_perm
    lifted = lift_to_lines(flexes)
    matrix = flex_lattice_map(flexes)
    return {"loop": loop_name, "steps": cfg.steps,
            "rootPermutation": roots.tolist(),
            "rootCycles": cycle_notation(roots),
            "flexPermutation": flexes.tolist(),
            "flexCycles": cycle_notation(flexes),
            "linePermutation": lifted.tolist(),
            "latticeMatrix": matrix.tolist()}


def _render_monodromy_text(payload: dict) -> str:
    rows = [f"loop {payload['loop']} at {payload['steps']} steps",
            f"  branch roots:  {payload['rootCycles']}",
            f"  inflections:   {payload['flexCycles']}",
            f"  lines:         {cycle_notation(np.array(payload['linePermutation']))}",
            "  lattice matrix:"]
    for row in payload["latticeMatrix"]:
        rows.append("    [" + " ".join(f"{v:>2}" for v in row) + "]")
    return "\n".join(rows)


def _render_track_csv(loop_name: str, cfg: TrackingConfig) -> str:
    trace = trace_loop(LOOPS[loop_name](), cfg)
    out = ["step,t,root_index,re,im"]
    for step, (t, row) in enumerate(zip(trace.ts, trace.roots)):
        for idx, z in enumerate(row):
            out.append(",".join([str(step), f"{t:.12g}", str(idx)]
                                + _complex_cols(z)))
    out.append("step,t,flex_index,re,im")
    for step, (t, row) in enumerate(zip(trace.ts, trace.ys)):
        for k, z in enumerate(row):
            out.append(",".join([str(step), f"{t:.12g}", str(k + 1)]
                                + _complex_cols(z)))
    return "\n".join(out)


def cmd_monodromy(args: argparse.Namespace) -> int:
    cfg = TrackingConfig(steps=args.steps, eps_match=args.tol,
                         precision=args.precision)
    if args.format == "csv":
        print(_render_track_csv(args.loop, cfg))
        return 0
    payload = _monodromy_payload(args.loop, cfg)
    if args.format == "json":
        print(json.dumps(jsonable(payload), indent=2))
    else:
        print(_render_monodromy_text(payload))
    return 0


# ---------------------------------------------------------------------------
# verify subcommand

def cmd_verify(args: argparse.Namespace) -> int:
    cfg = TrackingConfig(steps=args.steps, eps_match=args.tol,
                         precision=args.precision)
    report = run_checks(args.scope, cfg)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "csv":
        print(render_csv(report))
    else:
        print(render_text(report))
    return 0 if report.overall == "pass" else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicmonodromy",
        description="27 lines, deck symmetry, and loop monodromy of the "
                    "triple-cover cubic-surface family.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=positive_tolerance, default=1e-8,
                        help="geometric matching tolerance (default 1e-8)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")

    # options of the subcommands that track loops; `lines` tracks none
    tracked = argparse.ArgumentParser(add_help=False)
    tracked.add_argument("--steps", type=int, default=100,
                         help="samples per tracked loop (default 100)")
    tracked.add_argument("--precision", choices=("double", "extended"),
                         default="double",
                         help="root-refinement arithmetic (default double)")

    p_lines = sub.add_parser("lines", parents=[common],
                             help="enumerate the 27 lines of one family member")
    p_lines.add_argument("--lambda", dest="lam", default="0",
                         help="family parameter: '0.5', '1+2j', or 're,im'")
    p_lines.set_defaults(fn=cmd_lines)

    p_mono = sub.add_parser("monodromy", parents=[common, tracked],
                            help="track a loop and report its monodromy")
    p_mono.add_argument("loop", choices=sorted(LOOPS),
                        help="which bundled loop to track")
    p_mono.set_defaults(fn=cmd_monodromy)

    p_verify = sub.add_parser("verify", parents=[common, tracked],
                              help="run the verification battery")
    p_verify.add_argument("--scope", choices=("fixtures", "pipeline", "all"),
                          default="all",
                          help="which check families to run (default all)")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AmbiguousMatching, AmbiguousIncidence, NoUniqueMatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
