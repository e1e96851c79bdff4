"""Command line front end.

Four subcommands: curvature values at surface nodes, Gagliardo seminorms of
sampled fields, the full verification suite, and the shrinking-front flow.
Machine output is JSON lines with sorted keys on stdout (or --out), human
summaries go to stderr. Runs are sequential and deterministic for a fixed
seed, so reruns are byte identical.

Exit codes: 0 on success, 1 when a verification or flow run fails its
checks, 2 for bad arguments or malformed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fixtures import FIXTURE_NAMES, fixture_description
from .geometry import (
    ConvexBody,
    GeometryError,
    make_body,
    surface_quadrature,
)
from .inequalities import SUITE_SECTIONS, run_suite
from .inequalities.corpus import field_values
from .inequalities.suite import PROFILES
from .nonlocal_ops import (
    DEFAULT_CHORD_DIRECTIONS,
    ScalarField,
    gagliardo,
    halpha_boundary,
    halpha_chord,
)
from .flow import FlowOptions, flow, write_snapshot_svg, write_trace_csv


class _Emitter:
    def __init__(self, out_path):
        self.fh = open(out_path, "w") if out_path else sys.stdout
        self.owns = out_path is not None

    def emit(self, record: dict):
        self.fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self):
        if self.owns:
            self.fh.close()
        else:
            self.fh.flush()


def _load_body(spec: str) -> tuple[str, ConvexBody]:
    """Fixture name or path to a JSON body description."""
    if spec in FIXTURE_NAMES:
        return spec, make_body(fixture_description(spec))
    path = Path(spec)
    if not path.exists():
        raise GeometryError(
            f"body {spec!r} is neither a fixture ({', '.join(FIXTURE_NAMES)}) "
            "nor an existing file"
        )
    with open(path) as fh:
        try:
            described = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"body file {spec!r} is not valid JSON: {exc}")
    return path.stem, make_body(described)


def _cmd_halpha(args, emit: _Emitter) -> int:
    name, body = _load_body(args.body)
    quad = surface_quadrature(body, args.surface_resolution)
    count = min(args.count, quad.node_count)
    picks = np.unique(np.linspace(0, quad.node_count - 1, count).astype(int))
    values = []
    for i in picks:
        x = quad.points[i]
        if args.form == "boundary":
            value = halpha_boundary(body, quad, x, args.alpha).value
        else:
            value = halpha_chord(
                body, x, args.alpha, resolution=args.resolution,
                normal=quad.normals[i],
            ).value
        values.append(value)
        emit.emit({
            "command": "halpha",
            "body": name,
            "alpha": args.alpha,
            "form": args.form,
            "node": int(i),
            "point": [float(c) for c in x],
            "value": value,
        })
    arr = np.array(values)
    print(
        f"halpha[{args.form}] on {name}, alpha={args.alpha}: "
        f"min {arr.min():.6g}, mean {arr.mean():.6g}, max {arr.max():.6g} "
        f"over {len(arr)} nodes",
        file=sys.stderr,
    )
    return 0


def _cmd_seminorm(args, emit: _Emitter) -> int:
    name, body = _load_body(args.body)
    quad = surface_quadrature(body, args.surface_resolution)
    rng = np.random.default_rng([args.seed, 7])
    field = ScalarField(quad, field_values(rng, quad, args.field))
    value = gagliardo(field, args.s, args.p)
    emit.emit({
        "command": "seminorm",
        "body": name,
        "field": args.field,
        "s": args.s,
        "p": args.p,
        "seed": args.seed,
        "value": value,
    })
    print(
        f"gagliardo seminorm^p of {args.field} field on {name}: {value:.6g} "
        f"(s={args.s}, p={args.p})",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args, emit: _Emitter) -> int:
    reports = run_suite(section=args.suite, seed=args.seed, profile=args.profile)
    failed = 0
    for rep in reports:
        rec = rep.to_record()
        rec["command"] = "verify"
        emit.emit(rec)
        if not rep.passed:
            failed += 1
            print(f"FAIL {rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g}",
                  file=sys.stderr)
    print(
        f"verify[{args.suite}] seed={args.seed} profile={args.profile}: "
        f"{len(reports) - failed}/{len(reports)} passed",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def _cmd_flow(args, emit: _Emitter) -> int:
    name, body = _load_body(args.body)
    options = FlowOptions(
        markers=args.markers,
        cfl=args.cfl,
        resample_every=args.resample_every,
        max_steps=args.max_steps,
        rule_size=args.resolution,
    )
    trace = flow(body, args.alpha, options)
    stride = max(1, len(trace.states) // args.report_states)
    for k in range(0, len(trace.states), stride):
        s = trace.states[k]
        emit.emit({
            "command": "flow",
            "body": name,
            "alpha": args.alpha,
            "step": k,
            "t": s.t,
            "perimeter": s.perimeter,
            "area": s.area,
            "dt": s.dt,
        })
    emit.emit({
        "command": "flow-summary",
        "body": name,
        "alpha": args.alpha,
        "ending": trace.ending,
        "steps": len(trace.states),
        "rehulls": len(trace.rehull_steps),
        "t_star": trace.t_star_num,
        "final_area": trace.states[-1].area,
    })
    if args.csv:
        write_trace_csv(trace, args.csv)
    if args.svg:
        write_snapshot_svg(trace, args.svg)
    print(
        f"flow on {name}, alpha={args.alpha}: {trace.ending} after "
        f"{len(trace.states)} states, extinction estimate "
        f"{trace.t_star_num if trace.t_star_num is not None else 'n/a'}",
        file=sys.stderr,
    )
    return 0 if trace.ending == "extinct" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgeo",
        description="Fractional curvature, nonlocal seminorms, and "
        "curvature-driven flow on convex bodies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("halpha", help="curvature values at surface nodes")
    p.add_argument("--body", required=True,
                   help=f"fixture name ({', '.join(FIXTURE_NAMES)}) or JSON path")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--form", choices=("chord", "boundary"), default="chord")
    p.add_argument("--resolution", type=int, default=None,
                   help="direction count for the chord form on surfaces "
                   f"(default {DEFAULT_CHORD_DIRECTIONS}); planar bodies are exact")
    p.add_argument("--surface-resolution", type=int, default=64)
    p.add_argument("--count", type=int, default=8, help="nodes to evaluate")
    p.set_defaults(func=_cmd_halpha)

    p = sub.add_parser("seminorm", help="Gagliardo seminorm of a sampled field")
    p.add_argument("--body", required=True)
    p.add_argument("--field", choices=("cap", "cosine", "bump"), default="cap")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--surface-resolution", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_seminorm)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("all",) + SUITE_SECTIONS, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=tuple(PROFILES), default="default")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flow", help="shrink a convex planar body")
    p.add_argument("--body", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--markers", type=int, default=256)
    p.add_argument("--cfl", type=float, default=0.25)
    p.add_argument("--resample-every", type=int, default=5)
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--resolution", type=int, default=480,
                   help="graded direction count per marker")
    p.add_argument("--report-states", type=int, default=40,
                   help="cap on per-state records emitted")
    p.add_argument("--csv", default=None, help="also write the full trace here")
    p.add_argument("--svg", default=None, help="write front snapshots here")
    p.set_defaults(func=_cmd_flow)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write JSON lines here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emit = _Emitter(args.out)
    try:
        return args.func(args, emit)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        emit.close()


if __name__ == "__main__":
    sys.exit(main())
