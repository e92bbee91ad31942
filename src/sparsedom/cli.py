"""Command line front end.

    lab run <scenario.ini> [--level L] [--out dir] [--seed u64]
    lab battery <dir> [--level L] [--out dir] [--seed u64]
    lab constants <scenario.ini> [--level L] [--out dir] [--seed u64]
    lab sparse <scenario.ini> [--dump-family out.json] [--level L]
               [--out dir] [--seed u64]

Exit codes: 0 all checks pass, 1 at least one quantitative check fails,
2 configuration or scenario error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from .bench import (ScenarioError, _constants_csv, _validate, _write_atomic,
                    parse_scenario, run_scenario, write_report)
from .frozen import BATTERY_VERSION


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="lab",
        description="numerical checks for sparse domination of "
                    "Orlicz-smooth singular integrals and their commutators")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scenario_arg=True):
        if scenario_arg:
            p.add_argument("scenario", help="scenario INI file")
        p.add_argument("--level", type=int, default=None,
                       help="override the grid level list with a single level")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized sampling estimates")

    common(sub.add_parser("run", help="run one scenario"))
    bp = sub.add_parser("battery", help="run every scenario in a directory")
    bp.add_argument("directory", help="directory of .ini scenarios")
    common(bp, scenario_arg=False)
    common(sub.add_parser("constants",
                          help="dump the constants table of a scenario"))
    spp = sub.add_parser("sparse", help="build and dump a sparse family")
    common(spp)
    spp.add_argument("--dump-family", default=None, metavar="OUT.json",
                     help="write the cube family with coefficients here")
    return ap


def _lab(args, paths, job) -> list:
    """Loads the scenario at every path with the command line's level and
    seed, runs them all, makes every output directory, then writes each
    one, so an error before the writes leaves no report.  job(scn) checks
    or adjusts a loaded scenario and gives its output directory and family
    path (None: no family.json)."""
    jobs, runs = [], []
    try:  # an error before the writes names its scenario file
        for path in paths:
            scn = parse_scenario(path)
            if args.level is not None:
                scn.levels = (args.level,)
            scn.seed = args.seed
            jobs.append((path, scn, *job(scn)))
        for path, scn, out_dir, family in jobs:
            t0 = time.monotonic()
            report, form = run_scenario(scn)
            print(f"{scn.name}: {'pass' if report['pass'] else 'FAIL'} "
                  f"({time.monotonic() - t0:.1f}s)", file=sys.stderr)
            runs.append((out_dir, report, (family, form) if family else None))
        for path, _, out_dir, _ in jobs:
            os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError, MemoryError) as exc:  # a level too large
        raise ScenarioError(f"{path}: {exc}") from exc
    for out_dir, report, family in runs:
        write_report(out_dir, report, family)
    return [report for _, report, _ in runs]


def _outputs(args, scn, family=None) -> tuple:
    """A single scenario's output directory, --out or <name>.out, and for a
    sparse scenario its family path, family or family.json there."""
    out_dir = args.out or scn.name + ".out"
    if scn.kind == "sparse":
        family = family or os.path.join(out_dir, "family.json")
    return out_dir, family


def cmd_run(args) -> int:
    (report,) = _lab(args, [args.scenario], lambda scn: _outputs(args, scn))
    return 0 if report["pass"] else 1


def cmd_constants(args) -> int:
    def job(scn):
        scn.kind = "constants"
        _validate(scn)  # again, under the kind it now runs as
        return _outputs(args, scn)

    (report,) = _lab(args, [args.scenario], job)
    sys.stdout.write(_constants_csv(report["rows"]))
    return 0


def cmd_sparse(args) -> int:
    def job(scn):
        if scn.kind != "sparse":
            raise ScenarioError("the sparse command needs a kind = sparse "
                                "scenario")
        return _outputs(args, scn, args.dump_family)

    (report,) = _lab(args, [args.scenario], job)
    return 0 if report["pass"] else 1


def cmd_battery(args) -> int:
    paths = sorted(glob.glob(os.path.join(glob.escape(args.directory),
                                          "*.ini")))
    if not paths:  # a missing or empty directory is no passing battery
        raise ScenarioError(f"not a directory of .ini files: {args.directory}")
    out_root = args.out or "battery.out"
    reports = _lab(args, paths,
                   lambda scn: (os.path.join(out_root, scn.name), None))
    os.makedirs(out_root, exist_ok=True)
    summary = {
        "battery_version": BATTERY_VERSION,
        "scenarios": {rep["scenario"]["name"]: {"kind": rep["kind"],
                                                "pass": rep["pass"]}
                      for rep in reports},
        "pass": all(rep["pass"] for rep in reports),
    }
    _write_atomic(os.path.join(out_root, "battery.json"),
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0 if summary["pass"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "battery": cmd_battery,
                "constants": cmd_constants, "sparse": cmd_sparse}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
