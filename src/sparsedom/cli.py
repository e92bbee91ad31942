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

from .bench import (Scenario, ScenarioError, _validate, _write_atomic,
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


def _load(path: str, level: int | None, seed: int) -> Scenario:
    scn = parse_scenario(path)
    if level is not None:
        scn.levels = (level,)
    scn.seed = seed
    return scn


def _default_out(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0] + ".out"


def _run_one(scn: Scenario, path: str, out, dump_family=None) -> dict:
    out_dir = out or _default_out(path)
    if dump_family is None and scn.kind == "sparse":
        dump_family = os.path.join(out_dir, "family.json")
    t0 = time.monotonic()
    report = run_scenario(scn, out_dir=out_dir, dump_family=dump_family)
    dt = time.monotonic() - t0
    print(f"{scn.name}: {'pass' if report['pass'] else 'FAIL'} "
          f"({dt:.1f}s)", file=sys.stderr)
    return report


def cmd_run(args) -> int:
    scn = _load(args.scenario, args.level, args.seed)
    report = _run_one(scn, args.scenario, args.out)
    return 0 if report["pass"] else 1


def cmd_constants(args) -> int:
    scn = _load(args.scenario, args.level, args.seed)
    scn.kind = "constants"
    _validate(scn)  # again, under the kind it now runs as
    out_dir = args.out or _default_out(args.scenario)
    run_scenario(scn, out_dir=out_dir)
    with open(os.path.join(out_dir, "constants.csv")) as fh:
        sys.stdout.write(fh.read())
    return 0


def cmd_sparse(args) -> int:
    scn = _load(args.scenario, args.level, args.seed)
    if scn.kind != "sparse":
        raise ScenarioError("the sparse command needs a kind = sparse "
                            "scenario")
    report = _run_one(scn, args.scenario, args.out,
                      dump_family=args.dump_family)
    return 0 if report["pass"] else 1


def cmd_battery(args) -> int:
    if not os.path.isdir(args.directory):
        raise ScenarioError(f"not a directory: {args.directory}")
    paths = sorted(glob.glob(os.path.join(glob.escape(args.directory),
                                          "*.ini")))
    out_root = args.out or "battery.out"
    # every scenario parses and validates before the first runs, and every
    # one runs before the first report is written: an error anywhere
    # leaves no output
    scenarios = [(path, _load(path, args.level, args.seed)) for path in paths]
    reports = {}
    for path, scn in scenarios:
        t0 = time.monotonic()
        try:
            rep = run_scenario(scn)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        reports[scn.name] = rep
        print(f"{scn.name}: {'pass' if rep['pass'] else 'FAIL'} "
              f"({time.monotonic() - t0:.1f}s)", file=sys.stderr)
    os.makedirs(out_root, exist_ok=True)
    for name, rep in reports.items():
        write_report(os.path.join(out_root, name), rep)
    summary = {
        "battery_version": BATTERY_VERSION,
        "scenarios": {name: {"kind": rep["kind"], "pass": rep["pass"]}
                      for name, rep in reports.items()},
        "pass": all(rep["pass"] for rep in reports.values()),
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
