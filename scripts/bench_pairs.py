"""Paired before/after perfbench runs, written as one BENCH_<n>.json record.

    python3 scripts/bench_pairs.py PARENT_DIR [CHANGE_DIR] --out BENCH_<n>.json
        --first-seed S [--what "what changed and what is claimed"]

PARENT_DIR and CHANGE_DIR are source checkouts (CHANGE_DIR defaults to the
current directory).  For each of the three workloads the script runs 10
pairs of `perfbench/run.py --workload W --seed S --seconds 40`, once in
each checkout per pair, one after the other: even pairs run the parent
first, odd pairs the change.  Before each pair one warm-up run of the side
that goes first (one pass, `--seconds 1`, the pair's seed) is made and
discarded, so that a pair's first run does not start on an idle machine.
Every pair uses its own seed,
first_seed + 100 * (workload index) + pair; pick a first seed that no run
made while building the change has used.  Then it makes one traced run
(`--seed 0 --trace 1`) per workload and side.

Each record is the JSON object of the last line run.py prints.  A run
that exits nonzero or reports "correct": false stops the script.  The
summary gives, per workload and end-to-end metric, the median and
quartiles of each side (statistics.quantiles(method='inclusive')), how many
pairs the change was lower in, and the parent's interquartile range.  It
also gives the change/parent ratio of each pair, summarized as median, min
and max over all pairs, over the pairs that ran the parent first and over
those that ran the change first: the run that goes first in a pair can
read slower, and the split shows how much of a difference is that order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SECONDS = 40
# run.py makes one pass per SECONDS_PER_PASS of --seconds, at least one
WARMUP_SECONDS = 1
PAIRS = 10
WORKLOADS = ("battery", "sweep", "plane")
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, trace: int,
             seconds: float = SECONDS) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} reported "
                         f"correct=false:\n{proc.stdout}")
    return result


def stats(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def ratio_stats(ratios: list) -> dict:
    return {"median": statistics.median(ratios), "min": min(ratios),
            "max": max(ratios), "n": len(ratios)}


def summarize(runs: list, workload: str) -> dict:
    by = {side: sorted((r for r in runs if r["workload"] == workload
                        and r["side"] == side), key=lambda r: r["pair"])
          for side in SIDES}
    out = {
        "failed_items": {s: sum(r["result"]["failed"] for r in by[s])
                         for s in SIDES},
        "attempted_items": {s: sum(r["result"]["attempted"] for r in by[s])
                            for s in SIDES},
    }
    for name in by["parent"][0]["result"]["metrics"]:
        vals = {s: [r["result"]["metrics"][name]["value"] for r in by[s]]
                for s in SIDES}
        par, chg = vals["parent"], vals["change"]
        ps, cs = stats(par), stats(chg)
        # per pair change/parent, grouped by the side that ran first
        ratios = {"all": [], "parent_first": [], "change_first": []}
        for p, c, r in zip(par, chg, by["parent"]):
            first = "parent" if r["position"] == 1 else "change"
            ratios["all"].append(c / p)
            ratios[f"{first}_first"].append(c / p)
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_lower_in_pairs": sum(c < p for p, c in zip(par, chg)),
            "ties": sum(c == p for p, c in zip(par, chg)),
            "pairs": len(par),
            "median_change_over_parent": cs["median"] / ps["median"],
            "parent_iqr": ps["q3"] - ps["q1"],
            "pair_ratio": {g: ratio_stats(v) for g, v in ratios.items()},
        }
    return out


def machine() -> str:
    libs = []
    for pkg in ("numpy", "scipy"):
        try:
            libs.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            pass
    return ", ".join([f"{os.cpu_count()} cores",
                      f"Python {platform.python_version()}"] + libs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=Path("."))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, traced, seeds = [], [], {}
    for w, workload in enumerate(WORKLOADS):
        first = args.first_seed + 100 * w
        seeds[workload] = f"{first}-{first + PAIRS - 1}"
        for pair in range(PAIRS):
            seed = first + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run_once(dirs[order[0]], workload, seed, 0, WARMUP_SECONDS)
            for position, side in enumerate(order, 1):
                result = run_once(dirs[side], workload, seed, 0)
                runs.append({"side": side, "workload": workload,
                             "seed": seed, "pair": pair,
                             "position": position, "result": result})
                print(side, workload, seed,
                      result["metrics"]["wall_s"]["value"], flush=True)
        for side in SIDES:
            traced.append({"side": side, "workload": workload, "seed": 0,
                           "trace": 1,
                           "result": run_once(dirs[side], workload, 0, 1)})
    record = {
        "what": args.what,
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {SECONDS}",
        "traced_command": "python3 perfbench/run.py --workload <w> --seed 0 "
                          f"--seconds {SECONDS} --trace 1",
        "method": (
            f"{PAIRS} pairs per workload, each pair one run of each "
            "side at the same seed ("
            + ", ".join(f"{w} {s}" for w, s in seeds.items())
            + "), run one after the other by scripts/bench_pairs.py; even "
            "pairs run the parent first, odd pairs the change. Each record "
            "is the last line run.py prints. Quartiles are "
            "statistics.quantiles(method='inclusive')."),
        "summary": {w: summarize(runs, w) for w in WORKLOADS},
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
