"""sparsedom benchmark: three workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload battery|sweep|plane --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; sparsedom is imported from `src/`.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
pass and the tracing overhead against an untraced pass.  The lines before it
print every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from tracer import ENTRIES, calls_under, layer_totals

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("battery", "plane", "sweep")
# A run makes one pass per SECONDS_PER_PASS of --seconds, at least one, so
# the sample count depends on --seconds only, never on the machine.  A pass
# takes about 19 s (battery), 21 s (sweep) and 9 s (plane) on the reference
# machine (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  Its speed
# drifts by about 12% between windows of 16 s or more, and by more between
# shorter ones, so plane, whose passes are shortest, makes 4 passes where
# the others make 2: each workload then measures most of its 40 s.
SECONDS_PER_PASS = {"battery": 20.0, "plane": 10.0, "sweep": 20.0}
# Numbers in the outputs must match the reference within this tolerance:
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  Verdicts, counts, flags and
# strings must match exactly.
RTOL = 1e-6
ATOL = 1e-12
# A run is stopped after PASS_SLACK times SECONDS_PER_PASS for each timed
# pass plus SETUP_BUDGET_S for the set-up-only children: 170 s at
# --seconds 40.  That leaves room for the machine's slow regime.
PASS_SLACK = 3.5
SETUP_BUDGET_S = 30.0
# set-up time is the median of at least this many fresh interpreters
SETUP_SAMPLES = 5
# The end-to-end metrics of the JSON result.  The item statistics are
# printed only: an item of a few tenths of a second samples about one second
# of machine speed, and this machine's speed moves by up to ~40% between
# seconds, so their spread across runs reaches the largest allowed bound.
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- passes -------------------------------------------------------------------


def _prepare(workload: str, seed: int, run_dir: str) -> dict:
    """Write the generated inputs; return the job fields they need."""
    in_dir = os.path.join(run_dir, "inputs")
    os.makedirs(in_dir)
    job = {"workload": workload, "src": SRC, "inputs": in_dir}
    if workload == "battery":
        inputs.write_battery(in_dir)
    elif workload == "plane":
        inputs.write_plane(in_dir, seed)
    else:
        job["configs"] = inputs.SWEEP_CONFIGS
        job["plan"] = inputs.sweep_plan(seed)
    return job


def _pass(job: dict, run_dir: str, index: int, trace: bool,
          deadline: float, setup_only: bool = False) -> dict:
    """Run one child; setup_only stops it once its inputs are built."""
    pdir = os.path.join(run_dir, f"pass{index}")
    os.makedirs(pdir)
    job = dict(job, out=os.path.join(pdir, "out"), trace=trace,
               setup_only=setup_only,
               trace_path=os.path.join(pdir, "trace.json"),
               result=os.path.join(pdir, "result.json"))
    job_path = os.path.join(pdir, "job.json")
    env = {k: v for k, v in os.environ.items()
           if k not in ("LAB_THREADS", "PYTHONPATH")}
    with open(os.path.join(pdir, "stderr.txt"), "w") as err:
        job["t_spawn"] = time.monotonic()
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), job_path],
            stdout=err, stderr=err, env=env)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": "pass exceeded the run deadline"}
    if rc != 0 or not os.path.exists(job["result"]):
        with open(os.path.join(pdir, "stderr.txt")) as fh:
            return {"error": f"child exit {rc}: {fh.read()[-2000:]}"}
    with open(job["result"]) as fh:
        res = json.load(fh)
    if trace:
        with open(job["trace_path"]) as fh:
            res["trace"] = json.load(fh)
    return res


# -- checks -------------------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) \
            or a is None or isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    return False


def deviations(ref, got, path="") -> list:
    """Paths at which got differs from ref beyond the tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))}"]
        return [d for k in sorted(ref)
                for d in deviations(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in deviations(r, g, f"{path}[{i}]")]
    return [] if _close(ref, got) else [f"{path}: {got!r} != {ref!r}"]


def _item_outputs(workload: str, outputs: dict) -> dict:
    """Per-item outputs that the reference compares: name -> record.
    Hashes are left out; they only count byte identity."""
    if workload == "sweep":
        return {str(i): {k: v for k, v in r.items() if k != "arrays_sha256"}
                for i, r in enumerate(outputs["records"])}
    items = {name: {"report": rep} for name, rep in outputs["reports"].items()}
    if workload == "plane":
        for name, rc in outputs["rc"].items():
            items.setdefault(name, {})["rc"] = rc
    return items


def _invariants(workload: str, outputs: dict, ref: dict) -> dict:
    """Failures per item for inputs that have no stored reference."""
    bad = {}
    if workload == "sweep":
        for i, r in enumerate(outputs["records"]):
            why = ("error" if "error" in r else
                   "violations" if r["violations"] else
                   "certificate" if not r["sparse_ok"] else
                   "exhausted" if r["exhausted"] else
                   "c_star" if not (isinstance(r["c_star"], float)
                                    and math.isfinite(r["c_star"])
                                    and r["c_star"] > 0) else None)
            if why:
                bad[str(i)] = [why]
        return bad
    # plane: the angular table changes T only, so the weight and gauge
    # constants must equal the reference, and since those pass, each
    # verdict (and exit code) must be the conjunction of its rows
    for name, ref_item in ref["items"].items():
        rep = outputs["reports"].get(name)
        rc = outputs["rc"].get(name)
        if rep is None or rc not in (0, 1):
            bad[name] = [f"exit code {rc}"]
            continue
        fixed = {k: v for k, v in ref_item["report"]["constants"].items()
                 if k.startswith(("ainf_w", "cf_chain", "kappa_bound",
                                  "loglog_vs_log"))}
        errs = deviations(fixed, {k: rep["constants"].get(k) for k in fixed})
        rows_ok = all(r["pass"] for r in rep["rows"])
        if rep["pass"] != rows_ok or (rc == 0) != rep["pass"]:
            errs.append("verdict does not follow from its rows")
        if errs:
            bad[name] = errs
    return bad


def check(workload: str, seed: int, passes: list, ref: dict) -> dict:
    """Count items that deviate, raise or exit unexpectedly, and report
    files that are byte-identical to the reference (or to the first pass
    when the seed has no stored reference)."""
    ref = ref[workload]
    has_ref = workload == "battery" or seed == 0
    n_items = len(ref["items"])
    attempted = failed = same = files = 0
    first_files = None
    notes = []
    for p in passes:
        attempted += n_items
        if p.get("error"):
            failed += n_items
            notes.append(p["error"].strip().splitlines()[-1])
            continue
        out = p["outputs"]
        if has_ref:
            got = _item_outputs(workload, out)
            bad = {}
            for name, ref_item in ref["items"].items():
                errs = deviations(ref_item, got.get(name))
                if errs:
                    bad[name] = errs
            if workload == "battery" and out["rc"] != ref["rc"]:
                bad = {name: [f"exit code {out['rc']}"] for name in ref["items"]}
            base_files = ref["files"]
        else:
            bad = _invariants(workload, out, ref)
            base_files = first_files = first_files or _file_hashes(workload,
                                                                    out)
        failed += len(bad)
        for name, errs in bad.items():
            notes.append(f"{name}: {errs[0]}")
        hashes = _file_hashes(workload, out)
        files += len(base_files)
        same += sum(hashes.get(k) == v for k, v in base_files.items())
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "identical": same, "files": files}


def _file_hashes(workload: str, outputs: dict) -> dict:
    if workload == "sweep":
        return {str(i): r.get("arrays_sha256")
                for i, r in enumerate(outputs["records"])}
    return outputs["files"]


# -- metrics ------------------------------------------------------------------


def tail(samples: list):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  With 20 samples or fewer that percentile does not
    lie above the median, so the maximum is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes: list, setups: list) -> tuple:
    """Medians over passes, and a printed line of item statistics.  Each
    item's time is its median over passes; the statistics are taken over
    those per-item times, so their sample count is the workload's item
    count whatever the number of passes."""
    ok = [p for p in passes if not p.get("error")]
    by_item = {}
    for p in ok:
        for name, t in p["items"]:
            by_item.setdefault(name, []).append(t)
    items = [statistics.median(ts) for ts in by_item.values()]
    value, pct = tail(items)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in ok),
        "cpu_s": statistics.median(p["cpu_s"] for p in ok),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
        "setup_s": statistics.median(setups),
    }
    note = (f"{len(ok)} passes of {len(items)} items: item_p50_s = "
            f"{statistics.median(items):.6g} s, item_tail_s = {value:.6g} s "
            f"(p{pct:.0f} of {len(items)}); setup_s is the median of "
            f"{len(setups)} interpreters")
    return metrics, note


# (metric name, unit, better) for the traced run; see README.md for the
# end-to-end metric and workload each should move.
LAYER_METRICS = (
    ("operators.grand_maximal_truncated.calls", "count", "lower"),
    ("operators.grand_maximal_truncated.self_s", "s", "lower"),
    ("operators.apply_windowed.calls", "count", "lower"),
    ("operators.apply_windowed.self_s", "s", "lower"),
    ("operators.apply_windowed.per_gmt", "count", "lower"),
    ("operators.apply_operator.calls", "count", "lower"),
    ("operators.apply_operator.self_s", "s", "lower"),
    ("operators.commutator_apply.total_s", "s", "lower"),
    ("operators.operator_norm_l2.calls", "count", "lower"),
    ("operators.operator_norm_l2.total_s", "s", "lower"),
    ("operators.hormander_estimate.calls", "count", "lower"),
    ("operators.hormander_estimate.total_s", "s", "lower"),
    ("sparse_engine.estimate_ct.calls", "count", "lower"),
    ("sparse_engine.estimate_ct.hit_frac", "ratio", "higher"),
    ("operators.maximal.calls", "count", "lower"),
    ("operators.maximal.self_s", "s", "lower"),
    ("young.luxemburg_norm_batch.calls", "count", "lower"),
    ("young.luxemburg_norm_batch.self_s", "s", "lower"),
    ("young.luxemburg_norm.calls", "count", "lower"),
    ("young.luxemburg_norm.self_s", "s", "lower"),
    ("young.luxemburg_norm.per_node", "count", "lower"),
    ("young.kappa_phi.calls", "count", "lower"),
    ("young.kappa_phi.self_s", "s", "lower"),
    ("weights.weight_constant.calls", "count", "lower"),
    ("weights.weight_constant.self_s", "s", "lower"),
    ("weights.bmo_norm.self_s", "s", "lower"),
    ("dyadic.scope_cubes.self_s", "s", "lower"),
    ("dyadic.cz_decompose.calls", "count", "lower"),
    ("dyadic.cz_decompose.self_s", "s", "lower"),
    ("dyadic.check_sparse.self_s", "s", "lower"),
    ("sparse_engine.build_sparse_family.calls", "count", "lower"),
    ("sparse_engine.build_sparse_family.self_s", "s", "lower"),
    ("sparse_engine.sparse_form_eval.self_s", "s", "lower"),
    ("sparse_engine.nodes", "count", "lower"),
    ("bench.run_scenario.self_s", "s", "lower"),
    ("cli.cmd_battery.self_s", "s", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The LAYER_METRICS of one traced pass.  trace.attributed_frac counts
    the self time of the functions whose self or total time is reported,
    except the ENTRIES: their self time holds every helper no layer wraps."""
    layers = layer_totals(trace)
    attributed = {name.rsplit(".", 1)[0] for name, _, _ in LAYER_METRICS
                  if name.endswith((".self_s", ".total_s"))} - set(ENTRIES)
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def get(fn, field):
        return layers.get(fn, zero)[field]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "operators.apply_windowed.per_gmt": ratio(
            calls_under(trace, "operators.apply_windowed",
                        "operators.grand_maximal_truncated"),
            get("operators.grand_maximal_truncated", "calls")),
        "sparse_engine.estimate_ct.hit_frac": 1.0 - ratio(
            trace["counters"]["sparse_engine.ct_misses"],
            get("sparse_engine.estimate_ct", "calls"))
        if get("sparse_engine.estimate_ct", "calls") else 0.0,
        "young.luxemburg_norm.per_node": ratio(
            get("young.luxemburg_norm", "calls"),
            trace["counters"]["sparse_engine.nodes"]),
        "sparse_engine.nodes": trace["counters"]["sparse_engine.nodes"],
        "trace.attributed_frac": ratio(
            sum(get(fn, "self_s") for fn in attributed), traced_wall),
        "trace.overhead_frac": ratio(traced_wall - untraced_wall,
                                     untraced_wall),
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        else:
            fn, field = name.rsplit(".", 1)
            value = get(fn, field)
        out[name] = {"value": value, "unit": unit}
    return out


# -- runs ---------------------------------------------------------------------


def _run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Timed passes, then set-up-only children until SETUP_SAMPLES set-up
    times are in hand.  With trace, every second pass is traced."""
    run_dir = os.path.join(WORK, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    job = _prepare(workload, seed, run_dir)
    n = max(1, round(seconds / SECONDS_PER_PASS[workload]))
    if trace:
        n = max(n, 2)
    deadline = (time.monotonic() + n * PASS_SLACK * SECONDS_PER_PASS[workload]
                + SETUP_BUDGET_S)
    passes = []
    for i in range(n):
        passes.append(_pass(job, run_dir, i, trace and i % 2 == 1, deadline))
    probes = [_pass(job, run_dir, i, False, deadline, setup_only=True)
              for i in range(n, max(n, SETUP_SAMPLES))]
    setups = [p["setup_s"] for p in passes + probes if not p.get("error")]
    return passes, setups


def bench(workload: str, seed: int, seconds: float, trace: bool,
          ref: dict) -> int:
    """One run of one workload: print each metric with its unit, then the
    result as one JSON line."""
    passes, setups = _run(workload, seed, seconds, trace)
    res = check(workload, seed, passes, ref)
    for note in res["notes"][:20]:
        print(f"deviation: {note}")
    base = ("the reference" if workload == "battery" or seed == 0
            else "the first pass")
    print(f"check: {res['failed']} of {res['attempted']} items failed "
          f"(failed_frac {res['failed'] / res['attempted']:.4g}); "
          f"{res['identical']} of {res['files']} outputs byte-identical "
          f"to {base}")
    untraced = [p for i, p in enumerate(passes)
                if not (trace and i % 2 == 1) and not p.get("error")]
    traced = [p for i, p in enumerate(passes)
              if trace and i % 2 == 1 and not p.get("error")]
    if not untraced or trace and not traced:
        print("error: no pass completed", file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(
            traced[0]["trace"], traced[0]["wall_s"],
            statistics.median(p["wall_s"] for p in untraced))
        layers = layer_totals(traced[0]["trace"])
        print("unattributed self time: " + ", ".join(
            f"{fn} {layers[fn]['self_s']:.4g} s" for fn in ENTRIES
            if fn in layers))
    else:
        values, note = end_to_end(untraced, setups)
        print(note)
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the seed-0 outputs of every workload")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsedom", "__init__.py")):
        print(f"error: no sparsedom source tree at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rc = 0
    for workload in workloads:
        rc = max(rc, bench(workload, args.seed, args.seconds,
                           bool(args.trace), ref))
    return rc


def write_reference() -> int:
    """Store the seed-0 outputs of one pass of each workload."""
    ref = {}
    for workload in WORKLOADS:
        (p,), _ = _run(workload, 0, SECONDS_PER_PASS[workload], False)
        if p.get("error"):
            print(p["error"], file=sys.stderr)
            return 1
        out = p["outputs"]
        ref[workload] = {"items": _item_outputs(workload, out),
                         "files": _file_hashes(workload, out)}
        if workload == "battery":
            ref[workload]["rc"] = out["rc"]
        print(f"{workload}: {len(ref[workload]['items'])} items, "
              f"{p['wall_s']:.1f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
