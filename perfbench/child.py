"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/child.py JOB.json

The job names the workload, the source tree, the input and output
directories, the spawn time and whether to trace.  A fresh interpreter
starts with sparsedom's module caches (_ct_cache, _l2_cache, _wc_cache,
Kernel._cache) empty, as a user's command does.  The pass writes its
timings and outputs to the job's result path.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_outputs(out_root: str) -> dict:
    files, reports = {}, {}
    for path in sorted(glob.glob(os.path.join(out_root, "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            files[os.path.relpath(path, out_root)] = _sha256(path)
            if os.path.basename(path) == "report.json":
                with open(path) as fh:
                    reports[os.path.basename(os.path.dirname(path))] = \
                        json.load(fh)
    return {"files": files, "reports": reports}


def _timed(fn, key, items):
    """Record (key(args), seconds) for each call of fn."""
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            items.append([key(*args, **kwargs), time.perf_counter() - t0])
    return call


class Battery:
    """`lab battery` over the generated copy of the released battery."""

    def __init__(self, job):
        from sparsedom import bench
        self.out = job["out"]
        for path in sorted(glob.glob("*.ini")):
            bench.parse_scenario(path)

    def run(self, items):
        from sparsedom import cli
        cli.run_scenario = _timed(cli.run_scenario, lambda scn, **_: scn.name,
                                  items)
        return {"rc": cli.main(["battery", ".", "--out", self.out])}

    def outputs(self, result):
        return dict(result, **_read_outputs(self.out))


class Plane:
    """Two `lab run` commands on generated 2D scenarios."""

    def __init__(self, job):
        from sparsedom import bench
        self.out = job["out"]
        self.paths = sorted(glob.glob("*.ini"))
        for path in self.paths:
            bench.parse_scenario(path)

    def run(self, items):
        from sparsedom import cli
        rcs = {}
        for path in self.paths:
            name = os.path.splitext(path)[0]
            t0 = time.perf_counter()
            rcs[name] = cli.main(["run", path, "--out",
                                  os.path.join(self.out, name)])
            items.append([name, time.perf_counter() - t0])
        return {"rc": rcs}

    def outputs(self, result):
        return dict(result, **_read_outputs(self.out))


class Sweep:
    """domination_report over the seeded domination grid."""

    def __init__(self, job):
        from sparsedom import young
        from sparsedom.dyadic import Grid
        from sparsedom.operators import counter_young, parse_kernel
        from sparsedom.weights import parse_profile
        configs = job["configs"]
        kernels = [parse_kernel(c["kernel"]) for c in configs]
        gauges = [counter_young(2.0, 1.0) if c["gauge"] == "counter"
                  else young.parse_young(c["gauge"]) for c in configs]
        self.cases = []
        for it in job["plan"]:
            cfg = configs[it["config"]]
            grid = Grid(1, (cfg["origin"],), cfg["side"], it["level"])
            self.cases.append((
                f"c{it['config']}_m{it['m']}_L{it['level']}",
                kernels[it["config"]], parse_profile(cfg["b"], grid),
                it["m"], gauges[it["config"]], parse_profile(it["f"], grid),
                grid.root_cube()))

    def run(self, items):
        from sparsedom import sparse_engine
        reports = []
        for name, K, b, m, A, f, Q0 in self.cases:
            t0 = time.perf_counter()
            try:
                rep = sparse_engine.domination_report(K, b, m, A, f, Q0)
            except Exception:
                rep = traceback.format_exc()
            items.append([name, time.perf_counter() - t0])
            reports.append(rep)
        return {"reports": reports}

    def outputs(self, result):
        records = []
        for rep in result["reports"]:
            if isinstance(rep, str):
                records.append({"error": rep})
                continue
            arrays = hashlib.sha256()
            for g in (rep.ratios, rep.totals, rep.t_values):
                arrays.update(g.cells.tobytes())
            records.append({
                "c_star": rep.c_star,
                "family_size": len(rep.form.family.cubes),
                "violations": len(rep.violations),
                "sparse_ok": bool(rep.sparse_check.ok),
                "sparse_reason": rep.sparse_check.reason,
                "exhausted": bool(rep.form.exhausted),
                "ct_components": {k: float(v) for k, v in
                                  sorted(rep.form.ct_components.items())},
                "totals_sum": float(rep.totals.cells.sum()),
                "t_abs_sum": float(abs(rep.t_values.cells).sum()),
                "arrays_sha256": arrays.hexdigest(),
            })
        return {"records": records}


WORKLOADS = {"battery": Battery, "plane": Plane, "sweep": Sweep}


def _finite(x):
    """Non-finite numbers as strings: NaN never equals itself, and the
    reference comparison should match them exactly."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite(v) for v in x]
    return x


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    # imports are set-up: scipy is imported lazily by the quadrature layer,
    # and would otherwise land in the first timed item that needs it
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import sparsedom.cli  # noqa: F401
    os.chdir(job["inputs"])
    workload = WORKLOADS[job["workload"]](job)
    setup_s = time.monotonic() - job["t_spawn"]
    if job["setup_only"]:
        with open(job["result"], "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if job["trace"]:
        from tracer import install
        tracer = install(job["trace_path"])
    items = []
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer:
        tracer.open_root()
    try:
        result = workload.run(items)
    except Exception:
        result, error = {}, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu1 = time.process_time()
    if tracer:
        tracer.close_root()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "items": items,
        "error": error,
        "outputs": workload.outputs(result) if error is None else {},
    }
    with open(job["result"], "w") as fh:
        json.dump(_finite(out), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
