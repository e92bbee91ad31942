"""Does the sparse constant C* survive grid refinement?

    python3 scripts/refinement_probe.py [--out refinement_probe.json]

Runs bench.domination_battery, the released domination sweep (every
configuration of DOMINATION_BATTERY, commutator order m = 0, 1, 2 and
data profile f), at the levels 8 ... 16 instead of 8, 10, 12, and records
per report, from compare_checkouts.report_record, C*, the size of the
sparse family, its largest stopping alpha, the exhausted and sparseness
flags, and the number of violations.  Each record also carries the frozen
bound FROZEN["domination_c_star"][m] that the released sweep is checked
against, and whether C* exceeds it.  The probe decides no verdict and
changes no constant.

The JSON holds no timings, so a rerun on one machine writes the same
bytes; the time per report goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from compare_checkouts import report_record  # noqa: E402
from sparsedom.bench import DOMINATION_BATTERY, domination_battery  # noqa: E402
from sparsedom.frozen import BATTERY_VERSION, FROZEN  # noqa: E402

LEVELS = tuple(range(8, 17))


def probe(log=None) -> list:
    """One record per report, in the order domination_battery yields them."""
    records = []
    t0 = time.perf_counter()
    for ic, m, flit, L, rep in domination_battery(LEVELS):
        cfg = DOMINATION_BATTERY[ic]
        bound = FROZEN["domination_c_star"][m]
        rec = report_record(rep)
        records.append({
            "config": ic, "kernel": cfg["kernel"], "gauge": cfg["gauge"],
            "b": cfg["b"], "f": flit, "m": m, "level": L,
            "c_star": rec["c_star"],
            "family_size": rec["family_size"],
            "max_alpha": rec["alphas"][-1],
            "exhausted": rec["exhausted"],
            "sparse_ok": rec["sparse_ok"],
            "violations": rec["violations"],
            "frozen_bound": bound,
            "exceeds_frozen": rec["c_star"] > bound,
        })
        if log:
            log(f"config {ic} m={m} f={flit} L={L}: "
                f"C*={rec['c_star']:.4f} family {rec['family_size']} "
                f"({time.perf_counter() - t0:.2f} s)")
        t0 = time.perf_counter()
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="refinement_probe.json")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    records = probe(log=print)
    payload = {"battery_version": BATTERY_VERSION, "levels": list(LEVELS),
               "records": records}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")
    print(f"{len(records)} reports in {time.perf_counter() - t0:.1f} s "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
