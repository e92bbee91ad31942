"""What moved between two checkouts: every battery file, every report
number and every report of the domination sweep.

    python3 scripts/compare_checkouts.py PARENT [CHANGE]

PARENT and CHANGE are source checkouts (CHANGE defaults to the current
directory), as for scripts/bench_pairs.py.  For each checkout the script
starts one fresh interpreter, with that checkout's src/ first on
sys.path, which
- runs `lab battery <checkout>/battery` into a temporary directory and
  keeps its exit code and every file it writes;
- walks bench.domination_battery() at LEVELS (135 reports at the released
  levels 8, 10, 12) and keeps one record per report (report_record),
  keyed by (config, m, f literal, level);
- folds the same reports into one sha256 digest: per report (config, m,
  f literal, level), C*, the size of the sparse family, its stopping
  alphas sorted, the violations, the sparseness verdict and the ct
  components, floats as hex strings, then the bytes of the ratios,
  |T_b^m f| and sparse-form totals arrays.

Then it prints one line per difference:
- a battery file that is not byte-identical, or that one side alone wrote;
- a number that moves in a report.json, battery.json or domination
  record, with its path, old and new value (a float with its .hex()) and
  relative change |new - old| / max(|old|, |new|);
- a flag that flips (`pass`, `sparse_ok`, `exhausted`, ...), a string that
  changes (`table_hash`, an array's sha256), a list whose length changes
  (a family's alphas), a key that one side alone has;
- the battery's exit codes and the digests, where they differ.
The last line is a JSON object: the count of each kind, whether
constants_unit's `table_hash` moved, both digests and the seconds each
side took.

Exit code 0 when nothing differs, 1 when something does, 2 when a
checkout lacks src/sparsedom or battery/, or its interpreter fails.

The arithmetic is whatever the environment selects: the report bits
depend on the OpenBLAS kernel (OPENBLAS_CORETYPE) and on numpy's SIMD
dispatch (NPY_DISABLE_CPU_FEATURES), so compare checkouts under one
setting, and digests made under one setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time

LEVELS = (8, 10, 12)
ARRAYS = ("ratios", "t_values", "totals")
TABLE_HASH = "constants_unit/report.json:constants.table_hash"
SCRIPTS = os.path.dirname(os.path.abspath(__file__))

# the interpreter of one side: this file's child() with the checkout's
# src/ put in front of everything, this directory included
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import compare_checkouts; compare_checkouts.child(*sys.argv[2:])")


class CheckoutError(Exception):
    """A checkout that cannot be compared (exit code 2)."""


def report_record(rep) -> dict:
    """The fields of one bench.domination_battery() report, as JSON values:
    the record that this script compares and scripts/refinement_probe.py
    writes from."""
    form = rep.form
    return {
        "c_star": float(rep.c_star),
        "family_size": len(form.family.cubes),
        "alphas": sorted(float(a) for a in form.alphas.values()),
        "violations": len(rep.violations),
        "sparse_ok": bool(rep.sparse_check.ok),
        "exhausted": bool(form.exhausted),
        "ct_components": {k: {"value": float(v), "hex": float(v).hex()}
                          for k, v in sorted(form.ct_components.items())},
        "sha256": {name: hashlib.sha256(
            getattr(rep, name).cells.tobytes()).hexdigest()
            for name in ARRAYS},
    }


def _fold(h, key, rep):
    """Adds one report to the sweep's digest."""
    form = rep.form
    head = (*key, rep.c_star.hex(), len(form.family.cubes),
            [a.hex() for a in sorted(form.alphas.values())],
            rep.violations, rep.sparse_check.ok,
            sorted((k, float(v).hex())
                   for k, v in form.ct_components.items()))
    h.update(repr(head).encode())
    for name in ARRAYS:
        h.update(getattr(rep, name).cells.tobytes())


def child(src: str, battery: str, out: str, levels: str):
    """One side, in its own interpreter: the battery's files go to
    out/battery, its exit code, the records, the digest and the seconds
    to out/side.json."""
    sys.path.insert(0, src)
    from sparsedom import cli
    from sparsedom.bench import domination_battery

    t0 = time.perf_counter()
    code = cli.main(["battery", battery, "--out",
                     os.path.join(out, "battery")])
    t1 = time.perf_counter()
    records, h = {}, hashlib.sha256()
    for ic, m, flit, L, rep in domination_battery(
            tuple(int(s) for s in levels.split(","))):
        records[f"{ic}/m{m}/{flit}/L{L}"] = report_record(rep)
        _fold(h, (ic, m, flit, L), rep)
    side = {"exit": code, "records": records, "digest": h.hexdigest(),
            "seconds": {"battery": round(t1 - t0, 3),
                        "sweep": round(time.perf_counter() - t1, 3)}}
    with open(os.path.join(out, "side.json"), "w") as fh:
        json.dump(side, fh)


def _paths(checkout: str) -> tuple:
    src, battery = (os.path.abspath(os.path.join(checkout, d))
                    for d in ("src", "battery"))
    if not (os.path.isdir(os.path.join(src, "sparsedom"))
            and os.path.isdir(battery)):
        raise CheckoutError(f"{checkout}: no src/sparsedom or no battery/")
    return src, battery


def run_checkout(checkout: str, out: str) -> dict:
    """One side: {"exit", "records", "digest", "seconds", "files"}, where
    files maps each battery file's relative path to its bytes."""
    src, battery = _paths(checkout)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, SCRIPTS, src, battery, out,
         ",".join(map(str, LEVELS))],
        cwd=out, capture_output=True, text=True)
    if proc.returncode:
        raise CheckoutError(f"{checkout}: its interpreter exited "
                            f"{proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(out, "side.json")) as fh:
        side = json.load(fh)
    root = os.path.join(out, "battery")
    side["files"] = {}
    for d, _, names in os.walk(root):
        for n in names:
            with open(os.path.join(d, n), "rb") as fh:
                side["files"][os.path.relpath(os.path.join(d, n), root)] = \
                    fh.read()
    return side


# -- the comparison -----------------------------------------------------------


def _leaf(x):
    # a float carried with its hex compares as the float
    if isinstance(x, dict) and x.keys() == {"value", "hex"}:
        return x["value"]
    return x


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def _walk(diffs: list, path: str, a, b):
    """Appends (kind, path, old, new) for each difference of two JSON
    values."""
    a, b = _leaf(a), _leaf(b)
    if isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}{k}" if path.endswith(":") else f"{path}.{k}"
            if k not in b:
                diffs.append(("only", sub, "parent", None))
            elif k not in a:
                diffs.append(("only", sub, "change", None))
            else:
                _walk(diffs, sub, a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(("length", path, len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(diffs, f"{path}[{i}]", x, y)
    elif isinstance(a, bool) and isinstance(b, bool):
        if a != b:
            diffs.append(("flip", path, a, b))
    elif _number(a) and _number(b):
        if type(a) is not type(b) or _bits(a) != _bits(b):
            diffs.append(("moved", path, a, b))
    elif type(a) is not type(b) or a != b:
        diffs.append(("changed", path, a, b))


def compare(old: dict, new: dict) -> list:
    """(kind, path, old, new) for each difference between two sides."""
    diffs = []
    if old["exit"] != new["exit"]:
        diffs.append(("exit", "lab battery", old["exit"], new["exit"]))
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            diffs.append(("only", name, "parent" if b is None else "change",
                          None))
        elif a != b:
            diffs.append(("file", name, None, None))
            if name.endswith(".json"):
                _walk(diffs, name + ":", json.loads(a), json.loads(b))
    _walk(diffs, "domination:", old["records"], new["records"])
    if old["digest"] != new["digest"]:
        diffs.append(("digest", "domination", old["digest"], new["digest"]))
    return diffs


def relative(a, b) -> float:
    """|b - a| / max(|a|, |b|); inf where either side is not finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def _show(x) -> str:
    return f"{x!r} ({x.hex()})" if isinstance(x, float) else repr(x)


def line(diff) -> str:
    kind, path, a, b = diff
    if kind == "only":
        return f"only in {a}: {path}"
    if kind == "file":
        return f"not byte-identical: {path}"
    if kind == "moved":
        return (f"moved {path}: {_show(a)} -> {_show(b)}, "
                f"relative {relative(a, b):.3g}")
    return f"{kind} {path}: {a!r} -> {b!r}"


def summary(old: dict, new: dict, diffs: list) -> dict:
    def count(pred):
        return sum(1 for d in diffs if pred(*d))

    def dom(field):
        return count(lambda k, p, a, b: p.startswith("domination:")
                     and f".{field}" in p and k != "only")

    names = old["files"].keys() | new["files"].keys()
    return {
        "identical": not diffs,
        "differences": len(diffs),
        "files": len(names),
        "identical_files": sum(old["files"].get(n) == new["files"].get(n)
                               for n in names),
        "battery_exit": {"parent": old["exit"], "change": new["exit"]},
        "reports": {"parent": len(old["records"]),
                    "change": len(new["records"])},
        "moved": count(lambda k, p, a, b: k == "moved"),
        "flips": count(lambda k, p, a, b: k == "flip"),
        "pass_flips": count(lambda k, p, a, b: k == "flip"
                            and p.endswith((".pass", ":pass"))),
        "family_size": dom("family_size"),
        "alphas": dom("alphas"),
        "violations": dom("violations"),
        "table_hash_moved": count(lambda k, p, a, b: p == TABLE_HASH) > 0,
        "one_side_only": count(lambda k, p, a, b: k == "only"),
        "digest": {"parent": old["digest"], "change": new["digest"]},
        "seconds": {"parent": old.get("seconds"),
                    "change": new.get("seconds")},
    }


def report(old: dict, new: dict) -> int:
    """Prints the differences and the JSON summary; the exit code."""
    diffs = compare(old, new)
    for d in diffs:
        print(line(d))
    print(json.dumps(summary(old, new, diffs)))
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent's source checkout")
    ap.add_argument("change", nargs="?", default=".",
                    help="the change's source checkout (default: .)")
    args = ap.parse_args(argv)
    checkouts = (args.parent, args.change)
    try:
        for checkout in checkouts:
            _paths(checkout)
        with tempfile.TemporaryDirectory() as tmp:
            sides = []
            for name, checkout in zip(("parent", "change"), checkouts):
                out = os.path.join(tmp, name)
                os.mkdir(out)
                sides.append(run_checkout(checkout, out))
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report(*sides)


if __name__ == "__main__":
    sys.exit(main())
