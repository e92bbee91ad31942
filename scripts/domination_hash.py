"""One sha256 over the reports of the domination sweep.

    python3 scripts/domination_hash.py

Runs bench.domination_battery (every configuration of DOMINATION_BATTERY,
commutator order m = 0, 1, 2 and data profile f; 135 reports at the
released levels 8, 10, 12) and prints the hex sha256 of, per report in
the order the sweep yields them: (config, m, f literal, level), C*, the
size of the sparse family, its stopping alphas sorted, the violations,
the sparseness verdict, the ct components (smoothness estimate, its
tail, L2 norm and ct), and the bytes of the ratios, |T_b^m f| and
sparse-form totals arrays.  Floats enter as their hex strings, so the
digest changes with any bit of these numbers.

Two checkouts that give the same digest on one machine made the same
sweep, bit for bit.  The digest depends on the arithmetic: under another
OpenBLAS kernel (OPENBLAS_CORETYPE) or numpy SIMD dispatch
(NPY_DISABLE_CPU_FEATURES) it can differ, so compare digests made under
the same settings.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sparsedom.bench import domination_battery  # noqa: E402


def digest(levels=(8, 10, 12)) -> str:
    h = hashlib.sha256()
    for ic, m, flit, L, rep in domination_battery(levels):
        form = rep.form
        head = (ic, m, flit, L, rep.c_star.hex(), len(form.family.cubes),
                [a.hex() for a in sorted(form.alphas.values())],
                rep.violations, rep.sparse_check.ok,
                sorted((k, float(v).hex())
                       for k, v in form.ct_components.items()))
        h.update(repr(head).encode())
        for arr in (rep.ratios, rep.t_values, rep.totals):
            h.update(arr.cells.tobytes())
    return h.hexdigest()


def main() -> int:
    print(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
