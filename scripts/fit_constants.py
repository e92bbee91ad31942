"""Fit the dimensional constants on the released battery and regenerate
src/sparsedom/frozen.py.

Every inequality verified by the package carries an unspecified dimensional
constant.  This script measures the extreme value of each one over the
released battery, multiplies by a 1.2 safety margin (power-of-two search for
the exponent-type constants), and freezes the results.  Any change in the
fitted values requires bumping the battery version.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sparsedom import young  # noqa: E402
from sparsedom.bench import (domination_battery, endpoint_check,  # noqa: E402
                             parse_scenario, strong_cf_check)
from sparsedom.dyadic import Grid, cube_mask, cube_slices  # noqa: E402
from sparsedom.frozen import BATTERY_VERSION  # noqa: E402
from sparsedom.operators import (grand_maximal_truncated, hormander_estimate,  # noqa: E402
                                 make_hilbert, maximal, apply_operator,
                                 parse_kernel)
from sparsedom.weights import (absorption_check, bmo_norm, jn_profile,  # noqa: E402
                               osc_exp_norm, parse_profile,
                               reverse_holder_check, weight_constant)

HERE = os.path.dirname(os.path.abspath(__file__))
BATTERY = os.path.join(HERE, "..", "battery")
TARGET = os.path.join(HERE, "..", "src", "sparsedom", "frozen.py")

MARGIN = 1.2


def fit_domination():
    best = {0: 0.0, 1: 0.0, 2: 0.0}
    counting = []
    for ic, m, flit, L, rep in domination_battery():
        best[m] = max(best[m], rep.c_star)
        if L == 10:
            grid = rep.t_values.grid
            count = np.zeros(grid.shape)
            for q in rep.form.family.cubes:
                count[cube_slices(q, grid)] += 1.0
            q0 = grid.root_cube()
            qm = cube_mask(q0, grid)
            for t in range(int(count.max())):
                frac = float(((count > t) & qm).sum()) / float(qm.sum())
                if frac > 0:
                    counting.append((t, frac))
    alpha = 0.5
    c = max(frac * math.exp(alpha * t) for t, frac in counting)
    return ({m: round(v * MARGIN, 3) for m, v in best.items()},
            round(c * MARGIN, 3), alpha)


def fit_scenarios():
    out = {"strong_c": 0.0, "cf_c": 0.0, "cf_chain_c": 0.0,
           "endpoint_c": 0.0, "endpoint_czo_c": 0.0,
           "czo_maximal_c_eps": 0.0}
    for name in sorted(os.listdir(BATTERY)):
        if not name.endswith(".ini"):
            continue
        scn = parse_scenario(os.path.join(BATTERY, name))
        if scn.kind in ("strong", "cf"):
            res = strong_cf_check(scn)
            key = scn.kind + "_c"
            out[key] = max(out[key], float(max(r["ratio"] for r in res["rows"])))
            if "cf_chain_max" in res["constants"]:
                out["cf_chain_c"] = max(out["cf_chain_c"],
                                        float(res["constants"]["cf_chain_max"]))
        elif scn.kind in ("endpoint", "endpoint_czo"):
            res = endpoint_check(scn)
            key = scn.kind + "_c"
            if res["rows"]:
                out[key] = max(out[key],
                               float(max(r["ratio"] for r in res["rows"])))
            for k, v in res["constants"].items():
                if k.startswith("loglog_vs_log"):
                    out["czo_maximal_c_eps"] = max(
                        out["czo_maximal_c_eps"], v)
    return {k: round(float(v) * MARGIN, 3) for k, v in out.items()}


def _pow2_fit(instances):
    """Smallest power of two c making predicate(c) true for all instances."""
    c = 1.0
    while c < 2.0 ** 20:
        if all(pred(c) for pred in instances):
            return c
        c *= 2.0
    raise RuntimeError("no power-of-two constant fits the battery")


def weight_battery(n):
    if n == 1:
        grid = Grid(1, (-0.5,), 1.0, 6)
        lits = ["const(1)", "power_abs(0.5)", "power_abs(-0.5)"]
    else:
        grid = Grid(2, (-0.5, -0.5), 1.0, 3)
        lits = ["const(1)", "power_abs(0.5)"]
    return grid, [parse_profile(s, grid) for s in lits]


def fit_weight_constants():
    res = {"absorption_c_n": {}, "rhi_tau_n": {}, "jn_c_n": {},
           "osc_exp_c": 0.0}
    for n in (1, 2):
        grid, ws = weight_battery(n)
        Q = grid.root_cube()
        preds_abs, preds_rhi = [], []
        for w in ws:
            ainf = weight_constant(w, "AinfFW")
            qmask = cube_mask(Q, grid)
            e_sets = []
            half = np.zeros(grid.shape, dtype=bool)
            half[tuple(slice(0, s // 2) for s in grid.shape)] = True
            quarter = np.zeros(grid.shape, dtype=bool)
            quarter[tuple(slice(0, s // 4) for s in grid.shape)] = True
            rng = np.random.default_rng(7)
            rand = np.zeros(grid.shape, dtype=bool)
            flat = rng.permutation(qmask.sum())[: qmask.sum() // 4]
            rand.ravel()[flat] = True
            e_sets = [half & qmask, quarter & qmask, rand & qmask]
            for E in e_sets:
                preds_abs.append(
                    lambda c, w=w, E=E, ainf=ainf:
                    absorption_check(w, Q, E, c, ainf=ainf)[2])
            preds_rhi.append(
                lambda c, w=w, ainf=ainf:
                reverse_holder_check(w, Q, c, ainf=ainf)[3])
        res["absorption_c_n"][n] = _pow2_fit(preds_abs)
        res["rhi_tau_n"][n] = _pow2_fit(preds_rhi)

        # John-Nirenberg envelope constant
        if n == 1:
            bs = ["log_abs", "indicator(0,0.25)", "power_abs(0.5)"]
        else:
            bs = ["power_abs(0.5)"]
        preds_jn = []
        for blit in bs:
            b = parse_profile(blit, grid)
            bb = bmo_norm(b)
            vals = np.abs(b.cells - b.cells.mean()).ravel()
            top = vals.max()
            alphas = np.linspace(0.0, top, 33)[:-1]
            for a in alphas:
                frac = float((vals > a).mean())
                if frac <= 0:
                    continue
                preds_jn.append(
                    lambda c, a=a, frac=frac, bb=bb, n=n:
                    frac <= math.e * math.exp(
                        -a / (c * 2.0 ** n * math.e * bb)))
        res["jn_c_n"][n] = _pow2_fit(preds_jn)
    # oscillation exponential norm constant (1D battery)
    grid, ws = weight_battery(1)
    Q = grid.root_cube()
    best = 0.0
    for blit in ("log_abs", "indicator(0,0.25)"):
        b = parse_profile(blit, grid)
        bb = bmo_norm(b)
        for w in ws:
            ainf = weight_constant(w, "AinfFW")
            for j in (1, 2, 3):
                v = osc_exp_norm(b, Q, w, j)
                best = max(best, v / (ainf ** j * bb ** j))
    res["osc_exp_c"] = round(best * MARGIN, 3)
    return res


def fit_truncation_constants():
    grid = Grid(1, (-0.5,), 1.0, 7)
    K = make_hilbert()
    A = young.power(1)
    Q0 = grid.root_cube()
    h_est, _ = hormander_estimate(K, A, grid)
    c1 = c2 = c_weak = 0.0
    fs = ("indicator(0,0.25)", "indicator(-0.25,0.125)", "power_abs(0.5)",
          "indicator(-0.375,-0.125)+0.25")
    for flit in fs:
        f = parse_profile(flit, grid)
        tf = apply_operator(K, f)
        mt = grand_maximal_truncated(K, f, Q0).cells
        maf = maximal(f, "MA", A=A).cells
        md = maximal(tf, "Mdelta", delta=0.5).cells
        mf = maximal(f, "M").cells
        rhs = h_est * maf + md + mf
        c2 = max(c2, float((mt / np.where(rhs > 0, rhs, 1.0)).max()))
        excess = np.abs(tf.cells) - mt
        on = np.abs(f.cells) > 0
        if on.any():
            c1 = max(c1, float((excess[on] / np.abs(f.cells[on])).max()))
        scale = float(np.abs(tf.cells).max())
        fint = float(np.abs(f.cells).sum()) * grid.cell_volume
        for lam in np.geomspace(1e-3 * scale, scale, 32):
            meas = float((mt > lam).mean())
            c_weak = max(c_weak, float(lam) * meas / fint)
    return (round(max(c1, 0.1) * MARGIN, 3), round(c2 * MARGIN, 3),
            round(c_weak * MARGIN, 3))


def main():
    dom, count_c, count_alpha = fit_domination()
    scen = fit_scenarios()
    wts = fit_weight_constants()
    c1, c2, cw = fit_truncation_constants()
    lines = []
    lines.append('"""Frozen battery constants.')
    lines.append("")
    lines.append("The inequalities verified by this package carry dimensional")
    lines.append("constants that no closed form provides.  They are fitted on")
    lines.append("the released battery by scripts/fit_constants.py (observed")
    lines.append("extreme times a 1.2 margin; power-of-two search for the")
    lines.append("exponent-type constants) and frozen here.  Any change")
    lines.append("requires an explicit battery version bump so that")
    lines.append('regressions stay detectable."""')
    lines.append("")
    lines.append("FROZEN = {")
    lines.append("    # sparse domination: C* bound per commutator order")
    lines.append(f"    \"domination_c_star\": {dom!r},")
    lines.append("    # strong weighted bound ratio LHS/RHS")
    lines.append(f"    \"strong_c\": {scen['strong_c']!r},")
    lines.append("    # Coifman-Fefferman ratio LHS/RHS")
    lines.append(f"    \"cf_c\": {scen['cf_c']!r},")
    lines.append("    # sup of the three-gauge inverse product over t,")
    lines.append("    # divided by t (commutator gauge chain)")
    lines.append(f"    \"cf_chain_c\": {scen['cf_chain_c']!r},")
    lines.append("    # endpoint modular bound ratios")
    lines.append(f"    \"endpoint_c\": {scen['endpoint_c']!r},")
    lines.append(f"    \"endpoint_czo_c\": {scen['endpoint_czo_c']!r},")
    lines.append("    # pointwise bound of the loglog-bumped maximal")
    lines.append("    # by the log-bumped one")
    lines.append(
        f"    \"czo_maximal_c_eps\": {scen['czo_maximal_c_eps']!r},")
    lines.append("    # local truncation bounds")
    lines.append(f"    \"lemmatec1_c\": {c1!r},")
    lines.append(f"    \"lemmatec2_c\": {c2!r},")
    lines.append("    # weak (1,1) level-set constant of the truncation")
    lines.append("    # maximal operator")
    lines.append(f"    \"weak11_c\": {cw!r},")
    lines.append("    # absorption exponent constant per dimension")
    lines.append(f"    \"absorption_c_n\": {wts['absorption_c_n']!r},")
    lines.append("    # reverse Holder constant per dimension")
    lines.append(f"    \"rhi_tau_n\": {wts['rhi_tau_n']!r},")
    lines.append("    # level-set decay envelope constant per dimension")
    lines.append(f"    \"jn_c_n\": {wts['jn_c_n']!r},")
    lines.append("    # oscillation exponential-norm constant")
    lines.append(f"    \"osc_exp_c\": {wts['osc_exp_c']!r},")
    lines.append("    # exponential decay counting bound")
    lines.append(f"    \"counting_c\": {count_c!r},")
    lines.append(f"    \"counting_alpha\": {count_alpha!r},")
    lines.append("}")
    lines.append("")
    lines.append(f"BATTERY_VERSION = {BATTERY_VERSION + 1}")
    lines.append("")
    with open(TARGET, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
