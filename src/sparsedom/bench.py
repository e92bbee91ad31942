"""Scenario-driven inequality suites and report emission.

A scenario is a flat INI file (one [scenario] section) naming a kernel, the
Young-function gauges, the symbol/weight/data profiles, exponents and grid
levels.  Each kind reproduces one inequality family on the grid and tags
every quantitative claim pass/fail against the frozen battery constants.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import young
from .dyadic import Grid, GridFunction, cube_slices
from .frozen import BATTERY_VERSION, FROZEN
from .operators import (CommutatorSpec, Kernel, apply_operator,
                        commutator_apply, counter_young, make_counter,
                        maximal, parse_kernel)
from .sparse_engine import build_sparse_family, domination_report, estimate_ct
from .weights import bmo_norm, parse_profile, sigma_dual, weight_constant

KINDS = ("strong", "cf", "endpoint", "endpoint_czo", "expdecay",
         "counterexample", "sparse", "constants")


class ScenarioError(ValueError):
    """Configuration-level failure (exit code 2)."""


@dataclass
class Scenario:
    name: str
    kind: str
    levels: tuple = (8,)
    dim: int = 1
    origin: tuple = (0.0,)
    side: float = 1.0
    kernel: str = "hilbert"
    A: str = "power(1)"
    B: str = None
    C: str = None  # never set: the chain fixes Cbar; a report key until v5
    phi: str = None
    f: str = "indicator(0,0.25)"
    b: str = "const(0)"
    w: str = "const(1)"
    m: int = 0
    p: float = 2.0
    r: float = 1.0
    gamma: float = 0.75
    beta: float = 1.0
    eps: float = 0.5
    lambda_points: int = 64
    seed: int = 0

    def grid(self, level: int) -> Grid:
        return Grid(self.dim, self.origin, self.side, level)


_KEYMAP = {"kernel": "kernel", "gauge_a": "A", "gauge_b": "B", "phi": "phi",
           "f": "f", "b": "b", "w": "w"}
_KEYS = {"kind", "levels", "dim", "origin", "side", "m", "p", "r", "gamma",
         "beta", "eps", "lambda_points", *_KEYMAP}


def parse_scenario(path: str) -> Scenario:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    if "scenario" not in cp:
        raise ScenarioError(f"{path}: missing [scenario] section")
    sec = cp["scenario"]
    unread = sorted(set(sec) - _KEYS)
    if unread:
        raise ScenarioError(f"{path}: keys not read: {', '.join(unread)}")
    kind = sec.get("kind", "").strip()
    if kind not in KINDS:
        raise ScenarioError(f"{path}: unknown kind {kind!r}")
    name = os.path.splitext(os.path.basename(path))[0]
    scn = Scenario(name=name, kind=kind)
    if "levels" in sec:
        scn.levels = tuple(int(s) for s in sec["levels"].split(","))
    scn.dim = sec.getint("dim", 1)
    if "origin" in sec:
        scn.origin = tuple(float(s) for s in sec["origin"].split(","))
    else:
        scn.origin = (0.0,) * scn.dim
    scn.side = sec.getfloat("side", 1.0)
    for key, attr in _KEYMAP.items():
        if key in sec:
            setattr(scn, attr, sec[key].strip())
    scn.m = sec.getint("m", 0)
    for key in ("p", "r", "gamma", "beta", "eps"):
        if key in sec:
            setattr(scn, key, sec.getfloat(key))
    scn.lambda_points = sec.getint("lambda_points", 64)
    _validate(scn)
    return scn


def _validate(scn: Scenario):
    if scn.dim not in (1, 2):
        raise ScenarioError("dim must be 1 or 2")
    if len(scn.origin) != scn.dim:
        raise ScenarioError("origin arity does not match dim")
    if not 0 <= scn.m <= 4:
        raise ScenarioError("m must be in 0..4")
    if scn.lambda_points < 1:
        raise ScenarioError("lambda_points must be >= 1")
    if scn.kind == "cf" and scn.p <= 0:
        raise ScenarioError("cf needs p > 0")
    if scn.kind == "endpoint_czo" and scn.eps <= 0:
        raise ScenarioError("endpoint_czo needs eps > 0")
    if scn.kind == "counterexample":
        if scn.r <= 1:
            raise ScenarioError("counterexample needs r > 1")
        rp = scn.r / (scn.r - 1.0)
        if not 1.0 <= scn.p < rp:
            raise ScenarioError(
                "counterexample needs 1 <= p < r' (p below the dual exponent)")
        if not scn.p / rp < scn.gamma < 1.0:
            raise ScenarioError(
                "counterexample needs p/r' < gamma < 1")
    if scn.kind in ("strong",) and scn.p / max(scn.r, 1.0) <= 1.0:
        raise ScenarioError("strong needs p/r > 1")


def _young_of(scn: Scenario, text: str) -> young.YoungFunction:
    if text is None:
        raise ScenarioError("missing Young function in scenario")
    if text == "counter":
        if scn.r <= 1 or scn.beta <= 0:
            raise ScenarioError("the counter gauge needs r > 1 and beta > 0")
        return counter_young(scn.r, scn.beta)
    try:
        return young.parse_young(text)
    except young.YoungError as exc:
        raise ScenarioError(str(exc)) from exc


def _kernel_of(scn: Scenario) -> Kernel:
    try:
        return parse_kernel(scn.kernel)
    except Exception as exc:
        raise ScenarioError(f"kernel spec: {exc}") from exc


def _profile(text: str, grid: Grid) -> GridFunction:
    try:
        return parse_profile(text, grid)
    except Exception as exc:
        raise ScenarioError(f"profile {text!r}: {exc}") from exc


def _lp_norm(cells, wcells, p, vol):
    return float((np.abs(cells) ** p * wcells).sum() * vol) ** (1.0 / p)


def _lambda_grid(scale: float, npts: int):
    if scale <= 0:
        return np.array([])
    return np.geomspace(1e-3 * scale, 1e3 * scale, npts)


def _row(lam, lhs, rhs, ok):
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return {"lambda": float(lam), "lhs": float(lhs), "rhs": float(rhs),
            "ratio": float(ratio), "pass": bool(ok)}


# -- checks -------------------------------------------------------------------


def strong_cf_check(scn: Scenario) -> dict:
    K = _kernel_of(scn)
    A = _young_of(scn, scn.A)
    rows = []
    consts = {}
    if scn.kind == "strong":
        kra, finite = young.krA_constant(A, scn.r)
        if not finite:
            raise ScenarioError(
                "the power-growth gauge constant is infinite; the strong "
                "bound hypothesis fails for this Young function")
        consts["k_r_A"] = kra
        bound = FROZEN["strong_c"]
    else:
        B = _young_of(scn, scn.B or scn.A)
        bound = FROZEN["cf_c"]
        if scn.m >= 1:
            chain = _chain_constant(A, B, scn.m)
            consts["cf_chain_max"] = chain
    for L in scn.levels:
        grid = scn.grid(L)
        f = _profile(scn.f, grid)
        b = _profile(scn.b, grid)
        w = _profile(scn.w, grid)
        vol = grid.cell_volume
        center = float(b.cells.mean())
        t = commutator_apply(K, CommutatorSpec(b, scn.m), f, center).cells
        lhs = _lp_norm(t, w.cells, scn.p, vol)
        bmo = bmo_norm(b) if scn.m else 0.0
        bfac = bmo ** scn.m if scn.m else 1.0
        if scn.kind == "strong":
            q = scn.p / scn.r
            apr = weight_constant(w, "Ap", p=q)
            sig = sigma_dual(w, scn.p, scn.r)
            ainf_w = weight_constant(w, "AinfFW")
            ainf_s = weight_constant(sig, "AinfFW")
            fn = _lp_norm(f.cells, w.cells, scn.p, vol)
            pprime = scn.p / (scn.p - 1.0)
            rhs = (bfac * consts["k_r_A"] * apr ** (1.0 / scn.p)
                   * (ainf_w ** (1.0 / pprime) + ainf_s ** (1.0 / scn.p))
                   * (ainf_w + ainf_s) ** scn.m * fn)
            consts.update({f"ap_ratio_L{L}": apr, f"ainf_w_L{L}": ainf_w,
                           f"ainf_sigma_L{L}": ainf_s})
        else:
            ainf = weight_constant(w, "AinfFW")
            gauge = A if scn.m >= 1 else _young_of(scn, scn.B or scn.A)
            mf = maximal(f, "MA", A=gauge)
            rhs = (bfac * ainf ** (scn.m + 1)
                   * _lp_norm(mf.cells, w.cells, scn.p, vol))
            consts[f"ainf_w_L{L}"] = ainf
        rows.append(_row(L, lhs, rhs, lhs <= bound * rhs))
    ok = all(r["pass"] for r in rows)
    if scn.kind == "cf" and "cf_chain_max" in consts:
        ok = ok and consts["cf_chain_max"] <= FROZEN["cf_chain_c"]
    return {"rows": rows, "constants": consts, "pass": ok}


def _chain_constant(A, B, m) -> float:
    """max over a 40-point t-grid in [1, 1e6] of
    A^{-1}(t) Bbar^{-1}(t) Cbar^{-1}(t) / t with Cbar(t) = exp(t^(1/m))."""
    ts = np.geomspace(1.0, 1e6, 40)
    ci = np.log(np.maximum(ts, math.e)) ** m
    return float((A.inverse(ts) * young.conjugate_inverse_value(B, ts) * ci
                  / ts).max())


def _submultiplicative(A) -> bool:
    xs = np.geomspace(1e-2, 1e3, 12)
    for x in xs:
        ax = float(A(x))
        vals = A(xs * x)
        if np.any(vals > float(ax) * A(xs) * (1 + 1e-9) + 1e-9):
            return False
    return True


def endpoint_check(scn: Scenario) -> dict:
    K = _kernel_of(scn)
    m = scn.m
    rows = []
    consts = {}
    vacuous = False
    if scn.kind == "endpoint_czo":
        eps = scn.eps
        Af = young.phi_j(m)
        maximal_gauge = young.lll(m, 1.0 + eps)
        kappa = 1.0 / eps
        consts["kappa_bound"] = kappa
        bound = FROZEN["endpoint_czo_c"]
        plan = [(Af, maximal_gauge, kappa)]
    else:
        bound = FROZEN["endpoint_c"]
        plan = []
        for h in range(m + 1):
            if m == 0:
                Ah = _young_of(scn, scn.A)
                phi_h = _young_of(scn, scn.phi or "power(1)")
            else:
                # iterated splits: log-power gauges with a loglog-bumped
                # weight cost, heaviest bump on the pure-oscillation split
                Ah = young.phi_j(h)
                lpow = m if h == m else min(h, 1)
                phi_h = young.lll(lpow, 1.0 + scn.eps)
            if not _submultiplicative(Ah):
                raise ScenarioError("endpoint gauge is not submultiplicative")
            kap, conv = young.kappa_phi(Ah, phi_h, m, h)
            consts[f"kappa_h{h}"] = kap
            consts[f"kappa_h{h}_converged"] = bool(conv)
            if not conv:
                vacuous = True
            gauge = (young.compose(young.phi_j(m - h), phi_h) if m
                     else phi_h)
            plan.append((Ah, gauge, kap))
    if vacuous:
        return {"rows": [], "constants": consts, "pass": True,
                "vacuous": True}
    for L in scn.levels:
        grid = scn.grid(L)
        f = _profile(scn.f, grid)
        b = _profile(scn.b, grid)
        w = _profile(scn.w, grid)
        vol = grid.cell_volume
        center = float(b.cells.mean())
        t = np.abs(commutator_apply(K, CommutatorSpec(b, m), f,
                                    center).cells)
        maxw = [maximal(w, "MA", A=g).cells for (_, g, _) in plan]
        lams = _lambda_grid(float(t.max()), scn.lambda_points)
        for lam in lams:
            lhs = float((w.cells[t > lam]).sum()) * vol
            rhs = 0.0
            for (Ah, _, kap), mw in zip(plan, maxw):
                modular = float((Ah._eval(np.abs(f.cells) / lam)
                                 * mw).sum()) * vol
                rhs += kap * modular
            rows.append(_row(lam, lhs, rhs, lhs <= bound * rhs))
        if scn.kind == "endpoint_czo":
            comp = maximal(w, "MA", A=young.llogl(m + eps)).cells
            ratio = float((maxw[0] / comp).max())
            consts[f"loglog_vs_log_max_L{L}"] = ratio
    ok = all(r["pass"] for r in rows)
    if scn.kind == "endpoint_czo":
        ok = ok and all(consts[k] <= FROZEN["czo_maximal_c_eps"]
                        for k in consts if k.startswith("loglog_vs_log"))
    return {"rows": rows, "constants": consts, "pass": ok,
            "vacuous": False}


def expdecay_check(scn: Scenario) -> dict:
    K = _kernel_of(scn)
    m = scn.m
    A = _young_of(scn, scn.A)
    rows = []
    consts = {}
    ok = True
    for L in scn.levels:
        grid = scn.grid(L)
        f = _profile(scn.f, grid)
        b = _profile(scn.b, grid)
        Q = grid.root_cube()
        center = float(b.cells.mean())
        t = np.abs(commutator_apply(K, CommutatorSpec(b, m), f,
                                    center).cells)
        maf = maximal(f, "MA", A=A).cells
        bad = (maf == 0) & (t > 1e-12 * max(float(t.max()), 1.0))
        if bad.any():
            ok = False
            consts[f"degenerate_cells_L{L}"] = int(bad.sum())
            continue
        g = np.where(maf > 0, t / np.where(maf > 0, maf, 1.0), 0.0)
        gmax = float(g.max())
        if gmax <= 0:
            continue
        lams = np.linspace(0.0, gmax, scn.lambda_points + 1)[1:-1]
        counts = np.array([(g > lam).sum() for lam in lams])
        meas = counts / g.size
        # below a few cells the level-set measure is grid noise, not decay
        keep = counts >= 3
        if keep.sum() < 3:
            continue
        u = lams[keep] ** (1.0 / (m + 1))
        y = np.log(meas[keep])
        slope, intercept = np.polyfit(u, y, 1)
        fit = slope * u + intercept
        resid = float(np.sqrt(np.mean((y - fit) ** 2)))
        rng = float(y.max() - y.min())
        # envelope: the fitted exponential lifted by the worst overshoot
        shift = float(max((y - fit).max(), 0.0))
        fit_ok = slope < 0 and (rng == 0 or resid <= 0.1 * rng)
        consts[f"slope_L{L}"] = float(slope)
        consts[f"residual_L{L}"] = resid
        consts[f"range_L{L}"] = rng
        consts[f"envelope_shift_L{L}"] = shift
        for lam, ms in zip(lams[keep], meas[keep]):
            env = math.exp(intercept + shift
                           + slope * lam ** (1.0 / (m + 1)))
            rows.append(_row(lam, ms, env, ms <= env * 1.0001))
        ok = ok and fit_ok and all(r["pass"] for r in rows[-keep.sum():])
        # counting function of the engine family
        form = build_sparse_family(K, b, m, A, f, Q, seed=scn.seed)
        count = np.zeros(grid.shape)
        for q in form.family.cubes:
            count[cube_slices(q, grid)] += 1.0
        tmax = int(count.max())
        pts = [(tt, float((count > tt).mean())) for tt in range(tmax)]
        pts = [(tt, mm) for tt, mm in pts if mm > 0]
        consts[f"count_depth_L{L}"] = tmax
        if len(pts) >= 3:
            cc, aa = FROZEN["counting_c"], FROZEN["counting_alpha"]
            cok = all(mm <= cc * math.exp(-aa * tt) for tt, mm in pts)
            consts[f"count_bound_ok_L{L}"] = bool(cok)
            ok = ok and cok
    return {"rows": rows, "constants": consts, "pass": ok}


def _power_cell_averages(centers, h, a, support=None):
    """Exact cell averages of |u|^(-a), optionally restricted to |u| < support.
    Uses the antiderivative so the singular cells carry their true mass."""
    lo = centers - 0.5 * h
    hi = centers + 0.5 * h
    if support is not None:
        lo = np.clip(lo, -support, support)
        hi = np.clip(hi, -support, support)
    def anti(u):
        return np.sign(u) * np.abs(u) ** (1.0 - a) / (1.0 - a)
    out = np.zeros_like(centers)
    width = hi - lo
    pos = width > 0
    out[pos] = (anti(hi[pos]) - anti(lo[pos])) / h
    return out


def counterexample_probe(scn: Scenario) -> dict:
    """Weighted weak-type probe for the shifted counter kernel (eta = 4).

    With r' = r/(r-1), the test function is f(y) = |y+eta|^(-gamma1/p) on
    |y+eta| < 1, gamma1 = 1 - p/(2r'), and the weight is w(x) = |x|^(-gamma),
    both taken as exact cell averages; the cells touching x = 0 carry no
    weight.  Near x = 0, Tf(x) ~ |x|^(-s) with s = gamma1/p - 1/r', times the
    kernel's log factor |log|x||^(-(1+beta)(1/r+1/2)).  So
    S(L) = sup_lambda lambda^p w({|Tf| > lambda}) grows like (1/h)^e in the
    cell width h, with e = gamma - 3p/(2r'), while the control
    sum |f|^p w vol, the integral of |f|^p w, stays finite.

    Blow-up is predicted only for gamma > 3p/(2r').  On and below that line
    (gamma <= 3p/(2r')) no blow-up is predicted, although _validate accepts
    the whole window p/r' < gamma < 1.  The verdict passes when S strictly
    increases over the levels, S(last)/S(first) >= 4, and the control
    varies by at most 10%.
    """
    rp = scn.r / (scn.r - 1.0)
    gamma1 = 1.0 - scn.p / (2.0 * rp)
    K = make_counter(scn.r, scn.beta, eta=4.0)
    consts = {"gamma1": gamma1}
    svals = {}
    controls = {}
    rows = []
    for L in scn.levels:
        grid = scn.grid(L)
        lo = scn.origin[0]
        if lo > -6.0 + 1e-9 or lo + scn.side < 6.0 - 1e-9:
            raise ScenarioError("grid must cover |x| <= 6 "
                                "(the kernel shift is 4)")
        x = grid.cell_centers(0)
        h = grid.cell_width
        eta = 4.0
        fc = _power_cell_averages(x + eta, h, gamma1 * grid.n / scn.p,
                                  support=1.0)
        f = GridFunction(grid, fc)
        wc = _power_cell_averages(x, h, scn.gamma * grid.n)
        # the cells touching the weight singularity are excluded
        wc[np.abs(x) < h] = 0.0
        w = GridFunction(grid, wc)
        vol = grid.cell_volume
        t = apply_operator(K, f).cells
        scale = float(np.abs(t).max())
        lams = _lambda_grid(scale, scn.lambda_points)
        best = 0.0
        best_lam = 0.0
        for lam in lams:
            wm = float(wc[np.abs(t) > lam].sum()) * vol
            v = lam ** scn.p * wm
            if v > best:
                best, best_lam = v, lam
        svals[L] = best
        controls[L] = float((np.abs(fc) ** scn.p * wc).sum()) * vol
        rows.append(_row(L, best, controls[L], True))
        consts[f"S_L{L}"] = best
        consts[f"control_L{L}"] = controls[L]
        consts[f"argmax_lambda_L{L}"] = best_lam
    Ls = sorted(svals)
    increasing = all(svals[a] < svals[b] for a, b in zip(Ls, Ls[1:]))
    growth = svals[Ls[-1]] / svals[Ls[0]] if svals[Ls[0]] > 0 else math.inf
    cvals = [controls[L] for L in Ls]
    cstable = max(cvals) / min(cvals) <= 1.1
    consts["strictly_increasing"] = bool(increasing)
    consts["growth_ratio"] = growth
    consts["control_stable"] = bool(cstable)
    ok = increasing and growth >= 4.0 and cstable
    return {"rows": rows, "constants": consts, "pass": ok}


def sparse_rows(scn: Scenario) -> dict:
    K = _kernel_of(scn)
    A = _young_of(scn, scn.A)
    rows = []
    consts = {}
    cstars = []
    families = []
    bound = FROZEN["domination_c_star"].get(scn.m, math.inf)
    ok = True
    for L in scn.levels:
        grid = scn.grid(L)
        f = _profile(scn.f, grid)
        b = _profile(scn.b, grid)
        rep = domination_report(K, b, scn.m, A, f, grid.root_cube(),
                                seed=scn.seed)
        cstars.append(rep.c_star)
        families.append(rep)
        consts[f"c_star_L{L}"] = rep.c_star
        consts[f"family_size_L{L}"] = len(rep.form.family.cubes)
        consts[f"violations_L{L}"] = len(rep.violations)
        consts[f"sparse_ok_L{L}"] = bool(rep.sparse_check.ok)
        good = (len(rep.violations) == 0 and rep.sparse_check.ok
                and rep.c_star <= bound)
        rows.append(_row(L, rep.c_star, bound, good))
        ok = ok and good
    pos = [c for c in cstars if c > 0]
    if len(pos) >= 2:
        med = sorted(pos)[len(pos) // 2]
        stable = all(0.75 * med <= c <= 1.25 * med for c in pos)
        consts["c_star_stable"] = bool(stable)
        ok = ok and stable
    return {"rows": rows, "constants": consts, "pass": ok,
            "reports": families}


def constants_dump(scn: Scenario) -> dict:
    K = _kernel_of(scn)
    A = _young_of(scn, scn.A)
    entries = []
    for L in scn.levels:
        grid = scn.grid(L)
        b = _profile(scn.b, grid)
        w = _profile(scn.w, grid)
        entries.append(("b", f"bmo_L{L}", bmo_norm(b)))
        entries.append(("w", f"a1_L{L}",
                        weight_constant(w, "A1")))
        entries.append(("w", f"ainf_fw_L{L}",
                        weight_constant(w, "AinfFW")))
        if scn.p > 1:
            entries.append(("w", f"ap{scn.p:g}_L{L}",
                            weight_constant(w, "Ap", p=scn.p)))
            entries.append(("w", f"bump_p{scn.p:g}_L{L}",
                            weight_constant(w, "ApBump", p=scn.p, C=A)))
        info = estimate_ct(K, A, grid, scn.seed)
        entries.append(("T", f"hormander_L{L}", info["hormander"]))
        entries.append(("T", f"l2_norm_L{L}", info["l2_norm"]))
    kra, finite = young.krA_constant(A, max(scn.r, 1.0))
    entries.append(("A", f"k_{scn.r:g}_A", kra if finite else math.inf))
    if scn.phi:
        phi = _young_of(scn, scn.phi)
        kap, conv = young.kappa_phi(A, phi)
        entries.append(("phi", "kappa", kap if conv else math.inf))
    rows = [{"lambda": 0.0, "lhs": v, "rhs": 0.0, "ratio": 0.0, "pass": True,
             "object": obj, "constant": name}
            for obj, name, v in entries]
    blob = json.dumps(entries, sort_keys=True).encode()
    consts = {f"{obj}.{name}": v for obj, name, v in entries}
    consts["table_hash"] = hashlib.sha256(blob).hexdigest()
    return {"rows": rows, "constants": consts, "pass": True,
            "entries": entries}


# -- released domination battery ----------------------------------------------

DOMINATION_BATTERY = (
    {
        "kernel": "hilbert",
        "gauge": "llogl(1)",
        "origin": (-0.5,),
        "side": 1.0,
        "b": "log_abs",
        "f": ("indicator(0,0.25)", "indicator(-0.25,0.125)",
              "indicator(0.125,0.375)", "power_abs(0.5)",
              "indicator(-0.375,-0.125)+0.25"),
    },
    {
        "kernel": "dini(omega=power(0.5),ck=1)",
        "gauge": "llogl(1)",
        "origin": (-0.5,),
        "side": 1.0,
        "b": "log_abs",
        "f": ("indicator(0,0.25)", "indicator(-0.25,0.125)",
              "indicator(0.125,0.375)", "power_abs(0.5)",
              "indicator(-0.375,-0.125)+0.25"),
    },
    {
        "kernel": "counter(r=2,beta=1,eta=4)",
        "gauge": "counter",
        "origin": (-6.0,),
        "side": 12.0,
        "b": "log_abs",
        "f": ("indicator(-4.5,-3.5)", "indicator(-5,-3)",
              "indicator(-4.25,-3.75)", "indicator(-4.75,-4.25)",
              "power_abs(0.25)"),
    },
)


def domination_battery():
    """Yields (config index, m, f literal, level, DominationReport) over the
    released sweep."""
    for ic, cfg in enumerate(DOMINATION_BATTERY):
        K = parse_kernel(cfg["kernel"])
        if cfg["gauge"] == "counter":
            A = counter_young(2.0, 1.0)
        else:
            A = young.parse_young(cfg["gauge"])
        for m in (0, 1, 2):
            for flit in cfg["f"]:
                for L in (8, 10, 12):
                    grid = Grid(1, cfg["origin"], cfg["side"], L)
                    f = _profile(flit, grid)
                    b = _profile(cfg["b"], grid)
                    rep = domination_report(K, b, m, A, f, grid.root_cube())
                    yield ic, m, flit, L, rep


# -- runner -------------------------------------------------------------------


_DISPATCH = {
    "strong": strong_cf_check,
    "cf": strong_cf_check,
    "endpoint": endpoint_check,
    "endpoint_czo": endpoint_check,
    "expdecay": expdecay_check,
    "counterexample": counterexample_probe,
    "sparse": sparse_rows,
    "constants": constants_dump,
}


def run_scenario(scn: Scenario, out_dir: str = None,
                 dump_family: str = None) -> dict:
    result = _DISPATCH[scn.kind](scn)
    report = {
        "battery_version": BATTERY_VERSION,
        "scenario": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in asdict(scn).items()},
        "kind": scn.kind,
        "constants": result.get("constants", {}),
        "rows": result["rows"],
        "pass": bool(result["pass"]),
    }
    if result.get("vacuous"):
        report["vacuous"] = True
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "report.json"),
                      json.dumps(report, sort_keys=True, indent=2) + "\n")
        _write_atomic(os.path.join(out_dir, "plot.csv"),
                      _plot_csv(result["rows"]))
        if scn.kind == "constants":
            _write_atomic(os.path.join(out_dir, "constants.csv"),
                          _constants_csv(result["entries"]))
        if dump_family and result.get("reports"):
            fam = result["reports"][-1].form
            _write_atomic(dump_family, _family_json(fam))
    return report


def _plot_csv(rows) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["lambda", "lhs", "rhs", "ratio"])
    for r in rows:
        wr.writerow([repr(r["lambda"]), repr(r["lhs"]), repr(r["rhs"]),
                     repr(r["ratio"])])
    return buf.getvalue()


def _constants_csv(entries) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["object", "constant", "value"])
    for obj, name, v in entries:
        wr.writerow([obj, name, repr(v)])
    return buf.getvalue()


def _family_json(form) -> str:
    cubes = []
    for q in form.family.cubes:
        cert = form.family.certificate.get(q)
        cubes.append({
            "cube": str(q),
            "coefficients": [float(c) for c in form.coeffs[q]],
            "b_average": form.b_avgs[q],
            "witness_cells": ([int(i) for i in
                               np.flatnonzero(cert.ravel())]
                              if cert is not None else None),
        })
    payload = {"eta": form.family.eta, "m": form.m, "cubes": cubes,
               "ct_components": form.ct_components}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
