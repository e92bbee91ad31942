"""Acceptance gate: one quantitative criterion per test, each printing a
single pass/FAIL line before asserting, so the verdicts are readable even
when a criterion fails."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from sparsedom import bench, young
from sparsedom import operators as op
from sparsedom import weights as W
from sparsedom.dyadic import Grid, GridFunction, check_sparse, cz_decompose
from sparsedom.frozen import FROZEN
from sparsedom.sparse_engine import build_sparse_family
from sparsedom.weights import parse_profile

from oracles import brute_cz, commutator_recursive

BATTERY_DIR = os.path.join(os.path.dirname(__file__), "..", "battery")

CATALOG = [
    young.power(1.5),
    young.power(2),
    young.power(3, 0.7),
    young.llogl(1),
    young.llogl(2.5),
    young.expl(1),
    young.expl(2),
    young.lll(1, 1.5),
    young.phi_j(2),
    young.compose(young.llogl(1), young.power(2)),
    young.prod(young.power(1.5), young.llogl(1)),
    young.tabulated(np.geomspace(1e-4, 1e7, 600),
                    np.geomspace(1e-4, 1e7, 600) ** 2),
    op.counter_young(2.0, 1.0),
]


def _verdict(num, label, ok):
    line = f"criterion {num}: {'pass' if ok else 'FAIL'} - {label}"
    print(line, flush=True)
    return ok


def test_criterion_1_orlicz_calculus():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(4, 200))
        vals = rng.lognormal(0.0, 1.0, size)
        mu = rng.uniform(0.1, 1.0, size)
        r = float(rng.uniform(1.05, 6.0))
        got = young.luxemburg_norm(vals, mu, young.power(r))
        want = float(((vals ** r * mu).sum() / mu.sum()) ** (1.0 / r))
        worst = max(worst, abs(got - want) / want)
    norm_ok = worst <= 1e-9

    bracket_ok = True
    ts = np.geomspace(1e-2, 1e3, 20)
    for A in CATALOG:
        prods = A.inverse(ts) * young.conjugate_inverse_value(A, ts)
        for t, prod in zip(ts, prods):
            if not (1.0 - 1e-6) * t <= prod <= 2.0 * t * (1.0 + 1e-6):
                bracket_ok = False
    dt = time.monotonic() - t0
    ok = _verdict(1, f"Luxemburg closed form (worst rel {worst:.2e}) and "
                     f"inverse-conjugate bracket, {dt:.1f}s",
                  norm_ok and bracket_ok and dt < 5.0)
    assert ok


def test_criterion_2_cz_and_sparse_structure():
    t0 = time.monotonic()
    grid = Grid(1, (0.0,), 1.0, 10)
    Q0 = grid.root_cube()
    rng = np.random.default_rng(12)
    N = grid.cells_per_side
    cz_ok = True
    for _ in range(100):
        cells = np.zeros(grid.shape)
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(2, grid.level + 1))
            s = 1 << (grid.level - k)
            o = int(rng.integers(0, N // s)) * s
            cells[o:o + s] += float(rng.uniform(0.5, 3.0))
        g = GridFunction(grid, cells)
        lam = float(rng.uniform(0.05, 2.0))
        if cz_decompose(g, Q0, lam) != brute_cz(g, Q0, lam):
            cz_ok = False

    fams_ok = True
    wgrid = Grid(1, (-0.5,), 1.0, 10)
    f = parse_profile("indicator(-0.05,0.05)", wgrid)
    b = parse_profile("log_abs", wgrid)
    from sparsedom.dyadic import BASE, Cube
    Q = Cube(BASE, 3, (384,), 128)
    for m in (0, 1, 2):
        form = build_sparse_family(op.make_hilbert(), b, m,
                                   young.llogl(1), f, Q)
        res = check_sparse(form.family)
        if not (res.ok and form.family.eta == 0.5
                and form.family.certificate is not None):
            fams_ok = False
    dt = time.monotonic() - t0
    ok = _verdict(2, f"CZ oracle on 100 inputs and engine family "
                     f"certificates at L=10, {dt:.1f}s",
                  cz_ok and fams_ok and dt < 30.0)
    assert ok


def test_criterion_3_sparse_domination_battery():
    t0 = time.monotonic()
    groups = {}
    violations = 0
    sparse_bad = 0
    for ic, m, flit, L, rep in bench.domination_battery():
        violations += len(rep.violations)
        if not rep.sparse_check.ok:
            sparse_bad += 1
        groups.setdefault((ic, m, flit), {})[L] = rep.c_star
    stable = True
    for key, per_level in groups.items():
        pos = [c for c in per_level.values() if c > 0]
        if len(pos) < 2:
            continue
        med = sorted(pos)[len(pos) // 2]
        if not all(0.75 * med <= c <= 1.25 * med for c in pos):
            stable = False
    dt = time.monotonic() - t0
    ok = _verdict(3, f"domination battery: {violations} violations, "
                     f"{sparse_bad} bad families, C* stable={stable}, "
                     f"{dt:.0f}s",
                  violations == 0 and sparse_bad == 0 and stable
                  and dt < 300.0)
    assert ok


def test_criterion_4_commutator_identity():
    t0 = time.monotonic()
    # hilbert and dini through dense blocks (L = 3) and FFT products (L =
    # 9), the 2D homogeneous kernel (cos 2 theta) through 2D FFT products
    theta = np.arange(64) * (2 * math.pi / 64)
    cases = [(K, Grid(1, (-0.5,), 1.0, L))
             for K in (op.make_hilbert(), op.make_dini()) for L in (3, 9)]
    cases += [(op.make_homog(np.cos(2 * theta)),
               Grid(2, (-0.5, -0.5), 1.0, L)) for L in (3, 5)]
    rng = np.random.default_rng(13)
    worst = 0.0
    for K, grid in cases:
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        b = GridFunction(grid, rng.standard_normal(grid.shape))
        for m in (1, 2, 3):
            lhs = op.commutator_apply(K, b, m, f).cells
            rhs = commutator_recursive(K, b, m, f).cells
            scale = max(float(np.abs(rhs).max()), 1.0)
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    dt = time.monotonic() - t0
    ok = _verdict(4, f"binomial vs recursive commutator "
                     f"(worst rel {worst:.2e}), {dt:.2f}s",
                  worst <= 1e-12 and dt < 1.0)
    assert ok


def test_criterion_5_endpoint_estimates():
    t0 = time.monotonic()
    rows_ok = True
    for name in ("endpoint_hilbert_m0", "endpoint_dini_m1",
                 "endpoint_czo_m1"):
        scn = bench.parse_scenario(os.path.join(BATTERY_DIR, name + ".ini"))
        res = bench.endpoint_check(scn)
        if res.get("vacuous") or not res["pass"]:
            rows_ok = False
        if len(res["rows"]) != scn.lambda_points * len(scn.levels):
            rows_ok = False
    # the divergence flag must fire for the linear gauge pair
    _, conv = young.kappa_phi(young.power(1), young.power(1))
    flag_ok = not conv
    # the proof-side bumped gauges stay bounded after the eps rescaling
    eps_ok = True
    for eps in (0.5, 0.25, 0.125):
        kap, conv = young.kappa_phi(young.power(1), young.lll(0, 1.0 + eps))
        if not conv or eps * kap > 3.0:
            eps_ok = False
    dt = time.monotonic() - t0
    ok = _verdict(5, f"endpoint battery rows, divergence flag, "
                     f"eps-scaled kappa, {dt:.0f}s",
                  rows_ok and flag_ok and eps_ok and dt < 180.0)
    assert ok


def test_criterion_6_exponential_decay():
    t0 = time.monotonic()
    fits_ok = True
    for name in ("expdecay_hilbert_m0", "expdecay_hilbert_m1"):
        scn = bench.parse_scenario(os.path.join(BATTERY_DIR, name + ".ini"))
        res = bench.expdecay_check(scn)
        if not res["pass"]:
            fits_ok = False
        for L in scn.levels:
            slope = res["constants"].get(f"slope_L{L}")
            resid = res["constants"].get(f"residual_L{L}")
            rng_ = res["constants"].get(f"range_L{L}")
            if slope is None or slope >= 0 or resid > 0.1 * rng_:
                fits_ok = False
    dt = time.monotonic() - t0
    ok = _verdict(6, f"level-set decay fits negative with <10% residual, "
                     f"{dt:.0f}s", fits_ok and dt < 120.0)
    assert ok


def _line_gamma(p, r):
    """The probe's critical weight exponent 3p/(2r'), r' = r/(r-1)."""
    return 1.5 * p * (r - 1.0) / r


def _blowup_probe(scn, label, **point):
    """Run the counterexample probe at levels 8-14 with `point` replacing
    (r, beta, gamma); return its verdict inputs and a summary line."""
    s = dataclasses.replace(scn, levels=(8, 10, 12, 14), **point)
    bench._validate(s)
    c = bench.counterexample_probe(s)["constants"]
    res = {"increasing": bool(c["strictly_increasing"]),
           "growth": float(c["growth_ratio"]),
           "stable": bool(c["control_stable"])}
    e = s.gamma - _line_gamma(s.p, s.r)
    svals = ",".join(f"{c[f'S_L{L}']:.1f}" for L in s.levels)
    res["line"] = (f"{label} (r={s.r:g}, beta={s.beta:g}, "
                   f"gamma={s.gamma:.3f}, e={e:+.2f}): S(8..14)={svals}, "
                   f"S(14)/S(8)={res['growth']:.2f}, "
                   f"increasing={res['increasing']}, "
                   f"control stable={res['stable']}")
    return res


def test_criterion_7_unweighted_blowup():
    # S(L) grows like 2^(L e), e = gamma - 3p/(2r') (see
    # bench.counterexample_probe).  The blow-up is checked at a point above
    # that line with light log damping; the same kernel on the line, and the
    # battery's own counterexample_weak point (also on it), must stay below
    # the factor.
    t0 = time.monotonic()
    scn = bench.parse_scenario(
        os.path.join(BATTERY_DIR, "counterexample_weak.ini"))
    r, beta = 1.1, 0.05
    above = _blowup_probe(scn, "above the line", r=r, beta=beta, gamma=0.95)
    online = _blowup_probe(scn, "on the line", r=r, beta=beta,
                           gamma=_line_gamma(scn.p, r))
    battery = _blowup_probe(scn, "counterexample_weak")
    dt = time.monotonic() - t0
    ok = _verdict(7, f"{above['line']} (need increasing, >= 4, stable); "
                     f"{online['line']} (need < 4); "
                     f"{battery['line']} (need < 4); {dt:.0f}s",
                  above["increasing"] and above["growth"] >= 4.0
                  and above["stable"] and online["growth"] < 4.0
                  and battery["growth"] < 4.0 and dt < 120.0)
    assert ok


def test_criterion_8_weight_calculus():
    t0 = time.monotonic()
    grid = Grid(1, (0.0,), 1.0, 6)
    one = parse_profile("const(1)", grid)
    unit_ok = (W.weight_constant(one, "Ap", 2.0) == 1.0
               and W.weight_constant(one, "A1") == 1.0
               and W.weight_constant(one, "AinfFW") == 1.0)
    chi = parse_profile("indicator(0,0.5)", grid)
    bmo_ok = W.bmo_norm(chi) == 0.5
    jn_ok = True
    for n, lits in ((1, ("log_abs", "indicator(0,0.25)", "power_abs(0.5)")),
                    (2, ("power_abs(0.5)",))):
        if n == 1:
            g = Grid(1, (-0.5,), 1.0, 6)
        else:
            g = Grid(2, (-0.5, -0.5), 1.0, 3)
        c = FROZEN["jn_c_n"][n]
        for lit in lits:
            b = parse_profile(lit, g)
            bb = W.bmo_norm(b)
            vals = np.abs(b.cells - b.cells.mean()).ravel()
            for a in np.linspace(0.0, vals.max(), 33)[:-1]:
                frac = float((vals > a).mean())
                if frac <= 0:
                    continue
                env = math.e * math.exp(-a / (c * 2.0 ** n * math.e * bb))
                if frac > env * (1 + 1e-12):
                    jn_ok = False
    dt = time.monotonic() - t0
    ok = _verdict(8, f"unit weight constants, BMO of the half indicator, "
                     f"JN envelopes, {dt:.0f}s",
                  unit_ok and bmo_ok and jn_ok and dt < 60.0)
    assert ok


def test_criterion_9_battery_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "sparsedom.cli", "battery",
             os.path.abspath(BATTERY_DIR), "--out", str(out)],
            capture_output=True, text=True, timeout=900)
        runs.append((out, proc.returncode))
    codes = {code for _, code in runs}
    ref_dir = runs[0][0]
    same = len(codes) == 1
    names = sorted(os.path.relpath(os.path.join(r, f), ref_dir)
                   for r, _, fs in os.walk(ref_dir) for f in fs)
    for out, _ in runs[1:]:
        for rel in names:
            with open(os.path.join(ref_dir, rel), "rb") as fa, \
                    open(os.path.join(out, rel), "rb") as fb:
                if fa.read() != fb.read():
                    same = False
    summary = json.loads((ref_dir / "battery.json").read_text())
    ok = _verdict(9, f"battery byte-identical over two fresh runs "
                     f"({len(names)} files, "
                     f"{len(summary['scenarios'])} scenarios)", same)
    assert ok
