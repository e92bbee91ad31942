"""Weight constants, BMO norms and profile literals, and the reverse Holder,
absorption and oscillation-norm checks of scripts/fit_constants.py."""

import importlib.util
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsedom import weights as W
from sparsedom import young
from sparsedom.dyadic import Grid, GridFunction
from sparsedom.frozen import FROZEN
from sparsedom.operators import counter_young

_SPEC = importlib.util.spec_from_file_location(
    "fit_constants", os.path.join(os.path.dirname(__file__), "..", "scripts",
                                  "fit_constants.py"))
fit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit)


def test_unit_weight_constants_are_one(unit_grid):
    one = W.parse_profile("const(1)", unit_grid)
    assert W.weight_constant(one, "Ap", 2.0) == 1.0
    assert W.weight_constant(one, "A1") == 1.0
    assert W.weight_constant(one, "AinfFW") == 1.0


@given(st.integers(0, 9), st.floats(1.2, 4.0))
def test_ap_constant_at_least_one(seed, p):
    grid = Grid(1, (0.0,), 1.0, 4)
    rng = np.random.default_rng(seed)
    w = GridFunction(grid, rng.lognormal(0.0, 0.6, grid.shape))
    # Jensen: avg(w) avg(w^(-1/(p-1)))^(p-1) >= 1 on every cube
    assert W.weight_constant(w, "Ap", p) >= 1.0 - 1e-12


def test_a1_dominates_ainf_style_monotonicity(unit_grid, rng):
    # on Q, w <= M(w chi_Q) <= Mw <= [w]_A1 w, so 1 <= [w]_Ainf <= [w]_A1;
    # Jensen gives [w]_A2 <= [w]_A1 as well
    for grid in (unit_grid, Grid(2, (0.0, 0.0), 1.0, 3)):
        w = GridFunction(grid, rng.lognormal(0.0, 0.4, grid.shape))
        a1 = W.weight_constant(w, "A1")
        ainf = W.weight_constant(w, "AinfFW")
        assert 1.0 <= ainf <= a1 * (1 + 1e-12)
        assert ainf > 1.0
        assert W.weight_constant(w, "Ap", 2.0) <= a1 * (1 + 1e-9)


def test_weight_constant_input_checks(unit_grid):
    one = W.parse_profile("const(1)", unit_grid)
    with pytest.raises(W.WeightError):
        W.weight_constant(one, "Ap", 1.0)
    with pytest.raises(W.WeightError):
        W.weight_constant(one, "ApBump", 2.0)
    with pytest.raises(W.WeightError):
        W.weight_constant(one, "A7")
    bad = GridFunction(unit_grid, np.zeros(unit_grid.shape))
    with pytest.raises(W.WeightError):
        W.weight_constant(bad, "A1")


def test_ap_bump_dominates_ap(unit_grid, rng):
    # the Orlicz bump norm dominates the plain L^{p'} average
    w = GridFunction(unit_grid, rng.lognormal(0.0, 0.5, unit_grid.shape))
    p = 2.0
    plain = W.weight_constant(w, "Ap", p)
    bumped = W.weight_constant(w, "ApBump", p, C=young.llogl(1))
    assert bumped >= plain * (1 - 1e-9)


def test_weight_constant_keyed_on_gauge_content(unit_grid, rng):
    # both counter gauges are 1201-knot tables that print alike; each must
    # get its own bump constant, and new objects with the same content the
    # same one
    w = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, 64))
    params = ((2.0, 1.0), (1.5, 0.5))
    first = [W.weight_constant(w, "ApBump", 2.0, counter_young(*rb))
             for rb in params]
    assert first[0] != first[1]
    for rb, v in zip(params, first):
        fresh = W.weight_constant(GridFunction(unit_grid, w.cells.copy()),
                                  "ApBump", p=2.0, C=counter_young(*rb))
        assert fresh == v


def test_sigma_duality_identity(unit_grid, rng):
    w = GridFunction(unit_grid, rng.lognormal(0.0, 0.7, unit_grid.shape))
    p, r = 3.0, 1.5
    q = p / r
    sigma = W.sigma_dual(w, p, r)
    lhs = W.weight_constant(sigma, "Ap", q / (q - 1.0))
    rhs = W.weight_constant(w, "Ap", q) ** (1.0 / (q - 1.0))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_sigma_dual_needs_supercritical_exponent(unit_grid):
    one = W.parse_profile("const(1)", unit_grid)
    with pytest.raises(W.WeightError):
        W.sigma_dual(one, 2.0, 2.0)


def test_sigma_dual_rejects_overflow_and_keeps_valid_bits(unit_grid, rng):
    # a valid weight gives the power's bits; a cell of 1e-320 overflows
    # w^-1 to inf, which is an error naming sigma and the cell, with no
    # RuntimeWarning on the way
    w = rng.lognormal(0.0, 3.0, unit_grid.shape)
    for p, r in ((2.0, 1.0), (3.0, 1.5), (1.5, 1.0)):
        got = W.sigma_dual(GridFunction(unit_grid, w), p, r).cells
        assert got.tobytes() == (w ** (-1.0 / (p / r - 1.0))).tobytes()
    w = w.copy()
    w[[7, 9]] = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(W.WeightError, match="sigma .* inf at cell 7,"):
            W.sigma_dual(GridFunction(unit_grid, w), 2.0)


def test_bmo_indicator_half_exact(unit_grid):
    chi = W.parse_profile("indicator(0,0.5)", unit_grid)
    assert W.bmo_norm(chi) == 0.5


def test_bmo_constant_is_zero(unit_grid):
    assert W.bmo_norm(W.parse_profile("const(3)", unit_grid)) == 0.0


def test_absorption_extreme_sets(unit_grid, rng):
    w = GridFunction(unit_grid, rng.lognormal(0.0, 0.7, unit_grid.shape))
    Q = unit_grid.root_cube()
    c_n = FROZEN["absorption_c_n"][1]
    full = np.ones(unit_grid.shape, dtype=bool)
    lhs, rhs, ok = fit.absorption_check(w, Q, full, c_n)
    assert (lhs, rhs, ok) == (1.0, 2.0, True)
    empty = np.zeros(unit_grid.shape, dtype=bool)
    assert fit.absorption_check(w, Q, empty, c_n)[2]
    rand = np.zeros(unit_grid.shape, dtype=bool)
    rand.ravel()[rng.permutation(64)[:16]] = True
    assert fit.absorption_check(w, Q, rand, c_n)[2]


def test_absorption_rejects_outside_sets(unit_grid):
    w = W.parse_profile("const(1)", unit_grid)
    Q = unit_grid.root_cube()
    left = Grid(1, (0.0,), 1.0, 6)
    half = np.zeros(left.shape, dtype=bool)
    half[:32] = True
    from sparsedom.dyadic import children
    small = children(Q)[1]
    with pytest.raises(W.WeightError):
        fit.absorption_check(w, small, half, 1.0)


def test_reverse_holder_passes_at_frozen(unit_grid, rng):
    tau = FROZEN["rhi_tau_n"][1]
    Q = unit_grid.root_cube()
    for cells in (np.ones(unit_grid.shape),
                  rng.lognormal(0.0, 0.5, unit_grid.shape),
                  np.abs(unit_grid.cell_centers(0) - 0.5) ** 0.5 + 0.01):
        w = GridFunction(unit_grid, cells)
        r, lhs, rhs, ok = fit.reverse_holder_check(w, Q, tau)
        assert r > 1.0
        assert ok, (lhs, rhs)


def test_reverse_holder_breaks_at_small_tau(unit_grid):
    # a tall spike fails the 2x bound once the exponent is pushed up
    cells = 1.0 + 1000.0 * (np.arange(64) < 4)
    w = GridFunction(unit_grid, cells)
    Q = unit_grid.root_cube()
    r, lhs, rhs, ok = fit.reverse_holder_check(w, Q, 0.05)
    assert not ok
    assert lhs > rhs


def test_jn_frozen_envelope(sym_grid):
    # level-set fractions stay below the frozen exponential envelope
    c = FROZEN["jn_c_n"][1]
    Q = sym_grid.root_cube()
    for lit in ("log_abs", "indicator(0,0.25)", "power_abs(0.5)"):
        b = W.parse_profile(lit, sym_grid)
        bb = W.bmo_norm(b)
        vals = np.abs(b.cells - b.cells.mean()).ravel()
        for a in np.linspace(0.0, vals.max(), 33)[:-1]:
            frac = float((vals > a).mean())
            if frac <= 0:
                continue
            bound = math.e * math.exp(-a / (c * 2.0 * math.e * bb))
            assert frac <= bound * (1 + 1e-12), (lit, a)


def test_osc_exp_norm_constant_b_zero(sym_grid):
    one = W.parse_profile("const(1)", sym_grid)
    b = W.parse_profile("const(4)", sym_grid)
    assert fit.osc_exp_norm(b, sym_grid.root_cube(), one, 1) == 0.0


def test_osc_exp_norm_power_identity(sym_grid):
    # the exp(t^(1/j)) norm of the j-th power is the j-th power of the
    # exp(t) norm of the oscillation
    one = W.parse_profile("const(1)", sym_grid)
    b = W.parse_profile("log_abs", sym_grid)
    Q = sym_grid.root_cube()
    v1 = fit.osc_exp_norm(b, Q, one, 1)
    for j in (1, 2, 3):
        vj = fit.osc_exp_norm(b, Q, one, j)
        assert vj == pytest.approx(v1 ** j, rel=1e-8)


def test_osc_exp_norm_rejects_bad_order(sym_grid):
    one = W.parse_profile("const(1)", sym_grid)
    with pytest.raises(W.WeightError):
        fit.osc_exp_norm(one, sym_grid.root_cube(), one, 0)


# -- literals -------------------------------------------------------------------


def test_parse_profile_const_and_power(sym_grid):
    assert np.all(W.parse_profile("const(2.5)", sym_grid).cells == 2.5)
    p = W.parse_profile("power_abs(2)", sym_grid)
    x = sym_grid.cell_centers(0)
    assert np.allclose(p.cells, x ** 2)


def test_parse_profile_indicator_shift(unit_grid):
    f = W.parse_profile("indicator(0,0.25)+0.5", unit_grid)
    assert f.cells[0] == 1.5
    assert f.cells[-1] == 0.5
    assert f.cells.sum() == pytest.approx(16 * 1.5 + 48 * 0.5)


def test_parse_profile_indicator_2d():
    g2 = Grid(2, (0.0, 0.0), 1.0, 3)
    f = W.parse_profile("indicator(0,0,0.5,0.5)", g2)
    assert f.cells.sum() == pytest.approx(16.0)
    with pytest.raises(W.WeightError):
        W.parse_profile("indicator(0,0.5)", g2)


def test_parse_profile_table(tmp_path, unit_grid):
    path = tmp_path / "cells.csv"
    data = np.linspace(1.0, 2.0, 64)
    np.savetxt(path, data[None, :], delimiter=",")
    f = W.parse_profile(f"table({path})", unit_grid)
    assert np.allclose(f.cells, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_and_tables_rejected(tmp_path, unit_grid, bad):
    # NaN passes a <= 0 check, and every constant of such a weight is NaN
    cells = np.linspace(1.0, 2.0, 64)
    cells[5] = bad
    w = GridFunction(unit_grid, cells)
    for kind in ("A1", "Ap", "AinfFW"):
        with pytest.raises(W.WeightError, match="finite"):
            W.weight_constant(w, kind, p=2.0)
    path = tmp_path / "cells.csv"
    np.savetxt(path, cells[None, :], delimiter=",")
    with pytest.raises(W.WeightError, match="non-finite"):
        W.parse_profile(f"table({path})", unit_grid)


def test_parse_profile_rejects_garbage(unit_grid):
    for bad in ("gauss(1)", "const()", "const(1)+1", "log_abs(1)", "table()",
                "table(1)", "indicator(0,1,2)", "power_abs(a=1)"):
        with pytest.raises(W.WeightError):
            W.parse_profile(bad, unit_grid)
    # `name` and `name()` are one literal
    assert np.array_equal(W.parse_profile("log_abs()", unit_grid).cells,
                          W.parse_profile("log_abs", unit_grid).cells)
