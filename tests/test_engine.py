"""Stopping-time sparse construction, form evaluation, domination reports."""

import numpy as np
import pytest

from sparsedom import sparse_engine as eng
from sparsedom import young
from sparsedom.dyadic import (Grid, GridFunction, check_sparse, cube_mask,
                              cube_slices)
from sparsedom.operators import (hormander_estimate, make_hilbert,
                                 operator_norm_l2, parse_kernel)
from sparsedom.weights import parse_profile


def _setup(level=7):
    grid = Grid(1, (-0.5,), 1.0, level)
    K = make_hilbert()
    f = parse_profile("indicator(-0.05,0.05)", grid)
    b = parse_profile("log_abs", grid)
    # work on a centered eighth so 3Q0 stays inside the domain
    s = grid.cells_per_side // 8
    from sparsedom.dyadic import Cube, BASE
    Q0 = Cube(BASE, 3, ((grid.cells_per_side - s) // 2 // s * s,), s)
    return grid, K, f, b, Q0


def test_exceptional_set_rejects_bad_alpha():
    grid, K, f, b, Q0 = _setup()
    with pytest.raises(eng.EngineError):
        eng.exceptional_set(K, f, b, 0, Q0, 0.0, young.llogl(1))


def test_exceptional_set_monotone_in_alpha():
    grid, K, f, b, Q0 = _setup()
    A = young.llogl(1)
    e1 = eng.exceptional_set(K, f, b, 0, Q0, 1.0, A)
    e4 = eng.exceptional_set(K, f, b, 0, Q0, 4.0, A)
    assert np.all(e4 <= e1)
    assert np.all(e1 <= cube_mask(Q0, grid))


def test_build_zero_input_gives_root_only():
    grid, K, _, b, Q0 = _setup()
    zero = parse_profile("const(0)", grid)
    form = eng.build_sparse_family(K, b, 1, young.llogl(1), zero, Q0)
    assert form.family.cubes == [Q0]
    assert form.coeffs[Q0] == (0.0, 0.0)
    assert not form.exhausted


def test_build_family_is_half_sparse():
    grid, K, f, b, Q0 = _setup()
    form = eng.build_sparse_family(K, b, 1, young.llogl(1), f, Q0)
    assert form.family.eta == 0.5
    res = check_sparse(form.family)
    assert res.ok, res.reason
    for q, frac in form.child_fraction.items():
        assert frac <= 0.5


def test_build_witnesses_tile_without_overlap():
    grid, K, f, b, Q0 = _setup()
    form = eng.build_sparse_family(K, b, 0, young.llogl(1), f, Q0)
    used = np.zeros(grid.shape, dtype=int)
    for q in form.family.cubes:
        used += form.family.certificate[q].astype(int)
    assert used.max() <= 1
    # witnesses cover Q0 exactly (every cell released exactly once)
    assert np.array_equal(used.astype(bool), cube_mask(Q0, grid))


def test_sparse_form_eval_single_cube():
    grid, K, f, b, Q0 = _setup()
    A = young.llogl(1)
    form = eng.build_sparse_family(K, b, 1, A, f, Q0)
    ev = eng.sparse_form_eval(form, b)
    sl = cube_slices(Q0, grid)
    # the root contributes coef[1] everywhere on Q0 through the h=1 term
    assert np.all(ev["per_h"][1].cells[sl] >= form.coeffs[Q0][1] - 1e-15)
    # binomial total matches the per-split sums
    total = sum(__import__("math").comb(1, h) * ev["per_h"][h].cells
                for h in (0, 1))
    assert np.allclose(ev["total"].cells, total)


def test_domination_zero_input():
    grid, K, _, b, Q0 = _setup()
    zero = parse_profile("const(0)", grid)
    rep = eng.domination_report(K, b, 0, young.llogl(1), zero, Q0)
    assert rep.c_star == 0.0
    assert rep.violations == []


def test_domination_no_violations_and_finite_constant():
    grid, K, f, b, Q0 = _setup()
    rep = eng.domination_report(K, b, 1, young.llogl(1), f, Q0)
    assert rep.violations == []
    assert rep.sparse_check.ok
    assert 0.0 < rep.c_star < 1e3


def test_domination_deterministic():
    grid, K, f, b, Q0 = _setup()
    r1 = eng.domination_report(K, b, 1, young.llogl(1), f, Q0)
    r2 = eng.domination_report(K, b, 1, young.llogl(1), f, Q0)
    assert r1.c_star == r2.c_star
    assert np.array_equal(r1.totals.cells, r2.totals.cells)
    assert r1.form.family.cubes == r2.form.family.cubes


def test_build_rejects_bad_order():
    grid, K, f, b, Q0 = _setup()
    with pytest.raises(eng.EngineError):
        eng.build_sparse_family(K, b, 7, young.llogl(1), f, Q0)


def test_estimate_ct_components():
    grid, K, f, b, Q0 = _setup()
    info = eng.estimate_ct(K, young.llogl(1), grid)
    assert info["ct"] == pytest.approx(info["hormander"] + info["l2_norm"])
    assert info["ct"] > 0


def test_estimate_ct_keyed_on_kernel_content():
    # each kernel below is freed right after its call, so the next one may
    # get the same id; the cache must still give every kernel its own ct
    grid = Grid(1, (-0.5,), 1.0, 6)
    A = young.llogl(1)
    texts = ("hilbert", "dini(ck=3)")
    fresh = {}
    for text in texts:
        K = parse_kernel(text)
        h, _ = hormander_estimate(K, A, grid, cube_budget=24, k_max=6)
        fresh[text] = h + operator_norm_l2(K, grid)
    assert fresh["hilbert"] != fresh["dini(ck=3)"]
    for i in range(20):
        text = texts[i % 2]
        assert eng.estimate_ct(parse_kernel(text), A, grid)["ct"] \
            == fresh[text]
