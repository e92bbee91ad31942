"""Stopping-time sparse construction, form evaluation, domination reports."""

import numpy as np
import pytest

from sparsedom import operators as op
from sparsedom import sparse_engine as eng
from sparsedom import young
from sparsedom.dyadic import (BASE, Cube, Grid, GridFunction, check_sparse,
                              cube_mask, cube_slices, dilate)
from sparsedom.operators import (counter_young, hormander_estimate,
                                 make_counter, make_hilbert, operator_norm_l2,
                                 parse_kernel)
from sparsedom.weights import parse_profile

from oracles import exceptional_mask


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


def test_exceptional_set_monotone_in_alpha():
    # the mask build_sparse_family takes at each alpha, for the split h = 0
    grid, K, f, b, Q0 = _setup()
    A = young.llogl(1)
    ct = eng.estimate_ct(K, A, grid)["ct"]
    _, norms, g, mt = eng._local_data(op.truncation(K, grid), f, b, 0, A, Q0)
    e1, e4 = (np.zeros(grid.shape, dtype=bool) for _ in range(2))
    for e, alpha in ((e1, 1.0), (e4, 4.0)):
        e[cube_slices(Q0, grid)] = eng._exceptional(g, mt, norms[0], alpha,
                                                    ct)
    assert e4.sum() < e1.sum()
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


def test_estimate_ct_keyed_on_gauge_content(monkeypatch):
    # both counter gauges are 1201-knot tables that print alike; each must
    # get its own smoothness estimate
    monkeypatch.setattr(eng, "_ct_cache", {})
    grid = Grid(1, (-6.0,), 12.0, 6)
    K = make_counter()
    gauges = (counter_young(2.0, 1.0), counter_young(1.5, 0.5))
    fresh = [hormander_estimate(K, A, grid, cube_budget=24, k_max=6)[0]
             for A in gauges]
    assert fresh[0] != fresh[1]
    for A, h in zip(gauges, fresh):
        assert eng.estimate_ct(K, A, grid)["hormander"] == h


def test_ct_cache_grows_by_one_entry_per_miss(monkeypatch):
    # the one memo: a miss adds exactly one entry, a hit (a new kernel
    # object with the same content) adds none and returns equal values
    monkeypatch.setattr(eng, "_ct_cache", {})
    calls = []
    real = eng.operator_norm_l2

    def spy(K, grid):
        calls.append(grid)
        return real(K, grid)

    monkeypatch.setattr(eng, "operator_norm_l2", spy)
    grid = Grid(1, (-0.5,), 1.0, 6)
    A = young.llogl(1)
    first = dict(eng.estimate_ct(make_hilbert(), A, grid))
    assert len(eng._ct_cache) == 1 and len(calls) == 1
    assert eng.estimate_ct(make_hilbert(), A, grid) == first
    assert len(eng._ct_cache) == 1 and len(calls) == 1
    eng.estimate_ct(make_hilbert(), A, grid, seed=1)
    assert len(eng._ct_cache) == 2 and len(calls) == 2


def test_truncation_builds_each_level_product_once(monkeypatch):
    # a domination report prepares M_{T,.} once: over all its nodes and
    # commutator splits, the truncation path builds each level product
    # (window, offset, rows) at most once
    builds, inside = [], []
    make, gmt = op._toeplitz_product, eng.grand_maximal_truncated

    def counted(kprof, window, d, rows):
        if inside:
            builds.append((window, d, rows))
        return make(kprof, window, d, rows)

    def traced(*args):
        inside.append(True)
        try:
            return gmt(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(op, "_toeplitz_product", counted)
    monkeypatch.setattr(eng, "grand_maximal_truncated", traced)
    grid = Grid(1, (-0.5,), 1.0, 8)
    rep = eng.domination_report(make_hilbert(),
                                parse_profile("log_abs", grid), 2,
                                young.llogl(1),
                                parse_profile("indicator(0,0.25)", grid),
                                grid.root_cube())
    assert len(rep.form.family.cubes) > 1
    assert builds and len(set(builds)) == len(builds)


def _local_norms_stacked(f, b, m, A, Q0):
    """_local_data's norms as they were taken from copies: the rows of
    3Q0 stacked and a full array of cell measures."""
    grid = f.grid
    s3 = cube_slices(dilate(Q0, 3), grid)
    f3 = np.zeros(grid.shape)
    f3[s3] = f.cells[s3]
    osc = np.abs(b.cells - float(b.cells[s3].mean()))
    gs = np.stack([osc ** h * f3 for h in range(m + 1)])
    rows = np.stack([g[s3].ravel() for g in gs])
    return young.luxemburg_norm_batch(
        rows, np.full(rows.shape, grid.cell_volume), A)


def test_local_data_norms_match_stacked_copies(rng):
    # the node's rows read as a view of its stacked splits (a copy in 2D)
    # and broadcast cell measures give the norms of the stacked copies,
    # bit for bit: on inner, clipped and root nodes, and on rows of zeros
    # (f zero on 3Q0, or b constant there so that every split h >= 1 is 0)
    A = young.llogl(1)
    line = Grid(1, (-0.5,), 1.0, 8)
    plane = Grid(2, (-0.5, -0.5), 1.0, 4)
    homog = op.make_homog(np.cos(2 * np.arange(16) * np.pi / 8))
    for K, grid in ((make_hilbert(), line), (homog, plane)):
        T = op.truncation(K, grid)
        N, n = grid.cells_per_side, grid.n
        noisy = rng.standard_normal(grid.shape)
        left = np.indices(grid.shape)[0] < N // 2
        f_left, b_const = noisy * left, np.where(left, 1.5, noisy)
        nodes = [grid.root_cube(), Cube(BASE, 2, (N // 4,) * n, N // 4),
                 Cube(BASE, 2, (0,) * n, N // 4),
                 Cube(BASE, 2, (3 * N // 4,) * n, N // 4)]
        for fc, bc in ((noisy, rng.standard_normal(grid.shape)),
                       (f_left, noisy), (noisy, b_const)):
            f, b = GridFunction(grid, fc), GridFunction(grid, bc)
            for Q0 in nodes:
                for m in (0, 2):
                    norms = eng._local_data(T, f, b, m, A, Q0)[1]
                    want = _local_norms_stacked(f, b, m, A, Q0)
                    assert np.array(norms).tobytes() == want.tobytes(), \
                        (K.family, Q0, m)


def test_exceptional_matches_full_grid_masks(rng):
    # a node's exceptional set, tested on its own cells for all splits at
    # once, is the union of the splits' full-grid masks, which hold no cell
    # off the node: in 1D and 2D, for m = 0..2 and alpha = 1..8, with the
    # splits h >= 1 of norm 0 where b is constant on 3Q
    A = young.llogl(1)
    line = Grid(1, (-0.5,), 1.0, 8)
    plane = Grid(2, (-0.5, -0.5), 1.0, 4)
    homog = op.make_homog(np.cos(2 * np.arange(16) * np.pi / 8))
    sizes, dead = set(), 0
    for K, grid in ((make_hilbert(), line), (homog, plane)):
        T = op.truncation(K, grid)
        ct = eng.estimate_ct(K, A, grid)["ct"]
        N, n = grid.cells_per_side, grid.n
        noisy = rng.standard_normal(grid.shape)
        b_const = np.where(np.indices(grid.shape)[0] < N // 2, 1.5, noisy)
        f = GridFunction(grid, noisy)
        for bc in (rng.standard_normal(grid.shape), b_const):
            b = GridFunction(grid, bc)
            for Q in (grid.root_cube(), Cube(BASE, 3, (N // 8,) * n, N // 8)):
                s3 = cube_slices(dilate(Q, 3), grid)
                f3 = np.zeros(grid.shape)
                f3[s3] = f.cells[s3]
                osc = np.abs(b.cells - float(b.cells[s3].mean()))
                for m in (0, 1, 2):
                    _, norms, g, mt = eng._local_data(T, f, b, m, A, Q)
                    live = [h for h in range(m + 1) if norms[h] > 0]
                    dead += m + 1 - len(live)
                    mts = dict(zip(live, op.grand_maximal_truncated(
                        T, np.stack([osc ** h * f3 for h in live]), Q)))
                    live_norms = np.reshape([norms[h] for h in live],
                                            (-1,) + (1,) * n)
                    for alpha in (1.0, 2.0, 4.0, 8.0):
                        want = np.zeros(grid.shape, dtype=bool)
                        for h in range(m + 1):
                            want |= exceptional_mask(grid, Q, osc, f3,
                                                     norms[h], mts.get(h), h,
                                                     alpha, ct)
                        got = eng._exceptional(g, mt, live_norms, alpha, ct)
                        assert not (want & ~cube_mask(Q, grid)).any()
                        assert np.array_equal(
                            got, want[cube_slices(Q, grid)]), \
                            (K.family, Q, m, alpha)
                        sizes.add(int(want.sum()))
    assert dead > 0 and len(sizes) > 2
