"""dyadic.scope_blocks and its callers against brute force over scope_cubes.

Every oracle walks dyadic.scope_cubes one cube at a time and reads the
cube's cells with cube_slices, so shifted cubes clipped at the domain
boundary are included exactly as the scope defines them.
"""

import tracemalloc

import numpy as np
import pytest

from sparsedom import dyadic
from sparsedom import operators as op
from sparsedom import weights as W
from sparsedom import young
from sparsedom.dyadic import (Grid, GridFunction, block_mean, cube_slices,
                              scope_blocks, scope_cubes, scope_tilings,
                              spread_max)

from oracles import format_young

GRIDS = [Grid(1, (-0.5,), 1.0, 5), Grid(2, (-0.5, -0.5), 1.0, 3)]
CASES = [(g, sh) for g in GRIDS for sh in (False, True)]
IDS = [f"{g.n}d-L{g.level}-{'shifted' if sh else 'base'}" for g, sh in CASES]
# the maximal operator runs on the base lattice, the weight constants and
# the BMO norm on the base and shifted lattices
BASE_CASES, BASE_IDS = CASES[::2], IDS[::2]
FULL_CASES, FULL_IDS = CASES[1::2], IDS[1::2]


def _pointwise(grid, shifted, cube_value):
    """At each cell, the max of cube_value(sl) over the scope cubes
    containing it."""
    out = np.full(grid.shape, -np.inf)
    for q in scope_cubes(grid, shifted=shifted):
        sl = cube_slices(q, grid)
        out[sl] = np.maximum(out[sl], cube_value(sl))
    return out


def _sup(grid, shifted, cube_value):
    return max(cube_value(cube_slices(q, grid))
               for q in scope_cubes(grid, shifted=shifted))


def _block(q, sl, cells):
    """The cube's full block, zero on its cells outside the domain."""
    block = np.zeros((q.side,) * q.n)
    block[tuple(slice(s.start - c, s.stop - c)
                for s, c in zip(sl, q.origin))] = cells[sl]
    return block.ravel()


def _spread(grid, shifted, value, *arrays):
    """At each cell, the max of value(mask, *blocks) over the scope cubes
    containing it: per level, the values of each tiling of scope_blocks
    spread into a -inf frame of its layout, and the frame's domain cells
    raise the output."""
    n, N = grid.n, grid.cells_per_side
    out = np.full(grid.shape, -np.inf)
    blocks = scope_blocks(grid, shifted, *arrays)
    for k in range(grid.level + 1):
        s = 1 << (grid.level - k)
        lo = 2 * s if shifted else 0
        top = np.full((N + 5 * s if shifted else N,) * n, -np.inf)
        for side, origin in scope_tilings(grid, k, shifted):
            split, m, *b = next(blocks)
            win = tuple(slice(o + lo, o + lo + c * side)
                        for o, c in zip(origin, split[::2]))
            spread_max(top[win], split, value(m, *b))
        np.maximum(out, top[(slice(lo, lo + N),) * n], out=out)
    assert next(blocks, None) is None
    return out


def _data(grid, seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    w = GridFunction(grid, rng.lognormal(0.0, 1.0, grid.shape))
    return f, w


@pytest.mark.parametrize("grid,shifted", CASES, ids=IDS)
def test_scope_blocks_yield_each_scope_cube_once(grid, shifted):
    # cells carry their own ids, so a block row names its cube's cells in
    # block order, with 0 on padding, and its mask row the domain cells
    ids = np.arange(1.0, grid.cells_per_side ** grid.n + 1).reshape(grid.shape)
    ones = np.ones(grid.shape)
    seen, sides = [], []
    for split, m, v in scope_blocks(grid, shifted, ids):
        # one 2D block per level and tiling, (cubes, side**n) as split says
        assert m.shape == v.shape == (np.prod(split[::2]),
                                      split[1] ** grid.n)
        sides.append(split[1::2])
        seen.extend(zip(map(tuple, m), map(tuple, v)))
    # level by level, root first, in the order of scope_tilings
    assert sides == [[side] * grid.n for k in range(grid.level + 1)
                     for side, _ in scope_tilings(grid, k, shifted)]
    want = [(tuple(_block(q, sl, ones)), tuple(_block(q, sl, ids)))
            for q in scope_cubes(grid, shifted=shifted)
            for sl in [cube_slices(q, grid)]]
    assert sorted(seen) == sorted(want)


@pytest.mark.parametrize("grid,shifted", CASES, ids=IDS)
def test_scope_luxemburg_one_call_per_maximal(grid, shifted, monkeypatch):
    # the Orlicz maximal operator (base lattice) and ApBump (with shifted
    # lattices) make one Luxemburg replay over every level and tiling,
    # bitwise equal to one call per level and tiling
    f, w = _data(grid, 6)
    v, p, A = np.abs(f.cells), 2.5, young.llogl(1)
    bump = w.cells ** (-1.0 / p)
    real, replay = young.luxemburg_norm_batch, young.luxemburg_replay
    calls = []

    # one Luxemburg call on each level and tiling alone
    if shifted:
        want = _spread(grid, True,
                       lambda m, a, u: block_mean(m, a) * real(u, m, A) ** p,
                       w.cells, bump).max()
    else:
        want = _spread(grid, False, lambda m, x: real(x, m, A), v)
    monkeypatch.setattr(young, "luxemburg_replay",
                        lambda *a: calls.append(1) or replay(*a))
    got = (np.float64(W.weight_constant(w, "ApBump", p=p, C=A)) if shifted
           else op.maximal(f, A).cells)
    assert got.tobytes() == want.tobytes()
    assert calls == [1]


def _per_tiling_norms(grid, A, v):
    """M_A with one Luxemburg call per level and tiling and no floor: every
    cube's norm."""
    return _spread(grid, False,
                   lambda m, x: young.luxemburg_norm_batch(x, m, A), v)


PRUNE_GAUGES = [young.llogl(1), young.lll(1, 1.5), young.expl(1),
                young.power(2, 0.5), young.phi_j(2)]


@pytest.mark.parametrize("data", ["normal", "constant", "zero-cells"])
@pytest.mark.parametrize("grid,shifted", BASE_CASES, ids=BASE_IDS)
def test_scope_luxemburg_pruned_maximal_bitwise(grid, shifted, data,
                                                monkeypatch):
    # the closure stage closes cubes below their floor (norm -inf), and the
    # max loses no bit: constant data ties every cube, where no cube may be
    # closed
    rng = np.random.default_rng(8)
    f, _ = _data(grid, 8)
    if data == "constant":
        f = GridFunction(grid, np.full(grid.shape, 0.3))
    elif data == "zero-cells":
        f = GridFunction(grid, np.where(rng.random(grid.shape) < 0.5, 0.0,
                                        f.cells))
    real, closed = young.luxemburg_close, []

    def spy(norms, rows, floor):
        out = real(norms, rows, floor)
        closed.append(int(np.isneginf(norms).sum()))
        return out

    monkeypatch.setattr(young, "luxemburg_close", spy)
    v = np.abs(f.cells)
    for A in PRUNE_GAUGES:
        assert op.maximal(f, A).cells.tobytes() == \
            _per_tiling_norms(grid, A, v).tobytes()
    if data == "constant":
        assert not any(closed)
    else:
        assert sum(closed) > 0


def _whole_call_maximal(f, A):
    """M_A f as the maximal operator made it with one Luxemburg call: one
    pass of block means for the Jensen bounds, their min over each cube as
    its floor (scope_min), and one call that holds every level's block and
    closes the rows below their floors between its Jensen stage and its
    replay."""
    grid, vals = f.grid, np.abs(f.cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = _spread(grid, False, block_mean, vals) / A.inverse_one
    within = tuple(range(1, 2 * grid.n, 2))
    levels = list(scope_blocks(grid, False, vals))
    stacks = [young.luxemburg_jensen(x, m, A) for _, m, x in levels]
    stacks = [(norms, young.luxemburg_close(
        norms, rows, bounds.reshape(split).min(axis=within).ravel()))
        for (norms, rows), (split, _, _) in zip(stacks, levels)]
    young.luxemburg_replay(stacks, A)
    out = np.full(grid.shape, -np.inf)
    for (split, _, _), (norms, _) in zip(levels, stacks):
        spread_max(out, split, norms)
    return out


ORACLE_GRIDS = ([Grid(1, (-0.5,), 1.0, L) for L in (5, 6, 7, 8)]
                + [Grid(2, (-0.5, -0.5), 1.0, L) for L in (3, 4, 5, 6, 7)])


@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"{g.n}d-L{g.level}")
def test_scope_luxemburg_level_closures_match_whole_call(grid, monkeypatch):
    # the maximal operator closes its cubes level by level, each level's
    # block dropped before the next: the same cubes close as in one call
    # over every level, and the max has its bits, on all-zero data, data
    # with zero cells, and that data times 2^60 and 2^-60
    rng = np.random.default_rng(grid.level)
    cells = np.where(rng.random(grid.shape) < 0.4, 0.0,
                     rng.standard_normal(grid.shape))
    real, closed = young.luxemburg_close, []

    def spy(norms, rows, floor):
        out = real(norms, rows, floor)
        closed.append(int(np.isneginf(norms).sum()))
        return out

    monkeypatch.setattr(young, "luxemburg_close", spy)
    gauges = [young.lll(1, 1.5), young.llogl(1), young.expl(1),
              young.compose(young.llogl(1), young.power(2))]
    for data in (np.zeros(grid.shape), cells, np.ldexp(cells, 60),
                 np.ldexp(cells, -60)):
        f = GridFunction(grid, data)
        for A in gauges:
            closed.clear()
            got = op.maximal(f, A).cells
            shut = closed[:]
            closed.clear()
            assert got.tobytes() == _whole_call_maximal(f, A).tobytes()
            assert shut == closed
            assert (sum(shut) > 0) == bool(data.any())


@pytest.mark.parametrize("grid,shifted", CASES, ids=IDS)
def test_scope_broadcast_masks_keep_maximal_bits(grid, shifted, monkeypatch):
    # a tiling inside the domain gets a read-only broadcast of 1.0 as its
    # mask, and so does every level of the maximal operator (base lattice:
    # M, M_delta at delta = 1/2 and M_A, its block means and its Jensen
    # stage); it and the weight constants and the BMO norm (with shifted
    # lattices) give the bits they give with every mask a contiguous array
    f, w = _data(grid, 12)
    if shifted:
        runs = [lambda: np.float64(W.weight_constant(w, "Ap", p=2.5)),
                lambda: np.float64(W.weight_constant(w, "A1")),
                lambda: np.float64(W.weight_constant(w, "ApBump", p=2.5,
                                                     C=young.llogl(1))),
                lambda: np.float64(W.bmo_norm(f))]
    else:
        root = GridFunction(f.grid, np.abs(f.cells) ** 0.5)
        runs = [lambda: op.maximal(f).cells,
                lambda: op.maximal(root).cells ** 2.0]
        runs += [lambda A=A: op.maximal(f, A).cells for A in PRUNE_GAUGES]
    want = [run().tobytes() for run in runs]
    real, broadcast = dyadic.scope_blocks, []

    def dense(grid, shifted, *arrays):
        for split, m, *blocks in real(grid, shifted, *arrays):
            broadcast.append(m.strides == (0, 0))
            yield (split, np.array(m), *blocks)

    mean, jensen = op.block_mean, young.luxemburg_jensen

    def dense_mean(mask, values):
        broadcast.append(mask.strides == (0, 0))
        return mean(np.array(mask), values)

    def dense_jensen(values, measures, A):
        broadcast.append(measures.strides == (0, 0))
        return jensen(values, np.array(measures), A)

    if shifted:
        monkeypatch.setattr(W, "scope_blocks", dense)
    else:
        monkeypatch.setattr(op, "block_mean", dense_mean)
        monkeypatch.setattr(young, "luxemburg_jensen", dense_jensen)
    assert [run().tobytes() for run in runs] == want
    # every mask without shifted lattices, and each level's base tiling
    # (one of 1 + 3^n) with them
    assert broadcast
    assert sum(broadcast) * (1 + 3 ** grid.n if shifted else 1) == \
        len(broadcast)


@pytest.mark.parametrize("A", [young.lll(1, 1.5), young.llogl(1.5)],
                         ids=lambda A: f"MA-{format_young(A)}")
def test_maximal_peak_memory_capped(A):
    # plane's endpoint maximal operators on its weight (2D L7, 128 KiB per
    # array) hold one level's block and Jensen state at a time, the floors
    # and the unit-scale values of the open rows: at most 18 times the
    # bytes of their data (15.9 measured).  Every level's blocks and
    # Jensen state held through one Luxemburg call took 21.7; copied
    # masks, outputs made before reduce and full unit-scale copies of
    # every block 52
    grid = Grid(2, (-0.5, -0.5), 1.0, 7)
    w = W.parse_profile("power_abs(0.5)", grid)
    data = w.cells.nbytes
    want = op.maximal(w, A).cells  # and A^-1(1) cached
    tracemalloc.start()
    try:
        got = op.maximal(w, A).cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 18 * data


@pytest.mark.parametrize("A", [young.lll(1, 1.5), young.llogl(1.5)],
                         ids=format_young)
def test_scope_luxemburg_evaluations_per_cell_on_plane_endpoint(A,
                                                                 monkeypatch):
    # plane's endpoint maximal operator on its weight (2D L7, base
    # lattice): 21845 cubes over 131072 cells.  Without floors every cube
    # took 6.33 (lll) and 6.69 (llogl) gauge values per cell
    grid = Grid(2, (-0.5, -0.5), 1.0, 7)
    w = W.parse_profile("power_abs(0.5)", grid)
    A.inverse_one  # its bisection evaluates A outside the norms
    count, real = [0], young.YoungFunction._eval_raw

    def counting(self, t):
        count[0] += np.size(t)
        return real(self, t)

    monkeypatch.setattr(young.YoungFunction, "_eval_raw", counting)
    op.maximal(w, A)
    assert count[0] <= 4.5 * (grid.level + 1) * 4 ** grid.level

@pytest.mark.parametrize("grid,shifted", BASE_CASES, ids=BASE_IDS)
def test_maximal_variants_match_brute_force(grid, shifted):
    f, _ = _data(grid, 3)
    v = np.abs(f.cells)
    A = young.llogl(1)

    def mean(sl):
        return float(v[sl].mean())

    def orlicz(sl):
        return young.luxemburg_norm(v[sl].ravel(), np.ones(v[sl].size), A)

    def delta_mean(sl):
        return float((v[sl] ** 0.5).mean())

    cases = [
        (op.maximal(f).cells, _pointwise(grid, False, mean)),
        (op.maximal(f, A).cells, _pointwise(grid, False, orlicz)),
        (op.maximal(GridFunction(grid, v ** 0.5)).cells ** 2.0,
         _pointwise(grid, False, delta_mean) ** 2.0),
    ]
    for got, want in cases:
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("grid", GRIDS + [Grid(2, (-0.5, -0.5), 1.0, 7)],
                         ids=["1d-L5", "2d-L3", "2d-L7"])
def test_maximal_power_gauges_keep_block_mean_bits(grid, delta):
    # M f is maximal(f), and M_delta f = M(|f|^delta)^(1/delta) is maximal
    # of |f|^delta to the 1/delta: both keep the bits of the block means
    # over the base lattice, and a power gauge t^r those of M(|f|^r)^(1/r)
    f, _ = _data(grid, 9)
    v = np.abs(f.cells)
    got = [op.maximal(GridFunction(grid, v ** delta)).cells ** (1.0 / delta),
           op.maximal(f, young.power(1.0 / delta)).cells]
    want = [_spread(grid, False, block_mean, v ** delta) ** (1.0 / delta),
            _spread(grid, False, block_mean, v ** (1.0 / delta)) ** delta]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    if delta == 1.0:
        assert op.maximal(f).cells.tobytes() == \
            _spread(grid, False, block_mean, v).tobytes()


@pytest.mark.parametrize("grid,shifted", FULL_CASES, ids=FULL_IDS)
def test_weight_constants_and_bmo_match_brute_force(grid, shifted):
    f, w = _data(grid, 4)
    p = 2.5
    C = young.llogl(1)
    dual = w.cells ** (-1.0 / (p - 1.0))
    bump = w.cells ** (-1.0 / p)

    def ap(sl):
        return float(w.cells[sl].mean()) * float(dual[sl].mean()) ** (p - 1.0)

    def ap_bump(sl):
        nrm = young.luxemburg_norm(bump[sl].ravel(), np.ones(bump[sl].size), C)
        return float(w.cells[sl].mean()) * nrm ** p

    def osc(sl):
        return float(np.abs(f.cells[sl] - f.cells[sl].mean()).mean())

    def mean_w(sl):
        return float(w.cells[sl].mean())

    assert W.weight_constant(w, "Ap", p=p) == \
        pytest.approx(_sup(grid, shifted, ap), rel=1e-12)
    assert W.weight_constant(w, "A1") == pytest.approx(
        float((_pointwise(grid, shifted, mean_w) / w.cells).max()), rel=1e-12)
    assert W.weight_constant(w, "ApBump", p=p, C=C) == \
        pytest.approx(_sup(grid, shifted, ap_bump), rel=1e-10)
    assert W.bmo_norm(f) == \
        pytest.approx(_sup(grid, shifted, osc), rel=1e-12)


def _a1_tables(grid):
    """Weights for the A1 tests: lognormal at sigma 0.3 and 3, one with a
    cell of 1e-300, and each of them times 2^60 and 2^-60."""
    rng = np.random.default_rng(grid.n * 16 + grid.level)
    tables = [rng.lognormal(0.0, sigma, grid.shape) for sigma in (0.3, 3.0)]
    tiny = rng.lognormal(0.0, 1.0, grid.shape)
    tiny.flat[rng.integers(tiny.size)] = 1e-300
    tables.append(tiny)
    return [np.ldexp(t, e) for t in tables for e in (0, 60, -60)]


A1_GRIDS = ([Grid(1, (-0.5,), 1.0, L) for L in range(1, 11)]
            + [Grid(2, (-0.5, -0.5), 1.0, L) for L in range(1, 7)])


@pytest.mark.parametrize("grid", A1_GRIDS, ids=lambda g: f"{g.n}d-L{g.level}")
def test_a1_per_cube_keeps_per_cell_bits(grid):
    # A1 is max_Q avg_Q w / min over Q's domain cells of w; rounded division
    # is monotone in each argument, so it has the bits of max_x M w(x) / w(x)
    # with M w spread to the cells, level by level through the frames
    for cells in _a1_tables(grid):
        w = GridFunction(grid, cells)
        want = (_spread(grid, True, block_mean, cells) / cells).max()
        assert np.float64(W.weight_constant(w, "A1")).tobytes() == \
            want.tobytes()


@pytest.mark.parametrize("grid", [Grid(1, (-0.5,), 1.0, 7),
                                  Grid(2, (-0.5, -0.5), 1.0, 4)],
                         ids=["1d-L7", "2d-L4"])
def test_a1_and_bmo_exact_under_power_of_two_scaling(grid):
    # sums, means, minima and their quotients commute with a power of two:
    # A1 is the same under w -> 2^k w, the BMO norm scales by 2^k
    rng = np.random.default_rng(grid.level)
    w = rng.lognormal(0.0, 2.0, grid.shape)
    b = rng.standard_normal(grid.shape)
    a1 = W.weight_constant(GridFunction(grid, w), "A1")
    bmo = W.bmo_norm(GridFunction(grid, b))
    for k in (-60, -7, 1, 60):
        assert W.weight_constant(GridFunction(grid, np.ldexp(w, k)),
                                 "A1") == a1
        assert W.bmo_norm(GridFunction(grid, np.ldexp(b, k))) == \
            np.ldexp(bmo, k)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d-L5", "2d-L3"])
def test_bmo_norm_of_nan_cell_is_nan(grid):
    # a NaN anywhere gives NaN, as the max over every cell does, wherever
    # the cell lies and whichever tiling meets it first
    b = np.random.default_rng(2).standard_normal(grid.shape)
    for at in (0, b.size // 2 + 1, b.size - 1):
        c = b.copy()
        c.flat[at] = np.nan
        assert np.isnan(W.bmo_norm(GridFunction(grid, c)))


@pytest.mark.parametrize("kind,cap", [("A1", 115), ("Ap", 170),
                                      ("BMO", 115)])
def test_weight_constants_peak_memory_capped(kind, cap):
    # at 2D L7 (128 KiB of data) one level's frames and one tiling's blocks
    # live at a time, and nothing is spread back to the cells: A1 and the
    # BMO norm hold 108 times the data, Ap 163 (the coarse levels' zero
    # frames of (6N)^2 cells and their masks)
    grid = Grid(2, (-0.5, -0.5), 1.0, 7)
    w = GridFunction(grid, np.random.default_rng(7).lognormal(0.0, 1.0,
                                                              grid.shape))
    run = {"A1": lambda: W.weight_constant(w, "A1"),
           "Ap": lambda: W.weight_constant(w, "Ap", p=2.5),
           "BMO": lambda: W.bmo_norm(w)}[kind]
    want = run()
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= cap * w.cells.nbytes


@pytest.mark.parametrize("sigma", [1.0, 3.0])
@pytest.mark.parametrize("grid,shifted", FULL_CASES, ids=FULL_IDS)
def test_fujii_wilson_matches_brute_force(grid, shifted, sigma):
    rng = np.random.default_rng(5)
    w = GridFunction(grid, rng.lognormal(0.0, sigma, grid.shape))

    def ratio(sl):
        # w(Q)^-1 int_Q M(w chi_Q), with the maximal operator on the grid
        # over the same scope
        chi = np.zeros(grid.shape)
        chi[sl] = w.cells[sl]
        m = _pointwise(grid, shifted, lambda s: float(chi[s].mean()))
        return float(m[sl].sum()) / float(w.cells[sl].sum())

    assert W.weight_constant(w, "AinfFW") == \
        pytest.approx(_sup(grid, shifted, ratio), rel=1e-12)
    one = GridFunction(grid, np.ones(grid.shape))
    assert W.weight_constant(one, "AinfFW") == 1.0



def _fujii_wilson_per_cell(w):
    """The per-cell pass that the cube-pair pass of weights._fujii_wilson
    replaced, kept as its reference: every (Q tiling, cell) pair is one
    copy of the cells, and each R tiling updates its running max with
    w(Q n R) / |R|, read from _window_sums at level max(level Q, level R).
    """
    grid = w.grid
    n, L, N = grid.n, grid.level, grid.cells_per_side
    sums, offsets = W._window_sums(w)
    cells = np.indices(grid.shape).reshape(n, -1)
    qlo, qhi, qlev, qid = [], [], [], []
    nq = 0
    for k in range(L + 1):
        for side, origin in scope_tilings(grid, k, True):
            o = np.array(origin)[:, None]
            q = (cells - o) // side
            counts = [-(-(N - c) // side) for c in origin]
            lo = o + q * side
            qlo.append(np.maximum(lo, 0))
            qhi.append(np.minimum(lo + side, N))
            qlev.append(np.full(cells.shape[1], k))
            qid.append(nq + np.ravel_multi_index(q, counts))
            nq += int(np.prod(counts))
    reps = len(qid)
    x = np.tile(cells, reps)
    qlo, qhi = np.concatenate(qlo, axis=1), np.concatenate(qhi, axis=1)
    qlev, qid = np.concatenate(qlev), np.concatenate(qid)
    best = np.zeros(qid.size)
    for k in range(L + 1):
        j = np.maximum(qlev, k)
        shift, base, c = L - j, offsets[j], 1 << j
        for side, origin in scope_tilings(grid, k, True):
            o = np.array(origin)[:, None]
            rlo = o + (x - o) // side * side
            rhi = np.minimum(rlo + side, N)
            rlo = np.maximum(rlo, 0)
            lo = np.maximum(qlo, rlo) >> shift
            span = (np.minimum(qhi, rhi) >> shift) - lo - 1
            pos, win = 0, 0
            for ax in range(n):
                pos, win = pos * c + lo[ax], win * 3 + span[ax]
            val = sums[base + win * c ** n + pos] / np.prod(rhi - rlo, axis=0)
            np.maximum(best, val, out=best)
    num = np.bincount(qid, weights=best)
    den = np.bincount(qid, weights=np.tile(w.cells.ravel(), reps))
    return float((num / den).max())


def test_fujii_wilson_bitwise_per_cell_reference():
    # the cube-pair pass skips R levels <= level Q - 2 and chunks its Q
    # tilings; neither may move a bit of the per-cell pass
    grids = [Grid(1, (-0.5,), 1.0, L) for L in range(1, 9)]
    grids += [Grid(2, (-0.5, -0.5), 1.0, L) for L in range(1, 5)]
    for grid in grids:
        rng = np.random.default_rng(grid.n * 16 + grid.level)
        tables = [rng.lognormal(0.0, s, grid.shape) for s in (0.5, 1, 3, 8)]
        tables += [np.exp(rng.uniform(-300.0, 300.0, grid.shape)),
                   W.parse_profile("power_abs(0.5)", grid).cells,
                   np.ones(grid.shape)]
        for cells in tables:
            w = GridFunction(grid, cells)
            assert W.weight_constant(w, "AinfFW") == \
                _fujii_wilson_per_cell(w), grid


def test_fujii_wilson_peak_memory_capped():
    # the pass works in chunks of Q tilings, so its scratch stays a few
    # (Q tiling, cell) arrays: 7.4 MiB here, 62 MiB for the per-cell pass
    grid = Grid(2, (-0.5, -0.5), 1.0, 6)
    w = GridFunction(grid, np.random.default_rng(6).lognormal(0.0, 1.0,
                                                              grid.shape))
    tracemalloc.start()
    try:
        W.weight_constant(w, "AinfFW")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
