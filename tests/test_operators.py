"""Kernels, operator application, commutators, maximal operators and the
annulus smoothness estimate."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from sparsedom import operators as op
from sparsedom import young
from sparsedom.dyadic import (BASE, Cube, Grid, GridFunction, base_cubes,
                              cube_slices, dilate, is_clipped)
from sparsedom.frozen import FROZEN
from sparsedom.weights import parse_profile, weight_constant

from oracles import (commutator_recursive, descendants, evaluate,
                     grid_function, triple)


def test_hilbert_pointwise():
    K = op.make_hilbert()
    assert evaluate(K, 2.0, 0.0) == 0.5
    assert evaluate(K, 0.0, 2.0) == -0.5
    assert evaluate(K, 1.0, 1.0) == 0.0


def test_counter_radial_arithmetic():
    # at t = 1/e the inner height is 1/((1/e) * 2^2) = e/4
    k = op.counter_radial(2.0, 1.0)
    u = math.e / 4.0
    expect = u ** 0.5 / math.log(math.e + u)
    assert float(k(1.0 / math.e)) == pytest.approx(expect, rel=1e-12)
    assert float(k(1.5)) == 0.0
    assert float(k(0.0)) == 0.0
    ts = np.linspace(0.01, 0.99, 50)
    assert np.all(k(ts) >= 0.0)


def test_counter_kernel_support():
    K = op.make_counter(2.0, 1.0, eta=4.0)
    u = np.array([2.0, 3.5, 4.5, 5.5])
    vals = evaluate(K, u, np.zeros(4))
    assert vals[0] == 0.0 and vals[3] == 0.0
    assert vals[1] > 0.0 and vals[2] > 0.0


def test_make_counter_rejects_bad_params():
    with pytest.raises(op.OperatorError):
        op.make_counter(1.0, 1.0)
    with pytest.raises(op.OperatorError):
        op.make_counter(2.0, 0.0)


def test_parse_kernel_grammar(tmp_path):
    assert op.parse_kernel("hilbert").family == "hilbert"
    K = op.parse_kernel("dini(omega=power(0.5),ck=2)")
    assert K.params == {"delta": 0.5, "c_k": 2.0}
    K = op.parse_kernel("counter(r=2,beta=1,eta=4)")
    assert K.params["eta"] == 4.0
    # `name` and `name()` are one literal
    assert op.parse_kernel("hilbert()").family == "hilbert"
    # every kernel is a convolution kernel: a cell matrix is no family
    path = tmp_path / "m.csv"
    np.savetxt(path, np.eye(4), delimiter=",")
    for bad in (f"matrix(path={path})", "sobolev", "dini(omega=exp(1))",
                "homog()", "dini(0.5)",
                "dini(omega=power(0.5),ck=1,delta=0.3)",
                "counter(r=2,zeta=1)", "dini(omega=power(0.5,1))",
                "dini(ck=1,ck=2)", "counter(r=inf)", "hilbert+1"):
        with pytest.raises(op.OperatorError):
            op.parse_kernel(bad)


def test_homog_requires_mean_zero():
    with pytest.raises(op.OperatorError):
        op.make_homog(np.ones(8))
    K = op.make_homog(np.cos(np.arange(8) * math.pi / 4))
    assert K.n == 2


def test_homog_rejects_non_finite_samples():
    # their mean is NaN, which no mean-zero comparison catches
    for bad in ([1.0, np.nan, -1.0, 0.0], [np.inf, -np.inf, 0.0, 0.0]):
        with pytest.raises(op.OperatorError, match="finite"):
            op.make_homog(bad)


def _homog_where(om):
    """make_homog's profile as one expression of new arrays: the oracle
    the in-place evaluation is tested against."""
    M = len(om)
    theta = np.arange(M + 1) * (2 * math.pi / M)
    omp = np.concatenate([om, om[:1]])

    def conv(u1, u2, h):
        rho2 = u1 * u1 + u2 * u2
        ang = np.mod(np.arctan2(u2, u1), 2 * math.pi)
        omv = np.interp(ang, theta, omp)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rho2 == 0.0, 0.0,
                            omv / np.where(rho2 == 0.0, 1.0, rho2))
    return conv


@pytest.mark.parametrize("L", (5, 7))
def test_homog_profile_bitwise_reference(L):
    # the angle reduced in place, the interpolated table divided in place
    # by rho2 with its zero cells set to 1 and then zeroed: the bits of
    # the np.where expression, on the profile and at u = 0 and on both
    # axes, where the angle is +-0 or +-pi
    om = _asymmetric_table()
    K, want = op.make_homog(om), _homog_where(om)
    grid = Grid(2, (-0.5, -0.5), 1.0, L)
    N, h = grid.cells_per_side, grid.cell_width
    d = np.arange(-(N - 1), N) * h
    ref = want(d[:, None], d[None, :], h)
    ref[N - 1, N - 1] = 0.0  # the singular center
    assert K.profile(grid).tobytes() == ref.tobytes()
    axis = np.array([-1.0, -0.0, 0.0, 0.5, 3.0]) * h
    for u1, u2 in ((axis[:, None], axis[None, :]),
                   (axis[None, :], axis[:, None])):
        assert K.conv(u1, u2, h).tobytes() == want(u1, u2, h).tobytes()
    for x in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, h), (-h, -0.0)):
        got = evaluate(K, x, (0.0, 0.0), h)
        assert got.tobytes() == want(*map(np.asarray, x), h).tobytes(), x


def test_constant_kernel_integrates(sym_grid):
    kone = op.Kernel("one", 1, False, conv=lambda u, h: np.ones_like(u))
    f = grid_function(sym_grid, lambda x: x ** 2)
    tf = op.apply_operator(kone, f).cells
    total = f.cells.sum() * sym_grid.cell_volume
    assert np.allclose(tf, total)


def test_hilbert_log_value():
    # T(chi_[0,1])(2) = log 2
    grid = Grid(1, (0.0,), 4.0, 12)
    f = grid_function(grid, lambda x: (x < 1.0).astype(float))
    tf = op.apply_operator(op.make_hilbert(), f)
    i = int(2.0 / grid.cell_width)
    assert tf.cells[i] == pytest.approx(math.log(2.0), rel=0.01)


def test_odd_kernel_exact_antisymmetry(sym_grid):
    f = grid_function(sym_grid, lambda x: np.exp(-x ** 2))
    out = op.apply_operator(op.make_hilbert(), f).cells
    assert np.array_equal(out, -out[::-1])


def test_odd_kernel_exact_antisymmetry_across_chunks():
    # at L=12 a Toeplitz block spans many chunks, so both halves of _pair's
    # T are FFT products; negating the profile must negate every bit
    grid = Grid(1, (-0.5,), 1.0, 12)
    assert op._CHUNK // (grid.cells_per_side - 1) < grid.cells_per_side // 8
    f = grid_function(grid, lambda x: np.exp(-x ** 2))
    for K in (op.make_hilbert(), op.make_dini()):
        out = op.apply_operator(K, f).cells
        assert np.array_equal(out, -out[::-1])


@pytest.mark.parametrize("L", (3, 5, 7))
def test_odd_kernel_exact_antisymmetry_2d(L, rng):
    # the Riesz kernel u1 / |u|^3 is exactly odd in floating point
    def conv(u1, u2, h):
        rho2 = u1 * u1 + u2 * u2
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rho2 == 0.0, 0.0, u1 / rho2 ** 1.5)
    K = op.Kernel("riesz", 2, True, conv=conv)
    grid = Grid(2, (-0.5, -0.5), 1.0, L)
    g = rng.standard_normal(grid.shape)
    out = op.apply_operator(K, GridFunction(grid, g + g[::-1, ::-1])).cells
    assert np.array_equal(out, -out[::-1, ::-1])
    adj = op._pair(K, grid)[1](g + g[::-1, ::-1])
    assert np.array_equal(adj, -out)


def _random_conv_kernel(N, rng, one_sided=False):
    """A non-symmetric convolution kernel: an independent random value at
    every displacement of a grid with N cells, or, one-sided, at every
    displacement >= 1 and zero at every displacement <= 0."""
    table = rng.standard_normal(2 * N - 1)
    if one_sided:
        table[:N] = 0.0

    def conv(u, h):
        return table[np.rint(np.asarray(u) / h).astype(int) + N - 1]
    return op.Kernel("random one-sided" if one_sided else "random", 1,
                     False, conv=conv)


def _conv_kernels(L, rng):
    """The 1D convolution kernels at level L, each with its grid; counter
    and the one-sided random kernel vanish at every displacement <= 0."""
    unit = Grid(1, (-0.5,), 1.0, L)
    N = 1 << L
    return [(op.make_hilbert(), unit), (op.make_dini(), unit),
            (op.make_counter(), Grid(1, (-6.0,), 12.0, L)),
            (_random_conv_kernel(N, rng), Grid(1, (0.0,), 1.0, L)),
            (_random_conv_kernel(N, rng, one_sided=True),
             Grid(1, (0.0,), 1.0, L))]


def _oracle_kernels(L, rng):
    """The 1D convolution kernels at level L and at L <= 5 a 2D homogeneous
    kernel with an asymmetric angular part (2D products are all FFT
    products)."""
    out = _conv_kernels(L, rng)
    if L <= 5:
        out.append((op.make_homog(_asymmetric_table()),
                    Grid(2, (-0.5, -0.5), 1.0, L)))
    return out


def _dense(K, grid):
    """The matrix K(x_i, y_j) |cell| over the cells in row-major order,
    evaluated at the exact lattice displacements (i - j) h."""
    h = grid.cell_width
    idx = np.indices(grid.shape).reshape(grid.n, -1)
    u = [np.subtract.outer(i, i) * h for i in idx]
    D = np.asarray(K.conv(*u, h), dtype=float)
    if K.singular:
        np.fill_diagonal(D, 0.0)
    return D * grid.cell_volume


@pytest.mark.parametrize("L", (3, 4, 5, 6, 7, 8))
def test_apply_and_adjoint_match_dense_matrix(L, rng):
    for K, grid in _oracle_kernels(L, rng):
        D = _dense(K, grid)
        f = rng.standard_normal(grid.shape)
        fv = f.ravel()
        tol = 1e-13 * float((np.abs(D) @ np.abs(fv)).max())
        got = op.apply_operator(K, GridFunction(grid, f)).cells.ravel()
        assert np.abs(got - D @ fv).max() <= tol, K.family
        tol = 1e-13 * float((np.abs(D.T) @ np.abs(fv)).max())
        adj = op._pair(K, grid)[1](f).ravel()
        assert np.abs(adj - D.T @ fv).max() <= tol, K.family


def test_operator_norm_l2_matches_dense_power_iteration(rng):
    for K, grid in _oracle_kernels(6, rng):
        D = _dense(K, grid)
        v = np.random.default_rng(12345).standard_normal(grid.shape)
        v /= np.linalg.norm(v)
        for _ in range(20):
            w = D.T @ (D @ v)
            sigma = math.sqrt(abs(float(v @ w)))
            v = w / np.linalg.norm(w)
        assert op.operator_norm_l2(K, grid) == pytest.approx(sigma,
                                                             rel=1e-10)


def _convolve(kprof, cells):
    """sum_j kprof[N-1+i-j] cells[j], without the cell volume, as K(0) f
    + H(K, f) + R H(RK, Rf): each half a _toeplitz_product of the profile
    zeroed up to its center, the reversed half on the reversed cells."""
    flip = (slice(None, None, -1),) * cells.ndim
    zero = (0,) * cells.ndim

    def half(kp, c):
        kz = kp.copy()
        kz.flat[:kz.size // 2 + 1] = 0.0
        return op._toeplitz_product(kz, c.shape, zero, c.shape)(
            np.ascontiguousarray(c)[None])[0]
    out = kprof.flat[kprof.size // 2] * cells + half(kprof, cells)
    out += half(kprof[flip], cells[flip])[flip]
    return out


def _power_loop(K, grid):
    """operator_norm_l2 as 20 power iterations of apply_operator then T*,
    with T* the convolution with the profile reversed along every axis,
    evaluated and prepared anew at each step."""
    v = np.random.default_rng(12345).standard_normal(grid.shape)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(20):
        tv = op.apply_operator(K, GridFunction(grid, v)).cells
        w = _convolve(K.profile(grid)[(slice(None, None, -1),) * grid.n], tv)
        w = w * grid.cell_volume
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(float(np.abs((v * w).sum())))
        v = w / nw
    return sigma


def _l2_cases(rng):
    """1D convolution kernels at L = 6, 7 (dense products) and 8, 10 (FFT
    products) and the 2D homogeneous kernel at L = 3, 4."""
    for L in (6, 7, 8, 10):
        yield from _conv_kernels(L, rng)
    for L in (3, 4):
        yield (op.make_homog(_asymmetric_table()),
               Grid(2, (-0.5, -0.5), 1.0, L))


def test_operator_norm_l2_bitwise_power_loop(rng, monkeypatch):
    # the prepared products of T and T* give every bit of the loop that
    # applies the operator anew, with one profile evaluation per call
    real = op.Kernel.profile
    for K, grid in _l2_cases(rng):
        want = _power_loop(K, grid)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(op.Kernel, "profile",
                       lambda self, g: calls.append(g) or real(self, g))
            got = op.operator_norm_l2(K, grid)
        case = (K.family, grid.n, grid.level)
        assert got.hex() == want.hex(), case
        assert len(calls) == 1, case


def _toeplitz_rows_full(kprof, G, d, rows):
    """A reference 1D chunk loop with no trim: every chunk copies out and
    multiplies the full block width, zero columns included."""
    N = (kprof.shape[0] + 1) // 2
    (d,), (rows,) = d, rows
    width = G.shape[1]
    win = sliding_window_view(kprof[::-1], width)
    step = max(1, op._CHUNK // width)
    out = np.empty((G.shape[0], rows))
    for t0 in range(0, rows, step):
        t1 = min(t0 + step, rows)
        blk = np.ascontiguousarray(win[N - d - t1:N - d - t0][::-1])
        out[:, t0:t1] = G @ blk.T
    return out


def _against_full_width(L, rng, monkeypatch):
    """(case, trimmed, full) for each 1D convolution kernel at level L and
    its reversed profile: T and T* of _pair, and _toeplitz_product on the
    products of the truncation maximal operator on the root cube (the base
    product, then every level's windows of 3s cells starting s cells
    early)."""
    N = 1 << L
    for K, grid in _conv_kernels(L, rng):
        kprof = K.profile(grid)
        for side, (name, kp) in enumerate((
                (K.family, kprof),
                (K.family + " reversed", kprof[::-1].copy()))):
            f = rng.standard_normal(N)
            with monkeypatch.context() as mp:
                # _pair's halves are prepared products: the reference
                # applies the same zeroed profiles at full width
                mp.setattr(op, "_toeplitz_product",
                           lambda kz, window, d, rows: lambda G:
                           _toeplitz_rows_full(kz, G, d, rows))
                want = op._pair(K, grid)[side](f)
            yield name + " _pair", op._pair(K, grid)[side](f), want
            shapes = [((1, N), 0, N)] + [((N >> k, 3 << k), 1 << k, 1 << k)
                                         for k in range(L)]
            for shape, d, rows in shapes:
                G = rng.standard_normal(shape)
                yield (f"{name} d={d}",
                       op._toeplitz_product(kp, G.shape[1:], (d,), (rows,))(G),
                       _toeplitz_rows_full(kp, G, (d,), (rows,)))


@pytest.mark.parametrize("L", (3, 4, 5, 6, 7))
def test_toeplitz_rows_bitwise_full_width_at_one_chunk(L, rng, monkeypatch):
    # one chunk spans all rows up to L = 7, where the one-sided trim of
    # _pair's halves is the same product as before: constants_unit's L6
    # table hash rests on this
    for case, got, want in _against_full_width(L, rng, monkeypatch):
        assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize("L", (8, 10, 12))
def test_toeplitz_rows_match_full_width(L, rng, monkeypatch):
    # blocks beyond one chunk are FFT products, rounded apart from the
    # chunked dense loop of the reference by a few ulps of the output max
    for case, got, want in _against_full_width(L, rng, monkeypatch):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), case


def _split_products(rng):
    """(case, kprof, G, s, w): dense products of the truncation maximal
    operator's shape (windows of 3s cells starting s cells early, s rows)
    for each 1D convolution kernel at L = 8, with the fewest data rows
    that pass _GEMM_ONE_THREAD and with four times as many; w is the block
    width after the one-sided trim."""
    for K, grid in _conv_kernels(8, rng):
        kprof = K.profile(grid)
        one_sided = not kprof[:grid.cells_per_side].any()
        for s in (32, 64):
            w = (2 if one_sided else 3) * s
            least = op._GEMM_ONE_THREAD // (w * s) + 1
            for m in (least, 4 * least):
                yield (f"{K.family} s={s} m={m}", kprof,
                       rng.standard_normal((m, 3 * s)), s, w)


def test_toeplitz_rows_split_keeps_every_bit(rng, monkeypatch):
    # a dense product past OpenBLAS's one-thread bound goes to BLAS in
    # runs of rows; each run must stay under the bound and on the whole
    # product's kernel (more than one row, more than 1200 outputs), so
    # the result is the unsplit product's, bit for bit
    runs = []
    matmul = np.matmul

    def spy(a, b, out=None):
        runs.append((a.shape[0], a.shape[1], b.shape[1]))
        return matmul(a, b, out=out)
    monkeypatch.setattr(np, "matmul", spy)
    for case, kprof, G, s, w in _split_products(rng):
        runs.clear()
        got = op._toeplitz_product(kprof, G.shape[1:], (s,), (s,))(G)
        N = (kprof.shape[0] + 1) // 2
        win = sliding_window_view(kprof[::-1], 3 * s)
        blk = np.ascontiguousarray(win[N - 2 * s:N - s, :w][::-1])
        want = G[:, :w] @ blk.T
        assert got.tobytes() == want.tobytes(), case
        assert len(runs) >= 2 and sum(r[0] for r in runs) == len(G), case
        for rows, width, cols in runs:
            assert (width, cols) == (w, s), case
            assert rows * width * cols <= op._GEMM_ONE_THREAD, case
            assert rows >= 4 and rows * cols > 1200, case
        fft = op._fft_product(kprof, G.shape[1:], (s,), (s,))(G)
        assert np.abs(fft - got).max() <= 1e-13 * np.abs(got).max(), case


def _fft_product_rfftn(kprof, window, d, rows):
    """_fft_product as one rfftn of the segment and of the data, a product
    and one irfftn of every row, then the kept rows cut out: the oracle
    the staged, in-place transforms are tested against."""
    N = (kprof.shape[0] + 1) // 2
    seg = kprof[tuple(slice(N + e - w, N - 1 + e + r)
                      for e, w, r in zip(d, window, rows))]
    P = tuple(1 << (w + r - 2).bit_length() for w, r in zip(window, rows))
    axes = tuple(range(1, len(window) + 1))
    spectrum = np.fft.rfftn(seg[None], P, axes=axes)
    keep = (slice(None),) + tuple(slice(w - 1, w - 1 + r)
                                  for w, r in zip(window, rows))

    def apply(G):
        prod = np.fft.rfftn(G, P, axes=axes)
        prod *= spectrum
        return np.fft.irfftn(prod, P, axes=axes)[keep]
    return apply


def _fft_product_cases(rng):
    """(case, kprof, window, d, rows): _pair's halves (the profile zeroed
    up to its center, and zeroed from it on and reversed; d = 0, rows the
    window) and the truncation operator's windows (d = s, 3s cells, s
    rows; on a clipped 3Q0, 2s cells from d = s or 0), for 1D kernels at
    L = 8 and the 2D homogeneous kernel at L = 5."""
    cases = [(K, grid) for K, grid in _conv_kernels(8, rng)[:3]]
    cases.append((op.make_homog(_asymmetric_table()),
                  Grid(2, (-0.5, -0.5), 1.0, 5)))
    for K, grid in cases:
        n, N = grid.n, grid.cells_per_side
        kprof = K.profile(grid)
        mid = kprof.size // 2
        kz, kr = kprof.copy(), kprof.copy()
        kz.flat[:mid + 1] = 0.0
        kr.flat[mid:] = 0.0
        flip = (slice(None, None, -1),) * n
        for name, kp in (("half", kz), ("reversed half", kr[flip])):
            yield f"{K.family} {name}", kp, grid.shape, (0,) * n, grid.shape
        for s in (1, 4, N // 4, N // 2):
            yield (f"{K.family} s={s}", kprof, (3 * s,) * n, (s,) * n,
                   (s,) * n)
        s = N // 4
        yield (f"{K.family} clipped s={s}", kprof,
               (2 * s,) + (3 * s,) * (n - 1), (0,) + (s,) * (n - 1), (s,) * n)


def test_fft_product_bitwise_rfftn_reference(rng):
    # rfft and irfft in 1D; in 2D the rfft into one zeroed buffer, the
    # fft and ifft of the first axis in place and the irfft of the kept
    # rows only: the bytes of rfftn, a product and a full irfftn, for 1,
    # 2 and 5 data rows
    for case, kp, window, d, rows in _fft_product_cases(rng):
        got_fn = op._fft_product(kp, window, d, rows)
        want_fn = _fft_product_rfftn(kp, window, d, rows)
        for m in (1, 2, 5):
            G = rng.standard_normal((m,) + window)
            got, want = got_fn(G), want_fn(G)
            assert got.shape == want.shape, (case, m)
            assert got.tobytes() == want.tobytes(), (case, m)


@pytest.mark.parametrize("L", (8, 9, 10, 11, 12))
def test_fft_product_reads_window_views_in_place(L, rng):
    # the truncation operator's windows, (H,) + cubes + window views of a
    # frame that overlap by 2s cells, go to the product as they are: 1D
    # rows written into one zeroed buffer, multiplied row by row and
    # inverted back into it, and the 2D product's staged transforms, give
    # the bytes of rfftn, a broadcast product and irfftn on a contiguous
    # copy
    N = 1 << L
    grid = Grid(1, (-0.5,), 1.0, L)
    for K in (op.make_hilbert(), op.make_dini()):
        kprof = K.profile(grid)
        for s in (N // 2, N // 8, 128):
            c = N // s
            for H in (1, 3):
                frame = rng.standard_normal((H, 2 * N))
                st = frame.strides
                G = np.ndarray((H, c, 3 * s), float, frame,
                               (N // 2 - s) * st[1], (st[0], s * st[1], st[1]))
                got = op._fft_product(kprof, (3 * s,), (s,), (s,))(G)
                want = _fft_product_rfftn(kprof, (3 * s,), (s,), (s,))(
                    np.ascontiguousarray(G).reshape(-1, 3 * s))
                assert got.shape == (H, c, s), (K.family, s, H)
                assert got.tobytes() == want.reshape(got.shape).tobytes(), \
                    (K.family, s, H)
    if L == 8:
        grid = Grid(2, (-0.5, -0.5), 1.0, 5)
        kprof = op.make_homog(_asymmetric_table()).profile(grid)
        s, c = 4, 8
        frame = rng.standard_normal((2, 64, 64))
        st = frame.strides
        G = np.ndarray((2, c, c, 3 * s, 3 * s), float, frame,
                       (16 - s) * (st[1] + st[2]),
                       (st[0], s * st[1], s * st[2], st[1], st[2]))
        window, d = (3 * s,) * 2, (s,) * 2
        got = op._fft_product(kprof, window, d, d)(G)
        want = _fft_product_rfftn(kprof, window, d, d)(
            np.ascontiguousarray(G).reshape((-1,) + window))
        assert got.shape == (2, c, c, s, s)
        assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_apply_operator_linear(sym_grid, rng):
    K = op.make_dini()
    a = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    comb = GridFunction(sym_grid, 2.0 * a.cells - 3.0 * b.cells)
    lhs = op.apply_operator(K, comb).cells
    rhs = 2.0 * op.apply_operator(K, a).cells \
        - 3.0 * op.apply_operator(K, b).cells
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_apply_windowed_matches_restriction(sym_grid, rng):
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    insl = (slice(8, 24),)
    outsl = (slice(40, 56),)
    restricted = np.zeros(sym_grid.shape)
    restricted[insl] = f.cells[insl]
    full = op.apply_operator(K, GridFunction(sym_grid, restricted)).cells
    win = op.apply_windowed(K, f, outsl, insl)
    assert np.allclose(win, full[outsl], rtol=1e-10, atol=1e-12)


def test_operator_norm_l2_hilbert_inequality():
    # the hilbert kernel on a unit grid is the finite Hilbert matrix
    # 1/(i - j), whose norm rises with its size and stays below pi
    # (Montgomery-Vaughan, J. London Math. Soc. 1974); L >= 8 runs the
    # FFT products
    norms = [op.operator_norm_l2(op.make_hilbert(), Grid(1, (-0.5,), 1.0, L))
             for L in (4, 6, 8, 10, 12, 14)]
    assert all(a < b for a, b in zip(norms, norms[1:])), norms
    # 20 power iterations leave the norm about 1.2% low at L = 14
    assert 0.98 * math.pi < norms[-1] < math.pi


def test_operator_norm_l2_identity_like():
    grid = Grid(1, (0.0,), 1.0, 4)
    kone = op.Kernel("one", 1, False, conv=lambda u, h: np.ones_like(u))
    # rank-one averaging operator: norm is 1 (integral against constants)
    assert op.operator_norm_l2(kone, grid) == pytest.approx(1.0, rel=1e-6)


# -- commutators ---------------------------------------------------------------


def test_commutator_order_zero_is_operator(sym_grid, rng):
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = parse_profile("log_abs", sym_grid)
    assert np.array_equal(op.commutator_apply(K, b, 0, f).cells,
                          op.apply_operator(K, f).cells)


def test_commutator_constant_symbol_vanishes(sym_grid, rng):
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = parse_profile("const(3)", sym_grid)
    for m in (1, 2):
        out = op.commutator_apply(K, b, m, f).cells
        assert np.allclose(out, 0.0, atol=1e-12)


def test_commutator_binomial_matches_recursion(rng):
    # hilbert and dini through dense blocks (L = 3) and FFT products (L =
    # 9), the 2D homogeneous kernel through 2D FFT products
    theta = np.arange(64) * (2 * math.pi / 64)
    cases = [(K, Grid(1, (-0.5,), 1.0, L))
             for K in (op.make_hilbert(), op.make_dini()) for L in (3, 9)]
    cases += [(op.make_homog(np.cos(2 * theta)),
               Grid(2, (-0.5, -0.5), 1.0, L)) for L in (3, 5)]
    for K, grid in cases:
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        b = GridFunction(grid, rng.standard_normal(grid.shape))
        for m in (1, 2, 3):
            lhs = op.commutator_apply(K, b, m, f).cells
            rhs = commutator_recursive(K, b, m, f).cells
            scale = max(float(np.abs(rhs).max()), 1.0)
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale, \
                (K.family, grid.level, m)


def test_commutator_center_invariance(sym_grid, rng):
    # the binomial expansion in (b - c) is independent of the center c
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = parse_profile("power_abs(0.5)", sym_grid)
    v0 = op.commutator_apply(K, b, 2, f, center=0.0).cells
    v1 = op.commutator_apply(K, b, 2, f, center=0.7).cells
    assert np.allclose(v0, v1, rtol=1e-9, atol=1e-12)


def _commutator_loop(K, b, m, f, center):
    """commutator_apply as m+1 fresh apply_operator calls, each evaluating
    the profile and preparing its products anew."""
    if m == 0:
        return op.apply_operator(K, f).cells
    bc = b.cells - center
    out = np.zeros(f.grid.shape)
    for h in range(m + 1):
        tf = op.apply_operator(K, GridFunction(f.grid, bc**h * f.cells)).cells
        out += ((-1) ** h) * math.comb(m, h) * bc ** (m - h) * tf
    return out


def test_commutator_apply_prepares_once(rng, monkeypatch):
    # one prepared T serves all m+1 splits, with every bit of the loop
    # that applies the operator anew and one profile evaluation per call
    real = op.Kernel.profile
    for K, grid in _l2_cases(rng):
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        b = GridFunction(grid, rng.standard_normal(grid.shape))
        for m in (0, 1, 2):
            want = _commutator_loop(K, b, m, f, 0.3)
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(op.Kernel, "profile",
                           lambda self, g: calls.append(g) or real(self, g))
                got = op.commutator_apply(K, b, m, f, center=0.3).cells
            case = (K.family, grid.n, grid.level, m)
            assert got.tobytes() == want.tobytes(), case
            assert len(calls) == 1, case


def test_commutator_peak_memory_capped():
    # plane's endpoint_czo input (homog with its seed-0 table cos(2 theta),
    # m = 1, 2D L7): a warm call holds at most 22 times the bytes of f.
    # Its peak is one 2D apply of T: the FFT products transform in place
    # in one buffer and invert only the kept rows, and the profile is made
    # and split in place.  rfftn/irfftn with new arrays, the profile and
    # its two halves as copies, held 26.2 times f
    theta = np.arange(64) * (2 * math.pi / 64)
    K = op.make_homog(np.cos(2 * theta))
    grid = Grid(2, (-0.5, -0.5), 1.0, 7)
    f = parse_profile("indicator(0,0,0.25,0.25)", grid)
    b = parse_profile("log_abs", grid)
    center = float(b.cells.mean())
    want = op.commutator_apply(K, b, 1, f, center).cells
    tracemalloc.start()
    try:
        got = op.commutator_apply(K, b, 1, f, center).cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 22 * f.cells.nbytes, peak / f.cells.nbytes


def test_pair_preparation_peak_memory_capped():
    # preparing plane's endpoint_czo pair (homog, 2D L7) holds at most 12.5
    # times the bytes of an f (12.1 measured; 8.1 stay held): the profile's
    # zeroed copy for the first half is freed before the second half is
    # prepared.  Held through both, it peaked at 16.0
    theta = np.arange(64) * (2 * math.pi / 64)
    K = op.make_homog(np.cos(2 * theta))
    grid = Grid(2, (-0.5, -0.5), 1.0, 7)
    f = parse_profile("indicator(0,0,0.25,0.25)", grid)
    want = op._pair(K, grid)[0](f.cells)
    tracemalloc.start()
    try:
        T, _ = op._pair(K, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T(f.cells).tobytes() == want.tobytes()
    assert peak <= 12.5 * f.cells.nbytes, peak / f.cells.nbytes


def test_commutator_order_range(sym_grid):
    K = op.make_hilbert()
    b = parse_profile("const(0)", sym_grid)
    f = parse_profile("indicator(0,0.25)", sym_grid)
    for m in (-1, 5):
        with pytest.raises(op.OperatorError, match=r"order must be in 0\.\.4"):
            op.commutator_apply(K, b, m, f)
    assert op.commutator_apply(K, b, op.MAX_ORDER, f).cells.shape == \
        sym_grid.shape


# -- maximal operators ---------------------------------------------------------


def test_maximal_constant(unit_grid):
    f = parse_profile("const(2)", unit_grid)
    root = GridFunction(f.grid, np.sqrt(f.cells))
    for out in (op.maximal(f).cells,
                op.maximal(root).cells ** 2.0):  # M_delta, 1/2
        assert np.allclose(out, 2.0, rtol=1e-9)
    # the Orlicz maximal operator rescales a constant by 1 / A^{-1}(1), the
    # same factor on every cell
    ma = op.maximal(f, young.llogl(1)).cells
    assert np.allclose(ma, ma[0], rtol=1e-9)
    assert ma[0] >= 2.0


def test_maximal_indicator_quarter(unit_grid):
    f = parse_profile("indicator(0,0.25)", unit_grid)
    m = op.maximal(f).cells
    assert np.allclose(m[:16], 1.0)
    assert np.allclose(m[16:32], 0.5)
    assert np.allclose(m[32:], 0.25)


def test_maximal_orlicz_dominates_plain(unit_grid, rng):
    # A(t) >= t pointwise forces M f <= M_A f
    f = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    m = op.maximal(f).cells
    ma = op.maximal(f, young.llogl(1)).cells
    assert np.all(m <= ma * (1 + 1e-9))


def test_maximal_power_fast_path(unit_grid, rng):
    f = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    ma = op.maximal(f, young.power(2)).cells
    msq = op.maximal(GridFunction(f.grid, np.square(f.cells))).cells ** 0.5
    assert np.allclose(ma, msq, rtol=1e-12)


def test_maximal_shifted_dominates_base(unit_grid, rng):
    # A1 takes the sup over the base and the shifted lattices, so it
    # dominates M w / w with M the base-lattice maximal operator
    w = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    base = op.maximal(w).cells
    assert weight_constant(w, "A1") >= (base / w.cells).max()


# -- truncation maximal and frozen bounds --------------------------------------


def test_grand_maximal_zero_input(sym_grid):
    f = parse_profile("const(0)", sym_grid)
    out = op.grand_maximal_truncated(op.truncation(op.make_hilbert(),
                                                   sym_grid),
                                     f.cells[None], sym_grid.root_cube())[0]
    assert np.all(out == 0.0)


def _gmt_brute(D, f, Q0, grid):
    """M_{T,Q0} f from its definition: every dyadic Q in Q0 raises the cells
    of Q to the cell max over Q of |T(f chi_{3Q0 minus 3Q})|, with D the
    dense matrix of T over the cells in row-major order."""
    idx = np.indices(grid.shape)

    def inside(q, lo, side):
        return np.all([(i >= c + lo) & (i < c + lo + side)
                       for i, c in zip(idx, q.origin)], axis=0)
    out = np.zeros(grid.shape)
    for q in descendants(Q0, grid.level):
        g = np.where(inside(Q0, -Q0.side, 3 * Q0.side)
                     & ~inside(q, -q.side, 3 * q.side), f, 0.0)
        on = inside(q, 0, q.side)
        v = np.abs(D @ g.ravel()).reshape(grid.shape)[on].max()
        out[on] = np.maximum(out[on], v)
    return out


def _gmt_cubes(grid):
    """Cubes Q0 of the truncation tests: the root, an interior cube, cubes
    whose 3Q0 is clipped on the left and on the right, and in 2D one
    clipped on one axis only."""
    N, n = grid.cells_per_side, grid.n
    cubes = {"root": Cube(BASE, 0, (0,) * n, N),
             "interior": Cube(BASE, 3, (3 * N // 8,) * n, N // 8),
             "clipped left": Cube(BASE, 2, (0,) * n, N // 4),
             "clipped right": Cube(BASE, 3, (N - N // 8,) * n, N // 8)}
    if n == 2:
        cubes["clipped on one axis"] = Cube(BASE, 2, (0, N // 4), N // 4)
    return cubes


@pytest.mark.parametrize("L", (3, 4, 5, 6, 7, 8))
def test_grand_maximal_matches_definition(L, rng):
    for K, grid in _oracle_kernels(L, rng):
        D = _dense(K, grid)
        f = rng.standard_normal(grid.shape)
        tol = 1e-12 * float((np.abs(D) @ np.abs(f.ravel())).max())
        for name, Q0 in _gmt_cubes(grid).items():
            got = op.grand_maximal_truncated(op.truncation(K, grid),
                                             f[None], Q0)[0]
            want = _gmt_brute(D, f, Q0, grid)
            assert np.abs(got - want).max() <= tol, (K.family, name)


@pytest.mark.parametrize("L", (4, 6, 8))
def test_truncation_stack_equals_one_row_calls(L, rng):
    # each row of a stacked call has the bits of its own call with a newly
    # prepared operator: L = 6 has dense levels only, L = 8 dense and FFT
    # levels, L = 4 a 2D kernel (FFT only) and a one-axis clipped cube
    for K, grid in _oracle_kernels(L, rng):
        T = op.truncation(K, grid)
        for name, Q0 in _gmt_cubes(grid).items():
            for H in (1, 2, 3):
                F = rng.standard_normal((H,) + grid.shape)
                got = op.grand_maximal_truncated(T, F, Q0)
                assert got.shape == F.shape
                for i in range(H):
                    one = op.grand_maximal_truncated(
                        op.truncation(K, grid), F[i][None], Q0)[0]
                    assert got[i].tobytes() == one.tobytes(), \
                        (K.family, name, H, i)


def _gmt_whole_levels(T, F, Q0):
    """grand_maximal_truncated as it was with one product per level: all
    the cubes of a level in one product call, the differences in new
    arrays, and each level's cube maxima (numpy's reduce) broadcast over
    the cells of Q0."""
    grid = T.grid
    n, S, H = grid.n, Q0.side, len(F)
    vol = grid.cell_volume
    s3 = cube_slices(dilate(Q0, 3), grid)
    inner = tuple(slice(a.start - o + S, a.stop - o + S)
                  for a, o in zip(s3, Q0.origin))
    every = (slice(None),)
    g = np.zeros((H,) + (3 * S,) * n)
    g[every + inner] = F[every + s3]
    d0 = tuple(o - a.start for a, o in zip(s3, Q0.origin))
    base = T.product(g[every + (None,) + inner], d0, S)[:, 0] * vol
    out = np.zeros(F.shape)
    q0 = out[every + cube_slices(Q0, grid)]
    axes = (0,) + tuple(range(1, 2 * n + 1, 2)) + tuple(range(2, 2 * n + 1, 2))
    for k in range(Q0.level + 1, grid.level + 1):
        s = S >> (k - Q0.level)
        c = S // s
        split = (H,) + tuple(x for _ in range(n) for x in (c, s))
        wins = np.ascontiguousarray(as_strided(
            g[every + (slice(S - s, None),) * n],
            (H,) + (c,) * n + (3 * s,) * n,
            g.strides[:1] + tuple(st * s for st in g.strides[1:])
            + g.strides[1:]))
        part = T.product(wins.reshape((H, -1) + wins.shape[n + 1:]),
                         (s,) * n, s)
        diff = np.abs(base.reshape(split).transpose(axes)
                      - part.reshape((H,) + (c,) * n + (s,) * n) * vol)
        view = q0.reshape(split).transpose(axes)
        np.maximum(view, diff.max(axis=tuple(range(n + 1, 2 * n + 1)),
                                  keepdims=True), out=view)
    return out


@pytest.mark.parametrize("L", (5, 8, 10, 12))
def test_truncation_bitwise_whole_level_reference(L, rng):
    # FFT levels split into runs of cubes, differences made in place in the
    # product, cube maxima by halving and taken coarse to fine: the bits of
    # one product per level.  L = 8 has dense levels and one FFT level, L =
    # 10 and 12 several FFT levels whose root and depth-1 runs split; L = 5
    # a 2D kernel (all FFT levels, the root in up to 9 runs)
    unit = Grid(1, (-0.5,), 1.0, L)
    cases = [(op.make_hilbert(), unit), (op.make_dini(), unit),
             (op.make_counter(), Grid(1, (-6.0,), 12.0, L))]
    if L == 5:
        cases = [(op.make_homog(_asymmetric_table()),
                  Grid(2, (-0.5, -0.5), 1.0, L))]
    for K, grid in cases:
        T = op.truncation(K, grid)
        N, n = grid.cells_per_side, grid.n
        cubes = dict(_gmt_cubes(grid),
                     depth1=Cube(BASE, 1, (N // 2,) * n, N // 2))
        for name, Q0 in cubes.items():
            for H in (1, 2, 3):
                F = rng.standard_normal((H,) + grid.shape)
                got = op.grand_maximal_truncated(T, F, Q0)
                want = _gmt_whole_levels(T, F, Q0)
                assert got.tobytes() == want.tobytes(), (K.family, name, H)


@pytest.mark.parametrize("n,L,H,cap", [(1, 12, 1, 10.5), (1, 12, 3, 7.5),
                                       (2, 6, 2, 15)])
def test_truncation_peak_memory_capped(n, L, H, cap, rng):
    # a warm call on the root holds at most cap times the bytes of its data
    # (8.9 in 1D at H = 1, 6.8 at H = 3 and 11.1 in 2D measured): its FFT
    # levels read their windows in place, in runs of whole arrays or of
    # one array's rows of cubes whose windows hold about F's cells, a 1D
    # product multiplies row by row and inverts into its padded buffer, a
    # 2D product transforms in place in one buffer and inverts only its
    # kept rows, each run's difference is made in place and freed before
    # the next, and the levels' zero frame holds (2S)^n cells per array,
    # where their windows lie
    if n == 1:
        K, grid = op.make_hilbert(), Grid(1, (-0.5,), 1.0, L)
    else:
        K = op.make_homog(_asymmetric_table())
        grid = Grid(2, (-0.5, -0.5), 1.0, L)
    T = op.truncation(K, grid)
    F = rng.standard_normal((H,) + grid.shape)
    want = op.grand_maximal_truncated(T, F, grid.root_cube())
    tracemalloc.start()
    try:
        got = op.grand_maximal_truncated(T, F, grid.root_cube())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= cap * F.nbytes, peak / F.nbytes


def test_truncation_zero_kernel_is_zero(rng):
    # a kernel whose profile is all zero on the grid (an all-zero angular
    # table; the counter kernel's support, |x - y - 4| < 1, off the unit
    # grid) makes products of zeros shaped as the FFT products: every
    # level, dense and FFT, 1D and 2D, gives 0
    cases = [(op.make_homog(np.zeros(48)), Grid(2, (-0.5, -0.5), 1.0, 5)),
             (op.make_counter(), Grid(1, (-0.5,), 1.0, 8))]
    for K, grid in cases:
        assert not K.profile(grid).any(), K.family
        T = op.truncation(K, grid)
        N, n = grid.cells_per_side, grid.n
        cubes = dict(_gmt_cubes(grid),
                     depth1=Cube(BASE, 1, (N // 2,) * n, N // 2))
        for name, Q0 in cubes.items():
            for H in (1, 3):
                F = rng.standard_normal((H,) + grid.shape)
                got = op.grand_maximal_truncated(T, F, Q0)
                assert got.shape == F.shape, (K.family, name, H)
                assert not got.any(), (K.family, name, H)


def test_grand_maximal_rejects_shifted_cube(sym_grid):
    f = parse_profile("const(1)", sym_grid)
    Q = Cube(BASE, 2, (16,), 16)
    with pytest.raises(op.OperatorError, match="base-lattice"):
        op.grand_maximal_truncated(op.truncation(op.make_hilbert(),
                                                 sym_grid),
                                   f.cells[None], triple(Q, sym_grid))


def test_truncation_frozen_bounds():
    # local truncation estimates on a held-out input at the fitted level
    grid = Grid(1, (-0.5,), 1.0, 7)
    K = op.make_hilbert()
    A = young.power(1)
    Q0 = grid.root_cube()
    h_est, _ = op.hormander_estimate(K, A, grid)
    f = parse_profile("indicator(0,0.25)", grid)
    tf = op.apply_operator(K, f)
    mt = op.grand_maximal_truncated(op.truncation(K, grid), f.cells[None],
                                    Q0)[0]
    maf = op.maximal(f, A).cells
    root = GridFunction(tf.grid, np.abs(tf.cells) ** 0.5)
    md = op.maximal(root).cells ** 2.0
    mf = op.maximal(f).cells
    rhs = h_est * maf + md + mf
    ratio = float((mt / np.where(rhs > 0, rhs, 1.0)).max())
    assert ratio <= FROZEN["lemmatec2_c"]
    excess = np.abs(tf.cells) - mt
    on = np.abs(f.cells) > 0
    assert float((excess[on] / np.abs(f.cells[on])).max()) \
        <= FROZEN["lemmatec1_c"]
    fint = float(np.abs(f.cells).sum()) * grid.cell_volume
    scale = float(np.abs(tf.cells).max())
    for lam in np.geomspace(1e-3 * scale, scale, 16):
        meas = float((mt > lam).mean())
        assert lam * meas <= FROZEN["weak11_c"] * fint


# -- annulus smoothness estimate -----------------------------------------------


def test_hormander_constant_kernel_is_zero(sym_grid):
    kone = op.Kernel("one", 1, False, conv=lambda u, h: np.ones_like(u))
    val, tail = op.hormander_estimate(kone, young.power(1), sym_grid)
    assert val == 0.0 and tail == 0.0


def _smoothness_cubes_listed(grid, cube_budget, seed):
    """The sampled cubes drawn from a full list of the base cubes of side
    4 .. N/2."""
    cand = [q for q in base_cubes(grid, min_level=1)
            if 4 <= q.side < grid.cells_per_side]
    if len(cand) > cube_budget:
        idx = np.random.default_rng(seed).choice(len(cand), size=cube_budget,
                                                 replace=False)
        cand = [cand[i] for i in sorted(idx)]
    return cand


@pytest.mark.parametrize("n, L", ((1, 2), (1, 5), (1, 6), (1, 12),
                                  (2, 3), (2, 4), (2, 7)))
@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("budget", (24, 64))
def test_smoothness_cubes_match_listed_draw(n, L, seed, budget):
    grid = Grid(n, (0.0,) * n, 1.0, L)
    assert (op._smoothness_cubes(grid, budget, seed)
            == _smoothness_cubes_listed(grid, budget, seed))


def test_hormander_monotone_in_k_max():
    grid = Grid(1, (-0.5,), 1.0, 6)
    K = op.make_hilbert()
    v2, _ = op.hormander_estimate(K, young.power(1), grid, k_max=2)
    v4, _ = op.hormander_estimate(K, young.power(1), grid, k_max=4)
    assert v4 >= v2


def test_hormander_counter_stable_across_levels():
    K = op.make_counter()
    A = op.counter_young(2.0, 1.0)
    vals = []
    for L in (7, 8, 9):
        grid = Grid(1, (-6.0,), 12.0, L)
        v, _ = op.hormander_estimate(K, A, grid, cube_budget=24, k_max=6)
        vals.append(v)
    assert max(vals) / min(vals) <= 1.1


def _annulus_reference(K, A, grid, q, x, z, k_max):
    """One pair's annulus sum from pointwise kernel differences
    K(x, y) - K(z, y) on the whole of 2^k q, with the cells of 2^(k-1) q
    set to zero."""
    n, h = grid.n, grid.cell_width
    xc = tuple(grid.origin[i] + (x[i] + 0.5) * h for i in range(n))
    zc = tuple(grid.origin[i] + (z[i] + 0.5) * h for i in range(n))
    kept = []
    for k in range(1, k_max + 1):
        big, small = dilate(q, 2 ** k), dilate(q, 2 ** (k - 1))
        if is_clipped(big, grid):
            break
        sl = cube_slices(big, grid)
        idx = np.meshgrid(*(np.arange(s.start, s.stop) for s in sl),
                          indexing="ij")
        ys = [grid.cell_centers(i)[idx[i]] for i in range(n)]
        y = ys[0] if n == 1 else ys
        px, pz = (xc[0], zc[0]) if n == 1 else (xc, zc)
        d = evaluate(K, px, y, h) - evaluate(K, pz, y, h)
        inner = np.ones(d.shape, dtype=bool)
        for i in range(n):
            inner &= (idx[i] >= small.origin[i]) \
                & (idx[i] < small.origin[i] + small.side)
        d = np.where(inner, 0.0, d)
        norm = young.luxemburg_norm(np.abs(d).ravel(),
                                    np.full(d.size, grid.cell_volume), A)
        kept.append((2 ** k * q.length(grid)) ** n * norm)
    total = 0.0
    for term in kept:
        total += term
    tail = 0.0
    if len(kept) >= 2 and kept[-2] > 0:
        rho = kept[-1] / kept[-2]
        tail = kept[-1] * rho / (1.0 - rho) if rho < 1 else math.inf
    return total, tail


def _asymmetric_table(M=48):
    th = np.arange(M) * 2 * math.pi / M
    return np.cos(2 * th) + 0.5 * np.sin(th) + 0.25 * np.sin(3 * th)


@pytest.mark.parametrize("name", ["hilbert", "dini", "counter", "homog",
                                  "hilbert_offset"])
def test_annulus_sums_match_per_pair_reference(name):
    if name == "hilbert_offset":
        # cell centers off the dyadic points round differently per cube, so
        # equal-shape cubes get different last bits and a norm handed back
        # to the wrong cube of a batch shows
        K, A = op.make_hilbert(), young.llogl(1)
        grid = Grid(1, (-0.3,), 1.0, 8)
    elif name == "homog":
        K, A = op.make_homog(_asymmetric_table()), young.llogl(1)
        grid = Grid(2, (-0.5, -0.5), 1.0, 5)
    elif name == "counter":
        K, A = op.make_counter(), op.counter_young(2.0, 1.0)
        grid = Grid(1, (-6.0,), 12.0, 8)
    else:
        K = op.make_hilbert() if name == "hilbert" else \
            op.parse_kernel("dini(omega=power(0.5),ck=1)")
        A, grid = young.llogl(1), Grid(1, (-0.5,), 1.0, 8)
    N = grid.cells_per_side
    cand = [q for q in base_cubes(grid, min_level=1) if 4 <= q.side < N]
    # every side, near the edge and inside, so annuli stop at several k
    picks = cand[::max(1, len(cand) // 9)] + cand[-3:]
    pairs, want = [], []
    for q in picks:
        half = Cube(q.lattice, q.level,
                    tuple(c + q.side // 4 for c in q.origin), q.side // 2)
        pts = op._stencil_cells(half, grid)
        pairs.append([(x, z) for i, x in enumerate(pts) for z in pts[i + 1:]])
        want.append([_annulus_reference(K, A, grid, q, x, z, 6)
                     for x, z in pairs[-1]])
        (totals, tails), = op._annulus_sums(K, A, grid, [q], [pairs[-1]], 6)
        assert list(zip(totals, tails)) == want[-1], (name, q)
    # all picked cubes of one side in one call, batched per annulus level
    mixed = False
    for side in sorted({q.side for q in picks}):
        group = [j for j, q in enumerate(picks) if q.side == side]
        got = op._annulus_sums(K, A, grid, [picks[j] for j in group],
                               [pairs[j] for j in group], 6)
        for j, (totals, tails) in zip(group, got):
            assert list(zip(totals, tails)) == want[j], (name, picks[j])
        mixed |= len({_kept_levels(picks[j], grid, 6) for j in group}) > 1
    assert mixed  # some batch holds cubes whose annuli stop at different k
    # every picked cube in one call: all sides in one Luxemburg batch
    got = op._annulus_sums(K, A, grid, picks, pairs, 6)
    for j, (totals, tails) in enumerate(got):
        assert list(zip(totals, tails)) == want[j], (name, picks[j])


def _kept_levels(q, grid, k_max):
    """The number of annuli of q that stay in the domain."""
    return next((k - 1 for k in range(1, k_max + 1)
                 if is_clipped(dilate(q, 2 ** k), grid)), k_max)


@pytest.mark.parametrize("n, L", ((1, 8), (2, 5)))
def test_hormander_one_luxemburg_call_per_estimate(n, L, monkeypatch):
    # every annulus of every sampled cube goes into one batched call, a
    # row per (cube, pair, kept annulus)
    grid = Grid(n, (-0.5,) * n, 1.0, L)
    K = op.make_hilbert() if n == 1 else op.make_homog(_asymmetric_table())
    real, calls = young.luxemburg_norm_batch, []

    def batch(values, measures, A):
        calls.append(values)
        return real(values, measures, A)

    monkeypatch.setattr(young, "luxemburg_norm_batch", batch)
    rows = 0
    for q in op._smoothness_cubes(grid, 24, 0):
        pts = len(op._stencil_cells(Cube(q.lattice, q.level, tuple(
            c + q.side // 4 for c in q.origin), q.side // 2), grid))
        rows += pts * (pts - 1) // 2 * _kept_levels(q, grid, 6)
    op.hormander_estimate(K, young.llogl(1), grid, cube_budget=24, k_max=6)
    (groups,) = calls
    assert sum(len(g) for g in groups) == rows > 0


def test_hormander_input_checks(sym_grid):
    with pytest.raises(op.OperatorError):
        op.hormander_estimate(op.make_hilbert(), young.power(1), sym_grid,
                              k_max=1)
