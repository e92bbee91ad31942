"""Kernels, operator application, commutators, maximal operators and the
annulus smoothness estimate."""

import math

import numpy as np
import pytest

from sparsedom import operators as op
from sparsedom import young
from sparsedom.dyadic import (BASE, Cube, Grid, GridFunction, base_cubes,
                              cube_slices, descendants, dilate, grid_function,
                              is_clipped, triple)
from sparsedom.frozen import FROZEN
from sparsedom.weights import parse_profile


def test_hilbert_pointwise():
    K = op.make_hilbert()
    assert K.evaluate(2.0, 0.0) == 0.5
    assert K.evaluate(0.0, 2.0) == -0.5
    assert K.evaluate(1.0, 1.0) == 0.0


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
    vals = K.evaluate(u, np.zeros(4))
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
    path = tmp_path / "m.csv"
    np.savetxt(path, np.eye(4), delimiter=",")
    assert op.parse_kernel(f"matrix(path={path})").matrix.shape == (4, 4)
    for bad in ("sobolev", "dini(omega=exp(1))", "homog()", "dini(0.5)"):
        with pytest.raises(op.OperatorError):
            op.parse_kernel(bad)


def test_homog_requires_mean_zero():
    with pytest.raises(op.OperatorError):
        op.make_homog(np.ones(8))
    K = op.make_homog(np.cos(np.arange(8) * math.pi / 4))
    assert K.n == 2


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
    # at L=12 the Toeplitz blocks span many chunks
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
    adj = op._apply_adjoint(K, grid, g + g[::-1, ::-1])
    assert np.array_equal(adj, -out)


def _random_conv_kernel(N, rng):
    """A non-symmetric convolution kernel: an independent random value at
    every displacement of a grid with N cells."""
    table = rng.standard_normal(2 * N - 1)

    def conv(u, h):
        return table[np.rint(np.asarray(u) / h).astype(int) + N - 1]
    return op.Kernel("random", 1, False, conv=conv)


def _oracle_kernels(L, rng):
    """1D kernels at level L, a random matrix kernel among them, and at
    L <= 4 a 2D homogeneous kernel with an asymmetric angular part."""
    unit = Grid(1, (-0.5,), 1.0, L)
    N = 1 << L
    out = [(op.make_hilbert(), unit), (op.make_dini(), unit),
           (op.make_counter(), Grid(1, (-6.0,), 12.0, L)),
           (_random_conv_kernel(N, rng), Grid(1, (0.0,), 1.0, L)),
           (op.make_matrix(rng.standard_normal((N, N))), unit)]
    if L <= 4:
        out.append((op.make_homog(_asymmetric_table()),
                    Grid(2, (-0.5, -0.5), 1.0, L)))
    return out


def _dense(K, grid):
    """The matrix K(x_i, y_j) |cell| over the cells in row-major order,
    evaluated at the exact lattice displacements (i - j) h."""
    if K.matrix is not None:
        return K.matrix * grid.cell_volume
    h = grid.cell_width
    idx = np.indices(grid.shape).reshape(grid.n, -1)
    u = [np.subtract.outer(i, i) * h for i in idx]
    D = np.asarray(K.conv(*u, h), dtype=float)
    if K.singular:
        np.fill_diagonal(D, 0.0)
    return D * grid.cell_volume


@pytest.mark.parametrize("L", (3, 4, 5, 6, 7))
def test_apply_and_adjoint_match_dense_matrix(L, rng):
    for K, grid in _oracle_kernels(L, rng):
        D = _dense(K, grid)
        f = rng.standard_normal(grid.shape)
        fv = f.ravel()
        tol = 1e-13 * float((np.abs(D) @ np.abs(fv)).max())
        got = op.apply_operator(K, GridFunction(grid, f)).cells.ravel()
        assert np.abs(got - D @ fv).max() <= tol, K.family
        tol = 1e-13 * float((np.abs(D.T) @ np.abs(fv)).max())
        adj = op._apply_adjoint(K, grid, f).ravel()
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


def test_apply_operator_linear(sym_grid, rng):
    K = op.make_dini()
    a = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    comb = GridFunction(sym_grid, 2.0 * a.cells - 3.0 * b.cells)
    lhs = op.apply_operator(K, comb).cells
    rhs = 2.0 * op.apply_operator(K, a).cells \
        - 3.0 * op.apply_operator(K, b).cells
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_matrix_kernel_application(rng):
    grid = Grid(1, (0.0,), 1.0, 3)
    M = rng.standard_normal((8, 8))
    K = op.make_matrix(M)
    f = GridFunction(grid, rng.standard_normal(8))
    out = op.apply_operator(K, f).cells
    assert np.allclose(out, (M @ f.cells) * grid.cell_volume)
    with pytest.raises(op.OperatorError):
        op.make_matrix(np.zeros((2, 3)))


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
    spec = op.CommutatorSpec(b, 0)
    assert np.array_equal(op.commutator_apply(K, spec, f).cells,
                          op.apply_operator(K, f).cells)


def test_commutator_constant_symbol_vanishes(sym_grid, rng):
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = parse_profile("const(3)", sym_grid)
    for m in (1, 2):
        out = op.commutator_apply(K, op.CommutatorSpec(b, m), f).cells
        assert np.allclose(out, 0.0, atol=1e-12)


def test_commutator_binomial_matches_recursion(rng):
    grid = Grid(1, (0.0,), 1.0, 3)
    M = rng.standard_normal((8, 8))
    K = op.make_matrix(M)
    f = GridFunction(grid, rng.standard_normal(8))
    b = GridFunction(grid, rng.standard_normal(8))
    for m in (1, 2, 3):
        spec = op.CommutatorSpec(b, m)
        lhs = op.commutator_apply(K, spec, f).cells
        rhs = op.commutator_recursive(K, spec, f).cells
        scale = max(float(np.abs(rhs).max()), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_commutator_center_invariance(sym_grid, rng):
    # the binomial expansion in (b - c) is independent of the center c
    K = op.make_hilbert()
    f = GridFunction(sym_grid, rng.standard_normal(sym_grid.shape))
    b = parse_profile("power_abs(0.5)", sym_grid)
    spec = op.CommutatorSpec(b, 2)
    v0 = op.commutator_apply(K, spec, f, center=0.0).cells
    v1 = op.commutator_apply(K, spec, f, center=0.7).cells
    assert np.allclose(v0, v1, rtol=1e-9, atol=1e-12)


def test_commutator_spec_order_range(sym_grid):
    b = parse_profile("const(0)", sym_grid)
    with pytest.raises(op.OperatorError):
        op.CommutatorSpec(b, 5)


# -- maximal operators ---------------------------------------------------------


def test_maximal_constant(unit_grid):
    f = parse_profile("const(2)", unit_grid)
    for variant, kw in (("M", {}), ("Mdelta", {"delta": 0.5})):
        out = op.maximal(f, variant, **kw)
        assert np.allclose(out.cells, 2.0, rtol=1e-9)
    # the Orlicz variant rescales a constant by 1 / A^{-1}(1), the same
    # factor on every cell
    ma = op.maximal(f, "MA", A=young.llogl(1)).cells
    assert np.allclose(ma, ma[0], rtol=1e-9)
    assert ma[0] >= 2.0


def test_maximal_indicator_quarter(unit_grid):
    f = parse_profile("indicator(0,0.25)", unit_grid)
    m = op.maximal(f, "M").cells
    assert np.allclose(m[:16], 1.0)
    assert np.allclose(m[16:32], 0.5)
    assert np.allclose(m[32:], 0.25)


def test_maximal_orlicz_dominates_plain(unit_grid, rng):
    # A(t) >= t pointwise forces M f <= M_A f
    f = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    m = op.maximal(f, "M").cells
    ma = op.maximal(f, "MA", A=young.llogl(1)).cells
    assert np.all(m <= ma * (1 + 1e-9))


def test_maximal_power_fast_path(unit_grid, rng):
    f = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    ma = op.maximal(f, "MA", A=young.power(2)).cells
    msq = op.maximal(f.map(np.square), "M").cells ** 0.5
    assert np.allclose(ma, msq, rtol=1e-12)


def test_maximal_shifted_dominates_base(unit_grid, rng):
    f = GridFunction(unit_grid, rng.lognormal(0.0, 1.0, unit_grid.shape))
    base = op.maximal(f, "M", shifted=False).cells
    shf = op.maximal(f, "M", shifted=True).cells
    assert np.all(shf >= base - 1e-12)


def test_maximal_rejects_bad_variant(unit_grid):
    f = parse_profile("const(1)", unit_grid)
    with pytest.raises(op.OperatorError):
        op.maximal(f, "Mdelta", delta=1.5)
    with pytest.raises(op.OperatorError):
        op.maximal(f, "MQ")


def test_maximal_weighted_needs_a_weight(unit_grid):
    f = parse_profile("const(1)", unit_grid)
    with pytest.raises(op.OperatorError, match="weight"):
        op.maximal(f, "MAW", A=young.llogl(1))


# -- truncation maximal and frozen bounds --------------------------------------


def test_grand_maximal_zero_input(sym_grid):
    f = parse_profile("const(0)", sym_grid)
    out = op.grand_maximal_truncated(op.make_hilbert(), f,
                                     sym_grid.root_cube())
    assert np.all(out.cells == 0.0)


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


@pytest.mark.parametrize("L", (3, 4, 5, 6, 7))
def test_grand_maximal_matches_definition(L, rng):
    N = 1 << L
    for K, grid in _oracle_kernels(L, rng):
        n = grid.n
        cubes = {"root": Cube(BASE, 0, (0,) * n, N),
                 "interior": Cube(BASE, 3, (3 * N // 8,) * n, N // 8),
                 "clipped left": Cube(BASE, 2, (0,) * n, N // 4),
                 "clipped right": Cube(BASE, 3, (N - N // 8,) * n, N // 8)}
        if n == 2:
            cubes["clipped on one axis"] = Cube(BASE, 2, (0, N // 4), N // 4)
        D = _dense(K, grid)
        f = rng.standard_normal(grid.shape)
        tol = 1e-12 * float((np.abs(D) @ np.abs(f.ravel())).max())
        for name, Q0 in cubes.items():
            got = op.grand_maximal_truncated(K, GridFunction(grid, f),
                                             Q0).cells
            want = _gmt_brute(D, f, Q0, grid)
            assert np.abs(got - want).max() <= tol, (K.family, name)


def test_grand_maximal_rejects_shifted_cube(sym_grid):
    f = parse_profile("const(1)", sym_grid)
    Q = Cube(BASE, 2, (16,), 16)
    with pytest.raises(op.OperatorError, match="base-lattice"):
        op.grand_maximal_truncated(op.make_hilbert(), f,
                                   triple(Q, sym_grid))


def test_truncation_frozen_bounds():
    # local truncation estimates on a held-out input at the fitted level
    grid = Grid(1, (-0.5,), 1.0, 7)
    K = op.make_hilbert()
    A = young.power(1)
    Q0 = grid.root_cube()
    h_est, _ = op.hormander_estimate(K, A, grid)
    f = parse_profile("indicator(0,0.25)", grid)
    tf = op.apply_operator(K, f)
    mt = op.grand_maximal_truncated(K, f, Q0).cells
    maf = op.maximal(f, "MA", A=A).cells
    md = op.maximal(tf, "Mdelta", delta=0.5).cells
    mf = op.maximal(f, "M").cells
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
        d = K.evaluate(px, y, h) - K.evaluate(pz, y, h)
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


@pytest.mark.parametrize("name", ["hilbert", "dini", "counter", "homog"])
def test_annulus_sums_match_per_pair_reference(name):
    if name == "homog":
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
    for q in picks:
        half = Cube(q.lattice, q.level,
                    tuple(c + q.side // 4 for c in q.origin), q.side // 2)
        pts = op._stencil_cells(half, grid)
        pairs = [(x, z) for i, x in enumerate(pts) for z in pts[i + 1:]]
        totals, tails = op._annulus_sums(K, A, grid, q, pairs, 6)
        want = [_annulus_reference(K, A, grid, q, x, z, 6) for x, z in pairs]
        assert list(zip(totals, tails)) == want, (name, q)


def test_omega_modulus_matches_rotation_loop():
    om = _asymmetric_table(64)
    M = len(om)
    theta = np.arange(M) * 2 * math.pi / M
    theta_ext = np.append(theta, 2 * math.pi)
    om_ext = np.append(om, om[0])
    for B in (young.power(1), young.power(2), young.llogl(1)):
        for t in (0.01, 0.1, 0.7, 3.0):
            want = 0.0
            for a in np.linspace(0.0, t, 17)[1:]:
                rot = np.interp(np.mod(theta + a, 2 * math.pi), theta_ext,
                                om_ext)
                want = max(want, young.luxemburg_norm(
                    rot - om, np.full(M, 2 * math.pi / M), B))
            assert op.omega_modulus(om, B, t) == want, (B, t)


def test_hormander_input_checks(sym_grid):
    K = op.make_matrix(np.eye(64))
    with pytest.raises(op.OperatorError):
        op.hormander_estimate(K, young.power(1), sym_grid)
    with pytest.raises(op.OperatorError):
        op.hormander_estimate(op.make_hilbert(), young.power(1), sym_grid,
                              k_max=1)


def test_omega_modulus_cosine():
    M = 64
    om = np.cos(np.arange(M) * 2 * math.pi / M)
    assert op.omega_modulus(om, young.power(1), 0.0) == 0.0
    prev = 0.0
    for t in (0.05, 0.1, 0.2):
        v = op.omega_modulus(om, young.power(1), t)
        assert 0.5 * t <= v <= 0.7 * t
        assert v >= prev
        prev = v


def test_dini_integral_cosine_converges():
    M = 64
    om = np.cos(np.arange(M) * 2 * math.pi / M)
    value, converged = op.dini_integral(om, young.power(1))
    assert converged
    assert 0.3 <= value <= 1.0
