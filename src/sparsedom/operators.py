"""Kernel constructors, discrete singular-integral application, iterated
commutators, maximal operators and kernel-smoothness (annulus sum) estimates.

Convolution kernels are evaluated once per grid on the difference lattice
(the profile), so an operator is a Toeplitz matrix (block Toeplitz in 2D)
that is never built whole.  Every application goes through one primitive,
`_toeplitz_product`: it prepares the kernel side of a product once (a dense
block, or the spectrum of a profile segment) and then multiplies it into
any number of rows of data.  The truncation maximal operator is prepared
once per kernel and grid (`truncation`): it evaluates the profile once and
keeps each level's product for every later cube, and one call takes a
stack of arrays (a node's commutator splits).  Its FFT levels go in runs
of cubes whose windows hold about as many cells as the data; a dense level
stays whole, since a dense product's bits depend on its row count.  A
kernel applied to a whole grid goes through `_pair`, which prepares T and
T* together: two products, one per half of the displacements, joined by
a flip identity that keeps odd kernels exactly odd on even data.
apply_operator prepares T for one application, the L2 power iteration T
and T* for all its steps, a commutator T for its m+1 splits.  Small 1D
products are one dense block, all others FFT products: O(N log N) per
axis from O(N) kernel evaluations.  The smoothness estimate evaluates
the kernel for all sampled cubes of one side in one broadcast call per
annulus, and takes all its Luxemburg norms in one batch.  The one dyadic
maximal operator, `maximal(f, A)`, is the Orlicz maximal operator M_A
over the base lattice (M for the default A(t) = t).  It takes all its
norms in one batch too, and bisects only the cubes that can attain the
max: a cube whose norm lies certainly below, at each of its cells, the
Jensen lower bound of another cube containing that cell is closed
unbisected.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import literal, young
from .dyadic import (BASE, Cube, Grid, GridFunction, block_mean, cube_slices,
                     dilate, is_clipped, scope_blocks, spread_max)

E = math.e


class OperatorError(ValueError):
    pass


@dataclass(eq=False)
class Kernel:
    """Convolution kernel K(x, y) = conv(x - y) with singularity metadata.

    ``conv(u, h)`` is the profile at displacement u = x - y, with h the
    cell width used to regularize off-diagonal singularities (h = 0 means
    no regularization).
    """

    family: str
    n: int
    singular: bool
    conv: object  # callable (u array, h) -> values
    params: dict = field(default_factory=dict)

    def spec(self, grid: Grid) -> tuple:
        """Canonical content key of the kernel on a grid: family and params,
        or for a kernel without params a sha256 of its profile on the
        grid."""
        if self.params:
            return (self.family, self.n, self.singular,
                    tuple(sorted(self.params.items())))
        digest = hashlib.sha256(self.profile(grid).tobytes())
        return (self.family, self.n, self.singular, digest.hexdigest())

    def profile(self, grid: Grid) -> np.ndarray:
        """Kernel values on the displacement lattice of a grid."""
        if self.n != grid.n:
            raise OperatorError("kernel dimension does not match grid")
        N = grid.cells_per_side
        # per axis, kprof[N-1+i-j] = K(x_i, y_j)
        d = np.arange(-(N - 1), N) * grid.cell_width
        u = np.meshgrid(*(d,) * grid.n, indexing="ij", sparse=True)
        vals = np.asarray(self.conv(*u, grid.cell_width), dtype=float)
        if self.singular:
            vals[(N - 1,) * grid.n] = 0.0
        return vals


# -- kernel constructors ------------------------------------------------------


def make_hilbert() -> Kernel:
    def conv(u, h):
        with np.errstate(divide="ignore"):
            return np.where(u == 0.0, 0.0, 1.0 / np.where(u == 0.0, 1.0, u))
    return Kernel("hilbert", 1, True, conv=conv)


def make_dini(delta: float = 0.5, c_k: float = 1.0) -> Kernel:
    """Odd 1/u kernel modulated by an even oscillation of regularity t^delta.

    |K(u)| <= 1.5 c_k / |u| and the difference modulus is O(t^delta), so the
    kernel sits in the Dini class with omega(t) = c t^delta.
    """
    if not 0.0 < delta <= 1.0:
        raise OperatorError("dini regularity exponent must be in (0, 1]")

    def conv(u, h):
        mod = 1.0 + 0.5 * np.sin(2.0 * np.abs(u) ** delta)
        with np.errstate(divide="ignore"):
            return np.where(u == 0.0, 0.0,
                            c_k * mod / np.where(u == 0.0, 1.0, u))
    return Kernel("dini", 1, True, conv=conv,
                  params={"delta": delta, "c_k": c_k})


def counter_inverse(r: float, beta: float):
    """The inverse Young profile t -> t^{1/r} / log(e+t)^{(1+beta)/2}."""
    def inv(u):
        u = np.asarray(u, dtype=float)
        return u ** (1.0 / r) / np.log(E + u) ** ((1.0 + beta) / 2.0)
    return inv


def counter_young(r: float, beta: float) -> young.YoungFunction:
    """Young function realized by tabulating the closed-form inverse."""
    return young.from_inverse(counter_inverse(r, beta))


def counter_radial(r: float, beta: float):
    """k(t) = A^{-1}(1 / (t (1 - log t)^{1+beta})) on (0,1), 0 elsewhere."""
    inv = counter_inverse(r, beta)

    def k(t, h=0.0):
        t = np.asarray(t, dtype=float)
        if h > 0:
            t = np.maximum(t, 0.5 * h)
        inside = (t > 0) & (t < 1.0)
        ts = np.where(inside, t, 0.5)
        u = 1.0 / (ts * (1.0 - np.log(ts)) ** (1.0 + beta))
        return np.where(inside, inv(u), 0.0)
    return k


def make_counter(r: float = 2.0, beta: float = 1.0, eta: float = 4.0) -> Kernel:
    """Shifted radial kernel K(x, y) = k(|x - eta - y|), nonnegative and
    supported where |x - y - eta| < 1."""
    if r <= 1 or beta <= 0:
        raise OperatorError("need r > 1 and beta > 0")
    k = counter_radial(r, beta)

    def conv(u, h):
        return k(np.abs(u - eta), h)
    return Kernel("counter", 1, False, conv=conv,
                  params={"r": r, "beta": beta, "eta": eta})


def make_homog(omega_samples) -> Kernel:
    """Homogeneous kernel Omega((x-y)/|x-y|) / |x-y|^2 in the plane.

    omega_samples are finite values of mean zero on a uniform angular
    grid over [0, 2pi); the profile is interpolated periodically.
    """
    om = np.asarray(omega_samples, dtype=float)
    if om.ndim != 1 or len(om) < 4:
        raise OperatorError("need at least 4 angular samples")
    if not (np.all(np.isfinite(om)) and abs(om.mean()) <= 1e-10):
        raise OperatorError("angular samples must be finite, of mean zero")
    M = len(om)
    theta = np.arange(M + 1) * (2 * math.pi / M)
    omp = np.concatenate([om, om[:1]])

    def conv(u1, u2, h):
        # in place, in this order: Omega at the angle reduced mod 2pi, over
        # rho2 with its zero cells set to 1, then those cells set to 0
        ang = np.asarray(np.arctan2(u2, u1))
        omv = np.interp(np.mod(ang, 2 * math.pi, out=ang), theta, omp)
        rho2 = np.add(u1 * u1, u2 * u2, out=ang)  # the cells of ang
        zero = rho2 == 0.0
        rho2[zero] = 1.0
        out = np.divide(omv, rho2, out=rho2)
        out[zero] = 0.0
        return out
    return Kernel("homog", 2, True, conv=conv,
                  params={"samples": tuple(om.tolist())})


# family -> (constructor, keys in argument order with their defaults); a
# key without a default (None) takes a path, the others a number
_KERNELS = {
    "hilbert": (make_hilbert, {}),
    "dini": (make_dini, {"omega": 0.5, "ck": 1.0}),
    "counter": (make_counter, {"r": 2.0, "beta": 1.0, "eta": 4.0}),
    "homog": (lambda p: make_homog(np.loadtxt(p, delimiter=",", ndmin=1)),
              {"omega_table": None}),
}


def parse_kernel(text: str) -> Kernel:
    """Scenario grammar (see `literal`): hilbert | dini(omega=power(d),ck=c)
    | homog(omega_table=path) | counter(r=..,beta=..,eta=..).  Every
    argument is a key its family knows."""
    name, args, kwargs, shift = literal.parse(text, OperatorError)
    if name not in _KERNELS:
        raise OperatorError(f"unknown kernel family {name!r}")
    make, keys = _KERNELS[name]
    if args or shift is not None or not set(kwargs) <= set(keys):
        raise OperatorError(f"{name} takes only the keys {', '.join(keys)}"
                            if keys else f"{name} takes no arguments")
    values = [kwargs.get(key, default) for key, default in keys.items()]
    if "omega" in kwargs:  # dini's modulus power(d) gives delta = d
        om = values[0]
        if not isinstance(om, tuple) or om[0] != "power":
            raise OperatorError("dini omega must be power(d)")
        (values[0],) = literal.positional(om, float, 1, 1, OperatorError)
    for v, (key, default) in zip(values, keys.items()):
        if not isinstance(v, str if default is None else float):
            raise OperatorError(f"{name}: {key} must be a " + (
                "path" if default is None else "number"))
    return make(*values)


# -- operator application -----------------------------------------------------


def apply_operator(K: Kernel, f: GridFunction) -> GridFunction:
    """Tf(x) = sum_y K(x, y) f(y) |cell|, diagonal skipped when singular.

    Odd kernels give an exactly odd result on even data (see _pair).
    """
    return GridFunction(f.grid, _pair(K, f.grid)[0](f.cells))


def _pair(K: Kernel, grid: Grid) -> tuple:
    """T and T* on cell arrays of the grid, cell volume included, each
    prepared once for any number of applications.

    The kernel is applied as T f = K(0) f + H(K, f) + R H(RK, Rf) and
    T* f = K(0) f + H(RK, f) + R H(K, Rf), from one evaluation of its
    profile.  R reverses every axis.  H sums over the displacements i - j
    after 0 in row-major order: one prepared _toeplitz_product of a copy
    of the profile zeroed up to its center and one of the profile itself
    zeroed from it on, seen reversed: two halves for both T and T*, one
    copy.
    For odd K (RK = -K) and even f the second H is the first with every
    input negated, which a dense or FFT product negates exactly, so T f is
    exactly odd.  Both products need C-contiguous data: numpy's matmul on a
    reversed view sums in another order.
    """
    vol = grid.cell_volume
    kprof = K.profile(grid)
    shape = grid.shape
    flip = (slice(None, None, -1),) * grid.n
    zero = (0,) * grid.n
    mid = kprof.size // 2
    center = kprof.flat[mid]
    kz = kprof.copy()
    kz.flat[:mid + 1] = 0.0
    h = _toeplitz_product(kz, shape, zero, shape)
    del kz  # freed before the second half is prepared
    kprof.flat[mid:] = 0.0
    hr = _toeplitz_product(kprof[flip], shape, zero, shape)

    def joined(h1, h2):
        def apply(cells):
            out = center * cells + h1(np.ascontiguousarray(cells)[None])[0]
            out += h2(np.ascontiguousarray(cells[flip])[None])[0][flip]
            return out * vol
        return apply
    return joined(h, hr), joined(hr, h)


# float64 elements of the largest dense 1D block of _toeplitz_product
_CHUNK = 1 << 15
# multiply-adds of the largest dgemm OpenBLAS runs on the calling thread:
# it gives a product of p multiply-adds min(cores, p // 2^18) threads, 2^18
# being SMP_THRESHOLD_MIN 65536 x GEMM_MULTITHREAD_THRESHOLD 4
_GEMM_ONE_THREAD = (1 << 19) - 1


def _toeplitz_product(kprof: np.ndarray, window: tuple, d: tuple,
                      rows: tuple):
    """The kernel side of a Toeplitz product for data of the given window:
    a function G -> out, out[r, t] = sum_u kprof[N-1+d+t-u] G[r, u] for
    t < rows, that applies it to any number of data rows.  t, u, d and rows
    have one entry per axis of kprof, G is (data rows,) + window, and every
    d+t-u must lie in [-(N-1), N-1].

    An all-zero profile makes zeros shaped as an FFT product's.  A 1D
    block of at most _CHUNK elements (every 1D product up to L = 7) is
    copied out of the profile and multiplied into the rows of G by BLAS;
    a profile zero at every displacement <= 0 keeps only the block columns
    u < d + rows.  These are the products constants_unit's released table
    hash was computed with, and on small blocks they beat the FFT.  Every
    other product is _fft_product.

    The rows of G go to BLAS in near-equal runs of at most
    _GEMM_ONE_THREAD multiply-adds, so every product runs on the calling
    thread.  A larger one wakes OpenBLAS's thread pool, whose workers then
    spin idle: CPU time that buys no wall time on blocks this small.  The
    split moves no bit, since each run takes the whole product's kernel
    and so its sum order.  For the truncation operator's products (rows
    s <= 64, width 3s) a split run has at least 4 rows, so numpy never
    sends it to gemv, and more than 1200 output elements, so it never
    takes OpenBLAS's SkylakeX small-matrix kernel.  A one-row product goes
    to gemv, which stays on one thread up to 115200 x 4 elements, above
    _CHUNK.
    """
    if not kprof.any():
        return lambda G: np.zeros(G.shape[:G.ndim - len(window)] + rows)
    if not _dense(kprof, window, rows):
        return _fft_product(kprof, window, d, rows)
    width = window[-1]
    N = (kprof.shape[0] + 1) // 2
    (d,), (rows,) = d, rows
    w = min(width, max(0, d + rows)) if not kprof[:N].any() else width
    # block row t is rev[N-1-d-t : N-1-d-t+width], rev = kprof reversed
    win = sliding_window_view(kprof[::-1], width)
    blk = np.ascontiguousarray(win[N - d - rows:N - d, :w][::-1])

    def apply(G):
        m = G.shape[0]
        runs = -(-m // (_GEMM_ONE_THREAD // max(1, w * rows)))
        out = np.empty((m, rows))
        edges = [m * i // runs for i in range(runs + 1)]
        for a, b in zip(edges, edges[1:]):
            np.matmul(G[a:b, :w], blk.T, out=out[a:b])
        return out
    return apply


def _dense(kprof: np.ndarray, window: tuple, rows: tuple) -> bool:
    """Whether a nonzero profile's _toeplitz_product is a dense 1D block
    rather than an FFT product."""
    return kprof.ndim == 1 and _CHUNK // window[-1] >= rows[0]


def _fft_product(kprof: np.ndarray, window: tuple, d: tuple, rows: tuple):
    """_toeplitz_product by circulant embedding.  Per axis, the profile
    segment kprof[N+d-W : N-1+d+R] (W the window, R the rows) convolved
    with G holds the product at offsets W-1 .. W-2+R, free of wrap-around
    at any period >= W+R-1; the segment's transform, made here once, and
    one of all rows of G use the least power of two that long, in rfftn's
    and irfftn's stages.  G is read in place, views included.  In 1D its
    rows go into one zeroed buffer, transformed, multiplied row by row (a
    product broadcast over rows takes a ufunc buffer of up to 8192
    elements) and inverted back into it; in 2D an rfft of the last axis
    into a zeroed buffer, an fft of the first axis in place, back an ifft
    in place and an irfft of the kept rows.  pocketfft transforms each line
    on its own and each product element is one rounded step, so no bit
    moves.  Negating the profile negates every rounded step: _pair's odd
    kernels stay odd.
    """
    N = (kprof.shape[0] + 1) // 2
    seg = kprof[tuple(slice(N + e - w, N - 1 + e + r)
                      for e, w, r in zip(d, window, rows))]
    P = tuple(1 << (w + r - 2).bit_length() for w, r in zip(window, rows))
    keep = [slice(w - 1, w - 1 + r) for w, r in zip(window, rows)]

    def forward(G):
        buf = np.zeros(G.shape[:-2] + (P[0], P[1] // 2 + 1), complex)
        np.fft.rfft(G, P[1], out=buf[..., :G.shape[-2], :])
        return np.fft.fft(buf, P[0], axis=-2, out=buf)
    spectrum = np.fft.rfft(seg, P[0]) if len(P) == 1 else forward(seg)

    def apply(G):
        if len(P) == 1:
            buf = np.zeros(G.shape[:-1] + P)
            buf[..., :window[0]] = G
            prod = np.fft.rfft(buf)
            for row in prod.reshape(-1, len(spectrum)):
                row *= spectrum
            return np.fft.irfft(prod, P[0], out=buf)[..., keep[0]]
        prod = forward(G)
        prod *= spectrum
        prod = np.fft.ifft(prod, P[0], axis=-2, out=prod)[..., keep[0], :]
        return np.fft.irfft(prod, P[1])[..., keep[1]]
    return apply


def apply_windowed(K: Kernel, f: GridFunction, out_slice, in_slice) -> np.ndarray:
    """T(f restricted to in_slice) evaluated on the out_slice cells only."""
    fr = np.zeros(f.grid.shape)
    fr[in_slice] = f.cells[in_slice]
    return apply_operator(K, GridFunction(f.grid, fr)).cells[out_slice]


def operator_norm_l2(K: Kernel, grid: Grid) -> float:
    """Discrete L2 -> L2 norm estimate by 20 power iterations on T* T, with
    T and T* prepared once per call (_pair)."""
    T, Ts = _pair(K, grid)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(grid.shape)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(20):
        w = Ts(T(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(float(np.abs((v * w).sum())))
        v = w / nw
    return sigma


# -- commutators --------------------------------------------------------------


# the largest commutator order m of T_b^m that the lab takes
MAX_ORDER = 4


def commutator_apply(K: Kernel, b: GridFunction, m: int, f: GridFunction,
                     center: float = 0.0) -> GridFunction:
    """T_b^m f via the binomial expansion in (b - c): m+1 applications of
    one prepared T.  Order 0 is apply_operator itself: summing into zeros
    could turn a -0.0 into +0.0."""
    if not 0 <= m <= MAX_ORDER:
        raise OperatorError(f"commutator order must be in 0..{MAX_ORDER}")
    if m == 0:
        return apply_operator(K, f)
    grid = f.grid
    T = _pair(K, grid)[0]
    bc = b.cells - center
    out = np.zeros(grid.shape)
    for h in range(m + 1):
        tf = T(bc**h * f.cells)
        tf *= ((-1) ** h) * math.comb(m, h) * bc ** (m - h)
        out += tf
    return GridFunction(grid, out)


# -- the dyadic maximal operator ----------------------------------------------


def maximal(f: GridFunction, A=young.power(1)) -> GridFunction:
    """The dyadic Orlicz maximal operator M_A f: at each cell, the max of
    the Luxemburg norms ||f||_{A,Q} over the base-lattice cubes Q
    containing it.  The default A(t) = t gives the dyadic maximal operator
    M f.

    A power gauge t^r takes block means, M(|f|^r)^(1/r).  Any other gauge
    takes exact norms only of the cubes that can attain the max somewhere.
    Block means give each cell the largest Jensen bound avg|f| / A^-1(1)
    over the cubes containing it; a cube's norm is at least its own bound,
    so one certainly below the least bound over its cells (its floor)
    attains no max.  One level at a time, young.luxemburg_close closes
    such cubes and keeps the open rows with their Jensen state, before the
    next block is made; one young.luxemburg_replay then takes the open
    rows of every level, each bitwise its norm alone.
    """
    grid = f.grid
    vals = np.abs(f.cells)
    power = A.family == young.POWER and A.params[1] == 1.0
    out = np.full(grid.shape, -np.inf)
    for split, ones, block in scope_blocks(
            grid, False, vals ** A.params[0] if power else vals):
        spread_max(out, split, block_mean(ones, block))
    if power:
        return GridFunction(grid, out ** (1.0 / A.params[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= A.inverse_one  # the Jensen bounds
    within, levels = tuple(range(1, 2 * grid.n, 2)), []
    for split, ones, block in scope_blocks(grid, False, vals):
        norms, rows = young.luxemburg_jensen(block, ones, A)
        rows = young.luxemburg_close(norms, rows,
                                     out.reshape(split).min(axis=within))
        levels.append((split, norms, rows))
    young.luxemburg_replay([level[1:] for level in levels], A)
    out.fill(-np.inf)
    for split, norms, _ in levels:
        spread_max(out, split, norms)
    return GridFunction(grid, out)


# -- grand maximal truncated operator ----------------------------------------


@dataclass(frozen=True)
class Truncation:
    """M_{T,.} for one kernel on one grid, prepared by `truncation` for any
    base-lattice cube Q0 and any number of stacked data arrays."""
    grid: Grid
    # (G, d, s) -> T of the rows of G on the cells of their cubes, and s ->
    # whether a level of side s is one product call: see truncation
    product: object
    whole: object


def truncation(K: Kernel, grid: Grid) -> Truncation:
    """The kernel side of the truncation maximal operator of K on a grid,
    prepared once for every call of grand_maximal_truncated on it.

    Its product(G, d, s) takes G of shape (H,) + cubes + window, a view as
    well: H stacked arrays, each cut into the windows of cubes of side s
    (per axis, the window starts d cells before its cube).  It returns T
    of each window on the (s,)*n cells of its cube, shaped (H,) + cubes +
    (s,)*n, cell volume not included.  The profile is evaluated once;
    each level's _toeplitz_product is made the first time its (window, d,
    rows) is asked for and kept.  An FFT product reads any arrays and run
    of cubes in place in one call (pocketfft gives each row its own bits),
    a dense block (from a contiguous copy) one array's whole level at a
    time (whole(s)): its bits depend on layout and row count.
    """
    kprof = K.profile(grid)
    products = {}

    def product(G, d, s):
        window = G.shape[-grid.n:]
        key = (window, d, s)
        if key not in products:
            rows = (s,) * grid.n
            products[key] = (_toeplitz_product(kprof, window, d, rows),
                             _dense(kprof, window, rows))
        apply, dense = products[key]
        if dense:
            return np.stack([apply(np.ascontiguousarray(g)) for g in G])
        return apply(G)
    return Truncation(grid, product, lambda s: _dense(kprof, (3 * s,), (s,)))


def grand_maximal_truncated(T: Truncation, F: np.ndarray,
                            Q0: Cube) -> np.ndarray:
    """M_{T,Q0} of each stacked array F[i]: at each cell x of Q0, the max
    over dyadic Q with x in Q subset Q0 of the cell-max of
    |T(F[i] chi_{3Q0 \\ 3Q})| over Q, and 0 off Q0.

    T is truncation(K, grid); F has shape (H,) + grid.shape and so has the
    result.  F is read on 3Q0 (clipped to the domain) only.  Computed level
    by level via T(f chi_{3Q0 \\ 3Q}) = T(f chi_{3Q0}) - T(f chi_{3Q}),
    for all H arrays at once.  A level's windows, views of one zero frame
    read in place, product, differences (in place) and cube maxima go in
    runs, each freed before the next, whose windows hold about F's cells:
    whole arrays where they fit (per), else one array's rows of cubes
    along the first axis in `runs` runs, at most F's cells plus one row.
    A dense level is one run (T.whole): its product's bits depend on its
    row count.  FFT products give each row its own bits, whatever the run.
    """
    grid = T.grid
    if Q0.lattice != BASE:
        raise OperatorError("the truncation maximal operator needs a "
                            "base-lattice cube Q0")
    n, S, H, N = grid.n, Q0.side, len(F), grid.cells_per_side
    vol = grid.cell_volume
    s3 = cube_slices(dilate(Q0, 3), grid)
    every = (slice(None),)
    d0 = tuple(o - a.start for a, o in zip(s3, Q0.origin))
    base = T.product(F[every + (None,) + s3], d0, S)[:, 0] * vol
    # T(f chi_{3Q0}) read F on 3Q0; the levels' windows read only the cells
    # o-S/2 .. o+3S/2-1 per axis: f chi_{3Q0} there, 0 outside the domain
    h = S // 2
    cut = [(max(o - h, 0), min(o + S + h, N), o - h) for o in Q0.origin]
    g = np.zeros((H,) + (2 * S,) * n)
    g[every + tuple(slice(a - z, b - z) for a, b, z in cut)] = \
        F[every + tuple(slice(a, b) for a, b, _ in cut)]
    out = np.zeros(F.shape)
    q0 = out[every + cube_slices(Q0, grid)]
    axes = (0,) + tuple(range(1, 2 * n + 1, 2)) + tuple(range(2, 2 * n + 1, 2))
    per = max(1, F.size // (3 * S) ** n)
    runs = -(-(3 * S) ** n // F.size)
    kids = [every + tuple(slice(i, None, 2) for i in o)
            for o in product((0, 1), repeat=n)]
    acc = np.zeros((H,) + (1,) * n)  # Q0's own term, |T(0)|
    for k in range(Q0.level + 1, grid.level + 1):
        s = S >> (k - Q0.level)
        c = S // s
        # (H,) + (S,)*n arrays seen as (H,) + (c,)*n cubes of (s,)*n cells;
        # splitting axes keeps a view a view
        split = (H,) + tuple(x for _ in range(n) for x in (c, s))
        based = base.reshape(split).transpose(axes)
        # a view of f chi_{3q} for each cube q of side s in Q0: per axis,
        # windows of 3s cells every s cells from frame cell S/2 - s
        wins = np.ndarray((H,) + (c,) * n + (3 * s,) * n, g.dtype, g,
                          (h - s) * sum(g.strides[1:]), g.strides[:1] + tuple(
                              x * s for x in g.strides[1:]) + g.strides[1:])
        level = q0 if s == 1 else np.empty((H,) + (c,) * n)  # cube maxima
        step, each = (c, H) if T.whole(s) else (-(-c // runs), per)
        for run in product([slice(i, i + each) for i in range(0, H, each)],
                           [slice(a, a + step) for a in range(0, c, step)]):
            part = T.product(wins[run], (s,) * n, s)
            part *= vol
            np.subtract(based[run], part, out=part)
            level[run] = _cube_max(np.abs(part, out=part), n)
            del part
        for kid in kids:  # each cube takes its parent's max
            np.maximum(level[kid], acc, out=level[kid])
        acc = level
    return out


def _cube_max(x: np.ndarray, n: int) -> np.ndarray:
    """The max over the last n axes of x; in cubes of at most 16 cells by
    halving, cell axes first, into arrays whose fast axis runs over the
    cubes (numpy reduces a short last axis one cube at a time)."""
    if x.shape[-1] ** n > 16:
        return x.max(axis=tuple(range(-n, 0)))
    x = x.transpose(tuple(range(-n, 0)) + tuple(range(x.ndim - n)))
    for _ in range(n):
        while len(x) > 1:
            h = len(x) // 2
            x = np.maximum(x[:h], x[h:], out=np.empty((h,) + x.shape[1:]))
        x = x[0]
    return x


# -- kernel smoothness (annulus sums) ----------------------------------------


def hormander_estimate(K: Kernel, A, grid: Grid, cube_budget: int = 64,
                       k_max: int = 8, seed: int = 0) -> tuple:
    """Lower-bound estimate of the annulus-summed Orlicz smoothness constant.

    For sampled base cubes Q and point pairs x, z in (1/2)Q, sums over k of
    (2^k l(Q))^n times the A-norm over 2^k Q of the kernel difference
    K(x, .) - K(z, .) restricted to the annulus 2^k Q minus 2^(k-1) Q.
    Annuli that exit the domain are dropped; the tail is extrapolated from
    the last two kept terms.

    All sampled cubes are summed in one pass (_annulus_sums), with one
    batched Luxemburg call for the whole estimate.  Each row of a batch is
    bitwise its norm alone, so every value, and the best one (candidate
    order, then pair order, first strict maximum), is the same as a
    cube-by-cube computation.
    """
    if k_max < 2:
        raise OperatorError("k_max must be >= 2")
    cand = _smoothness_cubes(grid, cube_budget, seed)
    pairs = []
    for q in cand:
        half = Cube(q.lattice, q.level,
                    tuple(c + q.side // 4 for c in q.origin), q.side // 2)
        pts = _stencil_cells(half, grid)
        pairs.append([(x, z) for i, x in enumerate(pts) for z in pts[i + 1:]])
    best = 0.0
    best_tail = 0.0
    for totals, tails in _annulus_sums(K, A, grid, cand, pairs, k_max):
        for val, tail in zip(totals, tails):
            if val > best:
                best, best_tail = val, tail
    return best, best_tail


def _smoothness_cubes(grid: Grid, cube_budget: int, seed: int) -> list:
    """The base cubes of side 4 .. N/2 (levels 1 .. L-2), level by level
    and row-major within a level, or cube_budget of them drawn without
    replacement by a generator seeded with seed, in that order.  A draw
    picks candidate indices and builds only the cubes it picked."""
    sizes = [1 << (k * grid.n) for k in range(1, grid.level - 1)]
    total = sum(sizes)
    if total <= cube_budget:
        picks = range(total)
    else:
        rng = np.random.default_rng(seed)
        picks = sorted(rng.choice(total, size=cube_budget, replace=False))
    firsts = np.cumsum([0] + sizes)
    out = []
    for i in picks:
        k = int(np.searchsorted(firsts, i, side="right"))
        s = grid.cells_per_side >> k
        pos = np.unravel_index(i - firsts[k - 1], (1 << k,) * grid.n)
        out.append(Cube(BASE, k, tuple(int(c) * s for c in pos), s))
    return out


def _stencil_cells(q: Cube, grid: Grid) -> list:
    """3-per-axis stencil of cell indices inside a cube."""
    axes = []
    for c in q.origin:
        axes.append(sorted({c, c + q.side // 2, c + q.side - 1}))
    return [tuple(ix) for ix in product(*axes)]


def _annulus_sums(K: Kernel, A, grid: Grid, cubes: list, pairs: list,
                  k_max: int) -> list:
    """Annulus sums of cubes for the cell pairs (x, z) of each: pairs[j]
    lists the pairs of cubes[j].  Returns one (totals, tails) per cube, one
    entry per pair.  For each annulus 2^k q minus 2^(k-1) q, every cube
    whose 2^k q stays in the domain adds one block of kernel differences
    (its pairs x cells of 2^k q).  The cubes of one side (and pair count)
    make their blocks of one k in one broadcast pair of K.conv calls, and
    every block goes into one Luxemburg call, a row group per (k, side)."""
    n = grid.n
    h = grid.cell_width
    centers = [grid.cell_centers(i) for i in range(n)]
    # the annuli of each cube before the first 2^k q that leaves the domain
    kept = [next((k - 1 for k in range(1, k_max + 1)
                  if is_clipped(dilate(q, 1 << k), grid)), k_max)
            for q in cubes]
    # the cubes of each side and pair count, in order
    kinds = {}
    for j, q in enumerate(cubes):
        kinds.setdefault((q.side, len(pairs[j])), []).append(j)
    blocks, owners = [], []
    for k in range(1, k_max + 1):
        for js in kinds.values():
            js = [j for j in js if kept[j] >= k]
            if not js:
                continue
            # centers of x and z per axis, shaped (cubes, pairs, 1, ..., 1)
            pts = np.asarray(grid.origin) + (np.asarray(
                [pairs[j] for j in js], dtype=float) + 0.5) * h
            col = pts.shape[:2] + (1,) * n
            side = cubes[js[0]].side << k
            # cells of 2^k q per cube and axis
            cells = np.array([dilate(cubes[j], 1 << k).origin
                              for j in js])[:, :, None] + np.arange(side)
            ys = [centers[i][cells[:, i]].reshape(
                (len(js), 1) + (1,) * i + (side,) + (1,) * (n - 1 - i))
                for i in range(n)]
            dvals = K.conv(*(pts[..., 0, i].reshape(col) - ys[i]
                             for i in range(n)), h) \
                - K.conv(*(pts[..., 1, i].reshape(col) - ys[i]
                           for i in range(n)), h)
            # annulus: zero the concentric inner cube 2^(k-1) q
            dvals[(slice(None),) * 2
                  + (slice(side // 4, side // 4 + side // 2),) * n] = 0.0
            blocks.append(np.abs(dvals).reshape(col[0] * col[1], -1))
            owners.append((k, js))
    terms = [[] for _ in cubes]
    if blocks:
        norms = young.luxemburg_norm_batch(blocks, [np.broadcast_to(
            grid.cell_volume, b.shape) for b in blocks], A)
        start = 0
        for k, js in owners:
            for j in js:
                part = norms[start:start + len(pairs[j])]
                start += len(pairs[j])
                terms[j].append(((1 << k) * cubes[j].length(grid)) ** n
                                * part)
    out = []
    for pq, tj in zip(pairs, terms):
        totals = sum(tj, np.zeros(len(pq)))
        tails = [0.0] * len(pq)
        if len(tj) >= 2:
            for i, (prev, last) in enumerate(zip(tj[-2].tolist(),
                                                 tj[-1].tolist())):
                if prev > 0:
                    rho = last / prev
                    tails[i] = last * rho / (1.0 - rho) if rho < 1 \
                        else math.inf
        out.append((totals.tolist(), tails))
    return out

