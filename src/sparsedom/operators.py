"""Kernel constructors, discrete singular-integral application, iterated
commutators, maximal operators and kernel-smoothness (annulus sum) estimates.

Convolution kernels are evaluated once per grid on the difference lattice
(the profile), so an operator is a Toeplitz matrix (block Toeplitz in 2D)
that is never built whole.  Every application goes through one chunked
primitive, `_toeplitz_rows`, which copies out blocks of that matrix and
multiplies them into many rows of data at once: the truncation maximal
operator makes one product per dyadic level, and apply_operator and its
adjoint make two, one per half of the displacements, joined by a flip
identity that keeps odd kernels exactly odd on even data (`_apply`).  The
work is O(N^2) per axis pair from O(N) kernel evaluations per axis.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import young
from .dyadic import (BASE, Cube, GeometryError, Grid, GridFunction,
                     base_cubes, block_mean, cube_slices, dilate, is_clipped,
                     scope_max)

E = math.e


class OperatorError(ValueError):
    pass


@dataclass(eq=False)
class Kernel:
    """Evaluation contract K(x, y) with singularity metadata.

    Convolution kernels carry ``conv(u, h)``: the profile at displacement
    u = x - y, with h the cell width used to regularize off-diagonal
    singularities (h = 0 means no regularization).  Explicit kernels carry
    a cell matrix instead.
    """

    family: str
    n: int
    singular: bool
    conv: object = None   # callable (u array, h) -> values
    matrix: object = None  # ndarray (cells, cells)
    params: dict = field(default_factory=dict)

    def evaluate(self, x, y, h: float = 0.0):
        if self.matrix is not None:
            raise OperatorError("matrix kernels have no pointwise evaluator")
        if self.n == 1:
            return self.conv(np.asarray(x, dtype=float)
                             - np.asarray(y, dtype=float), h)
        u1 = np.asarray(x[0], dtype=float) - np.asarray(y[0], dtype=float)
        u2 = np.asarray(x[1], dtype=float) - np.asarray(y[1], dtype=float)
        return self.conv(u1, u2, h)

    def spec(self, grid: Grid) -> tuple:
        """Canonical content key of the kernel on a grid: family and params,
        or for a kernel without params a sha256 of its matrix or of its
        profile on the grid."""
        if self.params:
            return (self.family, self.n, self.singular,
                    tuple(sorted(self.params.items())))
        data = self.matrix if self.matrix is not None else self.profile(grid)
        digest = hashlib.sha256(np.ascontiguousarray(data).tobytes())
        return (self.family, self.n, self.singular, digest.hexdigest())

    def profile(self, grid: Grid) -> np.ndarray:
        """Kernel values on the displacement lattice of a grid."""
        N = grid.cells_per_side
        h = grid.cell_width
        if grid.n == 1:
            u = np.arange(-(N - 1), N) * h  # kvec[N-1+i-j] = K(x_i, y_j)
            vals = np.asarray(self.conv(u, h), dtype=float)
            if self.singular:
                vals[N - 1] = 0.0
        else:
            d = np.arange(-(N - 1), N) * h
            vals = np.asarray(self.conv(d[:, None], d[None, :], h),
                              dtype=float)
            if self.singular:
                vals[N - 1, N - 1] = 0.0
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

    omega_samples are values on a uniform angular grid over [0, 2pi); the
    profile is interpolated periodically.  Mean zero is required.
    """
    om = np.asarray(omega_samples, dtype=float)
    if om.ndim != 1 or len(om) < 4:
        raise OperatorError("need at least 4 angular samples")
    if abs(om.mean()) > 1e-10:
        raise OperatorError("angular part must have mean zero")
    M = len(om)
    theta = np.arange(M + 1) * (2 * math.pi / M)
    omp = np.concatenate([om, om[:1]])

    def conv(u1, u2, h):
        rho2 = u1 * u1 + u2 * u2
        ang = np.mod(np.arctan2(u2, u1), 2 * math.pi)
        omv = np.interp(ang, theta, omp)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(rho2 == 0.0, 0.0,
                           omv / np.where(rho2 == 0.0, 1.0, rho2))
        return out
    return Kernel("homog", 2, True, conv=conv,
                  params={"samples": tuple(om.tolist())})


def make_matrix(mat) -> Kernel:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OperatorError("matrix kernel must be square")
    return Kernel("matrix", 1, False, matrix=m)


def parse_kernel(text: str) -> Kernel:
    """Scenario grammar: hilbert | dini(omega=power(d),ck=c) |
    homog(omega_table=path) | counter(r=..,beta=..,eta=..) | matrix(path)."""
    text = text.strip()
    if text == "hilbert":
        return make_hilbert()
    m = re.match(r"([a-z_]+)\((.*)\)$", text)
    if not m:
        raise OperatorError(f"cannot parse kernel spec {text!r}")
    name, body = m.group(1), m.group(2)
    kv = {}
    for part in _split_args(body):
        if "=" not in part:
            raise OperatorError(f"kernel argument {part!r} needs key=value")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    if name == "dini":
        om = kv.get("omega", "power(0.5)")
        m2 = re.match(r"power\(([-+0-9.eE]+)\)$", om)
        if not m2:
            raise OperatorError(f"dini omega must be power(d), got {om!r}")
        return make_dini(float(m2.group(1)), float(kv.get("ck", 1.0)))
    if name == "counter":
        return make_counter(float(kv.get("r", 2.0)),
                            float(kv.get("beta", 1.0)),
                            float(kv.get("eta", 4.0)))
    if name == "homog":
        path = kv.get("omega_table")
        if path is None:
            raise OperatorError("homog needs omega_table=path")
        return make_homog(np.loadtxt(path, delimiter=",", ndmin=1))
    if name == "matrix":
        path = kv.get("path")
        if path is None:
            raise OperatorError("matrix needs path=csv")
        return make_matrix(np.loadtxt(path, delimiter=",", ndmin=2))
    raise OperatorError(f"unknown kernel family {name!r}")


def _split_args(body: str) -> list:
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur:
        out.append("".join(cur))
    return [p for p in (s.strip() for s in out) if p]


# -- operator application -----------------------------------------------------


def apply_operator(K: Kernel, f: GridFunction) -> GridFunction:
    """Tf(x) = sum_y K(x, y) f(y) |cell|, diagonal skipped when singular.

    Odd kernels give an exactly odd result on even data (see _apply).
    """
    grid = f.grid
    if K.matrix is not None:
        if K.matrix.shape[0] != f.cells.size:
            raise OperatorError("matrix kernel size does not match grid")
        out = (K.matrix @ f.cells.ravel()) * grid.cell_volume
        return GridFunction(grid, out.reshape(grid.shape))
    if K.n != grid.n:
        raise OperatorError("kernel dimension does not match grid")
    out = _apply(K.profile(grid), f.cells) * grid.cell_volume
    return GridFunction(grid, out)


def _apply(kprof: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """sum_j kprof[N-1+i-j] cells[j] for each cell i (index per axis),
    without the cell volume, as T f = K(0) f + H(K, f) + R H(RK, Rf).

    R reverses every axis.  H sums over the displacements i - j after 0 in
    row-major order: one _toeplitz_rows product with a copy of the profile
    zeroed up to its center.  For odd K (RK = -K) and even f the second H
    is the first with every input negated, so T f is exactly odd.  Both
    products need C-contiguous data: numpy's matmul on a reversed view
    sums in another order.
    """
    flip = (slice(None, None, -1),) * cells.ndim

    def half(kp, g):
        kz = kp.copy()
        kz.flat[:kz.size // 2 + 1] = 0.0
        return _toeplitz_rows(kz, np.ascontiguousarray(g)[None],
                              (0,) * g.ndim, g.shape)[0]
    out = kprof.flat[kprof.size // 2] * cells + half(kprof, cells)
    out += half(kprof[flip], cells[flip])[flip]
    return out


# float64 elements per temporary of _toeplitz_rows (256 KB)
_CHUNK = 1 << 15


def _toeplitz_rows(kprof: np.ndarray, G: np.ndarray, d: tuple,
                   rows: tuple) -> np.ndarray:
    """out[r, t] = sum_u kprof[N-1+d+t-u] G[r, u] for t < rows, with t, u,
    d and rows one entry per axis of kprof; G is (data rows,) + window.

    In 1D the rows x width block of the profile, the same for every row of
    G, is copied out in chunks of at most _CHUNK elements, each multiplied
    into G as one matrix product.  In 2D the result is a sum over the row
    displacements e = t1 - u1, each the 1D product of profile row
    N-1+d1+e with the rows of G it pairs, stacked; all-zero profile rows
    are skipped.  Every displacement d+t-u must lie in [-(N-1), N-1].
    """
    N = (kprof.shape[0] + 1) // 2
    if kprof.ndim == 2:
        R, W1, W2 = G.shape
        out = np.zeros((R, *rows))
        for e in range(1 - W1, rows[0]):
            krow = kprof[N - 1 + d[0] + e]
            if not krow.any():
                continue
            lo, hi = max(0, -e), min(W1, rows[0] - e)
            part = _toeplitz_rows(krow, G[:, lo:hi].reshape(-1, W2), d[1:],
                                  rows[1:])
            out[:, lo + e:hi + e] += part.reshape(R, hi - lo, rows[1])
        return out
    (d,), (rows,) = d, rows
    width = G.shape[1]
    # block row t is rev[N-1-d-t : N-1-d-t+width], rev = kprof reversed
    win = sliding_window_view(kprof[::-1], width)
    step = max(1, _CHUNK // width)
    out = np.empty((G.shape[0], rows))
    for t0 in range(0, rows, step):
        t1 = min(t0 + step, rows)
        blk = np.ascontiguousarray(win[N - d - t1:N - d - t0][::-1])
        out[:, t0:t1] = G @ blk.T
    return out


def apply_windowed(K: Kernel, f: GridFunction, out_slice, in_slice) -> np.ndarray:
    """T(f restricted to in_slice) evaluated on the out_slice cells only."""
    fr = np.zeros(f.grid.shape)
    fr[in_slice] = f.cells[in_slice]
    return apply_operator(K, GridFunction(f.grid, fr)).cells[out_slice]


def operator_norm_l2(K: Kernel, grid: Grid) -> float:
    """Discrete L2 -> L2 norm estimate by 20 power iterations on T* T."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(grid.shape)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(20):
        tv = apply_operator(K, GridFunction(grid, v)).cells
        w = _apply_adjoint(K, grid, tv)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = math.sqrt(float(np.abs((v * w).sum())))
        v = w / nw
    return sigma


def _apply_adjoint(K: Kernel, grid: Grid, cells: np.ndarray) -> np.ndarray:
    """T* f: the transposed matrix, or the profile reversed along every
    axis, since K(y, x) = K(-(x - y))."""
    if K.matrix is not None:
        return (K.matrix.T @ cells.ravel()).reshape(grid.shape) \
            * grid.cell_volume
    return _apply(K.profile(grid)[(slice(None, None, -1),) * grid.n],
                  cells) * grid.cell_volume


# -- commutators --------------------------------------------------------------


@dataclass(frozen=True)
class CommutatorSpec:
    b: GridFunction
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= 4:
            raise OperatorError("commutator order must be in 0..4")


def commutator_apply(K: Kernel, spec: CommutatorSpec, f: GridFunction,
                     center: float = 0.0) -> GridFunction:
    """T_b^m f via the binomial expansion in (b - c): m+1 applications of T."""
    if spec.m == 0:
        return apply_operator(K, f)
    grid = f.grid
    bc = spec.b.cells - center
    out = np.zeros(grid.shape)
    for h in range(spec.m + 1):
        tf = apply_operator(K, GridFunction(grid, bc**h * f.cells)).cells
        out += ((-1) ** h) * math.comb(spec.m, h) * bc ** (spec.m - h) * tf
    return GridFunction(grid, out)


def commutator_recursive(K: Kernel, spec: CommutatorSpec,
                         f: GridFunction) -> GridFunction:
    """Direct recursion T_b^m f = b T_b^(m-1) f - T_b^(m-1)(b f); the oracle
    the expansion is tested against."""
    if spec.m == 0:
        return apply_operator(K, f)
    grid = f.grid
    inner = CommutatorSpec(spec.b, spec.m - 1)
    t1 = commutator_recursive(K, inner, f).cells
    t2 = commutator_recursive(
        K, inner, GridFunction(grid, spec.b.cells * f.cells)).cells
    return GridFunction(grid, spec.b.cells * t1 - t2)


# -- maximal operators --------------------------------------------------------


def maximal(f: GridFunction, variant: str = "M", A=None, delta: float = None,
            w: GridFunction = None, shifted: bool = False) -> GridFunction:
    """Dyadic maximal operator over cubes containing each cell.

    variant: "M" (averages of |f|), "MA" (Luxemburg norms for the Young
    function A), "Mdelta" (delta-power averages), "MAW" (weighted Luxemburg
    norms with weight w).  Scope is the base lattice by default; shifted=True
    adds every shifted-lattice cube meeting the domain.
    """
    grid = f.grid
    if variant not in ("M", "MA", "Mdelta", "MAW"):
        raise OperatorError(f"unknown maximal variant {variant!r}")
    if variant in ("MA", "MAW") and A is None:
        raise OperatorError(f"{variant} needs a Young function")
    if variant == "MAW" and w is None:
        raise OperatorError("MAW needs a weight")
    if variant == "Mdelta" and not (delta and 0 < delta < 1):
        raise OperatorError("delta must lie in (0, 1)")

    vals = np.abs(f.cells)
    if variant == "Mdelta" or (variant == "MA" and A.family == young.POWER
                               and A.params[1] == 1.0):
        # M(|f|^r)^(1/r): r = delta, or the exponent of the power gauge
        r = delta if variant == "Mdelta" else A.params[0]
        out = scope_max(grid, shifted, block_mean, vals ** r) ** (1.0 / r)
    elif variant == "M":
        out = scope_max(grid, shifted, block_mean, vals)
    elif variant == "MA":
        out = scope_max(grid, shifted,
                        lambda m, v: young.luxemburg_norm_batch(v, m, A), vals)
    else:
        out = scope_max(grid, shifted,
                        lambda m, v, wt: young.luxemburg_norm_batch(v, wt, A),
                        vals, w.cells)
    return GridFunction(grid, out)


# -- grand maximal truncated operator ----------------------------------------


def grand_maximal_truncated(K: Kernel, f: GridFunction,
                            Q0: Cube) -> GridFunction:
    """M_{T,Q0} f: at each cell x of Q0, the max over dyadic Q with
    x in Q subset Q0 of the cell-max of |T(f chi_{3Q0 \\ 3Q})| over Q.

    f is read on 3Q0 (clipped to the domain) only.  Computed level by level
    via T(f chi_{3Q0 \\ 3Q}) = T(f chi_{3Q0}) - T(f chi_{3Q}), with one
    product for all the cubes Q of a level.
    """
    grid = f.grid
    if Q0.lattice != BASE:
        raise OperatorError("the truncation maximal operator needs a "
                            "base-lattice cube Q0")
    if K.n != grid.n:
        raise OperatorError("kernel dimension does not match grid")
    n, N, S = grid.n, grid.cells_per_side, Q0.side
    if K.matrix is not None:
        if K.matrix.shape[0] != N:
            raise OperatorError("matrix kernel size does not match grid")
        Mp = np.pad(K.matrix, ((0, 0), (N, N)))  # cell c in column N + c

        def apply(G, d, s):
            # the rows of the j-th cube of side s in Q0 and the columns of
            # its window G[j], which starts d cells before the cube
            j = Q0.origin[0] + s * np.arange(len(G))
            blk = sliding_window_view(Mp, (s, G.shape[1]))[j, j + N - d[0]]
            return (blk @ G[..., None])[..., 0]
    else:
        kprof = K.profile(grid)

        def apply(G, d, s):
            return _toeplitz_rows(kprof, G, d, (s,) * n)
    # f chi_{3Q0} on the cells o-S .. o+2S-1 per axis, zero outside the
    # domain; T(f chi_{3Q0}) on Q0 reads only the cells inside it
    s3 = cube_slices(dilate(Q0, 3), grid)
    inner = tuple(slice(a.start - o + S, a.stop - o + S)
                  for a, o in zip(s3, Q0.origin))
    g = np.zeros((3 * S,) * n)
    g[inner] = f.cells[s3]
    d0 = tuple(o - a.start for a, o in zip(s3, Q0.origin))
    base = apply(g[(None,) + inner], d0, S)[0] * grid.cell_volume
    out = np.zeros(grid.shape)
    axes = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    for k in range(Q0.level + 1, grid.level + 1):
        s = S >> (k - Q0.level)
        c = S // s
        # (S,)*n arrays seen as (c,)*n cubes of (s,)*n cells; splitting
        # axes keeps a view a view
        split = [x for _ in range(n) for x in (c, s)]
        # f chi_{3q} for each cube q of side s in Q0, in row-major order
        wins = np.ascontiguousarray(sliding_window_view(g, (3 * s,) * n)[
            (slice(S - s, 2 * S - s, s),) * n])
        part = apply(wins.reshape((-1,) + wins.shape[n:]), (s,) * n, s)
        diff = np.abs(base.reshape(split).transpose(axes)
                      - part.reshape((c,) * n + (s,) * n) * grid.cell_volume)
        view = out[cube_slices(Q0, grid)].reshape(split).transpose(axes)
        np.maximum(view, diff.max(axis=tuple(range(n, 2 * n)), keepdims=True),
                   out=view)
    return GridFunction(grid, out)


# -- kernel smoothness (annulus sums) ----------------------------------------


def hormander_estimate(K: Kernel, A, grid: Grid, cube_budget: int = 64,
                       k_max: int = 8, seed: int = 0) -> tuple:
    """Lower-bound estimate of the annulus-summed Orlicz smoothness constant.

    For sampled base cubes Q and point pairs x, z in (1/2)Q, sums over k of
    (2^k l(Q))^n times the A-norm over 2^k Q of the kernel difference
    K(x, .) - K(z, .) restricted to the annulus 2^k Q minus 2^(k-1) Q.
    Annuli that exit the domain are dropped; the tail is extrapolated from
    the last two kept terms.
    """
    if K.matrix is not None:
        raise OperatorError("smoothness estimate needs a pointwise kernel")
    if k_max < 2:
        raise OperatorError("k_max must be >= 2")
    rng = np.random.default_rng(seed)
    cand = [q for q in base_cubes(grid, min_level=1)
            if q.side >= 4 and q.side < grid.cells_per_side]
    if len(cand) > cube_budget:
        idx = rng.choice(len(cand), size=cube_budget, replace=False)
        cand = [cand[i] for i in sorted(idx)]
    best = 0.0
    best_tail = 0.0
    for q in cand:
        half = Cube(q.lattice, q.level,
                    tuple(c + q.side // 4 for c in q.origin), q.side // 2)
        pts = _stencil_cells(half, grid)
        pairs = [(x, z) for i, x in enumerate(pts) for z in pts[i + 1:]]
        for val, tail in zip(*_annulus_sums(K, A, grid, q, pairs, k_max)):
            if val > best:
                best, best_tail = val, tail
    return best, best_tail


def _stencil_cells(q: Cube, grid: Grid) -> list:
    """3-per-axis stencil of cell indices inside a cube."""
    axes = []
    for c in q.origin:
        axes.append(sorted({c, c + q.side // 2, c + q.side - 1}))
    from itertools import product as _p
    return [tuple(ix) for ix in _p(*axes)]


def _annulus_sums(K: Kernel, A, grid: Grid, q: Cube, pairs: list,
                  k_max: int) -> tuple:
    """Annulus sums of one cube q for every cell pair (x, z) in pairs:
    (totals, tails), one entry per pair.  Each annulus 2^k q minus
    2^(k-1) q costs one kernel evaluation on (pairs x cells of 2^k q) and
    one batched Luxemburg norm."""
    n = grid.n
    h = grid.cell_width
    # centers of x and z per axis, shaped (pairs, 1, ..., 1)
    pts = np.asarray(grid.origin) + (np.asarray(pairs, dtype=float) + 0.5) * h
    col = (len(pairs),) + (1,) * n
    xs = [pts[:, 0, i].reshape(col) for i in range(n)]
    zs = [pts[:, 1, i].reshape(col) for i in range(n)]
    terms = []
    for k in range(1, k_max + 1):
        try:
            big = dilate(q, 1 << k)
            small = dilate(q, 1 << (k - 1))
        except GeometryError:
            break
        if is_clipped(big, grid):
            break
        sl = cube_slices(big, grid)
        ys = np.meshgrid(*(grid.cell_centers(i)[sl[i]] for i in range(n)),
                         indexing="ij", sparse=True)
        dvals = K.conv(*(x - y for x, y in zip(xs, ys)), h) \
            - K.conv(*(z - y for z, y in zip(zs, ys)), h)
        # annulus: zero the inner cube 2^(k-1) q
        dvals[(slice(None),) + tuple(
            slice(s - o, s - o + small.side)
            for s, o in zip(small.origin, big.origin))] = 0.0
        dvals = np.abs(dvals).reshape(len(pairs), -1)
        norms = young.luxemburg_norm_batch(
            dvals, np.full(dvals.shape, grid.cell_volume), A)
        terms.append(((1 << k) * q.length(grid)) ** n * norms)
    totals = sum(terms, np.zeros(len(pairs)))
    tails = [0.0] * len(pairs)
    if len(terms) >= 2:
        for i, (prev, last) in enumerate(zip(terms[-2].tolist(),
                                             terms[-1].tolist())):
            if prev > 0:
                rho = last / prev
                tails[i] = last * rho / (1.0 - rho) if rho < 1 else math.inf
    return totals.tolist(), tails


# -- angular modulus for homogeneous kernels ---------------------------------


def omega_modulus(omega_samples, B, t: float) -> float:
    """sup over 16 rotations 0 < |y| <= t of the Luxemburg B-norm on the
    circle of Omega(. + y) - Omega(.)."""
    om = np.asarray(omega_samples, dtype=float)
    if t <= 0:
        return 0.0
    M = len(om)
    dtheta = 2 * math.pi / M
    angles = np.linspace(0.0, t, 17)[1:]
    theta_grid = np.arange(M) * dtheta
    theta_ext = np.concatenate([theta_grid, [2 * math.pi]])
    om_ext = np.concatenate([om, om[:1]])
    shifted = np.interp(np.mod(theta_grid + angles[:, None], 2 * math.pi),
                        theta_ext, om_ext)
    return float(young.luxemburg_norm_batch(
        shifted - om, np.full(shifted.shape, dtheta), B).max())


def dini_integral(omega_samples, B) -> tuple:
    """Quadrature of int_0^1 omega(t) dt / t on 40 log-spaced points of
    [1e-4, 1], plus a convergence verdict from the small-t chunk decay."""
    ts = np.geomspace(1e-4, 1.0, 40)
    vals = np.array([omega_modulus(omega_samples, B, t) for t in ts])
    u = np.log(ts)
    chunk = 0.5 * (vals[1:] + vals[:-1]) * np.diff(u)
    value = float(chunk.sum())
    head = chunk[:6]
    converged = bool(head.sum() <= 0.05 * max(value, 1e-300)) or \
        bool(head[0] < 0.5 * head[-1])
    return value, converged
