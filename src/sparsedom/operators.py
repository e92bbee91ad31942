"""Kernel constructors, discrete singular-integral application, iterated
commutators, maximal operators and kernel-smoothness (annulus sum) estimates.

Convolution kernels are evaluated once per grid on the difference lattice
(the profile), so a 1D operator is a Toeplitz matrix that is never built
whole.  It is applied by one of two chunked primitives, each keeping its
temporaries at or below _CHUNK elements: `_toeplitz_1d` multiplies and adds
the two cells at distance m from x elementwise before each row is summed,
so odd kernels cancel exactly on even data (apply_operator and its
adjoint); `_toeplitz_rows` copies out blocks of the Toeplitz matrix and
multiplies them into many rows of data at once (the truncation maximal
operator, one product per dyadic level).  Both do O(N^2) work from O(N)
kernel evaluations.
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
                     base_cubes, build_lattices, cube_slices, descendants,
                     dilate, is_clipped)

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
    c_k: float = 1.0
    params: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

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
        """Kernel values on the displacement lattice of a grid, cached."""
        key = (grid.n, grid.origin, grid.side, grid.level)
        if key in self._cache:
            return self._cache[key]
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
        vals.setflags(write=False)
        self._cache[key] = vals
        return vals


# -- kernel constructors ------------------------------------------------------


def make_hilbert() -> Kernel:
    def conv(u, h):
        with np.errstate(divide="ignore"):
            return np.where(u == 0.0, 0.0, 1.0 / np.where(u == 0.0, 1.0, u))
    return Kernel("hilbert", 1, True, conv=conv, c_k=1.0)


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
    return Kernel("dini", 1, True, conv=conv, c_k=1.5 * c_k,
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


def make_matrix(mat, singular: bool = False) -> Kernel:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OperatorError("matrix kernel must be square")
    return Kernel("matrix", 1, singular, matrix=m)


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

    Cells symmetric about x are paired elementwise before reduction, so odd
    kernels cancel exactly on even data.
    """
    grid = f.grid
    if K.matrix is not None:
        if K.matrix.shape[0] != f.cells.size:
            raise OperatorError("matrix kernel size does not match grid")
        out = (K.matrix @ f.cells.ravel()) * grid.cell_volume
        return GridFunction(grid, out.reshape(grid.shape))
    if K.n != grid.n:
        raise OperatorError("kernel dimension does not match grid")
    if grid.n == 1:
        return GridFunction(grid, _apply_1d(K, grid, f.cells))
    return GridFunction(grid, _apply_2d(K.profile(grid), grid, f.cells))


def _apply_1d(K: Kernel, grid: Grid, cells: np.ndarray) -> np.ndarray:
    return _toeplitz_1d(K.profile(grid), cells) * grid.cell_width


# float64 elements per temporary of the chunked kernels below (256 KB)
_CHUNK = 1 << 15


def _toeplitz_1d(kvec: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """sum_j kvec[N-1+i-j] cells[j] for every i, without the cell width.

    For each distance m = 1..N-1 the terms kvec[N-1-m] f[i+m] and
    kvec[N-1+m] f[i-m] are added elementwise before the row is summed, with
    zero padding past the ends.  Row i and its mirror row N-1-i sum the
    same number of pairs in the same order, so an odd profile on even data
    gives an exactly odd result.  Rows are done in chunks of at most _CHUNK
    pairs, a chunk of the first half together with its mirror chunk; a
    chunk stops at the farthest cell any of its rows reaches.
    """
    N = cells.size
    kright = kvec[N - 2::-1]  # distance m = 1..N-1 to the right
    kleft = kvec[N:]          # distance m = 1..N-1 to the left
    pad = np.zeros(N - 1)
    fpad = np.concatenate([pad, cells, pad])
    right = sliding_window_view(fpad, N - 1)  # right[N+i, m-1] = f[i+m]
    # left[i, m-1] = f[i-m], read forward from a reversed copy
    left = sliding_window_view(fpad[::-1].copy(), N - 1)[::-1]
    rows = max(1, _CHUNK // (N - 1))
    pair = np.empty(rows * (N - 1))
    tmp = np.empty(rows * (N - 1))
    out = np.empty(N)
    half = N // 2
    for i0 in range(0, half, rows):
        i1 = min(i0 + rows, half)
        reach = N - 1 - i0  # farthest distance any row here or mirrored needs
        for a, b in ((i0, i1), (N - i1, N - i0)):
            p = pair[:(b - a) * reach].reshape(b - a, reach)
            t = tmp[:(b - a) * reach].reshape(b - a, reach)
            np.multiply(right[N + a:N + b, :reach], kright[:reach], out=p)
            np.multiply(left[a:b, :reach], kleft[:reach], out=t)
            p += t
            p.sum(axis=1, out=out[a:b])
    out += kvec[N - 1] * cells
    return out


def _toeplitz_rows(kvec: np.ndarray, G: np.ndarray, d: int,
                   rows: int) -> np.ndarray:
    """out[r, t] = sum_u kvec[N-1+d+t-u] G[r, u] for t < rows.

    The rows x width block of the profile is the same for every row of G;
    it is copied out in chunks of at most _CHUNK elements, each multiplied
    into G as one matrix product, so large blocks are never built whole.
    Every displacement d+t-u must lie in [-(N-1), N-1].
    """
    N = (kvec.size + 1) // 2
    width = G.shape[1]
    # block row t is rev[N-1-d-t : N-1-d-t+width], rev = kvec reversed
    win = sliding_window_view(kvec[::-1], width)
    step = max(1, _CHUNK // width)
    out = np.empty((G.shape[0], rows))
    for t0 in range(0, rows, step):
        t1 = min(t0 + step, rows)
        blk = np.ascontiguousarray(win[N - d - t1:N - d - t0][::-1])
        out[:, t0:t1] = G @ blk.T
    return out


def _apply_2d(kmat: np.ndarray, grid: Grid, cells: np.ndarray) -> np.ndarray:
    """kmat is the profile, kmat[N-1+i1-j1, N-1+i2-j2] = K(x_i, y_j)."""
    N = grid.cells_per_side
    out = np.empty((N, N))
    for i1 in range(N):
        rows = kmat[N - 1 + i1 - (N - 1):N + i1, :][::-1]
        for i2 in range(N):
            block = rows[:, N - 1 + i2 - (N - 1):N + i2][:, ::-1]
            arr = block * cells
            # fold the largest box centered at (i1, i2) so opposite
            # displacements are added elementwise (exact odd cancellation)
            r1 = min(i1, N - 1 - i1)
            r2 = min(i2, N - 1 - i2)
            box = arr[i1 - r1:i1 + r1 + 1, i2 - r2:i2 + r2 + 1]
            folded = box + box[::-1, ::-1]
            s = 0.5 * float(folded.sum())
            rest = arr.copy()
            rest[i1 - r1:i1 + r1 + 1, i2 - r2:i2 + r2 + 1] = 0.0
            s += float(rest.sum())
            out[i1, i2] = s
    return out * grid.cell_volume


def apply_windowed(K: Kernel, f: GridFunction, out_slice, in_slice) -> np.ndarray:
    """T(f restricted to in_slice) evaluated on the out_slice cells only.

    1D convolution kernels take plain dot products over the window, with no
    symmetric pairing; 2D grids and matrix kernels apply T to the
    restricted f and keep out_slice, which is how the truncation maximal
    operator uses it there.
    """
    grid = f.grid
    if grid.n != 1 or K.matrix is not None:
        fr = np.zeros(grid.shape)
        fr[in_slice] = f.cells[in_slice]
        full = apply_operator(K, GridFunction(grid, fr)).cells
        return full[out_slice]
    N = grid.cells_per_side
    a, b = in_slice[0].start or 0, in_slice[0].stop
    b = N if b is None else b
    oa, ob = out_slice[0].start or 0, out_slice[0].stop
    ob = N if ob is None else ob
    if b <= a or ob <= oa:
        return np.zeros(max(ob - oa, 0))
    kvec = K.profile(grid)
    s = b - a
    # row for output cell i: kvec[N-1+i-j], j = a..b-1 (descending indices)
    win = sliding_window_view(kvec, s)
    base = N - 1 + oa - (b - 1)
    W = win[base:base + (ob - oa)]
    fwin = f.cells[a:b][::-1]
    return (W @ fwin) * grid.cell_width


def operator_norm_l2(K: Kernel, grid: Grid, iters: int = 20) -> float:
    """Discrete L2 -> L2 norm estimate by power iteration on T* T."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(grid.shape)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
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
    kflip = K.profile(grid)[(slice(None, None, -1),) * grid.n]
    if grid.n == 1:
        return _toeplitz_1d(kflip, cells) * grid.cell_width
    return _apply_2d(kflip, grid, cells)


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
    if variant == "Mdelta":
        if not (delta and 0 < delta < 1):
            raise OperatorError("delta must lie in (0, 1)")
        g = GridFunction(grid, np.abs(f.cells) ** delta)
        base = maximal(g, "M", shifted=shifted)
        return GridFunction(grid, base.cells ** (1.0 / delta))
    if variant == "MA" and A is not None and A.family == young.POWER \
            and A.params[1] == 1.0:
        r = A.params[0]
        g = GridFunction(grid, np.abs(f.cells) ** r)
        base = maximal(g, "M", shifted=shifted)
        return GridFunction(grid, base.cells ** (1.0 / r))

    vals = np.abs(f.cells)
    out = np.zeros(grid.shape)
    N = grid.cells_per_side

    def cube_value(values, weights):
        if variant == "M":
            return float((values * weights).sum() / weights.sum())
        if variant == "MA":
            return young.luxemburg_norm(values, weights, A)
        if variant == "MAW":
            return young.luxemburg_norm(values, weights, A)
        raise OperatorError(f"unknown maximal variant {variant!r}")

    wcells = w.cells if variant == "MAW" else None
    if variant == "MAW" and wcells is None:
        raise OperatorError("MAW needs a weight")

    # base lattice, whole levels at once
    for k in range(0, grid.level + 1):
        s = 1 << (grid.level - k)
        if grid.n == 1:
            V = vals.reshape(-1, s)
            Wt = wcells.reshape(-1, s) if wcells is not None \
                else np.ones_like(V)
        else:
            V = vals.reshape(N // s, s, N // s, s).transpose(0, 2, 1, 3)
            V = V.reshape(-1, s * s)
            if wcells is not None:
                Wt = wcells.reshape(N // s, s, N // s, s)
                Wt = Wt.transpose(0, 2, 1, 3).reshape(-1, s * s)
            else:
                Wt = np.ones_like(V)
        if variant == "M":
            cv = (V * Wt).sum(axis=1) / Wt.sum(axis=1)
        else:
            cv = young.luxemburg_norm_batch(V, Wt, A)
        if grid.n == 1:
            lvl = np.repeat(cv, s)
        else:
            lvl = np.repeat(np.repeat(cv.reshape(N // s, N // s), s, axis=0),
                            s, axis=1)
        np.maximum(out, lvl, out=out)

    if shifted:
        if grid.n == 1:
            _shifted_max_1d(grid, vals, wcells, variant, A, out)
        else:
            for lat in build_lattices(grid):
                for k in range(0, grid.level + 1):
                    for q in lat.cubes_at_level(k):
                        sl = cube_slices(q, grid)
                        vv = vals[sl].ravel()
                        ww = wcells[sl].ravel() if wcells is not None \
                            else np.ones_like(vv)
                        v = cube_value(vv, ww)
                        np.maximum(out[sl], v, out=out[sl])
    return GridFunction(grid, out)


def _shifted_max_1d(grid, vals, wcells, variant, A, out):
    """Fold shifted-lattice cube values into out, whole levels at a time."""
    N = grid.cells_per_side
    ones = None if wcells is not None else np.ones_like(vals)
    wts = wcells if wcells is not None else ones
    for k in range(0, grid.level + 1):
        s = 1 << (grid.level - k)
        side = 3 * s
        for d in (0, 1, 2):
            first = d * s - side if d > 0 else 0
            # interior cubes, batched
            o0 = first if first >= 0 else first + side
            m = max((N - o0) // side, 0)
            if m:
                V = vals[o0:o0 + m * side].reshape(m, side)
                Wt = wts[o0:o0 + m * side].reshape(m, side)
                if variant == "M":
                    cv = (V * Wt).sum(axis=1) / Wt.sum(axis=1)
                else:
                    cv = young.luxemburg_norm_batch(V, Wt, A)
                seg = out[o0:o0 + m * side].reshape(m, side)
                np.maximum(seg, cv[:, None], out=seg)
            # boundary cubes (clipped), at most one on each end
            edges = []
            if first < 0:
                edges.append(slice(0, first + side))
            last = o0 + m * side
            if last < N:
                edges.append(slice(last, N))
            for sl in edges:
                vv = vals[sl]
                ww = wts[sl]
                if variant == "M":
                    v = float((vv * ww).sum() / ww.sum())
                else:
                    v = young.luxemburg_norm(vv, ww, A)
                np.maximum(out[sl], v, out=out[sl])


# -- grand maximal truncated operator ----------------------------------------


def grand_maximal_truncated(K: Kernel, f: GridFunction,
                            Q0: Cube) -> GridFunction:
    """M_{T,Q0} f: at each cell x of Q0, the max over dyadic Q with
    x in Q subset Q0 of the cell-max of |T(f chi_{3Q0 \\ 3Q})| over Q.

    f is read on 3Q0 (clipped to the domain) only.  Computed top-down via
    T(f chi_{3Q0 \\ 3Q}) = T(f chi_{3Q0}) - T(f chi_{3Q}).
    """
    grid = f.grid
    if grid.n != 1 or K.matrix is not None or Q0.lattice != BASE:
        return _gmt_walk(K, f, Q0)
    N = grid.cells_per_side
    kvec = K.profile(grid)
    h = grid.cell_width
    o, S = Q0.origin[0], Q0.side
    # f chi_{3Q0} on the cells o-S .. o+2S-1, zero outside the domain
    lo, hi = max(o - S, 0), min(o + 2 * S, N)
    g = np.zeros(3 * S)
    g[lo - o + S:hi - o + S] = f.cells[lo:hi]
    # T(f chi_{3Q0}) on Q0, from the cells of 3Q0 inside the domain
    base = _toeplitz_rows(kvec, g[None, lo - o + S:hi - o + S], o - lo, S)
    base = base[0] * h
    out = np.zeros(N)
    outq = out[o:o + S]
    for k in range(Q0.level + 1, grid.level + 1):
        s = S >> (k - Q0.level)
        # row j holds f chi_{3q} for the j-th cube q of side s in Q0
        wins = np.ascontiguousarray(
            sliding_window_view(g, 3 * s)[S - s::s][:S // s])
        part = _toeplitz_rows(kvec, wins, s, s) * h
        v = np.abs(base.reshape(-1, s) - part).max(axis=1)
        np.maximum(outq, np.repeat(v, s), out=outq)
    return GridFunction(grid, out)


def _gmt_walk(K: Kernel, f: GridFunction, Q0: Cube) -> GridFunction:
    """grand_maximal_truncated for 2D grids and matrix kernels: one
    windowed application per dyadic descendant of Q0."""
    grid = f.grid
    s0 = cube_slices(dilate(Q0, 3), grid)
    f3 = np.zeros(grid.shape)
    f3[s0] = f.cells[s0]
    g3 = GridFunction(grid, f3)
    q0sl = cube_slices(Q0, grid)
    base = np.zeros(grid.shape)
    base[q0sl] = apply_windowed(K, g3, q0sl, s0)
    out = np.zeros(grid.shape)
    for q in descendants(Q0, grid.level):
        if q == Q0:
            continue
        qsl = cube_slices(q, grid)
        part = apply_windowed(K, g3, qsl, cube_slices(dilate(q, 3), grid))
        v = float(np.abs(base[qsl] - part).max())
        np.maximum(out[qsl], v, out=out[qsl])
    return GridFunction(grid, out)


# -- kernel smoothness (annulus sums) ----------------------------------------


def hormander_estimate(K: Kernel, A, grid: Grid, side: int = 1,
                       cube_budget: int = 64, k_max: int = 8,
                       seed: int = 0) -> tuple:
    """Lower-bound estimate of the annulus-summed Orlicz smoothness constant.

    For sampled base cubes Q and point pairs x, z in (1/2)Q, sums over k of
    (2^k l(Q))^n times the A-norm over 2^k Q of the kernel difference
    restricted to the annulus 2^k Q minus 2^(k-1) Q.  side selects which
    kernel slot the difference is taken in.  Annuli that exit the domain are
    dropped; the tail is extrapolated from the last two kept terms.
    """
    if K.matrix is not None:
        raise OperatorError("smoothness estimate needs a pointwise kernel")
    if side not in (1, 2):
        raise OperatorError("side must be 1 or 2")
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
        for xi in range(len(pts)):
            for zi in range(xi + 1, len(pts)):
                val, tail = _annulus_sum(K, A, grid, q, pts[xi], pts[zi],
                                         side, k_max)
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


def _annulus_sum(K: Kernel, A, grid: Grid, q: Cube, xcell, zcell,
                 side: int, k_max: int) -> tuple:
    N = grid.cells_per_side
    h = grid.cell_width
    x = tuple(grid.origin[i] + (xcell[i] + 0.5) * h for i in range(grid.n))
    z = tuple(grid.origin[i] + (zcell[i] + 0.5) * h for i in range(grid.n))
    total = 0.0
    kept = []
    for k in range(1, k_max + 1):
        try:
            big = dilate(q, 1 << k)
            small = dilate(q, 1 << (k - 1))
        except GeometryError:
            break
        if is_clipped(big, grid):
            break
        sl = cube_slices(big, grid)
        if grid.n == 1:
            ys = grid.cell_centers(0)[sl[0]]
            if side == 1:
                dvals = K.conv(x[0] - ys, h) - K.conv(z[0] - ys, h)
            else:
                dvals = K.conv(ys - x[0], h) - K.conv(ys - z[0], h)
            coords = [np.arange(sl[0].start, sl[0].stop)]
        else:
            y1 = grid.cell_centers(0)[sl[0]][:, None]
            y2 = grid.cell_centers(1)[sl[1]][None, :]
            if side == 1:
                dvals = K.conv(x[0] - y1, x[1] - y2, h) \
                    - K.conv(z[0] - y1, z[1] - y2, h)
            else:
                dvals = K.conv(y1 - x[0], y2 - x[1], h) \
                    - K.conv(y1 - z[0], y2 - z[1], h)
            coords = [np.arange(s.start, s.stop) for s in sl]
        # annulus mask: inside big, outside small
        inside_small = np.ones(dvals.shape, dtype=bool)
        for ax, cs in enumerate(coords):
            lo, hi = small.origin[ax], small.origin[ax] + small.side
            ok = (cs >= lo) & (cs < hi)
            shape = [1] * grid.n
            shape[ax] = len(cs)
            inside_small &= ok.reshape(shape)
        dvals = np.where(inside_small, 0.0, dvals)
        # exclude the singular diagonal region (cells at x or z)
        norm = young.luxemburg_norm(np.abs(dvals).ravel(),
                                    np.full(dvals.size, grid.cell_volume), A)
        term = ((1 << k) * q.length(grid)) ** grid.n * norm
        total += term
        kept.append(term)
    if len(kept) >= 2 and kept[-2] > 0:
        rho = kept[-1] / kept[-2]
        tail = kept[-1] * rho / (1.0 - rho) if rho < 1 else math.inf
    else:
        tail = 0.0
    return total, tail


# -- angular modulus for homogeneous kernels ---------------------------------


def omega_modulus(omega_samples, B, t: float, shifts: int = 16) -> float:
    """sup over rotations |y| <= t of the Luxemburg B-norm on the circle of
    Omega(. + y) - Omega(.)."""
    om = np.asarray(omega_samples, dtype=float)
    M = len(om)
    dtheta = 2 * math.pi / M
    mu = np.full(M, dtheta)
    best = 0.0
    if t <= 0:
        return 0.0
    angles = np.linspace(0.0, t, shifts + 1)[1:]
    theta_grid = np.arange(M) * dtheta
    theta_ext = np.concatenate([theta_grid, [2 * math.pi]])
    om_ext = np.concatenate([om, om[:1]])
    for a in angles:
        shifted = np.interp(np.mod(theta_grid + a, 2 * math.pi),
                            theta_ext, om_ext)
        best = max(best, young.luxemburg_norm(shifted - om, mu, B))
    return best


def dini_integral(omega_samples, B, t_min: float = 1e-4,
                  n_pts: int = 40) -> tuple:
    """Quadrature of int_0^1 omega(t) dt / t on a log grid from t_min, plus
    a convergence verdict from the small-t chunk decay."""
    ts = np.geomspace(t_min, 1.0, n_pts)
    vals = np.array([omega_modulus(omega_samples, B, t) for t in ts])
    u = np.log(ts)
    chunk = 0.5 * (vals[1:] + vals[:-1]) * np.diff(u)
    value = float(chunk.sum())
    head = chunk[:6]
    converged = bool(head.sum() <= 0.05 * max(value, 1e-300)) or \
        bool(head[0] < 0.5 * head[-1])
    return value, converged
