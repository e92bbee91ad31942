"""Muckenhoupt constants, reverse Holder and absorption checks, BMO norms,
level-set decay profiles and exponential-class oscillation norms.

All cube suprema run over the base dyadic lattice plus the 3^n shifted
lattices down to cell scale, clipped at the domain boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import young
from .dyadic import (Cube, Grid, GridFunction, block_mean, cube_slices,
                     cube_values, scope_max, scope_tilings)


class WeightError(ValueError):
    pass


def as_weight(w: GridFunction) -> GridFunction:
    if np.any(w.cells <= 0):
        raise WeightError("weights must be strictly positive on every cell")
    return w


def weight_constant(w: GridFunction, kind: str, p: float = None,
                    C: young.YoungFunction = None,
                    shifted: bool = True) -> float:
    """[w] constants: kind in {"Ap", "A1", "AinfFW", "ApBump"}.

    Every supremum runs over the scope cubes Q of dyadic.scope_cubes (the
    base lattice, plus the shifted lattices when shifted), clipped to the
    domain.  AinfFW is the Fujii-Wilson constant
    sup_Q w(Q)^(-1) int_Q M(w chi_Q), where M is the dyadic maximal
    operator over the same scope (Hytonen-Perez, "Sharp weighted bounds
    involving A_infty", Anal. PDE 2013); it is at least 1, and at most
    [w]_A1.  Ap needs p > 1; ApBump needs p > 1 and a Young function C for
    the Orlicz bump norm of w^(-1/p).
    """
    as_weight(w)
    grid = w.grid
    if kind == "Ap":
        if p is None or p <= 1:
            raise WeightError("Ap needs p > 1")
        dual = w.cells ** (-1.0 / (p - 1.0))
        return float(scope_max(
            grid, shifted,
            lambda m, a, d: block_mean(m, a) * block_mean(m, d) ** (p - 1.0),
            w.cells, dual).max())
    if kind == "A1":
        mw = scope_max(grid, shifted, block_mean, w.cells)
        return float((mw / w.cells).max())
    if kind == "AinfFW":
        return _fujii_wilson(w, shifted)
    if kind == "ApBump":
        if p is None or p <= 1 or C is None:
            raise WeightError("ApBump needs p > 1 and a bump Young function")
        bump = w.cells ** (-1.0 / p)
        return float(scope_max(
            grid, shifted,
            lambda m, a, u: (block_mean(m, a)
                             * young.luxemburg_norm_batch(u, m, C) ** p),
            w.cells, bump).max())
    raise WeightError(f"unknown weight constant kind {kind!r}")


def _window_sums(w: GridFunction) -> tuple:
    """Sums of w over 1, 2 and 3 consecutive blocks per axis, per level.

    At level k (blocks of side 2^(L-k), c = 2^k per axis) the sums form an
    array of shape (3,)*n + (c,)*n: entry (l, i) is the sum over the blocks
    i to i + l per axis.  Entries that run off the domain are never read.
    Returns the levels flattened into one array and each level's offset.
    """
    grid = w.grid
    n, L = grid.n, grid.level
    parts, offsets, at = [], [], 0
    for k in range(L + 1):
        c, t = 1 << k, 1 << (L - k)
        b = w.cells.reshape([x for _ in range(n) for x in (c, t)]).sum(
            axis=tuple(range(1, 2 * n, 2)))
        for ax in range(n):  # data axis ax sits after ax window axes
            two = b + np.roll(b, -1, axis=2 * ax)
            b = np.stack([b, two, two + np.roll(b, -2, axis=2 * ax)], axis=ax)
        parts.append(b.ravel())
        offsets.append(at)
        at += b.size
    return np.concatenate(parts), np.array(offsets)


def _fujii_wilson(w: GridFunction, shifted: bool) -> float:
    """sup_Q w(Q)^(-1) int_Q M(w chi_Q) over the scope, in one pass.

    For a cell x of Q, M(w chi_Q)(x) is the max over the scope cubes R
    containing x of w(Q n R) / |R|, both clipped to the domain.  Each
    tiling of scope_tilings covers the domain once, so every pair (Q, x)
    is one copy of the cells per Q tiling, with Q found by integer
    division; each R tiling then updates a running max per pair.  The ends
    of Q n R are multiples of t = min(side Q, side R), and it spans at most
    3 blocks of side t per axis, so w(Q n R) is one read of _window_sums: a
    sum of positive terms, with no cancellation.
    """
    grid = w.grid
    n, L, N = grid.n, grid.level, grid.cells_per_side
    sums, offsets = _window_sums(w)
    cells = np.indices(grid.shape).reshape(n, -1)
    qlo, qhi, qlev, qid = [], [], [], []
    nq = 0
    for k in range(L + 1):
        for side, origin in scope_tilings(grid, k, shifted):
            o = np.array(origin)[:, None]
            q = (cells - o) // side
            counts = [-(-(N - c) // side) for c in origin]
            lo = o + q * side
            qlo.append(np.maximum(lo, 0))
            qhi.append(np.minimum(lo + side, N))
            qlev.append(np.full(cells.shape[1], k))
            qid.append(nq + np.ravel_multi_index(q, counts))
            nq += math.prod(counts)
    reps = len(qid)  # the Q tilings
    x = np.tile(cells, reps)
    qlo, qhi = np.concatenate(qlo, axis=1), np.concatenate(qhi, axis=1)
    qlev, qid = np.concatenate(qlev), np.concatenate(qid)
    best = np.zeros(qid.size)
    for k in range(L + 1):
        j = np.maximum(qlev, k)  # the level of t
        shift, base, c = L - j, offsets[j], 1 << j
        for side, origin in scope_tilings(grid, k, shifted):
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


def sigma_dual(w: GridFunction, p: float, r: float = 1.0) -> GridFunction:
    """The dual weight w^(-1/(p/r - 1))."""
    q = p / r
    if q <= 1:
        raise WeightError("need p/r > 1")
    return GridFunction(w.grid, w.cells ** (-1.0 / (q - 1.0)))


def absorption_check(w: GridFunction, Q: Cube, E: np.ndarray,
                     c_n: float, ainf: float = None) -> tuple:
    """w(E)/w(Q) <= 2 (|E|/|Q|)^(1/(c_n [w]_Ainf)): returns (lhs, rhs, pass)."""
    as_weight(w)
    grid = w.grid
    sl = cube_slices(Q, grid)
    qmask = np.zeros(grid.shape, dtype=bool)
    qmask[sl] = True
    if np.any(E & ~qmask):
        raise WeightError("E must lie inside Q")
    wq = float(w.cells[qmask].sum())
    we = float(w.cells[E].sum())
    lhs = we / wq
    frac = float(E.sum()) / float(qmask.sum())
    if ainf is None:
        ainf = weight_constant(w, "AinfFW")
    rhs = 2.0 * frac ** (1.0 / (c_n * ainf))
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-12))


def reverse_holder_check(w: GridFunction, Q: Cube, tau_n: float,
                         ainf: float = None) -> tuple:
    """(avg w^r)^(1/r) <= 2 avg w at r = 1 + 1/(tau_n [w]_Ainf):
    returns (r_w, lhs, rhs, pass)."""
    as_weight(w)
    vals = cube_values(w, Q).ravel()
    if ainf is None:
        ainf = weight_constant(w, "AinfFW")
    r = 1.0 + 1.0 / (tau_n * ainf)
    lhs = float((vals ** r).mean()) ** (1.0 / r)
    rhs = 2.0 * float(vals.mean())
    return r, lhs, rhs, bool(lhs <= rhs * (1 + 1e-12))


def bmo_norm(b: GridFunction, shifted: bool = True) -> float:
    """sup over scope cubes of the mean oscillation (1/|Q|) int_Q |b - b_Q|."""
    def osc(m, v):
        return block_mean(m, np.abs(v - block_mean(m, v)[:, None]))

    return float(scope_max(b.grid, shifted, osc, b.cells).max())


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    residual: float
    n_points: int


def jn_profile(b: GridFunction, Q: Cube) -> DecayFit:
    """Least-squares fit of log(|{|b - b_Q| > alpha}| / |Q|) against alpha.

    Raises on constant b (no level sets to fit)."""
    vals = cube_values(b, Q)
    vals = np.abs(vals - vals.mean()).ravel()
    top = float(vals.max())
    if top <= 0:
        raise WeightError("oscillation vanishes, nothing to fit")
    alphas = np.linspace(0.0, top, 33)[:-1]
    meas = np.array([(vals > a).mean() for a in alphas])
    keep = meas > 0
    alphas, meas = alphas[keep], meas[keep]
    if len(alphas) < 2:
        raise WeightError("level sets collapse immediately, nothing to fit")
    y = np.log(meas)
    slope, intercept = np.polyfit(alphas, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * alphas + intercept)) ** 2)))
    return DecayFit(float(slope), float(intercept), resid, len(alphas))


def osc_exp_norm(b: GridFunction, Q: Cube, w: GridFunction, j: int) -> float:
    """Weighted Luxemburg norm of |b - b_Q|^j in the exponential class
    exp(t^(1/j)) - 1 over Q."""
    if j < 1:
        raise WeightError("j must be >= 1")
    as_weight(w)
    vals = cube_values(b, Q)
    osc = np.abs(vals - vals.mean()).ravel()
    mu = cube_values(w, Q).ravel() * b.grid.cell_volume
    return young.luxemburg_norm(osc ** j, mu, young.expl(1.0 / j))


# -- scenario literals ---------------------------------------------------------

_NUM = r"[-+0-9.eE]+"


def parse_profile(text: str, grid: Grid) -> GridFunction:
    """Function literals for scenario files.

    `const(c)`, `power_abs(a)` (|x|^a), `indicator(a,b)+c`, `log_abs`,
    `table(path)` (csv of cell values).  In 2D, |x| is the euclidean norm
    and indicators read box corners `indicator(a1,a2,b1,b2)+c`.
    """
    text = text.strip()
    n = grid.n
    if n == 1:
        x = grid.cell_centers(0)
        rad = np.abs(x)
    else:
        x1 = grid.cell_centers(0)[:, None]
        x2 = grid.cell_centers(1)[None, :]
        rad = np.hypot(np.broadcast_to(x1, grid.shape),
                       np.broadcast_to(x2, grid.shape))
    m = re.match(rf"const\(({_NUM})\)$", text)
    if m:
        return GridFunction(grid, np.full(grid.shape, float(m.group(1))))
    m = re.match(rf"power_abs\(({_NUM})\)$", text)
    if m:
        return GridFunction(grid, rad ** float(m.group(1)))
    if text == "log_abs":
        return GridFunction(grid, np.log(rad))
    m = re.match(rf"indicator\(({_NUM}(?:,{_NUM})*)\)(?:\+({_NUM}))?$", text)
    if m:
        nums = [float(s) for s in m.group(1).split(",")]
        shift = float(m.group(2)) if m.group(2) else 0.0
        if len(nums) != 2 * n:
            raise WeightError(f"indicator needs {2*n} corners in {n}D")
        if n == 1:
            ind = ((x >= nums[0]) & (x < nums[1])).astype(float)
        else:
            ind = (((x1 >= nums[0]) & (x1 < nums[2]))
                   & ((x2 >= nums[1]) & (x2 < nums[3]))).astype(float)
            ind = np.broadcast_to(ind, grid.shape).astype(float)
        return GridFunction(grid, ind + shift)
    m = re.match(r"table\((.+)\)$", text)
    if m:
        cells = np.loadtxt(m.group(1).strip(), delimiter=",")
        return GridFunction(grid, cells.reshape(grid.shape))
    raise WeightError(f"cannot parse function literal {text!r}")
