"""Muckenhoupt, bump and Fujii-Wilson weight constants, dual weights, BMO
norms and the profile literals of scenario files.

All cube suprema run over the base dyadic lattice plus the 3^n shifted
lattices down to cell scale, clipped at the domain boundary, one tiling of
dyadic.scope_blocks at a time.  [w]_A1 = sup_x M w(x) / w(x) is taken per
cube as max_Q avg_Q w / min_{x in Q} w(x): rounded division is monotone in
each argument, so both forms are the max of the same rounded quotients.
"""

from __future__ import annotations

import numpy as np

from . import literal, young
from .dyadic import (Grid, GridFunction, block_mean, scope_blocks,
                     scope_tilings)


class WeightError(ValueError):
    pass


def as_weight(w: GridFunction) -> GridFunction:
    if not np.all((w.cells > 0) & (w.cells < np.inf)):  # NaN fails both
        raise WeightError("weights must be positive and finite on every cell")
    return w


def weight_constant(w: GridFunction, kind: str, p: float = None,
                    C: young.YoungFunction = None) -> float:
    """[w] constants: kind in {"Ap", "A1", "AinfFW", "ApBump"}.

    Every supremum runs over the scope cubes Q of dyadic.scope_cubes (the
    base lattice and the 3^n shifted lattices), clipped to the domain.
    AinfFW is the Fujii-Wilson constant
    sup_Q w(Q)^(-1) int_Q M(w chi_Q), where M is the dyadic maximal
    operator over the same scope (Hytonen-Perez, "Sharp weighted bounds
    involving A_infty", Anal. PDE 2013); it is at least 1, and at most
    [w]_A1.  Ap needs p > 1; ApBump needs p > 1 and a Young function C for
    the Orlicz bump norm of w^(-1/p).  Ap takes the dual weight from
    sigma_dual, so a weight whose dual overflows is a WeightError.
    """
    as_weight(w)
    grid = w.grid
    if kind == "Ap":
        if p is None or p <= 1:
            raise WeightError("Ap needs p > 1")
        dual = sigma_dual(w, p).cells
        return _scope_sup(grid, lambda m, a, d: block_mean(m, a)
                          * block_mean(m, d) ** (p - 1.0), w.cells, dual)
    if kind == "A1":
        return _scope_sup(grid, lambda m, a: block_mean(m, a) / a.min(
            axis=1, initial=np.inf, where=m > 0), w.cells)
    if kind == "AinfFW":
        return _fujii_wilson(w)
    if kind == "ApBump":
        if p is None or p <= 1 or C is None:
            raise WeightError("ApBump needs p > 1 and a bump Young function")
        masks, means, bumps = zip(*[
            (m, block_mean(m, a), u) for _, m, a, u in scope_blocks(
                grid, True, w.cells, w.cells ** (-1.0 / p))])
        return float((np.concatenate(means) * young.luxemburg_norm_batch(
            list(bumps), list(masks), C) ** p).max())
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


_FW_BLOCK = 1 << 13  # pair values per chunk of Q tilings


def _fujii_wilson(w: GridFunction) -> float:
    """sup_Q w(Q)^(-1) int_Q M(w chi_Q) over the scope, once per cube pair.

    At a cell x of Q, M(w chi_Q)(x) is the max over the scope cubes R
    containing x of val(Q, R) = w(Q n R) / |R|, both clipped to the domain.
    With j = max(level Q, level R), Q n R spans at most 3 blocks of side
    2^(L-j) per axis, one read of _window_sums, and all cells of a level-j
    block share Q and R: pass j computes val per block, for Q tilings of
    levels <= j against R tilings of level j and of level j against level
    j - 1, in chunks of Q tilings of at most _FW_BLOCK values (or one
    tiling), and broadcasts the maxima to the cells.  R levels <= level
    Q - 2 are skipped: there |R| >= 4s > 3s >= |Q| per axis (s the base
    side at level Q), and the computed w(Q n R) <= the computed w(Q),
    window sums being left folds of nonnegative terms, so val(Q, R) <=
    val(Q, Q), which is computed.  A max is the same in any order, and each
    Q's sum adds the same per-cell maxima in the same order as a per-cell
    pass: neither skip nor chunks move a bit.
    """
    grid = w.grid
    n, L, N = grid.n, grid.level, grid.cells_per_side
    sums, offsets = _window_sums(w)
    tilings = sum((scope_tilings(grid, k, True) for k in range(L + 1)), [])
    per = len(tilings) // (L + 1)  # tilings per level
    sides, origins = (np.array(x, dtype=np.int32).T for x in zip(*tilings))

    def keys(rows):  # per axis and block, tilings[rows]' keys and sides
        s, o = sides[rows, None], origins[:, rows, None]
        lo = o + (np.arange(c, dtype=np.int32) * t - o) // s * s
        lo, hi = np.maximum(lo, 0), np.minimum(lo + s, N)
        return np.stack([lo >> L - j, (hi >> L - j) - 1]) * stride, hi - lo

    def outer(x, op):  # (n, ..., c) -> (..., c ** n), axis 0 major
        y = x[0] if n == 1 else op(x[0][..., None], x[1][..., None, :])
        return y.reshape(y.shape[:-n] + (-1,))

    best = np.zeros((len(tilings), N ** n))
    for j in range(L + 1):
        t, c = 1 << (L - j), 1 << j
        # w(Q n R) is at offsets[j] + sum over axes of first * c^e + span *
        # 3^e c^n, e = n - 1 - axis: the keys' minima, as c^e - 3^e c^n <= 0
        e = np.arange(n - 1, -1, -1)[:, None, None]
        stride = np.stack([c ** e - 3 ** e * c ** n, 3 ** e * c ** n])
        step = max(1, _FW_BLOCK // (per << n * j))
        for a0, k in [(0, j), (j * per, j - 1)][:1 + (j > 0)]:
            rkey, rside = keys(slice(k * per, (k + 1) * per))
            vol = outer(rside, np.multiply)[:, None]
            for a in range(a0, (j + 1) * per, step):
                b = min(a + step, (j + 1) * per)
                at = np.minimum(keys(slice(a, b))[0][:, :, None],
                                rkey[:, :, :, None]).sum(axis=0)
                top = (sums[offsets[j]:][outer(at, np.add)] / vol).max(axis=0)
                cell = best[a:b].reshape((b - a,) + (c, t) * n)
                np.maximum(cell, top.reshape((b - a,) + (c, 1) * n), out=cell)
    # per tiling and cell, the cell's Q, numbered tiling by tiling
    counts = -(-(N - origins) // sides)
    q = (np.arange(N, dtype=np.int32) - origins[:, :, None]) // sides[:, None]
    q[0] *= np.prod(counts[1:], axis=0)[:, None]
    size = np.prod(counts, axis=0)
    qid = (outer(q, np.add) + (np.cumsum(size) - size)[:, None]).ravel()
    num = np.bincount(qid, weights=best.ravel())
    den = np.bincount(qid, weights=np.tile(w.cells.ravel(), len(tilings)))
    return float((num / den).max())


def sigma_dual(w: GridFunction, p: float, r: float = 1.0) -> GridFunction:
    """The dual weight w^(-1/(p/r - 1)), which must be positive and finite
    on every cell: a weight that is, say 1e-320, can overflow it, and
    that is a WeightError naming the first such cell, not a warning."""
    q = p / r
    if q <= 1:
        raise WeightError("need p/r > 1")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sig = w.cells ** (-1.0 / (q - 1.0))
    bad = ~((sig > 0) & (sig < np.inf))
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise WeightError(
            f"dual weight sigma = w^(-1/(p/r - 1)) is {float(sig[cell])!r} "
            f"at cell {cell if w.grid.n > 1 else cell[0]}, where w = "
            f"{float(w.cells[cell])!r}; it must be positive and finite")
    return GridFunction(w.grid, sig)


def bmo_norm(b: GridFunction) -> float:
    """sup over scope cubes of the mean oscillation (1/|Q|) int_Q |b - b_Q|."""
    return _scope_sup(b.grid, lambda m, v: block_mean(
        m, np.abs(v - block_mean(m, v)[:, None])), b.cells)


def _scope_sup(grid: Grid, value, *arrays) -> float:
    """The max of value(mask, *blocks), one value per cube, over the blocks
    of scope_blocks with shifted lattices, one tiling at a time.  A NaN
    anywhere gives NaN, as np.max does."""
    return float(np.max([value(m, *blocks).max()
                         for _, m, *blocks in scope_blocks(grid, True,
                                                           *arrays)]))


# -- scenario literals ---------------------------------------------------------


def parse_profile(text: str, grid: Grid) -> GridFunction:
    """Function literals for scenario files (grammar in `literal`).

    `const(c)`, `power_abs(a)` (|x|^a), `indicator(a,b)+c`, `log_abs`,
    `table(path)` (csv of cell values).  In 2D, |x| is the euclidean norm
    and indicators read box corners `indicator(a1,a2,b1,b2)+c`.
    """
    lit = literal.parse(text, WeightError)
    name, n = lit[0], grid.n
    # literal name -> count of numbers, or of paths for table
    count = {"const": 1, "power_abs": 1, "log_abs": 0, "indicator": 2 * n,
             "table": 1}.get(name)
    if count is None:
        raise WeightError(f"unknown function literal {name!r}")
    args = literal.positional(lit, str if name == "table" else float, count,
                              count, WeightError, shift=name == "indicator")
    x = np.meshgrid(*map(grid.cell_centers, range(n)), indexing="ij")
    rad = np.abs(x[0]) if n == 1 else np.hypot(*x)
    if name == "table":
        cells = np.loadtxt(args[0], delimiter=",").reshape(grid.shape)
        if not np.all(np.isfinite(cells)):
            raise WeightError(f"table {args[0]!r} has a non-finite entry")
    elif name == "const":
        cells = np.full(grid.shape, args[0])
    elif name == "power_abs":
        cells = rad ** args[0]
    elif name == "log_abs":
        cells = np.log(rad)
    else:
        inside = [(xi >= a) & (xi < b) for xi, a, b in zip(x, args, args[n:])]
        cells = np.logical_and.reduce(inside).astype(float) + (lit[3] or 0.0)
    return GridFunction(grid, cells)
