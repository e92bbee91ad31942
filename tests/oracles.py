"""Reference forms that the tests compare the package against.

No program path runs these: each is the direct form of something the
package computes another way (a commutator by recursion, a Legendre
transform by search, a Young inverse by the plain bisection, a kernel at
points, a node's exceptional set on the whole grid, a Calderon-Zygmund
decomposition by search), or a helper that only tests need (cube
relations, sampled functions, gauge names for test ids).
"""

import numpy as np

from sparsedom import young
from sparsedom.dyadic import (BASE, Cube, GeometryError, Grid, GridFunction,
                              children, cube_slices, cube_values)
from sparsedom.operators import Kernel, apply_operator

# -- Young functions ----------------------------------------------------------


class UnboundedConjugateError(young.YoungError):
    """Raised when sup_s {s t - A(s)} = +inf inside the requested range."""


@np.errstate(over="ignore", invalid="ignore")
def conjugate_value(A: young.YoungFunction, t):
    """Legendre transform sup_{s>0} {s t - A(s)}, elementwise: a doubling
    bracket in s, then golden-section search on the concave s t - A(s);
    closed form for power laws.  Where the sup is +inf, or too large for a
    float, an array call gives +inf and a scalar call raises
    UnboundedConjugateError."""
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise young.YoungError("conjugate requested at negative t")
    out = np.zeros(t.size)
    pos = np.flatnonzero(t > 0)
    tp = t.ravel()[pos]
    if A.family == young.POWER:
        r, c = A.params
        if r == 1.0:  # A = c t: the conjugate is 0 up to c and +inf above
            out[pos] = np.where(tp <= c, 0.0, np.inf)
        else:
            rp = r / (r - 1.0)
            try:
                out[pos] = 1.0 / (rp * (c * r) ** (rp / r)) * tp ** rp
            except (OverflowError, ZeroDivisionError):
                # (c r)^(r'/r) over- or underflows a float: scale t first
                with np.errstate(over="ignore"):
                    out[pos] = (tp / (c * r) ** (1.0 / r)) ** rp / rp
    else:
        hi, act = np.ones_like(tp), np.arange(tp.size)
        while act.size:  # s t - A(s) decreases once A(s)/s >= t
            av = A._eval(hi[act])
            act = act[np.isfinite(av) & (av < tp[act] * hi[act])]
            hi[act] *= 2.0
            act = act[np.isfinite(hi[act])]
        # a bracket that closes only where s t overflows: sup out of range
        fin = np.isfinite(tp * hi)
        out[pos] = np.inf
        tp, hi = tp[fin], hi[fin]

        def obj(s, i):
            # overflow-safe s t - A(s); the sup never sits where A overflows
            v, st = A._eval(s), s * tp[i]
            return np.where(np.isfinite(v) & np.isfinite(st), st - v, -np.inf)

        s = young._golden_min(lambda s, i: -obj(s, i), np.zeros_like(hi), hi,
                              200, lambda b: 1e-14 * np.maximum(b, 1.0))
        out[pos[fin]] = np.maximum(obj(s, np.arange(tp.size)), 0.0)
    if scalar and np.isinf(out[0]):
        raise UnboundedConjugateError(
            f"conjugate of {format_young(A)} is unbounded at t={float(t)}")
    return float(out[0]) if scalar else out.reshape(t.shape)


def bisect_inverse(A: young.YoungFunction, y):
    """Monotone bisection with exponential bracket growth, rel tol 1e-12:
    the loop that young._bisect_inverse replays, evaluating A on the whole
    batch at every step."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros_like(y)
    pos = y > 0
    if not np.any(pos):
        return out
    yp = y[pos]
    hi = np.ones_like(yp)
    for _ in range(200):
        low = A._eval(hi) < yp
        if not np.any(low):
            break
        hi[low] *= 2.0
    lo = np.zeros_like(yp)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        up = A._eval(mid) < yp
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if np.all(hi - lo <= 1e-12 * np.maximum(hi, 1e-300)):
            break
    out[pos] = 0.5 * (lo + hi)
    return out


def format_young(A: young.YoungFunction) -> str:
    """The literal of a catalog gauge, which young.parse_young reads back;
    a tabulated gauge has none and is named by its knot count."""
    if A.family == young.TABLE:
        return f"table[{len(A.knots_t)} knots]"
    params = A.params
    if A.family == young.POWER and params[1] == 1.0:
        params = params[:1]  # power's default c = 1 is left out
    args = [format_young(B) for B in A.parts] + [f"{p:g}" for p in params]
    return f"{A.family}({','.join(args)})"


# -- operators ----------------------------------------------------------------


def evaluate(K: Kernel, x, y, h: float = 0.0):
    """K(x, y) = conv(x - y) at points, with h the regularizing cell
    width (h = 0 means no regularization)."""
    if K.n == 1:
        return K.conv(np.asarray(x, dtype=float)
                      - np.asarray(y, dtype=float), h)
    u1 = np.asarray(x[0], dtype=float) - np.asarray(y[0], dtype=float)
    u2 = np.asarray(x[1], dtype=float) - np.asarray(y[1], dtype=float)
    return K.conv(u1, u2, h)


def commutator_recursive(K: Kernel, b: GridFunction, m: int,
                         f: GridFunction, center: float = 0.0) -> GridFunction:
    """Direct recursion T_b^m f = b T_b^(m-1) f - T_b^(m-1)(b f), b taken
    less center; the oracle the expansion is tested against."""
    if m == 0:
        return apply_operator(K, f)
    grid = f.grid
    bc = b.cells - center
    t1 = commutator_recursive(K, b, m - 1, f, center).cells
    t2 = commutator_recursive(
        K, b, m - 1, GridFunction(grid, bc * f.cells), center).cells
    return GridFunction(grid, bc * t1 - t2)


# -- the sparse engine --------------------------------------------------------


def exceptional_mask(grid, Q0, osc, f3, norm, mt, h, alpha, ct):
    """The exceptional set of the split h at one node, on the whole grid:
    the cells x of Q0 with osc^h |f3| > alpha norm or mt > alpha ct norm,
    where osc = |b - b_3Q0|, f3 is f clipped to 3Q0, mt the full-grid
    truncation maximal values of osc^h f3 and norm its Luxemburg norm over
    3Q0; empty when norm is 0."""
    mask = np.zeros(grid.shape, dtype=bool)
    if norm == 0.0:
        return mask
    sl = cube_slices(Q0, grid)
    local = osc[sl] ** h * np.abs(f3[sl])
    mask[sl] = local > alpha * norm
    mask[sl] |= mt[sl] > alpha * ct * norm
    return mask


# -- grids and cubes ----------------------------------------------------------


def grid_function(grid: Grid, fn) -> GridFunction:
    """Sample fn at cell centers (midpoint rule cell averages)."""
    if grid.n == 1:
        x = grid.cell_centers(0)
        return GridFunction(grid, np.asarray(fn(x), dtype=float))
    x = grid.cell_centers(0)[:, None]
    y = grid.cell_centers(1)[None, :]
    return GridFunction(grid, np.asarray(fn(x, y), dtype=float))


def contains(outer: Cube, inner: Cube) -> bool:
    return all(o <= i and i + inner.side <= o + outer.side
               for o, i in zip(outer.origin, inner.origin))


def triple(cube: Cube, grid: Grid) -> Cube:
    """3Q of a base-lattice cube, as a member of its shifted lattice."""
    if cube.lattice != BASE:
        raise GeometryError("triple is defined on the base lattice")
    s = cube.side
    origin = tuple(c - s for c in cube.origin)
    digits = tuple((o // s) % 3 for o in origin)
    lat = 0
    for d in digits:
        lat = lat * 3 + d
    return Cube(lat, cube.level, origin, 3 * s)


def descendants(cube: Cube, max_level: int) -> list:
    out = []
    stack = [cube]
    while stack:
        q = stack.pop()
        out.append(q)
        if q.level < max_level:
            stack.extend(reversed(children(q)))
    return out


def brute_cz(g: GridFunction, Q0: Cube, lam: float) -> list:
    """All dyadic subcubes of Q0 with average above lam, filtered to the
    maximal ones (no strict ancestor also selected), in sort_key order."""
    hits = [q for q in descendants(Q0, g.grid.level)
            if float(cube_values(g, q).mean()) > lam]
    out = [q for q in hits
           if not any(o != q and contains(o, q) for o in hits)]
    out.sort(key=Cube.sort_key)
    return out
