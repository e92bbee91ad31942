"""Young-function algebra: evaluation, conjugate inverses, Luxemburg norms
and the endpoint constants used throughout the lab.

A Young function here is a convex increasing A:[0,inf) -> [0,inf) with
A(0) = 0, drawn from a closed catalog of parametric families plus a
tabulated-convex fallback.  Everything downstream (Orlicz averages, bump
maximal operators, kernel smoothness sums) is built on these.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import literal

E = math.e
# the upper end of the t range of krA_constant and kappa_phi
T_MAX = 1e12

# Catalog family tags.
POWER = "power"
LLOGL = "llogl"
EXPL = "expl"
LLL = "lll"
COMPOSE = "compose"
PROD = "prod"
TABLE = "table"


class YoungError(ValueError):
    pass


class RangeError(YoungError):
    """Requested value lies outside a tabulated function's range."""


@dataclass(frozen=True)
class YoungFunction:
    """One member of the catalog.

    family/params encode the parametric families; ``parts`` holds children
    for compose/prod; ``knots_t``/``knots_y`` the breakpoints of a
    TabulatedConvex function (linear interpolation, final-slope
    extrapolation above the last knot).

    Values derived from these fields (``inverse_one``, ``_knots``) are
    cached outside the fields, so they take no part in ``==`` or hash.
    """

    family: str
    params: tuple = ()
    parts: tuple = ()
    knots_t: tuple = ()
    knots_y: tuple = ()

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise YoungError("Young functions are defined on t >= 0")
        y = self._eval(t)
        return float(y) if scalar else y

    def _eval(self, t):
        # overflow to inf is fine here; callers treat non-finite values
        # as out of range
        with np.errstate(over="ignore"):
            return self._eval_raw(t)

    def _eval_raw(self, t):
        f = self.family
        if f == POWER:
            r, c = self.params
            return c * t**r
        if f == LLOGL:
            (a,) = self.params
            return t * np.log(E + t) ** a
        if f == EXPL:
            (g,) = self.params
            return np.expm1(np.minimum(t, 700.0 ** (1.0 / g)) ** g)
        if f == LLL:
            l, a = self.params
            return t * np.log(E + t) ** l * np.log(E + np.log(E + t)) ** a
        if f == COMPOSE:
            outer, inner = self.parts
            return outer._eval(inner._eval(t))
        if f == PROD:
            a, b = self.parts
            return a._eval(t) * b._eval(t)
        if f == TABLE:
            kt, ky = self._knots
            y = np.interp(t, kt, ky)
            # extrapolate above the last knot with the final slope
            hi = t > kt[-1]
            if np.any(hi):
                slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
                y = np.where(hi, ky[-1] + slope * (t - kt[-1]), y)
            return y
        raise YoungError(f"unknown family {f!r}")

    # -- inverse ------------------------------------------------------------

    def inverse(self, y):
        """A^-1(y), elementwise: a closed form, or _bisect_inverse (growth
        table, windows, closed-form steps, replay) for llogl, lll, prod."""
        scalar = np.isscalar(y)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise YoungError("inverse requested at negative value")
        t = self._inverse(y)
        return float(np.asarray(t).ravel()[0]) if scalar else t

    @cached_property
    def inverse_one(self) -> float:
        """A^-1(1), computed once per gauge object."""
        return self.inverse(1.0)

    @cached_property
    def _knots(self) -> tuple:
        """knots_t and knots_y as read-only arrays, once per gauge object."""
        kt, ky = np.array(self.knots_t), np.array(self.knots_y)
        kt.flags.writeable = ky.flags.writeable = False
        return kt, ky

    def _inverse(self, y):
        f = self.family
        if f == POWER:
            r, c = self.params
            return (y / c) ** (1.0 / r)
        if f == EXPL:
            (g,) = self.params
            return np.log1p(y) ** (1.0 / g)
        if f == TABLE:
            kt, ky = self._knots
            slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
            out = np.interp(y, ky, kt)
            hi = y > ky[-1]
            if np.any(hi):
                if slope <= 0:
                    raise RangeError("inverse beyond tabulated range")
                out = np.where(hi, kt[-1] + (y - ky[-1]) / slope, out)
            return out
        if f == COMPOSE:
            outer, inner = self.parts
            return inner._inverse(outer._inverse(y))
        return _bisect_inverse(self, y)


def _bisect_inverse(A: YoungFunction, y):
    """A^-1(y), bit for bit the loop that doubles hi from 1 while A(hi) < y
    (200 times at most), then halves [0, hi], lo up where A(mid) < y, until
    hi - lo <= 1e-12 hi over the batch (100 steps at most).  Growth: hi =
    2^k, k the first k <= 199 with not A(2^k) < y, else 200: A is
    elementwise, so a search in one table of A on the powers of two gives
    k (NaN sorts last).  Windows: a log-space secant from 2^(k-1) and 2^k,
    and certificates at est (1 -+ eta), eta = _LUX_ETA, give a =
    (1 - delta) max{t : A(t) < y}, b = (1 + delta) min{t : not A(t) < y}
    over every t evaluated, delta = _LUX_DELTA.  A(t)/t is nondecreasing
    (A convex, A(0) = 0), so 1 -+ delta (450 ulp) moves A past its
    rounding; a NaN A(t), or t = inf, places none.  Certain steps: to step
    39 the ends are multiples of w_j = 2^(k-j) with at most 39 significant
    bits, so 0.5 (lo + hi) is exact and the stop test fails (2^-39 >
    1e-12); while no multiple of w_j in (0, 2^k) lies in [a, b], lo_j =
    clip(ceil(a / w_j) - 1, 0, 2^j - 1) w_j, hi_j = lo_j + w_j.  Replay:
    the loop's body from each element's last such step, A only in [a, b]."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pos = y > 0
    if not np.any(pos):
        return np.zeros_like(y)
    yp = y[pos]

    def certify(i, t):
        # A at t as certificates of elements i; the modular y / A(t)
        v, yi = A._eval_raw(t), yp[i]
        up, dn = v < yi, v >= yi
        a[i] = np.maximum(a[i], np.where(up, t * (1.0 - _LUX_DELTA), 0.0))
        b[i] = np.minimum(b[i], np.where(dn, t * (1.0 + _LUX_DELTA), np.inf))
        return yi / v

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tab = A._eval_raw(two := np.ldexp(1.0, np.arange(-1, 200)))
        k = np.searchsorted(np.maximum.accumulate(tab[1:]), yp)
        t0, v0, t1, v1 = two[k], tab[k], two[k + (k < 200)], tab[k + (k < 200)]
        a = np.where(v0 < yp, t0 * (1.0 - _LUX_DELTA), 0.0)
        b = np.where(v1 >= yp, t1 * (1.0 + _LUX_DELTA), np.inf)
        _secant_certify(certify, np.arange(yp.size), np.log(t0),
                        np.log(yp / v0), np.log(t1), np.log(yp / v1), a, b)
        # p, q: how many multiples of w_39 in (0, 2^k) lie below a, up to b;
        # shifted to step j they first differ at j = c + 1, c = 39 - d
        p = np.clip(np.ceil(np.ldexp(a, 39 - k)) - 1.0, 0.0, 2.0**39 - 1.0)
        q = np.minimum(np.floor(np.ldexp(b, 39 - k)), 2.0**39 - 1.0)
        d = np.frexp(p.astype(np.int64) ^ q.astype(np.int64))[1]
        lo = np.ldexp(np.floor(np.ldexp(p, -d)), k - 39 + d)
        hi = lo + np.ldexp(1.0, k - 39 + d)
        for j in range(40 - int(d.max()), 101):
            i = np.flatnonzero(d > 39 - j) if j < 40 else np.s_[:]
            mid = 0.5 * (lo[i] + hi[i])
            up = mid < a[i]
            e = np.flatnonzero(~(up | (mid > b[i])))
            if e.size:
                up[e] = A._eval_raw(mid[e]) < yp[i][e]
            lo[i], hi[i] = np.where(up, mid, lo[i]), np.where(up, hi[i], mid)
            if j >= 40 and np.all(hi - lo <= 1e-12 * np.maximum(hi, 1e-300)):
                break
    out = np.zeros_like(y)
    out[pos] = 0.5 * (lo + hi)
    return out


# -- constructors -----------------------------------------------------------


def power(r: float, c: float = 1.0) -> YoungFunction:
    if r < 1:
        raise YoungError("power exponent must be >= 1")
    return YoungFunction(POWER, (float(r), float(c)))


def llogl(alpha: float) -> YoungFunction:
    if alpha < 0:
        raise YoungError("llogl exponent must be >= 0")
    return YoungFunction(LLOGL, (float(alpha),))


def expl(gamma: float) -> YoungFunction:
    if gamma <= 0:
        raise YoungError("expl exponent must be > 0")
    return YoungFunction(EXPL, (float(gamma),))


def lll(l: float, alpha: float) -> YoungFunction:
    if l < 0 or alpha < 0:
        raise YoungError("lll exponents must be >= 0")
    return YoungFunction(LLL, (float(l), float(alpha)))


# the paper's Phi_j(t) = t log(e+t)^j is llogl(j)
phi_j = llogl


def compose(outer: YoungFunction, inner: YoungFunction) -> YoungFunction:
    return YoungFunction(COMPOSE, parts=(outer, inner))


def prod(a: YoungFunction, b: YoungFunction) -> YoungFunction:
    return YoungFunction(PROD, parts=(a, b))


def tabulated(knots_t, knots_y) -> YoungFunction:
    """TabulatedConvex from increasing (t, A(t)) pairs.

    The convexity certificate (nondecreasing chord slopes) is enforced by
    taking the lower convex hull of the supplied points, which never exceeds
    the data and keeps the function increasing.
    """
    kt = np.asarray(knots_t, dtype=float)
    ky = np.asarray(knots_y, dtype=float)
    if kt.ndim != 1 or kt.shape != ky.shape or len(kt) < 2:
        raise YoungError("need at least two (t, A(t)) breakpoints")
    if np.any(np.diff(kt) <= 0) or np.any(np.diff(ky) < 0):
        raise YoungError("breakpoints must be increasing")
    if kt[0] > 0:
        kt = np.concatenate([[0.0], kt])
        ky = np.concatenate([[0.0], ky])
    elif ky[0] != 0.0:
        raise YoungError("A(0) must be 0")
    # lower convex hull (Andrew chain on the graph); huge ordinates may
    # overflow the cross products, which only makes the test conservative
    hull = [0]
    with np.errstate(over="ignore"):
        for i in range(1, len(kt)):
            while len(hull) >= 2:
                i0, i1 = hull[-2], hull[-1]
                lhs = (ky[i1] - ky[i0]) * (kt[i] - kt[i1])
                rhs = (ky[i] - ky[i1]) * (kt[i1] - kt[i0])
                if lhs > rhs * (1 + 1e-9) + 1e-9:
                    hull.pop()
                else:
                    break
            hull.append(i)
    kt, ky = kt[hull], ky[hull]
    return YoungFunction(TABLE, knots_t=tuple(kt), knots_y=tuple(ky))


def from_inverse(inv) -> YoungFunction:
    """Tabulate a Young function from a closed-form increasing inverse, on
    1200 log-spaced values of A in [1e-9, 1e24]."""
    u = np.concatenate([[0.0], np.geomspace(1e-9, 1e24, 1200)])
    t = np.concatenate([[0.0], inv(u[1:])])
    keep = np.concatenate([[True], np.diff(t) > 0])
    return tabulated(t[keep], u[keep])


# -- conjugate function -----------------------------------------------------


def conjugate_inverse_value(A: YoungFunction, y):
    """Inverse of the conjugate, elementwise, via the exact identity
    Abar^{-1}(y) = inf_{s>0} (y + A(s)) / s (no tabulation error).  The
    objective is unimodal in u = log s for convex A: a unit-step bracket
    in u, then one golden-section search."""
    scalar = np.isscalar(y)
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.size)
    pos = np.flatnonzero(y > 0)
    yp = y.ravel()[pos]
    if A.family == POWER and A.params[0] == 1.0:
        out[pos] = A.params[1]
    else:
        def g(u, i):
            s = np.exp(u)
            return (yp[i] + A._eval(s)) / s

        idx = np.arange(yp.size)
        g0, ends = g(np.zeros(yp.size), idx), []
        for step in (-1.0, 1.0):  # walk while g decreases, then one step on
            u, gu, act = np.zeros(yp.size), g0.copy(), idx
            for _ in range(200):
                gn = g(u[act] + step, act)
                down = ~(gn >= gu[act])
                act = act[down]
                if not act.size:
                    break
                u[act] += step
                gu[act] = gn[down]
            ends.append(u + step)
        out[pos] = g(_golden_min(g, *ends, 120, lambda b: 1e-13), idx)
    return float(out[0]) if scalar else out.reshape(y.shape)


def _golden_min(fn, a, b, iters: int, tol):
    """Elementwise golden-section search for the minima of unimodal
    functions on [a, b], where fn(x, i) evaluates the functions of elements
    i at x.  Each element stops after iters steps or once its own
    b - a <= tol(b), so it takes the steps it would take alone; returns
    the final midpoints."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    out, i = np.empty_like(a), np.arange(a.size)
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = fn(x1, i), fn(x2, i)
    for _ in range(iters):
        right = f1 > f2
        a, b = np.where(right, x1, a), np.where(right, b, x2)
        d = invphi * (b - a)
        x = np.where(right, a + d, b - d)
        fx = fn(x, i)
        x1, x2 = np.where(right, x2, x), np.where(right, x, x1)
        f1, f2 = np.where(right, f2, fx), np.where(right, fx, f1)
        done = b - a <= tol(b)
        if done.any():
            out[i[done]] = 0.5 * (a[done] + b[done])
            live = ~done
            i, a, b, x1, x2, f1, f2 = (v[live] for v in
                                       (i, a, b, x1, x2, f1, f2))
            if not i.size:
                return out
    out[i] = 0.5 * (a + b)
    return out


# -- Luxemburg norms --------------------------------------------------------


def luxemburg_norm(values, measures, A: YoungFunction) -> float:
    """inf{lam > 0 : sum A(|v|/lam) mu / sum mu <= 1} over one cube.

    `values` are cell values on the cube, `measures` the per-cell measure
    (Lebesgue cell volumes, or w * volume for a weighted norm).  This is
    the one-row case of luxemburg_norm_batch.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise YoungError("empty cube")
    mu = np.asarray(measures, dtype=float)
    return float(luxemburg_norm_batch(v.reshape(1, -1), mu.reshape(1, -1),
                                      A)[0])


_LUX_SECANT_STEPS = 12  # estimate: secant steps per row at most
_LUX_STEP_TOL = 1e-14  # estimate: a row stops at a step this small in log lam
_LUX_ETA = 4e-13  # certify at est * (1 -+ _LUX_ETA)
_LUX_DELTA = 1e-13  # replay: a certificate decides the steps this far past it
_LUX_BLOCK = 2048  # estimate and certify this many rows at a time
_LUX_CELLS = 8192  # Jensen's pass unit-scales this many cells at a time
_LUX_ROWS = 8  # a call of at most this many rows runs row by row
_LUX_FLOOR_TOL = 1e-9  # a row closes where bound (1 + tol) < floor (1 - tol)


def luxemburg_norm_batch(values, measures, A: YoungFunction):
    """Vectorized Luxemburg norms for a stack of same-size cubes, or for
    several such stacks whose cube sizes differ.

    values/measures have shape (ncubes, cells_per_cube), or are lists of
    such arrays (row groups, one width per group), finite, with measures
    >= 0 and a positive total per cube; returns the norms of all rows,
    group after group.  The inputs are only read, and a broadcast measure
    (np.broadcast_to) is never materialized.  The norm is that of a
    bisection in log lam from hi/lo = 1e18 (up where the modular at the
    midpoint sqrt(lo hi) is > 1), which each row ends at its own step where
    hi/lo - 1 <= 1e-12.  Each row runs in unit scale: it is scaled by 2^-e
    to max|v| in [0.5, 1), with e from frexp of its max, and its norm by
    2^e back.  A power of two commutes with every rounded step, so scaling
    a row by 2^k, where that is exact, scales its norm by 2^k bit for bit,
    subnormal rows included.

    Jensen stage, then replay: luxemburg_jensen checks and scales each
    group and takes each row's modular at Jensen's point avg|v| / A^-1(1),
    and luxemburg_replay runs one loop over every group's rows from that
    state.  A per-row secant from hi and Jensen's point estimates the root,
    certified at est (1 -+ eta).  a is (1 - delta) times the largest lam
    evaluated with modular > 1, b is (1 + delta) times the smallest with
    modular <= 1, Jensen's among them, and the replayed bisection evaluates
    only the mids in [a, b].  No bit moves: A(t)/t is nondecreasing, so a
    factor 1 -+ delta (450 ulp) in lam moves the modular past all rounding.
    A cell of measure 0 counts in hi but not in the modular, which it would
    make NaN (0 inf) where A overflows.  Each group's rows are summed in
    that group's own array, so every row sum keeps its pairwise order and
    every row is bitwise its norm alone, whichever rows share the replay:
    rows dropped between the stages (luxemburg_close) move no other bit.  A
    replay of at most _LUX_ROWS rows, where numpy's per-call cost outweighs
    the arithmetic, runs the same steps row by row in _luxemburg_rows.

    Memory: validation and max|v| are reductions.  The unit-scale |v| of
    the nonzero rows is the one copy of the values a call holds; Jensen's
    modulars take at most _LUX_CELLS cells (or one row) at a time.
    """
    if not isinstance(values, list):
        values, measures = [values], [measures]
    stacks = [luxemburg_jensen(x, m, A) for x, m in zip(values, measures)]
    luxemburg_replay(stacks, A)
    return np.concatenate([norms for norms, _ in stacks])


# one stack's rows in the Jensen state, in unit scale: indices, |v| scaled
# by 2^-e (0 where the measure is 0), measures, totals, exponents e, the
# replay's upper end hi, Jensen's point lam and the modular mj there
LuxemburgRows = namedtuple("LuxemburgRows", "i v mu tot e hi lam mj")


def luxemburg_jensen(values, measures, A: YoungFunction) -> tuple:
    """luxemburg_norm_batch's Jensen stage on one stack, checked first:
    (norms, rows), norms final where no replay runs (a zero row) and rows,
    a LuxemburgRows, the state of the other rows."""
    x, mu = np.asarray(values, dtype=float), np.asarray(measures, dtype=float)
    # min and max carry NaN, so the reductions see every non-finite cell
    invalid = mu.size and not 0.0 <= float(mu.min()) <= float(mu.max()) \
        < math.inf
    # max|v| from max v and -min v; abs makes a -0.0 of a zero row +0.0
    vmax = x.max(axis=1, initial=0.0)
    np.abs(np.maximum(vmax, -x.min(axis=1, initial=0.0), out=vmax), out=vmax)
    if invalid or not np.isfinite(vmax).all():
        raise YoungError("non-finite cell value or measure, or measure < 0")
    # measures repeating one row (a broadcast) have one total
    tot = mu.sum(axis=1) if mu.strides[0] else \
        np.ndarray(len(mu), float, mu[:1].sum(axis=1), 0, (0,))
    if np.any(tot <= 0):
        raise YoungError("cube has nonpositive measure")
    # a zero row's norm is 0, and so is its mantissa
    norms, e = np.frexp(vmax)
    i = np.flatnonzero(norms)
    r = slice(None) if i.size == norms.size else i
    e, v, mu, tot = e[r], _unit_rows(x, mu, r, e[r]), _take(mu, r), tot[r]
    lam, mj = np.empty(i.size), np.empty(i.size)
    step = min(_LUX_BLOCK, max(1, _LUX_CELLS // max(1, x.shape[1])))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for c in range(0, i.size, step):
            vr, mr, tr = v[c:c + step], mu[c:c + step], tot[c:c + step]
            lj = lam[c:c + step] = (vr * mr).sum(axis=1) / tr / A.inverse_one
            mj[c:c + step] = (A._eval_raw(vr / lj[:, None]) * mr).sum(axis=1) \
                / tr
    scale = max(1.0, 1.0 / A.inverse_one) if i.size else 1.0
    return norms, LuxemburgRows(i, v, mu, tot, e, norms[i] * scale, lam, mj)


def luxemburg_close(norms, rows: LuxemburgRows, floor) -> LuxemburgRows:
    """The closure stage of a maximum over a stack's norms: each row of
    luxemburg_jensen whose norm lies certainly below its floor (one floor
    per row of the stack) closes, with norm -inf, and the open rows are
    returned.  A(t)/t is nondecreasing, so the norm is at most max(1, mj)
    lam, or the replay's lower end of at most 4e-18 hi where the root lies
    below that; a row closes where this bound, widened by _LUX_FLOOR_TOL
    relative, lies below its floor in unit scale narrowed by as much.  A
    NaN modular (lam = 0) counts as 1 and a NaN floor closes nothing.  Like
    the certificates, the margin assumes measures that are normal floats
    or 0."""
    floor = np.asarray(floor, dtype=float).ravel()
    if floor.size != norms.size:
        raise YoungError("one floor per row")
    bound = np.fmax(rows.mj, 1.0) * rows.lam
    np.maximum(bound, 4e-18 * rows.hi, out=bound)
    bound *= 1.0 + _LUX_FLOOR_TOL
    floor = floor[rows.i]
    np.ldexp(floor, -rows.e, out=floor)
    floor *= 1.0 - _LUX_FLOOR_TOL
    shut = bound < floor
    norms[rows.i[shut]] = -np.inf
    keep = np.flatnonzero(~shut)
    return LuxemburgRows(*(_take(x, keep) for x in rows))


def luxemburg_replay(stacks, A: YoungFunction) -> None:
    """luxemburg_norm_batch's replay stage: one loop over the rows of every
    (norms, rows) pair given, writing each row's norm into its norms."""
    i, v, mu, tot, e, hi, lam, mj = zip(*(rows for _, rows in stacks))
    e, hi, lam, mj = map(np.concatenate, (e, hi, lam, mj))
    if hi.size > _LUX_ROWS:
        hi = _luxemburg_vectorized(v, mu, tot, hi, lam, mj, A)
    elif hi.size:
        hi = _luxemburg_rows(list(zip(
            [r for g in zip(v, mu, tot) for r in zip(*g)], hi, lam, mj)), A)
    hi, stop = np.ldexp(hi, e), 0
    for (norms, _), k in zip(stacks, i):
        norms[k] = hi[stop:stop + k.size]
        stop += k.size


def _luxemburg_vectorized(v, mu, tot, hi, lam, mj, A: YoungFunction):
    """luxemburg_replay's unit-scale norms in one numpy loop over rows."""
    n = hi.size
    starts = np.cumsum([0] + [len(x) for x in v])

    def groups(i):
        # (span of i, v, mu, tot) of the rows i (sorted) per group; a run
        # of rows is a view
        cut = (0, i.size) if len(v) == 1 else np.searchsorted(i, starts)
        for g, (p, q) in enumerate(zip(cut[:-1], cut[1:])):
            if p < q:
                r0, r1 = i[p] - starts[g], i[q - 1] - starts[g] + 1
                r = slice(r0, r1) if r1 - r0 == q - p \
                    else i[p:q] - starts[g]
                yield slice(p, q), v[g][r], _take(mu[g], r), tot[g][r]

    def record(i, lam, m):
        # the modular m of rows i at lam, as certificates
        up, dn = m > 1.0, m <= 1.0
        a[i[up]] = np.maximum(a[i[up]], lam[up] * (1.0 - _LUX_DELTA))
        b[i[dn]] = np.minimum(b[i[dn]], lam[dn] * (1.0 + _LUX_DELTA))

    def certify(i, lam):
        # the modular of rows i at lam, recorded as certificates
        m = np.empty(i.size)
        for s, vi, mi, ti in groups(i):
            m[s] = (A._eval_raw(vi / lam[s, None]) * mi).sum(axis=1) / ti
        record(i, lam, m)
        return m

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b = np.zeros(n), np.full(n, np.inf)
        record(np.arange(n), lam, mj)
        bad = np.zeros(n, bool)
        for j in range(0, n, _LUX_BLOCK):
            sl = slice(j, j + _LUX_BLOCK)
            m = certify(i := np.arange(j, min(j + _LUX_BLOCK, n)), hi[sl])
            # monotonicity sanity: the modular must not increase with lam
            bad[sl] = m > 1.0 + 1e-9
            # the estimate from hi and Jensen's point, at least lo
            _secant_certify(certify, i, np.log(hi[sl]), np.log(m),
                            np.log(lam[sl]), np.log(mj[sl]), a, b,
                            np.log(hi[sl] * 1e-18))
        hi = np.where(bad, 4.0 * hi, hi)
        lo = hi * 1e-18
        # replay; a row stops at its own step where hi/lo - 1 <= 1e-12, step
        # 45.  Testing from step 39 on moves no bit: a bracket passes
        # earlier only once its ends are equal, and they stay
        live = np.ones(n, bool)
        for step in range(200):
            mid = np.sqrt(lo * hi)
            up = mid < a
            i = (live & ~(up | (mid > b))).nonzero()[0]
            if i.size:
                up[i] = certify(i, mid[i]) > 1.0
            lo = np.where(live & up, mid, lo)
            hi = np.where(live & ~up, mid, hi)
            if step >= 39:
                live &= ~(hi / lo - 1.0 <= 1e-12)
                if not live.any():
                    break
    return hi


def _secant_certify(certify, i, x0, g0, x1, g1, a, b, floor=-np.inf):
    """Certificates in [a, b] from a secant on g = log m against x = log t
    from (x0, g0), (x1, g1), m = certify(i, t) the modular, falling with
    slope <= -1 (else stepping as -1).  An element stops at a step below
    _LUX_STEP_TOL or a bracket log(b/a) below _LUX_ETA (a step out of it
    bisects it), then certifies at est (1 -+ _LUX_ETA), est its last x, at
    least floor."""
    est, k, r = x1.copy(), i, np.arange(i.size)
    for _ in range(_LUX_SECANT_STEPS):
        s = (g1 - g0) / (x1 - x0)
        x = x1 - g1 / np.where(s < 0.0, s, -1.0)
        la, lb = np.log(a[k]), np.log(b[k])
        live = (np.abs(x - x1) > _LUX_STEP_TOL) & (lb - la > _LUX_ETA)
        if not ((x > la) & (x < lb)).all():
            mid = 0.5 * (la + lb)
            x = np.where(np.isfinite(mid) & ~((x > la) & (x < lb)), mid, x)
        x0, g0 = x1, g1
        if not live.all():
            k, r, x, x0, g0 = k[live], r[live], x[live], x0[live], g0[live]
            if not k.size:
                break
        est[r], x1, g1 = x, x, np.log(certify(k, np.exp(x)))
    est = np.exp(np.maximum(est, floor))
    for side in (1.0 - _LUX_ETA, 1.0 + _LUX_ETA):
        r = np.flatnonzero((a[i] < est * side) & (est * side < b[i]))
        if r.size:
            certify(i[r], est[r] * side)


def _take(x, r):
    """The rows r of x (a slice or an index array of distinct rows).  Where
    x repeats one row (stride 0, as a broadcast) any len(r) of its rows are
    rows r, and a slice of them holds no cells."""
    if x.strides[0] == 0 and not isinstance(r, slice):
        return x[:len(r)]
    return x[r]


def _unit_rows(x, mu, r, e):
    """|x| of the rows r, scaled by 2^-e row by row, and 0 where the measure
    is 0: a new array."""
    y = np.abs(x[r])
    np.ldexp(y, -e[:, None], out=y)
    m = _take(mu, r)
    if not m.all():
        np.copyto(y, 0.0, where=m == 0)
    return y


def _luxemburg_rows(rows, A: YoungFunction) -> list:
    """luxemburg_replay's norms of unit-scale rows ((v, mu, tot), hi, lam,
    mj), one row at a time: the same Jensen certificate, bad, secant,
    certificates and replay, with the control flow in Python floats
    and numpy only for the row's modular, the same expression on the same
    row.  Python's *, / and sqrt round as numpy's do, and the estimate only
    places certificates, so math.log and math.exp there move no bit.  Where
    Python raises and numpy returns inf or NaN (log 0, exp overflow,
    x / 0), log, exp and the secant's slope return numpy's value."""
    def log(x):
        return math.log(x) if x > 0 else float(np.log(x))

    def exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            return float(np.exp(x))

    out = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for (v, mu, tot), hi, lam, m in rows:
            tot, hi, lam = float(tot), float(hi), float(lam)
            a, b = 0.0, math.inf

            def record(lam, m):
                # the modular m at lam, as a certificate
                nonlocal a, b
                if m > 1.0:
                    a = max(a, lam * (1.0 - _LUX_DELTA))
                elif m <= 1.0:
                    b = min(b, lam * (1.0 + _LUX_DELTA))
                return m

            def certify(lam):
                # the modular at lam, recorded as a certificate
                return record(lam, float((A._eval_raw(v / lam) * mu).sum())
                              / tot)

            g1 = log(record(lam, float(m)))
            m = certify(hi)
            bad = m > 1.0 + 1e-9
            x0, g0, x1 = log(hi), log(m), log(lam)
            est = x1
            for _ in range(_LUX_SECANT_STEPS):
                dg, dx = g1 - g0, x1 - x0
                s = dg / dx if dx else float(np.float64(dg) / dx)
                x = x1 - g1 / (s if s < 0.0 else -1.0)
                la, lb = log(a), log(b)
                live = abs(x - x1) > _LUX_STEP_TOL and lb - la > _LUX_ETA
                mid = 0.5 * (la + lb)
                if math.isfinite(mid) and not la < x < lb:
                    x = mid
                if not live:
                    break
                x0, g0 = x1, g1
                est = x1 = x
                g1 = log(certify(exp(x)))
            est = exp(max(est, log(hi * 1e-18)))
            for side in (1.0 - _LUX_ETA, 1.0 + _LUX_ETA):
                if a < est * side < b:
                    certify(est * side)
            if bad:
                hi *= 4.0
            lo = hi * 1e-18
            for step in range(200):
                mid = math.sqrt(lo * hi)
                if mid < a or (not mid > b and certify(mid) > 1.0):
                    lo = mid
                else:
                    hi = mid
                if step >= 39 and hi / lo - 1.0 <= 1e-12:
                    break
            out.append(hi)
    return out


# -- endpoint constants -----------------------------------------------------


def krA_constant(A: YoungFunction, r: float):
    """sup_{t>1} A(t)^{1/r} / t on a log grid up to T_MAX: (value, finite)."""
    if r < 1:
        raise YoungError("need r >= 1")
    ts = np.geomspace(1.0 + 1e-9, T_MAX, 4096)
    vals = A._eval(ts) ** (1.0 / r) / ts
    imax = int(np.argmax(vals))
    # still growing near the right end -> the sup is infinite
    finite = imax < len(ts) - len(ts) // 20 or vals[-1] <= vals[-2] * (1 + 1e-12)
    return float(vals[imax]), bool(finite)


_CHUNKS_PER_U = 4  # _log_quadrature chunks per unit of u = log t
_GAUSS_NODES = 24  # Gauss-Legendre nodes per chunk


def _log_quadrature(f, t_max):
    """Composite Gauss-Legendre quadrature of int_1^{t_max} f(t) dt in
    u = log t chunks, f taking every node in one array, with a tail verdict
    from the chunk decay profile: geometric decay -> geometric tail
    estimate; slow decay is fit as c / (u log(u)^s), s > 1 integrates.
    """
    u_max = math.log(t_max)
    edges = np.linspace(0.0, u_max, int(u_max * _CHUNKS_PER_U) + 2)
    x, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    half = 0.5 * np.diff(edges)
    t = np.exp(edges[:-1, None] + half[:, None] * (1.0 + x))
    chunk = half * ((f(t) * t) @ w)
    value = float(chunk.sum())
    tail_pos = chunk[-12:]
    tail_pos = tail_pos[tail_pos > 0]
    if len(tail_pos) < 3 or value <= 0:
        return value, True
    rho = tail_pos[-1] / tail_pos[-2]
    if rho <= 0.9:
        tail = tail_pos[-1] * rho / (1.0 - rho)
        return value, bool(tail <= max(1e-6 * value, 1e-12))
    # slow decay: model the chunk density as c / (u log(u)^s); s <= 1
    # diverges.  The exponent is read off from the endpoint ratio of
    # g(u) = u * density, which cancels the 1/u factor exactly.
    mids = 0.5 * (edges[:-1] + edges[1:])
    du = edges[1] - edges[0]
    g = mids * chunk / du
    j2 = len(g) - 1
    j1 = int(np.searchsorted(mids, mids[j2] / 1.3))
    if g[j1] <= 0 or g[j2] <= 0 or j2 - j1 < 2:
        return value, True
    dll = math.log(math.log(mids[j2])) - math.log(math.log(mids[j1]))
    s = -(math.log(g[j2]) - math.log(g[j1])) / dll
    return value, bool(s > 1.02)


def kappa_phi(A: YoungFunction, phi: YoungFunction, m: int = 0,
              h: int | None = None):
    """Endpoint constant kappa_phi over [1, T_MAX]: (value, converged flag).

    Plain variant (m == 0 or h == m):
        int_1^inf phi^{-1}(t) A(log(e+t)^2) / (t^2 log(e+t)^3) dt
    Iterated variant (0 <= h < m), with Phi_j(t) = t log(e+t)^j:
        int_1^inf phi^{-1}(Phi_{m-h}^{-1}(t)) A(log(e+t)^{4(m-h)})
                  / (t^2 log(e+t)^{3(m-h)+1}) dt
    The additive dimensional constant of the iterated case is not part of
    the result.
    """
    if h is None:
        h = m
    if not 0 <= h <= m:
        raise YoungError("need 0 <= h <= m")
    if h == m:
        def integrand(t):
            lg = np.log(E + t)
            return phi.inverse(t) * A(lg * lg) / (t * t * lg**3)
    else:
        j = m - h
        Phi_j_fn = phi_j(j)

        def integrand(t):
            lg = np.log(E + t)
            return (phi.inverse(Phi_j_fn.inverse(t)) * A(lg ** (4 * j))
                    / (t * t * lg ** (3 * j + 1)))

    return _log_quadrature(integrand, T_MAX)


# -- serialization grammar --------------------------------------------------

# literal name -> (constructor, argument kind, fewest and most arguments)
_FAMILIES = {POWER: (power, float, 1, 2), LLOGL: (llogl, float, 1, 1),
             EXPL: (expl, float, 1, 1), LLL: (lll, float, 2, 2),
             "phi": (llogl, float, 1, 1), PROD: (prod, tuple, 2, 2),
             COMPOSE: (compose, tuple, 2, 2)}


def parse_young(expr: str) -> YoungFunction:
    """Parse `power(r[,c])`, `llogl(a)`, `expl(g)`, `lll(l,a)`, `phi(j)`
    (a name for llogl(j)), `prod(e1,e2)`, `compose(e1,e2)` expressions
    (grammar in `literal`)."""
    return _from_literal(literal.parse(expr, YoungError))


def _from_literal(lit: tuple) -> YoungFunction:
    if lit[0] not in _FAMILIES:
        raise YoungError(f"unknown Young family {lit[0]!r}")
    make, kind, lo, hi = _FAMILIES[lit[0]]
    args = literal.positional(lit, kind, lo, hi, YoungError)
    return make(*(map(_from_literal, args) if kind is tuple else args))

