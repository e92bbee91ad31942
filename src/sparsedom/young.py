"""Young-function algebra: evaluation, conjugates, Luxemburg norms and the
endpoint constants used throughout the lab.

A Young function here is a convex increasing A:[0,inf) -> [0,inf) with
A(0) = 0, drawn from a closed catalog of parametric families plus a
tabulated-convex fallback.  Everything downstream (Orlicz averages, bump
maximal operators, kernel smoothness sums) is built on these.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

E = math.e
# the upper end of the t range of bp_check, krA_constant and kappa_phi
T_MAX = 1e12

# Catalog family tags.
POWER = "power"
LLOGL = "llogl"
EXPL = "expl"
LLL = "lll"
PHI = "phi"
COMPOSE = "compose"
PROD = "prod"
TABLE = "table"
LINF = "linf"  # conjugate of t -> c*t; Luxemburg norm degenerates to sup


class YoungError(ValueError):
    pass


class UnboundedConjugateError(YoungError):
    """Raised when sup_s {s t - A(s)} = +inf inside the requested range."""


class RangeError(YoungError):
    """Requested value lies outside a tabulated function's range."""


@dataclass(frozen=True)
class YoungFunction:
    """One member of the catalog.

    family/params encode the parametric families; ``parts`` holds children
    for compose/prod; ``knots_t``/``knots_y`` the breakpoints of a
    TabulatedConvex function (linear interpolation, final-slope
    extrapolation above the last knot).
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
        if f == PHI:
            (j,) = self.params
            return t * np.log(E + t) ** j
        if f == COMPOSE:
            outer, inner = self.parts
            return outer._eval(inner._eval(t))
        if f == PROD:
            a, b = self.parts
            return a._eval(t) * b._eval(t)
        if f == TABLE:
            kt = np.asarray(self.knots_t)
            ky = np.asarray(self.knots_y)
            y = np.interp(t, kt, ky)
            # extrapolate above the last knot with the final slope
            hi = t > kt[-1]
            if np.any(hi):
                slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
                y = np.where(hi, ky[-1] + slope * (t - kt[-1]), y)
            return y
        if f == LINF:
            (c,) = self.params
            return np.where(t <= c, 0.0, np.inf)
        raise YoungError(f"unknown family {f!r}")

    # -- inverse ------------------------------------------------------------

    def inverse(self, y):
        scalar = np.isscalar(y)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise YoungError("inverse requested at negative value")
        t = self._inverse(y)
        return float(np.asarray(t).ravel()[0]) if scalar else t

    def _inverse(self, y):
        f = self.family
        if f == POWER:
            r, c = self.params
            return (y / c) ** (1.0 / r)
        if f == EXPL:
            (g,) = self.params
            return np.log1p(y) ** (1.0 / g)
        if f == TABLE:
            kt = np.asarray(self.knots_t)
            ky = np.asarray(self.knots_y)
            slope = (ky[-1] - ky[-2]) / (kt[-1] - kt[-2])
            out = np.interp(y, ky, kt)
            hi = y > ky[-1]
            if np.any(hi):
                if slope <= 0:
                    raise RangeError("inverse beyond tabulated range")
                out = np.where(hi, kt[-1] + (y - ky[-1]) / slope, out)
            return out
        if f == LINF:
            # generalized inverse of the L^inf indicator: constant c
            (c,) = self.params
            return np.full_like(y, c)
        if f == COMPOSE:
            outer, inner = self.parts
            return inner._inverse(outer._inverse(y))
        return _bisect_inverse(self, y)


def _bisect_inverse(A: YoungFunction, y):
    """Monotone bisection with exponential bracket growth, rel tol 1e-12."""
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


def phi_j(j: float) -> YoungFunction:
    if j < 0:
        raise YoungError("phi index must be >= 0")
    return YoungFunction(PHI, (float(j),))


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


# -- complementary (conjugate) function -------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def conjugate_value(A: YoungFunction, t):
    """Legendre transform sup_{s>0} {s t - A(s)}, elementwise: a doubling
    bracket in s, then golden-section search on the concave s t - A(s);
    closed form for power laws.  Where the sup is +inf, or too large for a
    float, an array call gives +inf and a scalar call raises
    UnboundedConjugateError."""
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise YoungError("conjugate requested at negative t")
    out = np.zeros(t.size)
    pos = np.flatnonzero(t > 0)
    tp = t.ravel()[pos]
    if A.family == POWER:
        out[pos] = complementary(A)._eval(tp)
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

        s = _golden_min(lambda s, i: -obj(s, i), np.zeros_like(hi), hi, 200,
                        lambda b: 1e-14 * np.maximum(b, 1.0))
        out[pos[fin]] = np.maximum(obj(s, np.arange(tp.size)), 0.0)
    if scalar and np.isinf(out[0]):
        raise UnboundedConjugateError(
            f"conjugate of {format_young(A)} is unbounded at t={float(t)}")
    return float(out[0]) if scalar else out.reshape(t.shape)


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


def complementary(A: YoungFunction) -> YoungFunction:
    """Complementary function Abar(t) = sup_s {s t - A(s)}: closed form for
    power laws, else conjugate_value on 1024 log-spaced points of
    [1e-6, 1e9] (finite entries only), wrapped as TabulatedConvex."""
    if A.family == POWER:
        r, c = A.params
        if r == 1.0:
            return YoungFunction(LINF, (c,))
        rp = r / (r - 1.0)
        return power(rp, 1.0 / (rp * (c * r) ** (rp / r)))
    ts = np.geomspace(1e-6, 1e9, 1024)
    ys = conjugate_value(A, ts)
    ts, ys = ts[np.isfinite(ys)], ys[np.isfinite(ys)]
    if len(ys) < 2:
        raise UnboundedConjugateError(
            "conjugate overflows on the whole tabulation range")
    keep = np.concatenate([[True], np.diff(ys) > 0])
    # drop a flat initial segment (conjugate may vanish near 0)
    return tabulated(ts[keep], ys[keep])


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


def luxemburg_norm_batch(values, measures, A: YoungFunction):
    """Vectorized Luxemburg norms for a stack of same-size cubes.

    values/measures have shape (ncubes, cells_per_cube); returns (ncubes,).
    The bisection runs in log lam from hi/lo = 1e18 and halves log(hi/lo)
    at every step whichever half it keeps, so every row meets the relative
    tolerance 1e-12 at the same step: a row's norm does not depend on the
    other rows of the batch.
    """
    v = np.abs(np.asarray(values, dtype=float))
    mu = np.asarray(measures, dtype=float)
    tot = mu.sum(axis=1)
    if np.any(tot <= 0):
        raise YoungError("cube has nonpositive measure")
    vmax = v.max(axis=1)
    out = np.zeros(v.shape[0])
    act = vmax > 0
    if not np.any(act):
        return out
    v = v[act]
    mu = mu[act]
    tot = tot[act]
    vmax = vmax[act]
    if A.family == LINF:
        out[act] = vmax / A.params[0]
        return out
    ainv1 = float(A.inverse(1.0))
    hi = vmax * max(1.0, 1.0 / ainv1)
    # monotonicity sanity: the modular must not increase with lam
    bad = (A._eval(v / hi[:, None]) * mu).sum(axis=1) / tot > 1.0 + 1e-9
    hi[bad] *= 4.0
    lo = hi * 1e-18
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        mod = (A._eval(v / mid[:, None]) * mu).sum(axis=1) / tot
        up = mod > 1.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if np.all(hi / lo - 1.0 <= 1e-12):
            break
    out[act] = hi
    return out


def holder_defect(f_vals, g_vals, measures, A: YoungFunction) -> float:
    """Ratio avg|fg| / (||f||_A ||g||_Abar) over one cube; <= 2 always."""
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    mu = np.asarray(measures, dtype=float)
    avg = float((np.abs(f * g) * mu).sum()) / float(mu.sum())
    nf = luxemburg_norm(f, mu, A)
    ng = luxemburg_norm(g, mu, complementary(A))
    if nf == 0.0 or ng == 0.0:
        return 0.0
    return avg / (nf * ng)


# -- class certificates and endpoint constants ------------------------------


@dataclass(frozen=True)
class YoungClassCertificate:
    p0: float
    p1: float
    t_A: float
    c_A_p0: float
    c_A_p1: float
    verified_on: tuple  # (t_lo, t_hi, npoints)


class CertificateError(YoungError):
    def __init__(self, msg, t_violate):
        super().__init__(msg)
        self.t_violate = t_violate


def young_class_certificate(A: YoungFunction, p0: float,
                            p1: float) -> YoungClassCertificate:
    """Smallest grid constants with t^{p0} <= c A(t) above t_A and
    t^{p1} <= c A(t) below it."""
    if not (1.0 <= p0 <= p1):
        raise YoungError("need 1 <= p0 <= p1")
    t_A, cap, on = 1.0, 1e12, (1e-6, 1e9, 400)
    ts = np.geomspace(*on)
    hi_t = ts[ts > t_A]
    lo_t = ts[ts <= t_A]
    c0 = c1 = 1.0
    if len(hi_t):
        ratios = hi_t**p0 / A._eval(hi_t)
        # no finite constant if the ratio is still climbing at the far end
        if ratios[-1] >= ratios[:-1].max(initial=0.0) and ratios[-1] > cap / 1e6:
            raise CertificateError("t^p0 <= c A(t) fails as t -> inf",
                                   float(hi_t[-1]))
        if len(ratios) >= 2 and ratios[-1] > 1.001 * ratios[-2] and \
                ratios[-1] == ratios.max():
            raise CertificateError("t^p0 / A(t) increasing at grid end",
                                   float(hi_t[-1]))
        c0 = float(max(ratios.max(), 1.0))
    if len(lo_t):
        ratios = lo_t**p1 / A._eval(lo_t)
        if ratios[0] >= ratios[1:].max(initial=0.0) and ratios[0] > cap / 1e6:
            raise CertificateError("t^p1 <= c A(t) fails as t -> 0",
                                   float(lo_t[0]))
        c1 = float(max(ratios.max(), 1.0))
    if max(c0, c1) > cap:
        raise CertificateError("no finite certificate on the grid", None)
    return YoungClassCertificate(p0, p1, t_A, c0, c1, on)


def bp_check(A: YoungFunction, p: float):
    """Partial integral of A(t) / t^{p+1} over [1, T_MAX] plus a tail
    verdict: (value, converged)."""
    if p <= 1:
        raise YoungError("need p > 1")
    return _log_quadrature(lambda t: A._eval(t) / t ** (p + 1.0), T_MAX)


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

_TOKEN = re.compile(r"\s*([a-z_]+)\s*\(")


def parse_young(expr: str) -> YoungFunction:
    """Parse `power(r)`, `llogl(a)`, `expl(g)`, `lll(l,a)`, `phi(j)`,
    `prod(e1,e2)`, `compose(e1,e2)` expressions."""
    expr = expr.strip()
    node, rest = _parse_expr(expr)
    if rest.strip():
        raise YoungError(f"trailing input {rest!r} in Young expression")
    return node


def _parse_expr(s: str):
    m = _TOKEN.match(s)
    if not m:
        raise YoungError(f"cannot parse Young expression at {s!r}")
    name = m.group(1)
    rest = s[m.end():]
    if name in ("prod", "compose"):
        a, rest = _parse_expr(rest)
        rest = _expect(rest, ",")
        b, rest = _parse_expr(rest)
        rest = _expect(rest, ")")
        return (prod(a, b) if name == "prod" else compose(a, b)), rest
    args = []
    while True:
        m2 = re.match(r"\s*([-+0-9.eE]+)\s*([,)])", rest)
        if not m2:
            raise YoungError(f"bad numeric argument near {rest!r}")
        args.append(float(m2.group(1)))
        rest = rest[m2.end():]
        if m2.group(2) == ")":
            break
    makers = {"power": power, "llogl": llogl, "expl": expl, "lll": lll,
              "phi": phi_j}
    if name not in makers:
        raise YoungError(f"unknown Young family {name!r}")
    return makers[name](*args), rest


def _expect(s: str, ch: str) -> str:
    s = s.lstrip()
    if not s.startswith(ch):
        raise YoungError(f"expected {ch!r} at {s!r}")
    return s[1:]


def format_young(A: YoungFunction) -> str:
    f = A.family
    if f == POWER:
        r, c = A.params
        return f"power({r:g})" if c == 1.0 else f"power({r:g},{c:g})"
    if f == LLOGL:
        return f"llogl({A.params[0]:g})"
    if f == EXPL:
        return f"expl({A.params[0]:g})"
    if f == LLL:
        return f"lll({A.params[0]:g},{A.params[1]:g})"
    if f == PHI:
        return f"phi({A.params[0]:g})"
    if f == PROD:
        return f"prod({format_young(A.parts[0])},{format_young(A.parts[1])})"
    if f == COMPOSE:
        return (f"compose({format_young(A.parts[0])},"
                f"{format_young(A.parts[1])})")
    if f == TABLE:
        return f"table[{len(A.knots_t)} knots]"
    if f == LINF:
        return f"linf({A.params[0]:g})"
    raise YoungError(f"unknown family {f!r}")
