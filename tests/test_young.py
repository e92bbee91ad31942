"""Young-function algebra: evaluation, conjugates, Luxemburg norms, the
growth constant k_r(A) and the integrals of the log-quadrature."""

import glob
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sparsedom import bench, young
from sparsedom.operators import counter_young

from oracles import (UnboundedConjugateError, bisect_inverse,
                     conjugate_value, format_young)

E = math.e

CATALOG = [
    young.power(1.5),
    young.power(2),
    young.power(3, 0.7),
    young.llogl(1),
    young.llogl(2.5),
    young.expl(1),
    young.expl(2),
    young.lll(1, 1.5),
    young.phi_j(2),
    young.compose(young.llogl(1), young.power(2)),
    young.prod(young.power(1.5), young.llogl(1)),
    young.tabulated(np.geomspace(1e-4, 1e7, 600),
                    np.geomspace(1e-4, 1e7, 600) ** 2),
    counter_young(2, 1),
]


# -- evaluation and inverse ---------------------------------------------------


def test_eval_power():
    assert young.power(2)(3.0) == 9.0


def test_eval_vanishes_at_origin():
    assert young.phi_j(1)(0.0) == 0.0


def test_eval_llogl_at_e():
    assert young.llogl(1)(E) == pytest.approx(E * math.log(E + E), rel=1e-12)


def test_eval_rejects_negative_argument():
    with pytest.raises(young.YoungError):
        young.power(2)(-1.0)


def test_inverse_power():
    assert young.power(2).inverse(9.0) == pytest.approx(3.0, rel=1e-12)


def test_inverse_llogl_round_trip():
    y = E * math.log(E + E)
    assert young.llogl(1).inverse(y) == pytest.approx(E, abs=1e-9)


@given(st.floats(1.0, 5.0), st.floats(0.01, 100.0))
def test_inverse_power_round_trip(r, t):
    A = young.power(r)
    assert A.inverse(A(t)) == pytest.approx(t, rel=1e-10)


def test_monotone_and_superlinear_on_samples():
    ts = np.geomspace(1e-3, 1e3, 50)
    for A in CATALOG:
        vals = A(ts)
        # exponential families saturate near the float ceiling; only the
        # representable range is informative
        ok = vals < 1e290
        vals, tt = vals[ok], ts[ok]
        assert np.all(np.diff(vals) > 0), format_young(A)
        ratios = vals / tt
        # A(t)/t nondecreasing up to evaluation noise
        assert np.all(np.diff(ratios) >= -1e-9 * ratios[:-1]), \
            format_young(A)


GAUGES = {
    "power": lambda: young.power(2),
    "llogl": lambda: young.llogl(1),
    "expl": lambda: young.expl(1),
    "lll": lambda: young.lll(1, 1.5),
    "phi": lambda: young.phi_j(2),
    "compose": lambda: young.compose(young.llogl(1), young.power(2)),
    "prod": lambda: young.prod(young.power(1.5), young.llogl(1)),
    "counter": lambda: counter_young(2, 1),
}


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_inverse_one_cached_bitwise(name):
    A, B = GAUGES[name](), GAUGES[name]()
    assert A.inverse_one == float(A.inverse(1.0))
    # the cached value stays out of == and hash, so equal gauges stay equal
    assert A == B and hash(A) == hash(B)
    assert {B: "key"}[A] == "key"


# -- the inverse's bisection, against the plain loop -------------------------

INVERSE_GAUGES = {
    "llogl0": lambda: young.llogl(0),
    "llogl1": lambda: young.llogl(1),
    "llogl1.5": lambda: young.llogl(1.5),
    "llogl2": lambda: young.llogl(2),
    "lll0": lambda: young.lll(0, 1.5),
    "lll1": lambda: young.lll(1, 1.5),
    "prod": lambda: young.prod(young.llogl(1), young.power(2)),
    "compose_outer": lambda: young.compose(young.llogl(1), young.power(2)),
    "compose_inner": lambda: young.compose(young.power(1.5), young.lll(1, 2)),
    "compose_both": lambda: young.compose(young.llogl(2), young.llogl(0.5)),
}


def _inverse_calls(run):
    """The (A, y, A^-1(y)) of every _bisect_inverse call that run() makes."""
    calls, real = [], young._bisect_inverse

    def record(A, y):
        out = real(A, y)
        calls.append((A, np.array(y, dtype=float), out.copy()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_bisect_inverse", record)
        run()
    return calls


def _kappa_nodes():
    """The 2664 quadrature nodes at which kappa_phi takes phi^-1."""
    calls = _inverse_calls(lambda: young.kappa_phi(young.llogl(1),
                                                   young.lll(1, 1.5)))
    return calls[0][1]


def _inverse_inputs():
    rng = np.random.default_rng(46)
    nodes = _kappa_nodes()
    return {
        "kappa_nodes": nodes,
        "one": 1.0,
        "geomspace": np.geomspace(1e-12, 1e14, 3000),
        "uniform": rng.uniform(0.0, 50.0, 500),
        "edges": np.array([0.0, 1e-300, 5e-324, 1e300, np.inf, np.nan,
                           2.0**40, 1.5]),
        "llogl1_inverse_of_nodes": young.llogl(1).inverse(nodes),
        # roots exactly dyadic for llogl(0), A(t) = t: at a bracket end and
        # at every step's midpoint
        "dyadic": np.ldexp(np.arange(1.0, 2000.0, 3.0), -10),
    }


@pytest.mark.parametrize("name", sorted(INVERSE_GAUGES))
def test_bisect_inverse_bitwise_the_plain_loop(name, monkeypatch):
    """The certify-and-replay inverse gives the plain bisection's bits, on
    kappa's nodes, wide and edge inputs, dyadic roots and y = A(2^k),
    through A.inverse, so compose gauges reach it through their parts."""
    A = INVERSE_GAUGES[name]()
    inputs = _inverse_inputs()
    # y = B(2^k) exactly, B the gauge that inverts y first (a compose's
    # outer part)
    powers = np.ldexp(1.0, np.arange(-60, 200))
    inputs["powers_of_two"] = (A.parts[0] if A.parts else A)._eval(powers)
    for label, y in inputs.items():
        # the batch, then scalars, each a batch of its own
        for y in [y] + [float(v) for v in np.ravel(y)[::211]]:
            got = A.inverse(y)
            with monkeypatch.context() as mp:
                mp.setattr(young, "_bisect_inverse", bisect_inverse)
                want = A.inverse(y)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
                (label, y)


def test_bisect_inverse_bitwise_on_every_battery_call():
    """Every inverse a battery pass takes, kappa_phi's node batches and each
    gauge's A^-1(1), is the plain bisection's, bit for bit."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "battery", "*.ini")))
    calls = _inverse_calls(lambda: [bench.run_scenario(
        bench.parse_scenario(p)) for p in paths])
    sizes = sorted({y.size for _, y, _ in calls})
    assert sizes[0] == 1 and sizes[-1] == 2664
    for A, y, got in calls:
        assert got.tobytes() == bisect_inverse(A, y).tobytes(), (A, y.size)


def test_tabulated_rejects_bad_breakpoints():
    with pytest.raises(young.YoungError):
        young.tabulated([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(young.YoungError):
        young.tabulated([0.0, 1.0], [0.5, 1.0])


def test_tabulated_slopes_nondecreasing():
    A = young.tabulated(np.linspace(0.1, 50, 200),
                        np.linspace(0.1, 50, 200) ** 2)
    kt = np.asarray(A.knots_t)
    ky = np.asarray(A.knots_y)
    slopes = np.diff(ky) / np.diff(kt)
    assert np.all(np.diff(slopes) >= -1e-12)


# -- conjugates ---------------------------------------------------------------


def test_conjugate_self_dual_half_square():
    A = young.power(2, 0.5)
    for t in np.geomspace(0.01, 100.0, 17):
        assert conjugate_value(A, t) == pytest.approx(
            0.5 * t * t, abs=1e-8, rel=1e-8)


def test_conjugate_power_third():
    A = young.power(3, 1.0 / 3.0)
    for t in (0.1, 1.0, 7.0):
        assert conjugate_value(A, t) == pytest.approx(
            (2.0 / 3.0) * t ** 1.5, rel=1e-8)


def test_conjugate_of_linear_growth():
    A = young.power(1, 2.0)
    assert conjugate_value(A, 1.5) == 0.0
    with pytest.raises(UnboundedConjugateError):
        conjugate_value(A, 3.0)


def test_conjugate_of_power_near_linear_growth():
    # r' = 10001: (c r)^(r'/r) is past a float, the conjugate is not
    A = young.power(1.0001, 5.0)
    assert conjugate_value(A, np.array([1.0, 10.0])).tolist() == \
        [0.0, np.inf]
    assert conjugate_value(A, 1.0) == 0.0
    with pytest.raises(UnboundedConjugateError):
        conjugate_value(A, 10.0)
    # and where it underflows, its reciprocal is past a float
    A = young.power(1.0001, 1e-5)
    assert conjugate_value(A, np.array([1e-6, 1.0])).tolist() == \
        [0.0, np.inf]
    assert conjugate_value(A, 1e-6) == 0.0


def test_unbounded_conjugate_is_inf_not_a_number():
    # final slope 2: the sup of s t - A(s) is +inf for every t > 2
    A = young.tabulated([0, 1, 2, 3], [0, 1, 3, 5])
    ts = np.array([2.5, 3.0, 10.0])
    assert np.all(np.isinf(conjugate_value(A, ts)))
    for t in ts:
        with pytest.raises(UnboundedConjugateError):
            conjugate_value(A, t)
    # the conjugate of t log(e+t) is about exp(t - 1): past a float near 710
    assert np.isinf(conjugate_value(young.llogl(1), np.array([1e3]))[0])
    with pytest.raises(UnboundedConjugateError):
        conjugate_value(young.llogl(1), 1e3)


@pytest.mark.parametrize("A", CATALOG, ids=format_young)
def test_conjugates_array_call_matches_scalar_calls(A):
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 16)])
    vals = conjugate_value(A, ts)
    for t, v in zip(ts, vals):
        if np.isinf(v):
            with pytest.raises(UnboundedConjugateError):
                conjugate_value(A, t)
        else:
            assert conjugate_value(A, t) == v
    inv = young.conjugate_inverse_value(A, ts)
    assert [young.conjugate_inverse_value(A, t) for t in ts] == inv.tolist()


def test_inverse_product_bracket_spot_values():
    A = young.llogl(1)
    for t in (0.5, 1.0, 10.0, 1e3):
        v = A.inverse(t) * young.conjugate_inverse_value(A, t)
        assert t * (1 - 1e-6) <= v <= 2 * t * (1 + 1e-6)


def test_inverse_product_bracket_catalog():
    ts = np.geomspace(1e-2, 1e3, 20)
    for A in CATALOG:
        vs = A.inverse(ts) * young.conjugate_inverse_value(A, ts)
        for t, v in zip(ts, vs):
            assert v >= t * (1 - 1e-6), (format_young(A), t, v)
            assert v <= 2 * t * (1 + 1e-6), (format_young(A), t, v)


def test_conjugate_inverse_consistent_with_transform():
    for A in (young.llogl(1), young.expl(2), young.phi_j(2)):
        for y in (0.3, 3.0, 300.0):
            t = young.conjugate_inverse_value(A, y)
            assert conjugate_value(A, t) == pytest.approx(
                y, rel=1e-8)


# -- Luxemburg norms ----------------------------------------------------------


def test_luxemburg_constant_function():
    mu = np.full(16, 1.0 / 16)
    assert young.luxemburg_norm(np.full(16, 3.0), mu, young.power(2)) == \
        pytest.approx(3.0, rel=1e-10)


def test_luxemburg_matches_l2_mean_on_two_cells():
    mu = np.array([0.5, 0.5])
    got = young.luxemburg_norm(np.array([1.0, 3.0]), mu, young.power(2))
    assert got == pytest.approx(math.sqrt(5.0), rel=1e-10)


def test_luxemburg_zero_function():
    mu = np.full(8, 0.125)
    assert young.luxemburg_norm(np.zeros(8), mu, young.llogl(1)) == 0.0


def test_luxemburg_empty_cube_rejected():
    with pytest.raises(young.YoungError):
        young.luxemburg_norm(np.array([]), np.array([]), young.power(2))


@given(st.floats(0.1, 10.0), st.integers(0, 4))
def test_luxemburg_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    vals = rng.lognormal(0.0, 1.0, 32)
    mu = np.full(32, 1.0 / 32)
    A = young.llogl(1)
    base = young.luxemburg_norm(vals, mu, A)
    scaled = young.luxemburg_norm(c * vals, mu, A)
    assert scaled == pytest.approx(c * base, rel=1e-9)


@given(st.integers(0, 9))
def test_luxemburg_monotone_in_data(seed):
    rng = np.random.default_rng(seed)
    f = rng.lognormal(0.0, 1.0, 32)
    g = f + rng.lognormal(0.0, 1.0, 32)
    mu = np.full(32, 1.0 / 32)
    for A in (young.power(2), young.llogl(1)):
        assert young.luxemburg_norm(f, mu, A) <= \
            young.luxemburg_norm(g, mu, A) * (1 + 1e-9)


@given(st.integers(0, 9))
def test_luxemburg_domination_transfer(seed):
    # A(t) <= kappa B(t) for t >= c implies the norm transfer bound with
    # constant A(c) + kappa; here A = t log(e+t), B = t^2, c = 2, kappa = 1
    rng = np.random.default_rng(seed)
    f = rng.lognormal(0.0, 1.0, 32)
    mu = np.full(32, 1.0 / 32)
    A = young.llogl(1)
    B = young.power(2)
    ts = np.geomspace(2.0, 1e6, 200)
    assert np.all(A(ts) <= B(ts))
    na = young.luxemburg_norm(f, mu, A)
    nb = young.luxemburg_norm(f, mu, B)
    assert na <= (A(2.0) + 1.0) * nb * (1 + 1e-9)


def test_luxemburg_batch_matches_scalar(rng):
    # every row of a batch is bitwise its norm alone, whatever the scale of
    # the other rows; an all-zero row has norm 0
    scale = np.array([1e-9, 1e-3, 1.0, 1e4, 1e12, 0.0])
    vals = rng.lognormal(0.0, 1.0, (6, 16)) * scale[:, None]
    mu = rng.uniform(0.5, 2.0, (6, 16))
    for A in (young.llogl(1), young.power(2), young.expl(1),
              counter_young(2.0, 1.0)):
        batch = young.luxemburg_norm_batch(vals, mu, A)
        assert batch[-1] == 0.0
        for i in range(6):
            assert batch[i] == young.luxemburg_norm(vals[i], mu[i], A)


def test_luxemburg_batch_inverts_once_per_gauge(rng, monkeypatch):
    calls = []
    real = young.YoungFunction.inverse

    def inverse(self, y):
        calls.append(y)
        return real(self, y)

    monkeypatch.setattr(young.YoungFunction, "inverse", inverse)
    A = young.llogl(1)
    vals = rng.lognormal(0.0, 1.0, (3, 16))
    for _ in range(4):
        young.luxemburg_norm_batch(vals, np.ones_like(vals), A)
    assert calls == [1.0]


def _geometric_mid(lo, hi):
    """sqrt(lo hi) as if the exponent range had no ends: lo is scaled by an
    even power of two to [0.5, 2) before the product, and the root back."""
    q = np.frexp(lo)[1] // 2
    return np.ldexp(np.sqrt(np.ldexp(lo, -2 * q) * hi), q)


def _bisection_reference(values, measures, A):
    """The plain bisection that defines luxemburg_norm_batch's answer: one
    modular evaluation of every live row per step, at the geometric
    midpoint of its bracket; a row leaves at its own step where
    hi/lo - 1 <= 1e-12.  A cell of measure 0 counts in hi only."""
    v = np.abs(np.asarray(values, dtype=float))
    mu = np.asarray(measures, dtype=float)
    tot = mu.sum(axis=1)
    vmax = v.max(axis=1)
    v = np.where(mu == 0, 0.0, v)
    out = np.zeros(v.shape[0])
    act = vmax > 0
    if not np.any(act):
        return out
    v, mu, tot, vmax = v[act], mu[act], tot[act], vmax[act]
    hi = vmax * max(1.0, 1.0 / A.inverse_one)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bad = (A._eval(v / hi[:, None]) * mu).sum(axis=1) / tot > 1.0 + 1e-9
        hi[bad] *= 4.0
        lo = hi * 1e-18
        live = np.ones(hi.size, bool)
        for _ in range(200):
            mid = _geometric_mid(lo[live], hi[live])
            mod = (A._eval(v[live] / mid[:, None]) * mu[live]).sum(axis=1) \
                / tot[live]
            up = mod > 1.0
            lo[live] = np.where(up, mid, lo[live])
            hi[live] = np.where(up, hi[live], mid)
            live[live] = ~(hi[live] / lo[live] - 1.0 <= 1e-12)
            if not live.any():
                break
    out[act] = hi
    return out


def _with_inverse_one(A, factor):
    """A copy of A whose cached A^-1(1) is off by `factor`: above 1 the
    modular at the initial upper bracket exceeds 1, which trips the
    bisection's `bad` guard (at 10 the root lies beyond the widened
    bracket, and the bisection ends on its upper end)."""
    B = young.YoungFunction(A.family, A.params, A.parts, A.knots_t, A.knots_y)
    B.__dict__["inverse_one"] = factor * A.inverse_one
    return B


class _Wobbly(young.YoungFunction):
    """llogl(1) evaluated with a relative error of up to 3e-14 that is not
    monotone in t, as an elementwise kernel a few dozen ulp off would be:
    the replay's margin must outweigh it."""

    def _eval_raw(self, t):
        t = np.ascontiguousarray(t, dtype=float)
        bits = t.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        h = (bits >> np.uint64(11)) / 2.0**52 - 1.0  # in [-1, 1)
        return super()._eval_raw(t) * (1.0 + 3e-14 * h)


def _tabulated_conjugate(A):
    """The conjugate of A tabulated at its finite values on 1024
    log-spaced points of [1e-6, 1e9], where it rises: a convex table whose
    slopes span many decades."""
    ts = np.geomspace(1e-6, 1e9, 1024)
    ys = conjugate_value(A, ts)
    ts, ys = ts[np.isfinite(ys)], ys[np.isfinite(ys)]
    keep = np.concatenate([[True], np.diff(ys) > 0])
    return young.tabulated(ts[keep], ys[keep])


LUX_GAUGES = [
    young.power(2),
    young.power(20),  # overflows on cells of measure 0
    young.llogl(1),
    young.expl(1),  # saturates at t = 700
    young.expl(2),
    young.lll(1, 1.5),
    # phi_j(2) is llogl(2); its id keeps the paper's name
    pytest.param(young.phi_j(2), id="phi(2)"),
    young.compose(young.llogl(1), young.power(2)),
    young.prod(young.power(1.5), young.llogl(1)),
    counter_young(2.0, 1.0),
    _tabulated_conjugate(young.llogl(1)),  # a steep table
    pytest.param(_with_inverse_one(young.llogl(1), 3.0), id="bad-root-inside"),
    pytest.param(_with_inverse_one(young.power(2), 10.0), id="bad-root-far"),
    pytest.param(_Wobbly(young.LLOGL, (1.0,)), id="wobbly-llogl(1)"),
]


def _lux_rows(n, rng, c, spread):
    """Rows of every kind the bisection meets, in random order, with cells
    of measure 0 at each row's largest value and elsewhere."""
    one = np.arange(n) == rng.integers(n)
    rows = [
        np.zeros(n),
        np.full(n, c),  # Jensen's point is the root
        np.where(one, c, 0.0),
        10.0 ** rng.uniform(-12.0, 12.0, n),  # cells over 1e-12 ... 1e12
        *rng.lognormal(0.0, 2.0, (16, n)) * spread,
        -rng.lognormal(0.0, 1.0, n) * 1e-12,
        rng.lognormal(0.0, 1.0, n) * 1e12,
        rng.lognormal(0.0, 0.01, n) * c,
        # all mass 1e-17 below a max of measure 0: the root lies so far
        # below it that A overflows there
        np.where(one, c, 1e-17 * c * rng.lognormal(0.0, 1.0, n)),
    ]
    mu = rng.uniform(0.5, 2.0, (len(rows), n))
    if n > 1:
        for v, m in zip(rows, mu):
            top = int(np.argmax(np.abs(v)))
            m[rng.random(n) < 0.3] = 0.0
            m[(top + 1 + rng.integers(n - 1)) % n] = 1.0
            m[top] = 0.0
    if n > 2:
        # Jensen's point lies far below lo, where a cell of measure 0 that
        # is finite at lo overflows under power(20)
        rows.append(np.r_[1.0, 1e-3, np.full(n - 2, 1e-25)] * c)
        mu = np.vstack([mu, np.r_[1e-20, 0.0, np.ones(n - 2)]])
    order = rng.permutation(len(rows))
    return np.array(rows)[order], mu[order]


@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=15)
@given(n=st.sampled_from([1, 4, 8, 9, 64, 129]),
       seed=st.integers(0, 2**32 - 1),
       c_exp=st.floats(-12.0, 12.0), spread_exp=st.floats(-12.0, 12.0))
def test_luxemburg_batch_bitwise_equals_bisection(A, n, seed, c_exp,
                                                  spread_exp):
    vals, mu = _lux_rows(n, np.random.default_rng(seed), 10.0 ** c_exp,
                         10.0 ** spread_exp)
    got = young.luxemburg_norm_batch(vals, mu, A)
    assert got.tobytes() == _bisection_reference(vals, mu, A).tobytes()


@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=6)
@given(widths=st.lists(st.sampled_from([1, 4, 8, 9, 64, 129]), min_size=2,
                       max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1),
       c_exp=st.floats(-12.0, 12.0), spread_exp=st.floats(-12.0, 12.0))
def test_luxemburg_ragged_batch_rows_equal_one_row_calls(A, widths, seed,
                                                          c_exp, spread_exp):
    # row groups of different widths share one call; each row, all-zero
    # rows and rows with cells of measure 0 included, is its norm alone
    rng = np.random.default_rng(seed)
    groups = [_lux_rows(w, rng, 10.0 ** c_exp, 10.0 ** spread_exp)
              for w in widths]
    got = young.luxemburg_norm_batch([v for v, _ in groups],
                                     [mu for _, mu in groups], A)
    want = [young.luxemburg_norm_batch(row[None], m[None], A)
            for v, mu in groups for row, m in zip(v, mu)]
    assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=10)
@given(n=st.sampled_from([1, 4, 9, 64]), rows=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1),
       c_exp=st.floats(-12.0, 12.0), spread_exp=st.floats(-12.0, 12.0))
def test_luxemburg_small_batch_bitwise_equals_bisection(A, n, rows, seed,
                                                         c_exp, spread_exp):
    # a call of at most 8 rows runs row by row in Python floats; it gives
    # the bisection's bits and those of the vectorized path
    rng = np.random.default_rng(seed)
    vals, mu = _lux_rows(n, rng, 10.0 ** c_exp, 10.0 ** spread_exp)
    pick = rng.choice(len(vals), rows, replace=False)
    vals, mu = vals[pick], mu[pick]
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        real = young._luxemburg_rows
        mp.setattr(young, "_luxemburg_rows",
                   lambda r, B: calls.append(len(r)) or real(r, B))
        got = young.luxemburg_norm_batch(vals, mu, A)
        active = int((np.abs(vals).max(axis=1) > 0).sum())
        assert calls == ([active] if active else [])
    assert got.tobytes() == _bisection_reference(vals, mu, A).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LUX_ROWS", 0)
        vectorized = young.luxemburg_norm_batch(vals, mu, A)
    assert got.tobytes() == vectorized.tobytes()


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
@pytest.mark.parametrize("A", [young.llogl(1), young.power(2)],
                         ids=format_young)
def test_luxemburg_replay_midpoint_of_large_rows(A, lux_rows, monkeypatch):
    # unscaled, lo hi = 1.6e311 at replay step 1 overflows, and sqrt(lo hi)
    # made the bracket and the norm inf; in unit scale it stays normal
    monkeypatch.setattr(young, "_LUX_ROWS", lux_rows)
    got = young.luxemburg_norm_batch(np.array([[1e160]]), np.ones((1, 1)), A)
    assert got[0] == pytest.approx(1e160 / A.inverse_one, rel=1e-11)


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
def test_luxemburg_tiny_row_leaves_other_rows_bits(lux_rows, monkeypatch):
    # lo hi underflowed on the row [1e-200, 1e-200], which then never
    # passed the stopping test, and the shared loop bisected [3, 1] past
    # its own convergence, to 0x1.4c772939d4a13p+1.  On [1e-310, 1e-313]
    # lo = hi 1e-18 was 0, so that bracket never closed and the norm was
    # its initial hi; in unit scale it closes like any other
    monkeypatch.setattr(young, "_LUX_ROWS", lux_rows)
    A = young.llogl(1)
    alone = young.luxemburg_norm_batch(np.array([[3.0, 1.0]]),
                                       np.ones((1, 2)), A)
    rows = np.array([[3.0, 1.0], [1e-200, 1e-200], [1e-310, 1e-313]])
    got = young.luxemburg_norm_batch(rows, np.ones((3, 2)), A)
    assert alone[0].hex() == got[0].hex() == "0x1.4c772939d504cp+1"
    assert got[1] == pytest.approx(1e-200 / A.inverse_one, rel=1e-11)
    big = young.luxemburg_norm_batch(rows[2:] * 1e100, np.ones((1, 2)), A)
    assert got[2] == pytest.approx(big[0] * 1e-100, rel=1e-9)
    big = young.luxemburg_norm_batch(np.ldexp(rows[2:], 1000),
                                     np.ones((1, 2)), A)
    assert got[2] == np.ldexp(big[0], -1000)


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=10)
@given(n=st.sampled_from([1, 4, 9, 64]), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-1074, 999), bits=st.integers(1, 53))
def test_luxemburg_exact_under_powers_of_two(A, lux_rows, n, seed, k, bits):
    # cells are integers below 2^bits < 2^(1000 - k), so 2^k v is exact from
    # the smallest subnormal up, and its norm stays finite; the norm of
    # 2^k v is 2^k times that of v, bit for bit, subnormal norms included
    bits = min(bits, 1000 - k)
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 2**bits, (3, n)).astype(float)
    mu = rng.uniform(0.5, 2.0, (3, n))
    mu[rng.random((3, n)) < 0.3] = 0.0
    mu[:, rng.integers(n)] = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LUX_ROWS", lux_rows)
        got = young.luxemburg_norm_batch(np.ldexp(vals, k), mu, A)
        want = np.ldexp(young.luxemburg_norm_batch(vals, mu, A), k)
    assert got.tobytes() == want.tobytes()


def test_luxemburg_ragged_batch_rejects_nonpositive_group_measure():
    vals = [np.ones((2, 4)), np.ones((3, 7))]
    mu = [np.ones((2, 4)), np.ones((3, 7))]
    young.luxemburg_norm_batch(vals, mu, young.llogl(1))
    mu[1][2] = 0.0  # the last row of the second group
    with pytest.raises(young.YoungError):
        young.luxemburg_norm_batch(vals, mu, young.llogl(1))


def _count_evaluated_rows(monkeypatch):
    """Count the rows of every modular evaluation: those of a 2D array, or
    one for a single row."""
    count = [0]
    real = young.YoungFunction._eval_raw

    def counting(self, t):
        count[0] += len(t) if np.ndim(t) == 2 else 1
        return real(self, t)

    monkeypatch.setattr(young.YoungFunction, "_eval_raw", counting)
    return count


BUDGET_GAUGES = [young.llogl(1), young.lll(1, 1.5), young.expl(1),
                 young.power(2), counter_young(2.0, 1.0)]


@pytest.mark.parametrize(
    "A,rows",
    [pytest.param(A, 64, id=format_young(A)) for A in BUDGET_GAUGES]
    + [pytest.param(A, rows, id=f"{format_young(A)}-{rows}row")
       for rows in (1, 3) for A in BUDGET_GAUGES])
def test_luxemburg_batch_evaluation_budget(A, rows, monkeypatch):
    # the bisection evaluates every row 47 times; estimate, certify and
    # replay must average at most 12, row by row in a small batch too
    rng = np.random.default_rng(7)
    vals = rng.lognormal(0.0, 1.0, (rows, 64))
    mu = rng.uniform(0.5, 2.0, (rows, 64))
    A.inverse_one  # its bisection evaluates A outside the norm
    count = _count_evaluated_rows(monkeypatch)
    ref = _bisection_reference(vals, mu, A)
    assert count[0] == 47 * rows
    count[0] = 0
    assert young.luxemburg_norm_batch(vals, mu, A).tobytes() == ref.tobytes()
    assert count[0] <= 12 * rows


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_luxemburg_batch_rejects_non_finite_input(bad):
    vals = np.ones((2, 4))
    mu = np.ones((2, 4))
    vals[1, 2] = bad
    with pytest.raises(young.YoungError):
        young.luxemburg_norm_batch(vals, mu, young.llogl(1))
    vals[1, 2] = 1.0
    mu[1, 2] = bad
    with pytest.raises(young.YoungError):
        young.luxemburg_norm_batch(vals, mu, young.llogl(1))


def test_luxemburg_measure_zero_cell_left_out_of_modular():
    # power(20) overflows at lo on the measure-0 cell, where 0 inf = NaN
    # would read as "down" and end the bisection near lo (1e-18)
    A = young.power(20)
    got = young.luxemburg_norm_batch(np.array([[1.0, 1e-17, 2e-17, 1.5e-17]]),
                                     np.array([[0.0, 1.0, 1.0, 1.0]]), A)
    # (sum v^20 mu / sum mu)^(1/20) over the cells of positive measure,
    # 1.8934e-17
    want = ((1.0 + 2.0 ** 20 + 1.5 ** 20) / 3.0) ** (1 / 20) * 1e-17
    assert abs(got[0] - want) <= 1e-11 * want


def test_luxemburg_batch_rejects_negative_measure():
    # a positive total does not make a negative cell measure legal
    mu = np.array([[1.0, -0.5, 1.0]])
    with pytest.raises(young.YoungError):
        young.luxemburg_norm_batch(np.ones((1, 3)), mu, young.power(2))
    # cells of measure 0 are legal
    got = young.luxemburg_norm_batch(np.array([[1.0, 5.0]]),
                                     np.array([[1.0, 0.0]]), young.power(2))
    assert got[0] == pytest.approx(1.0, rel=1e-11)



# -- floors: rows that cannot attain a maximum --------------------------------


def _closed_norms(vals, mu, A, floor):
    """The norms of luxemburg_norm_batch's two stages with the closure stage
    between them: -inf on the rows it closes."""
    norms, rows = young.luxemburg_jensen(vals, mu, A)
    young.luxemburg_replay([(norms, young.luxemburg_close(norms, rows,
                                                          floor))], A)
    return norms


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=5)
@given(n=st.sampled_from([1, 4, 9, 64]), seed=st.integers(0, 2**32 - 1),
       c_exp=st.floats(-12.0, 12.0), spread_exp=st.floats(-12.0, 12.0))
def test_luxemburg_floor_of_minus_inf_moves_no_bit(A, lux_rows, n, seed,
                                                   c_exp, spread_exp):
    # no floor, or -inf on every row, closes nothing: the call is the
    # bisection's, row by row and vectorized, with the closure stage
    # between Jensen's and the replay
    rng = np.random.default_rng(seed)
    vals, mu = _lux_rows(n, rng, 10.0 ** c_exp, 10.0 ** spread_exp)
    pick = rng.choice(len(vals), min(len(vals), 8 if lux_rows else 64),
                      replace=False)
    vals, mu = vals[pick], mu[pick]
    want = _bisection_reference(vals, mu, A).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LUX_ROWS", lux_rows)
        assert young.luxemburg_norm_batch(vals, mu, A).tobytes() == want
        assert _closed_norms(vals, mu, A,
                             np.full(len(vals), -np.inf)).tobytes() == want


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
@pytest.mark.parametrize("A", LUX_GAUGES, ids=format_young)
@settings(max_examples=5)
@given(n=st.sampled_from([1, 4, 9, 64]), seed=st.integers(0, 2**32 - 1),
       c_exp=st.floats(-12.0, 12.0), spread_exp=st.floats(-12.0, 12.0))
def test_luxemburg_floor_closes_only_rows_below_it(A, lux_rows, n, seed,
                                                   c_exp, spread_exp):
    # floors around each row's norm: a closed row (-inf) has its norm below
    # the floor, every open row keeps the bisection's bits
    rng = np.random.default_rng(seed)
    vals, mu = _lux_rows(n, rng, 10.0 ** c_exp, 10.0 ** spread_exp)
    pick = rng.choice(len(vals), min(len(vals), 8 if lux_rows else 64),
                      replace=False)
    vals, mu = vals[pick], mu[pick]
    # a row of one value: Jensen's point is its norm (a tenth of it where
    # A^-1(1) is off by 10), so a floor 1e3 times the norm closes it
    vals[0], mu[0] = 3.0, 1.0
    want = _bisection_reference(vals, mu, A)
    factors = [0.5, 1.0, 1.0 + 1e-12, 1.001, 2.0, 1e3, np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        floor = want * np.r_[1e3, rng.choice(factors, len(vals) - 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(young, "_LUX_ROWS", lux_rows)
        got = _closed_norms(vals, mu, A, floor)
    shut = np.isneginf(got)
    assert np.all(want[shut] < floor[shut])
    assert got[~shut].tobytes() == want[~shut].tobytes()
    assert shut[0]


@pytest.mark.parametrize("lux_rows", [8, 0], ids=["rows", "vectorized"])
def test_luxemburg_floor_rows_validated_first(lux_rows, monkeypatch):
    # a floor of inf would close every row, but a cube of measure 0 or a
    # non-finite cell raises in the Jensen stage, before any row is closed
    monkeypatch.setattr(young, "_LUX_ROWS", lux_rows)
    A, top = young.llogl(1), np.full(3, np.inf)
    vals, mu = np.ones((3, 4)), np.ones((3, 4))
    assert np.isneginf(_closed_norms(vals, mu, A, top)).all()
    mu[2] = 0.0
    with pytest.raises(young.YoungError, match="measure"):
        _closed_norms(vals, mu, A, top)
    mu[2], vals[1, 3] = 1.0, np.inf
    with pytest.raises(young.YoungError, match="non-finite"):
        _closed_norms(vals, mu, A, top)
    with pytest.raises(young.YoungError, match="floor"):
        _closed_norms(np.ones((3, 4)), mu, A, top[:2])

# -- growth constants and integrals ------------------------------------------


def _bp(A, p):
    """The B_p integral of A over [1, T_MAX], A(t) / t^(p+1), on the
    log-quadrature: (value, converged)."""
    return young._log_quadrature(lambda t: A._eval(t) / t ** (p + 1.0),
                                 young.T_MAX)


def test_bp_power_closed_form():
    for r, p in ((1.0, 2.5), (2.0, 3.0)):
        val, conv = _bp(young.power(r), p)
        assert conv
        assert val == pytest.approx(1.0 / (p - r), rel=1e-5)


def test_bp_power_truncated_closed_form():
    # int_1^T t^(r-p-1) dt = (1 - T^(r-p)) / (p - r), T = 1e12
    for r, p in ((1.0, 2.5), (2.0, 3.0), (1.5, 4.0)):
        val, conv = _bp(young.power(r), p)
        assert conv
        assert val == pytest.approx((1.0 - 1e12 ** (r - p)) / (p - r),
                                    rel=1e-12)


def _quad_chunks(f, t_max=1e12):
    """Reference: scipy quad of a scalar integrand on the same u = log t
    chunks as the Gauss-Legendre rule."""
    u_max = math.log(t_max)
    edges = np.linspace(0.0, u_max, int(u_max * 4) + 2)
    return sum(quad(lambda u: f(math.exp(u)) * math.exp(u), a, b,
                    limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))


def test_log_quadrature_matches_quad_reference():
    # A = phi = t: the kappa integrand is 1 / (t log(e+t))
    kap, conv = young.kappa_phi(young.power(1), young.power(1))
    assert not conv
    assert kap == pytest.approx(
        _quad_chunks(lambda t: 1.0 / (t * math.log(E + t))), rel=1e-12)
    val, conv = _bp(young.llogl(1), 2.0)
    assert conv
    assert val == pytest.approx(
        _quad_chunks(lambda t: math.log(E + t) / t**2), rel=1e-12)


def test_log_quadrature_gauss_exact_to_degree_47():
    # t_max = e^0.2 is one chunk in u; its rule integrates every polynomial
    # of degree <= 2 * 24 - 1 in u exactly.  sum_k P_k(2u/h - 1), k <= 47,
    # integrates to h over [0, h].
    h = 0.2
    coef = np.ones(48)
    val, _ = young._log_quadrature(
        lambda t: np.polynomial.legendre.legval(2.0 * np.log(t) / h - 1.0,
                                                coef) / t, math.exp(h))
    assert val == pytest.approx(h, rel=1e-13)


def test_bp_critical_exponent_diverges():
    _, conv = _bp(young.power(2), 2.0)
    assert not conv


def test_bp_llogl_converges():
    val, conv = _bp(young.llogl(1), 2.0)
    assert conv and val > 0


def test_kr_constant_power_is_one():
    val, finite = young.krA_constant(young.power(2), 2.0)
    assert finite
    assert val == pytest.approx(1.0, rel=1e-6)


def test_kr_constant_super_growth_infinite():
    _, finite = young.krA_constant(young.power(4), 2.0)
    assert not finite


def test_kr_constant_llogl_at_one_infinite():
    _, finite = young.krA_constant(young.llogl(1), 1.0)
    assert not finite


def test_kappa_divergence_for_linear_pair():
    # phi = A = t makes the integrand comparable to 1/(t log t)
    _, conv = young.kappa_phi(young.power(1), young.power(1))
    assert not conv


def test_kappa_loglog_bump_converges_with_eps_scaling():
    vals = {}
    for eps in (0.5, 0.25, 0.125):
        kap, conv = young.kappa_phi(young.power(1), young.lll(0, 1.0 + eps))
        assert conv
        vals[eps] = eps * kap
    assert max(vals.values()) <= 3.0


def test_kappa_heavy_gauge_converges():
    for m in (1, 2):
        kap, conv = young.kappa_phi(young.phi_j(m),
                                    young.lll(m, 1.5), m, m)
        assert conv and kap > 0


def test_kappa_iterated_split_converges():
    kap, conv = young.kappa_phi(young.phi_j(0), young.lll(0, 1.5), 2, 0)
    assert conv and kap > 0


# -- serialization grammar ----------------------------------------------------


def test_parse_format_round_trip():
    for expr in ("power(2)", "power(3,0.7)", "llogl(1.5)", "expl(2)",
                 "lll(1,1.5)", "prod(power(1.5),llogl(1))",
                 "compose(llogl(1),power(2))"):
        A = young.parse_young(expr)
        assert format_young(A) == expr
    # phi(j) is a name for llogl(j), the same formula
    assert young.parse_young("phi(3)") == young.llogl(3)
    # the family with no literal of its own
    table = young.tabulated([1.0, 2.0, 3.0], [1.0, 3.0, 6.0])
    assert format_young(table) == "table[4 knots]"


@pytest.mark.parametrize("expr", ["llogl(1,2)", "lll(1)", "power(2,1,5)",
                                  "llogl(x=1)", "prod(power(2),1)",
                                  "power(2)+1", "llogl(inf)", "phi(path)"])
def test_parse_rejects_wrong_arity_and_kind(expr):
    with pytest.raises(young.YoungError):
        young.parse_young(expr)


def test_parse_rejects_unknown_token():
    with pytest.raises(young.YoungError, match="sinh"):
        young.parse_young("sinh(2)")


def test_parse_rejects_trailing_input():
    with pytest.raises(young.YoungError):
        young.parse_young("power(2)garbage")


def test_from_inverse_round_trip():
    A = young.from_inverse(lambda u: np.sqrt(u))
    for t in (0.5, 2.0, 30.0):
        assert A(t) == pytest.approx(t * t, rel=1e-3)
