"""Relations that hold exactly in the mathematics of sparse domination,
checked bit for bit on the released sweep's configurations at L = 8, on
the Orlicz maximal operators and on the released battery scenarios.

Sparse domination of T_b^m is of degree 1 in f on both sides, of degree
m in b, and blind to b -> b + c.  For a convolution kernel both sides
commute with translation, for an odd kernel with reflection x -> -x, and
for a kernel homogeneous of degree -1 (hilbert) with dilation.  The
Orlicz maximal operators are of degree 1 in f and the weighted one of
degree 0 in its weight, and so are both sides of the battery's
inequalities in f; those with a weight are homogeneous in it too.
Scaling by a power of two is exact in floating point, so a verdict that
moves under f -> 2^k f or b -> 2b is not a verdict on the inequality.
Where a relation rounds (f -> 1e-20 f, b -> b + 0.5) the family is still
checked exactly and C* to a tolerance measured on these cases."""

import functools
import json
import os

import numpy as np
import pytest

from sparsedom import cli, young
from sparsedom import operators as op
from sparsedom.bench import DOMINATION_BATTERY, parse_scenario, run_scenario
from sparsedom.dyadic import Grid, GridFunction
from sparsedom.operators import counter_young, parse_kernel
from sparsedom.sparse_engine import domination_report
from sparsedom.weights import parse_profile

L = 8
BATTERY_DIR = os.path.join(os.path.dirname(__file__), "..", "battery")

CASES = [pytest.param(ic, m, flit,
                      id=f"{cfg['kernel'].split('(')[0]}-m{m}-{flit}")
         for ic, cfg in enumerate(DOMINATION_BATTERY)
         for m in (0, 1, 2) for flit in cfg["f"][:3]]


@functools.cache
def _config(ic):
    """(K, A, grid) of configuration ic, as the sweep builds them."""
    cfg = DOMINATION_BATTERY[ic]
    A = (counter_young(2.0, 1.0) if cfg["gauge"] == "counter"
         else young.parse_young(cfg["gauge"]))
    return (parse_kernel(cfg["kernel"]), A,
            Grid(1, cfg["origin"], cfg["side"], L))


@functools.cache
def _cells(ic, flit):
    """The cells of f and b of configuration ic with profile flit."""
    grid = _config(ic)[2]
    return (parse_profile(flit, grid).cells,
            parse_profile(DOMINATION_BATTERY[ic]["b"], grid).cells)


def _report(ic, m, f, b, grid=None):
    K, A, grid0 = _config(ic)
    grid = grid or grid0
    return domination_report(K, GridFunction(grid, b), m, A,
                             GridFunction(grid, f), grid.root_cube())


@functools.cache
def _base(ic, m, flit):
    return _report(ic, m, *_cells(ic, flit))


def _verdict(rep):
    """The family, its stopping alphas, C* and the violations."""
    return (rep.form.family.cubes, rep.form.alphas, rep.c_star.hex(),
            rep.violations)


@pytest.mark.parametrize("k", [1, -60, -200])
@pytest.mark.parametrize("ic,m,flit", CASES)
def test_degree_one_in_f(ic, m, flit, k):
    f, b = _cells(ic, flit)
    got = _report(ic, m, np.ldexp(f, k), b)
    assert _verdict(got) == _verdict(_base(ic, m, flit))


@pytest.mark.parametrize("ic,m,flit", CASES)
def test_degree_m_in_b(ic, m, flit):
    # both sides scale by 2^m, so their ratio C* stays
    f, b = _cells(ic, flit)
    got = _report(ic, m, f, 2.0 * b)
    assert got.c_star.hex() == _base(ic, m, flit).c_star.hex()


@pytest.mark.parametrize("ic,m,flit", CASES)
def test_grid_origin_moves_nothing(ic, m, flit):
    # the same cells on a root moved by its own side: cell centers and their
    # differences stay exact, so every number stays, ct included
    _, _, grid = _config(ic)
    moved = Grid(1, (grid.origin[0] + grid.side,), grid.side, L)
    got, want = _report(ic, m, *_cells(ic, flit), grid=moved), \
        _base(ic, m, flit)
    assert _verdict(got) == _verdict(want)
    assert got.form.ct_components == want.form.ct_components
    for x, y in ((got.ratios, want.ratios), (got.t_values, want.t_values),
                 (got.totals, want.totals)):
        assert x.cells.tobytes() == y.cells.tobytes()


@pytest.mark.parametrize("ic,m,flit", CASES)
def test_b_plus_constant_keeps_the_family(ic, m, flit):
    # T_b^m sees b only through b - b_Q, which b -> b + 0.5 moves by
    # rounding: the same family and alphas, and C* to 5e-16 relative
    # (measured at most 2.4e-16 over these 27 cases, 24 of them bitwise)
    f, b = _cells(ic, flit)
    got, want = _report(ic, m, f, b + 0.5), _base(ic, m, flit)
    assert got.form.family.cubes == want.form.family.cubes
    assert got.form.alphas == want.form.alphas
    assert got.c_star == pytest.approx(want.c_star, rel=5e-16, abs=0.0)


@pytest.mark.parametrize("ic,m,flit", CASES)
def test_degree_one_in_f_off_powers_of_two(ic, m, flit):
    # f -> 1e-20 f rounds every cell, so only the shape is exact: the same
    # family and alphas, and C* to 2.2e-15 relative (measured at most
    # 1.1e-15 over these 27 cases, 4 of them bitwise)
    f, b = _cells(ic, flit)
    got, want = _report(ic, m, 1e-20 * f, b), _base(ic, m, flit)
    assert got.form.family.cubes == want.form.family.cubes
    assert got.form.alphas == want.form.alphas
    assert got.c_star == pytest.approx(want.c_star, rel=2.2e-15, abs=0.0)


@pytest.mark.parametrize(
    "ic,m,flit", [c for c in CASES
                  if DOMINATION_BATTERY[c.values[0]]["kernel"] == "hilbert"])
def test_hilbert_root_dilated_by_two(ic, m, flit):
    # the hilbert kernel is homogeneous of degree -1: on a root twice as
    # large (origin and side doubled) with the cells kept, K halves where
    # the cell volume doubles, so every number stays, ct included.  dini
    # and counter are not homogeneous (C* moves by 5-7% and by up to 97%
    # here), so this relation is not theirs
    _, _, grid = _config(ic)
    big = Grid(1, (2.0 * grid.origin[0],), 2.0 * grid.side, L)
    got, want = _report(ic, m, *_cells(ic, flit), grid=big), \
        _base(ic, m, flit)
    assert _verdict(got) == _verdict(want)
    assert got.form.ct_components == want.form.ct_components
    for x, y in ((got.ratios, want.ratios), (got.t_values, want.t_values),
                 (got.totals, want.totals)):
        assert x.cells.tobytes() == y.cells.tobytes()


@pytest.mark.parametrize("ic,m,flit",
                         [c for c in CASES if c.values[0] in (0, 1)])
def test_reflection_of_odd_kernels(ic, m, flit):
    # hilbert and dini are odd; counter is shifted by eta, and reflection
    # is not one of its symmetries
    f, b = _cells(ic, flit)
    got = _report(ic, m, f[::-1].copy(), b[::-1].copy())
    assert got.c_star.hex() == _base(ic, m, flit).c_star.hex()


def test_cli_sparse_verdict_in_units_of_f(tmp_path):
    # the released sparse_hilbert_m0 with its indicator times 2^-60, read
    # from a table: the same verdict and C* as at scale 1
    ini = os.path.join(BATTERY_DIR, "sparse_hilbert_m0.ini")
    grid = Grid(1, (-0.5,), 1.0, L)
    cells = parse_profile("indicator(0,0.25)", grid).cells
    table = tmp_path / "f.csv"
    table.write_text(",".join(map(repr, np.ldexp(cells, -60).tolist())))
    with open(ini) as fh:
        text = fh.read()
    small = tmp_path / "small.ini"
    small.write_text(text.replace("f = indicator(0,0.25)",
                                  f"f = table({table})"))
    consts = {}
    for name, path in (("one", ini), ("small", str(small))):
        assert cli.main(["run", path, "--out", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "report.json") as fh:
            consts[name] = json.load(fh)["constants"]
    assert consts["small"]["violations_L8"] == 0
    assert consts["small"]["c_star_L8"] == consts["one"]["c_star_L8"] > 0


@pytest.mark.parametrize("k", [60, -60])
@pytest.mark.parametrize("shifted", [False, True], ids=["base", "shifted"])
@pytest.mark.parametrize("grid", [Grid(1, (-0.5,), 1.0, 6),
                                  Grid(2, (-0.5, -0.5), 1.0, 4)],
                         ids=["1d-L6", "2d-L4"])
def test_orlicz_maximal_degree_one_in_f(grid, shifted, k, monkeypatch):
    # M_A f and M_A^w f scale with f and not with w, bit for bit; their
    # floors are scale-free, so the same cubes close at every scale
    rng = np.random.default_rng(11)
    f = np.where(rng.random(grid.shape) < 0.3, 0.0,
                 rng.standard_normal(grid.shape))
    w = rng.lognormal(0.0, 1.0, grid.shape)
    real, closed = young.luxemburg_norm_batch, []

    def spy(*args):
        out = real(*args)
        closed.append(int(np.isneginf(out).sum()))
        return out

    monkeypatch.setattr(young, "luxemburg_norm_batch", spy)

    def maximal(f, w=None):
        # MA without a weight, MAW with one; and the closed cubes
        closed.clear()
        wt = None if w is None else GridFunction(grid, w)
        cells = op.maximal(GridFunction(grid, f), "MA" if w is None else "MAW",
                           A=A, w=wt, shifted=shifted).cells
        return cells.tobytes(), closed[:]

    for A in (young.llogl(1), young.lll(1, 1.5)):
        for wt in (None, w):
            cells, shut = maximal(f, wt)
            assert sum(shut) > 0
            assert maximal(np.ldexp(f, k), wt) == (
                np.ldexp(np.frombuffer(cells), k).tobytes(), shut)
        assert maximal(f, np.ldexp(w, k)) == maximal(f, w)


KINDS = ("cf", "strong", "expdecay", "sparse", "endpoint", "endpoint_czo")
RELEASED = sorted(name for name in os.listdir(BATTERY_DIR)
                  if name.endswith(".ini") and parse_scenario(
                      os.path.join(BATTERY_DIR, name)).kind in KINDS)


@functools.cache
def _released(name):
    return run_scenario(parse_scenario(os.path.join(BATTERY_DIR, name)))


def _bits(x):
    """A report value with every float as its hex string."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


@pytest.mark.parametrize("k", [60, -60])
@pytest.mark.parametrize("name", RELEASED)
def test_battery_kinds_degree_one_in_f(name, k, tmp_path):
    # each released scenario of one level, f times 2^k read from a table:
    # the same verdict and constants, and the same row ratios except in the
    # endpoint kinds, whose lambda grid is not exact under scale -> 2^k
    # scale (np.geomspace(1e-3 scale, 1e3 scale, n))
    scn = parse_scenario(os.path.join(BATTERY_DIR, name))
    (level,) = scn.levels
    cells = parse_profile(scn.f, scn.grid(level)).cells
    table = tmp_path / "f.csv"
    table.write_text(",".join(map(repr, np.ldexp(cells, k).ravel().tolist())))
    scn.f = f"table({table})"
    got, want = run_scenario(scn), _released(name)
    assert got["pass"] == want["pass"]
    assert _bits(got["constants"]) == _bits(want["constants"])
    if not scn.kind.startswith("endpoint"):
        assert [r["ratio"].hex() for r in got["rows"]] == \
            [r["ratio"].hex() for r in want["rows"]]


WEIGHTED = [name for name in RELEASED if parse_scenario(
    os.path.join(BATTERY_DIR, name)).kind in ("cf", "strong", "endpoint",
                                               "endpoint_czo")]


@pytest.mark.parametrize("k", [60, -60])
@pytest.mark.parametrize("name", WEIGHTED)
def test_battery_kinds_homogeneous_in_w(name, k, tmp_path):
    # both sides of the strong and cf inequalities are of degree 1/p in w,
    # and both sides of the endpoint ones of degree 1, with the weight
    # constants of degree 0: each released scenario of these kinds, w
    # times 2^k read from a table, gives the same verdict, constants and
    # row ratios, bit for bit (the lambda grid depends on T_b^m f only)
    scn = parse_scenario(os.path.join(BATTERY_DIR, name))
    (level,) = scn.levels
    cells = parse_profile(scn.w, scn.grid(level)).cells
    table = tmp_path / "w.csv"
    table.write_text(",".join(map(repr, np.ldexp(cells, k).ravel().tolist())))
    scn.w = f"table({table})"
    got, want = run_scenario(scn), _released(name)
    assert got["pass"] == want["pass"]
    assert _bits(got["constants"]) == _bits(want["constants"])
    assert [r["ratio"].hex() for r in got["rows"]] == \
        [r["ratio"].hex() for r in want["rows"]]
