"""Relations that hold exactly in the mathematics of sparse domination,
checked bit for bit on the released sweep's configurations at L = 8.

Sparse domination of T_b^m is of degree 1 in f on both sides, and of
degree m in b.  For a convolution kernel both sides commute with
translation, and for an odd kernel with reflection x -> -x.  Scaling by a
power of two is exact in floating point, so a verdict that moves under
f -> 2^k f or b -> 2b is not a verdict on the inequality."""

import functools
import json
import os

import numpy as np
import pytest

from sparsedom import cli, young
from sparsedom.bench import DOMINATION_BATTERY
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
