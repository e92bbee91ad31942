"""Relations that hold exactly in the mathematics of sparse domination,
checked bit for bit on the released sweep's configurations at L = 8, on
the Orlicz maximal operator, on the released battery scenarios and on the
benchmark's two 2D scenarios.

Sparse domination of T_b^m is of degree 1 in f on both sides, of degree
m in b, and blind to b -> b + c.  For a convolution kernel both sides
commute with translation, for an odd kernel with reflection x -> -x, and
for a kernel homogeneous of degree -1 (hilbert) with dilation.  The
Orlicz maximal operator is of degree 1 in f, and so are both sides of the
battery's inequalities in f; those with a weight are homogeneous in it
too.  In the plane, a rotation or a transpose of the data with the
matching map of the angular part Ω moves no verdict, and neither do
Ω -> -Ω and a dilation of the root (homog is of degree -2).
Scaling by a power of two is exact in floating point, so a verdict that
moves under f -> 2^k f or b -> 2b is not a verdict on the inequality.
Where a relation rounds (f -> 1e-20 f, b -> b + 0.5) the family is still
checked exactly and C* to a tolerance measured on these cases."""

import functools
import importlib.util
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
@pytest.mark.parametrize("grid", [Grid(1, (-0.5,), 1.0, 6),
                                  Grid(2, (-0.5, -0.5), 1.0, 4)],
                         ids=["1d-L6-base", "2d-L4-base"])
def test_orlicz_maximal_degree_one_in_f(grid, k, monkeypatch):
    # M_A f scales with f, bit for bit; its floors are scale-free, so the
    # closure stage closes the same cubes at every scale, level by level
    rng = np.random.default_rng(11)
    f = np.where(rng.random(grid.shape) < 0.3, 0.0,
                 rng.standard_normal(grid.shape))
    real, closed = young.luxemburg_close, []

    def spy(norms, rows, floor):
        out = real(norms, rows, floor)
        closed.append(np.isneginf(norms).tobytes())
        return out

    monkeypatch.setattr(young, "luxemburg_close", spy)

    def maximal(f):
        # the cells, and the closed cubes
        closed.clear()
        return op.maximal(GridFunction(grid, f), A).cells.tobytes(), closed[:]

    for A in (young.llogl(1), young.lll(1, 1.5)):
        cells, shut = maximal(f)
        assert any(map(any, shut))
        assert maximal(np.ldexp(f, k)) == (
            np.ldexp(np.frombuffer(cells), k).tobytes(), shut)


KINDS = ("cf", "strong", "expdecay", "sparse", "endpoint", "endpoint_czo")
RELEASED = sorted(name for name in os.listdir(BATTERY_DIR)
                  if name.endswith(".ini") and parse_scenario(
                      os.path.join(BATTERY_DIR, name)).kind in KINDS)


@functools.cache
def _released(name):
    return run_scenario(parse_scenario(os.path.join(BATTERY_DIR, name)))[0]


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
    got, want = run_scenario(scn)[0], _released(name)
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
    got, want = run_scenario(scn)[0], _released(name)
    assert got["pass"] == want["pass"]
    assert _bits(got["constants"]) == _bits(want["constants"])
    assert [r["ratio"].hex() for r in got["rows"]] == \
        [r["ratio"].hex() for r in want["rows"]]


# -- the 2D path: the benchmark's plane scenarios ------------------------------

PLANE = ("cf_homog_m1", "endpoint_czo_homog_m1")
PERFBENCH_INPUTS = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                "inputs.py")


@pytest.fixture(scope="module")
def plane(tmp_path_factory):
    """The directory holding both plane scenarios and their angular table,
    written as the benchmark writes them with the seed-1 table: seed 0 is
    cos(2 theta), which a quarter turn only negates."""
    spec = importlib.util.spec_from_file_location("plane_inputs",
                                                  PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path_factory.mktemp("plane")
    inputs.write_plane(str(path), 1)
    return path


def _plane_run(plane, name, tag, move=None, omega=None, **root):
    """The scenario with its f, b and w read from tables as move(cells), Ω
    as omega(samples), and the root's origin and side as given."""
    scn = parse_scenario(str(plane / f"{name}.ini"))
    (level,) = scn.levels
    grid = scn.grid(level)
    for key in "fbw":
        cells = parse_profile(getattr(scn, key), grid).cells
        table = plane / f"{name}-{tag}-{key}.csv"
        table.write_text(",".join(map(repr, (move or {}).get(key, np.asarray)(
            cells).ravel().tolist())))
        setattr(scn, key, f"table({table})")
    samples = np.loadtxt(plane / "omega.csv", delimiter=",")
    table = plane / f"{name}-{tag}-omega.csv"
    table.write_text("\n".join(map(repr, (omega or np.asarray)(
        samples).tolist())))
    scn.kernel = f"homog(omega_table={table})"
    for key, value in root.items():
        setattr(scn, key, value)
    return run_scenario(scn)[0]


@functools.cache
def _plane_written(plane, name):
    return _plane_run(plane, name, "as-written")


def _ratios(rep):
    return np.array([r["ratio"] for r in rep["rows"]])


def _row_moves(got, want):
    """The largest relative move of a row ratio (zero rows must stay zero)."""
    a, b = _ratios(got), _ratios(want)
    assert np.array_equal(a == 0, b == 0)
    nz = b != 0
    return float((np.abs(a - b)[nz] / b[nz]).max())


def _rotate(k):
    """f, b and w turned by np.rot90 k times."""
    return dict.fromkeys("fbw", lambda c: np.rot90(c, k))


TRANSPOSE = dict.fromkeys("fbw", np.transpose)

# relation: (moved data, Ω map, root, tolerance per scenario on the row
# ratios, 0 for bitwise).  Measured on these scenarios, under numpy's
# default and baseline SIMD dispatch: f -> 2^±60 f moves endpoint_czo's
# rows by 8.1e-15 at most (its lambda grid is not exact in the scale of
# T_b^m f); a quarter turn (Ω(θ) -> Ω(θ - π/2) on 64 samples) by 1.4e-15;
# the transpose (Ω(θ) -> Ω(π/2 - θ)) by 1.6e-15; every other relation
# moves no bit.  The constants hold weight quantities only and never move
PLANE_RELATIONS = {
    "f*2^60": ({"f": lambda c: np.ldexp(c, 60)}, None, {}, (0, 1.6e-14)),
    "f*2^-60": ({"f": lambda c: np.ldexp(c, -60)}, None, {}, (0, 1.6e-14)),
    "w*2^60": ({"w": lambda c: np.ldexp(c, 60)}, None, {}, (0, 0)),
    "w*2^-60": ({"w": lambda c: np.ldexp(c, -60)}, None, {}, (0, 0)),
    "omega-negated": (None, np.negative, {}, (0, 0)),
    "quarter-turn": (_rotate(1), lambda om: np.roll(om, 16), {}, (0, 3e-15)),
    "transpose": (TRANSPOSE, lambda om: np.roll(om[::-1], 17), {},
                  (0, 3.3e-15)),
    # homog is of degree -2 in the plane: on a root twice as large with the
    # cells kept, K falls by 4 where the cell area grows by 4
    "root-dilated-2": (None, None, {"origin": (-1.0, -1.0), "side": 2.0},
                       (0, 0)),
}


@pytest.mark.parametrize("relation", PLANE_RELATIONS)
@pytest.mark.parametrize("name", PLANE)
def test_plane_relations(plane, name, relation):
    move, omega, root, tols = PLANE_RELATIONS[relation]
    tol = tols[PLANE.index(name)]
    got = _plane_run(plane, name, relation, move, omega, **root)
    want = _plane_written(plane, name)
    assert got["pass"] == want["pass"]
    assert _bits(got["constants"]) == _bits(want["constants"])
    if tol:
        assert _row_moves(got, want) <= tol
    else:
        assert [r.hex() for r in _ratios(got)] == \
            [r.hex() for r in _ratios(want)]


def test_plane_quarter_turn_control(plane):
    # Ω turned the wrong way under the same quarter turn of the data: the
    # endpoint rows move by far more than the relation's 3e-15 (177%
    # measured), so the relation can fail
    name = "endpoint_czo_homog_m1"
    got = _plane_run(plane, name, "wrong-roll", _rotate(1),
                     lambda om: np.roll(om, -16))
    assert _row_moves(got, _plane_written(plane, name)) > 0.5
