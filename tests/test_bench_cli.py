"""Scenario parsing, check runners, report files and the CLI front end."""

import configparser
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
from scipy.integrate import quad

from sparsedom import bench, cli
from sparsedom import sparse_engine as eng
from sparsedom.dyadic import Grid
from sparsedom.weights import parse_profile


BATTERY_DIR = os.path.join(os.path.dirname(__file__), "..", "battery")


def _write_ini(path, **kv):
    lines = ["[scenario]"] + [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_all_released_scenarios():
    names = sorted(p for p in os.listdir(BATTERY_DIR) if p.endswith(".ini"))
    assert len(names) == 14
    for name in names:
        scn = bench.parse_scenario(os.path.join(BATTERY_DIR, name))
        assert scn.name == name[:-4]
        assert scn.kind in bench.KINDS


def test_parse_scenario_errors(tmp_path):
    with pytest.raises(bench.ScenarioError):
        bench.parse_scenario(str(tmp_path / "absent.ini"))
    bad_kind = _write_ini(tmp_path / "a.ini", kind="spectral")
    with pytest.raises(bench.ScenarioError):
        bench.parse_scenario(bad_kind)
    no_section = tmp_path / "b.ini"
    no_section.write_text("[other]\nkind = strong\n")
    with pytest.raises(bench.ScenarioError):
        bench.parse_scenario(str(no_section))
    bad_young = _write_ini(tmp_path / "c.ini", kind="strong", p=2, r=1,
                           gauge_a="sinh(1)")
    scn = bench.parse_scenario(bad_young)
    with pytest.raises(bench.ScenarioError):
        bench.strong_cf_check(scn)


def test_unknown_and_unread_scenario_keys_rejected(tmp_path, capsys):
    misspelt = _write_ini(tmp_path / "m.ini", kind="cf", lamda_points=8)
    unread = _write_ini(tmp_path / "g.ini", kind="cf", gauge_c="expl(1)")
    for path, word in ((misspelt, "lamda_points"), (unread, "gauge_c")):
        with pytest.raises(bench.ScenarioError, match=word):
            bench.parse_scenario(path)
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert word in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# every INI key, in the order the parser reads them, with its Scenario
# field, a text and the value that text reads as
_INI_VALUES = [
    ("kind", "kind", "strong", "strong"),
    ("levels", "levels", "5, 7", (5, 7)),
    ("dim", "dim", "2", 2),
    ("origin", "origin", "-0.25", (-0.25,)),
    ("side", "side", "2.5", 2.5),
    ("kernel", "kernel", "dini", "dini"),
    ("gauge_a", "A", "llogl(1)", "llogl(1)"),
    ("gauge_b", "B", "power(2)", "power(2)"),
    ("phi", "phi", "power(3)", "power(3)"),
    ("f", "f", "const(1)", "const(1)"),
    ("b", "b", "log_abs", "log_abs"),
    ("w", "w", "const(2)", "const(2)"),
    ("m", "m", "3", 3),
    ("p", "p", "3.5", 3.5),
    ("r", "r", "0.5", 0.5),
    ("gamma", "gamma", "0.5", 0.5),
    ("beta", "beta", "2.5", 2.5),
    ("eps", "eps", "0.25", 0.25),
    ("lambda_points", "lambda_points", "7", 7),
]


def test_each_ini_key_fills_its_own_field(tmp_path):
    assert [key for key, *_ in _INI_VALUES] == list(bench._INI)
    names = [field for _, field, *_ in _INI_VALUES]
    assert len(set(names)) == len(names)
    assert set(names) <= {f.name for f in dataclasses.fields(bench.Scenario)}
    for key, field, text, value in _INI_VALUES:
        scn = bench.parse_scenario(_write_ini(tmp_path / "s.ini",
                                              **{"kind": "cf", key: text}))
        assert getattr(scn, field) == value, key
        assert type(getattr(scn, field)) is type(value), key
        # every other field as the dataclass gives it (dim = 2 with its
        # origin (0.0, 0.0))
        assert scn == bench.Scenario("s", **{"kind": "cf", field: value}), key


def test_scenario_defaults_live_in_the_dataclass(tmp_path):
    scn = bench.parse_scenario(_write_ini(tmp_path / "d.ini", kind="cf"))
    defaults = {f.name: f.default for f in dataclasses.fields(bench.Scenario)}
    assert dataclasses.asdict(scn) == {**defaults, "name": "d", "kind": "cf",
                                       "origin": (0.0,)}
    plane = bench.parse_scenario(_write_ini(tmp_path / "e.ini", kind="cf",
                                            dim=2))
    assert plane.origin == (0.0, 0.0)
    assert plane.grid(3).origin == (0.0, 0.0)


@pytest.mark.parametrize("name,key,value", [
    ("cf_hilbert_m0", "p", "0"),
    ("counterexample_weak", "r", "1"),
    ("endpoint_czo_m1", "eps", "0"),
    ("endpoint_czo_m1", "lambda_points", "0"),
    ("sparse_counter_m0", "r", "0"),  # the counter gauge reads r
    # malformed literals: a wrong arity, and a key the kernel does not have
    ("sparse_hilbert_m0", "gauge_a", "llogl(1,2)"),
    ("strong_dini_m1", "kernel", "dini(omega=power(0.5),ck=1,delta=0.3)"),
    # a cell matrix is no kernel family
    ("strong_hilbert_m0", "kernel", "matrix(path=m.csv)"),
    # a number past the float range, in a gauge and in a kernel
    ("sparse_hilbert_m0", "gauge_a", "power(1e999)"),
    ("sparse_counter_m0", "kernel", "counter(r=2,beta=1,eta=1e999)"),
    # values that would fail at run time: the strong bound's gauge
    # constant needs r >= 1, the loglog bump of m >= 1 a positive eps
    ("strong_hilbert_m0", "r", "0.5"),
    ("endpoint_dini_m1", "eps", "0"),
    ("endpoint_dini_m1", "eps", "-2"),
    # a constants table's k_r(A) needs r >= 1 too; it was taken at r = 1
    ("constants_unit", "r", "0.5"),
])
def test_malformed_scenario_values_exit_2(tmp_path, capsys, name, key,
                                          value):
    # one value of a released scenario moved out of its range
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, name + ".ini"))
    cp["scenario"][key] = value
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    # one error line, and it names the scenario file
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_weight_table_exits_2(tmp_path, capsys, bad):
    # cf_hilbert_m0 with its weight read from a table: it runs as released,
    # and one non-finite cell is a scenario error with no report
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, "cf_hilbert_m0.ini"))
    grid = Grid(1, (-0.5,), 1.0, int(cp["scenario"]["levels"]))
    cells = parse_profile(cp["scenario"]["w"], grid).cells.tolist()
    bad_row = cells[:3] + [float(bad)] + cells[4:]
    for name, row in (("finite", cells), ("bad", bad_row)):
        table = tmp_path / f"{name}.csv"
        table.write_text(",".join(map(repr, row)))
        cp["scenario"]["w"] = f"table({table})"
        with open(tmp_path / f"{name}.ini", "w") as fh:
            cp.write(fh)
    ok, out = tmp_path / "ok", tmp_path / "o"
    assert cli.main(["run", str(tmp_path / "finite.ini"),
                     "--out", str(ok)]) == 0
    assert cli.main(["run", str(tmp_path / "bad.ini"),
                     "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_sigma_overflow_exits_2(tmp_path, capsys):
    # strong_hilbert_m0 with a weight table holding one cell of 1e-320:
    # positive and finite, so it parses, but sigma = w^-1 overflows there;
    # a scenario error naming sigma and the cell, with no report
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini"))
    grid = Grid(1, (-0.5,), 1.0, int(cp["scenario"]["levels"]))
    cells = parse_profile(cp["scenario"]["w"], grid).cells.copy()
    cells[5] = 1e-320
    table = tmp_path / "w.csv"
    table.write_text(",".join(map(repr, cells.tolist())))
    cp["scenario"]["w"] = f"table({table})"
    ini, out = tmp_path / "tiny.ini", tmp_path / "o"
    with open(ini, "w") as fh:
        cp.write(fh)
    assert cli.main(["run", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sigma" in err and "inf at cell 5," in err
    assert "Warning" not in err
    assert not out.exists()


def test_ap_dual_overflow_exits_2(tmp_path, capsys):
    # constants_unit at p = 1.5 with a weight table holding one cell of
    # 1e-200: Ap's dual weight w^-2 overflows there, which is the same
    # scenario error as sigma's in strong, not an Infinity in the report
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, "constants_unit.ini"))
    cells = np.ones(1 << int(cp["scenario"]["levels"]))
    cells[5] = 1e-200
    table = tmp_path / "w.csv"
    table.write_text(",".join(map(repr, cells.tolist())))
    cp["scenario"]["w"] = f"table({table})"
    cp["scenario"]["p"] = "1.5"
    ini, out = tmp_path / "ap.ini", tmp_path / "o"
    with open(ini, "w") as fh:
        cp.write(fh)
    assert cli.main(["run", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sigma" in err and "inf at cell 5," in err
    assert "Warning" not in err
    assert not out.exists()


def test_counterexample_parameter_window(tmp_path):
    # p must sit below the dual exponent and gamma inside (p/r', 1)
    bad_p = _write_ini(tmp_path / "d.ini", kind="counterexample",
                       p=3, r=2, gamma=0.75, beta=1)
    with pytest.raises(bench.ScenarioError):
        bench.parse_scenario(bad_p)
    bad_gamma = _write_ini(tmp_path / "e.ini", kind="counterexample",
                           p=1, r=2, gamma=0.3, beta=1)
    with pytest.raises(bench.ScenarioError):
        bench.parse_scenario(bad_gamma)


def test_counterexample_control_is_lp_integral():
    # at p = 2 the control is sum |f|^2 w vol, the integral of |f|^p w for
    # the cell-averaged f and w; here the cell averages come from quadrature
    scn = bench.Scenario(name="p2", kind="counterexample", levels=(6, 7),
                         origin=(-6.0,), side=12.0, p=2.0, r=1.1, beta=0.05,
                         gamma=0.95)
    bench._validate(scn)
    consts = bench.counterexample_probe(scn)["constants"]
    rp = scn.r / (scn.r - 1.0)
    a = (1.0 - scn.p / (2.0 * rp)) / scn.p  # f(y) = |y + 4|^(-a), |y + 4| < 1

    def f_mass(lo, hi):
        # the integral of |y + 4|^(-a) over [lo, hi]; a cell holding the
        # singularity is split there and weighted by the singular factor
        if not lo < -4.0 < hi:
            return quad(lambda y: abs(y + 4.0) ** -a, lo, hi)[0]
        return (quad(lambda y: 1.0, lo, -4.0, weight="alg",
                     wvar=(0.0, -a))[0]
                + quad(lambda y: 1.0, -4.0, hi, weight="alg",
                       wvar=(-a, 0.0))[0])

    for L in scn.levels:
        grid = scn.grid(L)
        h = grid.cell_width
        want = 0.0
        for x in grid.cell_centers(0):
            lo, hi = max(x - h / 2, -5.0), min(x + h / 2, -3.0)
            if hi <= lo:
                continue
            fc = f_mass(lo, hi) / h
            wc = quad(lambda y: abs(y) ** -scn.gamma,
                      x - h / 2, x + h / 2)[0] / h
            want += fc ** scn.p * wc * h
        assert consts[f"control_L{L}"] == pytest.approx(want, rel=1e-9)


def test_strong_check_scales_linearly(tmp_path):
    base = _write_ini(tmp_path / "s.ini", kind="strong", levels=6,
                      kernel="hilbert", gauge_a="power(1)", p=2, r=1,
                      f="const(1)", w="power_abs(0.5)",
                      origin=-0.5, side=1)
    scn1 = bench.parse_scenario(base)
    scn2 = dataclasses.replace(scn1, f="const(2)")
    r1 = bench.strong_cf_check(scn1)["rows"]
    r2 = bench.strong_cf_check(scn2)["rows"]
    for a, b in zip(r1, r2):
        assert b["lhs"] == pytest.approx(2 * a["lhs"], rel=1e-12)
        assert b["rhs"] == pytest.approx(2 * a["rhs"], rel=1e-12)
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-12)


def test_write_report_writes_reports(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    scn = bench.parse_scenario(path)
    scn.levels = (6,)
    out = tmp_path / "out"
    rep, form = bench.run_scenario(scn)
    assert rep["pass"] is True and form is None
    assert not out.exists()
    out.mkdir()
    bench.write_report(str(out), rep)
    data = json.loads((out / "report.json").read_text())
    assert data["kind"] == "strong"
    assert data["rows"]
    lines = (out / "plot.csv").read_text().splitlines()
    assert lines[0] == "lambda,lhs,rhs,ratio"
    assert len(lines) == 1 + len(data["rows"])


def test_run_scenario_byte_deterministic(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    outs = []
    for sub in ("x", "y"):
        scn = bench.parse_scenario(path)
        scn.levels = (6,)
        out = tmp_path / sub
        out.mkdir()
        bench.write_report(str(out), bench.run_scenario(scn)[0])
        outs.append(out)
    for name in ("report.json", "plot.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_run_exit_codes(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    out = tmp_path / "run_out"
    assert cli.main(["run", path, "--level", "6", "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == 2


def test_cli_constants_dump(tmp_path, capsys):
    path = _write_ini(tmp_path / "c.ini", kind="constants", levels=6,
                      kernel="hilbert", gauge_a="llogl(1)",
                      f="indicator(0,0.25)", b="log_abs",
                      w="power_abs(0.5)", origin=-0.5, side=1)
    out = tmp_path / "c_out"
    assert cli.main(["constants", path, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[0] == "object,constant,value"
    assert (out / "constants.csv").read_text() == captured
    assert (out / "report.json").exists()


def test_cli_sparse_dumps_family(tmp_path):
    path = os.path.join(BATTERY_DIR, "sparse_hilbert_m0.ini")
    out = tmp_path / "sp_out"
    fam = tmp_path / "family.json"
    code = cli.main(["sparse", path, "--level", "7", "--out", str(out),
                     "--dump-family", str(fam)])
    assert code == 0
    payload = json.loads(fam.read_text())
    assert payload["eta"] == 0.5
    assert payload["cubes"]
    first = payload["cubes"][0]
    assert set(first) == {"cube", "coefficients", "b_average",
                          "witness_cells"}


@pytest.mark.parametrize("command", ["run", "sparse"])
def test_cli_parses_the_scenario_once(tmp_path, monkeypatch, command):
    calls = []
    real = cli.parse_scenario

    def spy(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "parse_scenario", spy)
    path = os.path.join(BATTERY_DIR, "sparse_hilbert_m0.ini")
    assert cli.main([command, path, "--level", "5",
                     "--out", str(tmp_path / "o")]) == 0
    assert calls == [path]


def test_cli_sparse_rejects_other_kinds(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    assert cli.main(["sparse", path]) == 2


def test_cli_battery_empty_directory(tmp_path, capsys):
    # a directory with no scenarios is no passing battery: exit 2, and no
    # battery.json
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a scenario\n")
    out = tmp_path / "bat_out"
    assert cli.main(["battery", str(empty), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_run_unallocatable_level_exits_2(tmp_path, capsys):
    # 1D L = 40 asks numpy for 8 TiB at once, which it refuses: a scenario
    # error naming the file, not a traceback that exits 1
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    out = tmp_path / "l40"
    assert cli.main(["run", path, "--level", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_cli_battery_missing_directory(tmp_path, capsys):
    out = tmp_path / "bat_out"
    assert cli.main(["battery", str(tmp_path / "missing"),
                     "--out", str(out)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert not out.exists()


def test_cli_battery_directory_name_with_glob_characters(tmp_path):
    bat = tmp_path / "bat[1]"
    bat.mkdir()
    shutil.copy(os.path.join(BATTERY_DIR, "constants_unit.ini"), bat)
    out = tmp_path / "bat_out"
    assert cli.main(["battery", str(bat), "--out", str(out)]) == 0
    summary = json.loads((out / "battery.json").read_text())
    assert list(summary["scenarios"]) == ["constants_unit"]


def _assert_battery_stops_on(tmp_path, name, key, value):
    """A battery of cf_hilbert_m0 and, last, the named released scenario
    with key set to value: a scenario error before any report is written,
    so no report directory and no battery.json.  Returns the bad file."""
    bat = tmp_path / "bat"
    bat.mkdir()
    shutil.copy(os.path.join(BATTERY_DIR, "cf_hilbert_m0.ini"), bat)
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, name + ".ini"))
    cp["scenario"][key] = value
    with open(bat / "zz_bad.ini", "w") as fh:
        cp.write(fh)
    out = tmp_path / "bat_out"
    assert cli.main(["battery", str(bat), "--out", str(out)]) == 2
    assert not out.exists()
    return bat / "zz_bad.ini"


@pytest.mark.parametrize("key, literal", [("gauge_a", "llogl(1,2)"),
                                          ("kernel", "hilbert(x=1)"),
                                          ("f", "indicator(0)")])
def test_cli_battery_parses_every_literal_first(tmp_path, key, literal):
    _assert_battery_stops_on(tmp_path, "sparse_hilbert_m0", key, literal)


@pytest.mark.parametrize("name, key, value", [
    ("strong_hilbert_m0", "r", "0.5"), ("endpoint_dini_m1", "eps", "0"),
    ("endpoint_dini_m1", "eps", "-2")])
def test_cli_battery_validates_every_scenario_first(tmp_path, capsys, name,
                                                    key, value):
    bad = _assert_battery_stops_on(tmp_path, name, key, value)
    # one error line, and it names the scenario file
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, key, value, error", [
    ("cf_hilbert_m0", "kernel", "homog(omega_table={omega})",
     "kernel dimension does not match grid"),
    ("counterexample_weak", "side", "8", "grid must cover |x| <= 6"),
    ("strong_hilbert_m0", "w", "const(0)", "dual weight sigma")])
def test_cli_battery_runs_every_scenario_before_writing(tmp_path, capsys,
                                                        name, key, value,
                                                        error):
    # valid and in range, but the last scenario fails when it runs: a 2D
    # kernel on a 1D grid, a grid that does not cover |x| <= 6 for the
    # shifted counter kernel, a weight whose dual is infinite
    omega = tmp_path / "omega.csv"
    omega.write_text(",".join(repr(float(v)) for v in
                              np.cos(2 * np.arange(16) * np.pi / 8)) + "\n")
    _assert_battery_stops_on(tmp_path, name, key, value.format(omega=omega))
    err = capsys.readouterr().err
    assert "zz_bad.ini: " in err and error in err


def test_cli_battery_blocked_output_directory_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # an ordinary file where endpoint_czo_m1's output directory goes: every
    # output directory is made before the first file is written, so the
    # error names the scenario and no scenario's report is written; the
    # directories made before it stay, empty
    monkeypatch.chdir(os.path.join(BATTERY_DIR, ".."))
    out = tmp_path / "D"
    out.mkdir()
    (out / "endpoint_czo_m1").write_text("")
    assert cli.main(["battery", "battery", "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith("error: battery/endpoint_czo_m1.ini: ")
    assert not list(out.glob("**/report.json"))
    assert not (out / "battery.json").exists()


def test_cli_constants_validates_the_kind_it_forces(tmp_path, capsys):
    # r = 0.5 is in range for cf, but `lab constants` runs the scenario as
    # a constants table, whose k_r(A) needs r >= 1
    cp = configparser.ConfigParser()
    cp.read(os.path.join(BATTERY_DIR, "cf_hilbert_m0.ini"))
    cp["scenario"]["r"] = "0.5"
    ini, out = tmp_path / "r.ini", tmp_path / "o"
    with open(ini, "w") as fh:
        cp.write(fh)
    assert cli.main(["constants", str(ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {ini}: constants needs r >= 1\n"
    assert not out.exists()


def test_cli_sparse_unwritable_family_leaves_no_report(tmp_path):
    path = os.path.join(BATTERY_DIR, "sparse_hilbert_m0.ini")
    out = tmp_path / "sp_out"
    assert cli.main(["sparse", path, "--level", "5", "--out", str(out),
                     "--dump-family",
                     str(tmp_path / "missing" / "family.json")]) == 2
    assert not (out / "report.json").exists()
    assert not (out / "plot.csv").exists()


def test_cli_level_override(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    out = tmp_path / "lvl_out"
    assert cli.main(["run", path, "--level", "5", "--out", str(out)]) == 0
    data = json.loads((out / "report.json").read_text())
    assert data["scenario"]["levels"] == [5]


@pytest.mark.parametrize("command,kind", [("sparse", "sparse"),
                                          ("run", "expdecay"),
                                          ("constants", "constants")])
def test_cli_seed_reaches_smoothness_estimate(tmp_path, monkeypatch, command,
                                              kind):
    seeds = []
    real = eng.hormander_estimate

    def spy(*args, seed=None, **kwargs):
        seeds.append(seed)
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(eng, "hormander_estimate", spy)
    monkeypatch.setattr(eng, "_ct_cache", {})
    path = _write_ini(tmp_path / "s.ini", kind=kind, levels=6,
                      kernel="hilbert", gauge_a="llogl(1)",
                      f="indicator(0,0.25)", b="const(0)", w="const(1)",
                      origin=-0.5, side=1)
    cli.main([command, path, "--seed", "7", "--out", str(tmp_path / "o")])
    assert seeds == [7]
