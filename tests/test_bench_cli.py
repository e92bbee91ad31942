"""Scenario parsing, check runners, report files and the CLI front end."""

import configparser
import dataclasses
import json
import os

import numpy as np
import pytest
from scipy.integrate import quad

from sparsedom import bench, cli
from sparsedom import sparse_engine as eng


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


@pytest.mark.parametrize("name,key,value", [
    ("cf_hilbert_m0", "p", "0"),
    ("counterexample_weak", "r", "1"),
    ("endpoint_czo_m1", "eps", "0"),
    ("endpoint_czo_m1", "lambda_points", "0"),
    ("sparse_counter_m0", "r", "0"),  # the counter gauge reads r
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
    assert "error:" in capsys.readouterr().err
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


def test_run_scenario_writes_reports(tmp_path):
    path = os.path.join(BATTERY_DIR, "strong_hilbert_m0.ini")
    scn = bench.parse_scenario(path)
    scn.levels = (6,)
    out = tmp_path / "out"
    rep = bench.run_scenario(scn, out_dir=str(out))
    assert rep["pass"] is True
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
        bench.run_scenario(scn, out_dir=str(out))
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


def test_cli_battery_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "bat_out"
    assert cli.main(["battery", str(empty), "--out", str(out)]) == 0
    summary = json.loads((out / "battery.json").read_text())
    assert summary["scenarios"] == {}
    assert summary["pass"] is True


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
