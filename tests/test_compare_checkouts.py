"""scripts/compare_checkouts.py lists exactly what moves between two
checkouts: on records and reports made up in memory, and end to end on
copies of src/ and battery/ with one constant changed."""

import copy
import importlib.util
import json
import pathlib
import re
import shutil

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "compare_checkouts.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_checkouts", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def cc():
    return _load_script()


# -- the comparison, in memory ------------------------------------------------


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _record(c_star, alphas):
    return {"c_star": c_star, "family_size": len(alphas), "alphas": alphas,
            "violations": 0, "sparse_ok": True, "exhausted": False,
            "ct_components": {"l2_norm": {"value": 3.0,
                                          "hex": (3.0).hex()}},
            "sha256": {"ratios": "0" * 64}}


def _side():
    report = {"kind": "cf", "pass": True, "constants": {"ainf_w_L8": 1.25},
              "rows": [{"lambda": 8.0, "lhs": 1.0, "rhs": 2.0, "ratio": 0.5,
                        "pass": True}]}
    battery = {"battery_version": 3, "pass": True,
               "scenarios": {"cf": {"kind": "cf", "pass": True}}}
    return {"exit": 0, "digest": "ab" * 32,
            "files": {"battery.json": _dumps(battery),
                      "cf/report.json": _dumps(report),
                      "cf/plot.csv": b"lambda,lhs,rhs,ratio\n8.0,1.0,2.0,0.5\n"},
            "records": {"0/m0/f/L8": _record(4.0, [1.0, 2.0, 4.0]),
                        "0/m1/f/L8": _record(2.0, [1.0, 8.0])}}


def test_lists_exactly_the_perturbed_values(cc, capsys):
    old = _side()
    new = copy.deepcopy(old)
    new["records"]["0/m0/f/L8"]["c_star"] = 5.0
    new["records"]["0/m0/f/L8"]["alphas"][1] = 2.5
    new["records"]["0/m1/f/L8"]["family_size"] = 3
    new["records"]["0/m1/f/L8"]["exhausted"] = True
    report = json.loads(new["files"]["cf/report.json"])
    report["rows"][0]["ratio"] = 0.4
    report["constants"]["ainf_w_L10"] = 1.5
    new["files"]["cf/report.json"] = _dumps(report)

    diffs = cc.compare(old, new)
    assert sorted(diffs) == sorted([
        ("file", "cf/report.json", None, None),
        ("moved", "cf/report.json:rows[0].ratio", 0.5, 0.4),
        ("only", "cf/report.json:constants.ainf_w_L10", "change", None),
        ("moved", "domination:0/m0/f/L8.c_star", 4.0, 5.0),
        ("moved", "domination:0/m0/f/L8.alphas[1]", 2.0, 2.5),
        ("moved", "domination:0/m1/f/L8.family_size", 2, 3),
        ("flip", "domination:0/m1/f/L8.exhausted", False, True),
    ])
    rel = {p: cc.relative(a, b) for k, p, a, b in diffs if k == "moved"}
    assert rel == pytest.approx({
        "cf/report.json:rows[0].ratio": 0.2,
        "domination:0/m0/f/L8.c_star": 0.2,
        "domination:0/m0/f/L8.alphas[1]": 0.2,
        "domination:0/m1/f/L8.family_size": 1 / 3}, rel=1e-12)

    assert cc.report(old, new) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(diffs) + 1
    assert "moved domination:0/m0/f/L8.c_star: 4.0 (0x1.0000000000000p+2) " \
        "-> 5.0 (0x1.4000000000000p+2), relative 0.2" in lines
    summary = json.loads(lines[-1])
    assert (summary["moved"], summary["flips"], summary["family_size"],
            summary["alphas"], summary["one_side_only"]) == (4, 1, 1, 1, 1)
    assert summary["identical_files"] == 2 and summary["files"] == 3
    assert not summary["identical"] and not summary["table_hash_moved"]

    assert cc.report(old, copy.deepcopy(old)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["identical"]


def test_a_float_moves_by_its_bits(cc):
    old, new = _side(), _side()
    new["records"]["0/m0/f/L8"]["ct_components"]["l2_norm"] = {
        "value": 3.0000000000000004, "hex": (3.0000000000000004).hex()}
    assert cc.compare(old, new) == [
        ("moved", "domination:0/m0/f/L8.ct_components.l2_norm", 3.0,
         3.0000000000000004)]
    new = _side()
    report = json.loads(new["files"]["cf/report.json"])
    report["constants"]["ainf_w_L8"] = 1
    report["rows"][0]["lhs"] = -1.0
    new["files"]["cf/report.json"] = _dumps(report)
    assert [(k, p) for k, p, _, _ in cc.compare(old, new)] == [
        ("file", "cf/report.json"),
        ("moved", "cf/report.json:constants.ainf_w_L8"),
        ("moved", "cf/report.json:rows[0].lhs")]


def test_lists_exit_code_digest_and_files_of_one_side(cc):
    old, new = _side(), _side()
    new["exit"], new["digest"] = 1, "cd" * 32
    del new["files"]["cf/plot.csv"]
    assert cc.compare(old, new) == [
        ("exit", "lab battery", 0, 1),
        ("only", "cf/plot.csv", "parent", None),
        ("digest", "domination", "ab" * 32, "cd" * 32)]


def test_checkout_without_src_or_failing_exits_2(cc, tmp_path, capsys):
    assert cc.main([str(tmp_path), str(REPO)]) == 2
    assert "no src/sparsedom" in capsys.readouterr().err
    (tmp_path / "src" / "sparsedom").mkdir(parents=True)
    (tmp_path / "src" / "sparsedom" / "__init__.py").write_text(
        "raise RuntimeError('broken checkout')\n")
    (tmp_path / "battery").mkdir()
    assert cc.main([str(tmp_path), str(REPO)]) == 2
    assert "broken checkout" in capsys.readouterr().err


# -- end to end ----------------------------------------------------------------


def test_checkout_against_itself_exits_0_with_equal_digests(cc, monkeypatch,
                                                            capsys):
    # two fresh interpreters, so no memo of the first run serves the second
    monkeypatch.setattr(cc, "LEVELS", (6,))
    assert cc.main([str(REPO), str(REPO)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0])
    digest = summary["digest"]
    assert re.fullmatch(r"[0-9a-f]{64}", digest["parent"]), digest
    assert digest["parent"] == digest["change"]
    assert summary["reports"] == {"parent": 45, "change": 45}
    assert summary["battery_exit"] == {"parent": 1, "change": 1}
    assert summary["identical_files"] == summary["files"] > 14


@pytest.fixture(scope="module")
def parent(cc, tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "LEVELS", (6,))
        yield cc.run_checkout(str(REPO), str(tmp_path_factory.mktemp("p")))


def _changed_copy(cc, tmp_path, module, pattern, repl):
    """The change side: src/ and battery/ copied, one line of
    src/sparsedom/<module> rewritten."""
    root = tmp_path / "checkout"
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(REPO / "battery", root / "battery")
    path = root / "src" / "sparsedom" / module
    text, n = re.subn(pattern, repl, path.read_text(), flags=re.M)
    assert n == 1
    path.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "LEVELS", (6,))
        return cc.run_checkout(str(root), str(out))


def test_lower_cf_bound_flips_exactly_the_rows_above_it(cc, parent,
                                                        tmp_path):
    new = _changed_copy(cc, tmp_path, "frozen.py", r'"cf_c": [0-9.]+',
                        '"cf_c": 1.0')
    expected = set()
    for name, data in parent["files"].items():
        if not re.fullmatch(r"cf_\w+/report\.json", name):
            continue
        rep = json.loads(data)
        rows = [i for i, r in enumerate(rep["rows"]) if r["ratio"] > 1.0]
        expected |= {("flip", f"{name}:rows[{i}].pass") for i in rows}
        if rows:
            expected.add(("file", name))
        if rows and rep["pass"]:
            scn = name.split("/")[0]
            expected |= {("flip", f"{name}:pass"), ("file", "battery.json"),
                         ("flip", f"battery.json:scenarios.{scn}.pass")}
    assert ("flip", "cf_hilbert_m0/report.json:pass") in expected
    assert {(k, p) for k, p, _, _ in cc.compare(parent, new)} == expected
    assert new["digest"] == parent["digest"]


def _kappa_derived(parent, path) -> bool:
    name, _, key = path.partition(":")
    if re.fullmatch(r"endpoint_\w+/report\.json", name):
        return bool(re.fullmatch(r"constants\.kappa_h\d+|rows\[\d+\]\."
                                 r"(rhs|ratio)", key))
    if name == "constants_unit/report.json":
        m = re.fullmatch(r"rows\[(\d+)\]\.lhs", key)
        if m:
            row = json.loads(parent["files"][name])["rows"][int(m[1])]
            return (row["object"], row["constant"]) == ("phi", "kappa")
        return key in ("constants.phi.kappa", "constants.table_hash")
    return False


def test_gauss_nodes_move_only_kappa(cc, parent, tmp_path):
    new = _changed_copy(cc, tmp_path, "young.py", r"^_GAUSS_NODES = \d+",
                        "_GAUSS_NODES = 20")
    diffs = cc.compare(parent, new)
    assert any(k == "moved" for k, _, _, _ in diffs)
    for kind, path, _, _ in diffs:
        if kind == "file":
            assert re.match(r"(endpoint_\w+|constants_unit)/", path), path
        else:
            assert kind in ("moved", "changed"), (kind, path)
            assert _kappa_derived(parent, path), path
    assert new["records"] == parent["records"]
    assert new["digest"] == parent["digest"]
