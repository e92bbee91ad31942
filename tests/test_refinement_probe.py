"""scripts/refinement_probe.py writes one well-formed record per report of
the domination sweep at its levels."""

import importlib.util
import json
import os

from sparsedom.bench import DOMINATION_BATTERY

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "refinement_probe.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("refinement_probe", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_probe_writes_one_record_per_report(tmp_path, monkeypatch):
    probe = _load_script()
    monkeypatch.setattr(probe, "LEVELS", (8,))
    out = tmp_path / "probe.json"
    assert probe.main(["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["levels"] == [8]
    records = payload["records"]
    assert [(r["config"], r["m"], r["f"], r["level"]) for r in records] == \
        [(ic, m, flit, 8) for ic, cfg in enumerate(DOMINATION_BATTERY)
         for m in (0, 1, 2) for flit in cfg["f"]]
    for r in records:
        assert r["kernel"] == DOMINATION_BATTERY[r["config"]]["kernel"]
        assert r["family_size"] >= 1 and r["max_alpha"] > 0
        assert r["exceeds_frozen"] == (r["c_star"] > r["frozen_bound"])
