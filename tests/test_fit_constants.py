"""scripts/fit_constants.py: the frozen module it writes."""

import collections
import importlib.util
import os
import runpy

from sparsedom import frozen

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "fit_constants.py")


def test_fit_constants_bumps_battery_version(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("fit_constants", SCRIPT)
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    # the fits themselves run the whole battery; only the writer is tested
    zeros = collections.defaultdict(float)
    monkeypatch.setattr(fit, "fit_domination",
                        lambda: ({0: 1.0, 1: 1.0, 2: 1.0}, 1.0, 0.5))
    monkeypatch.setattr(fit, "fit_scenarios", lambda: zeros)
    monkeypatch.setattr(fit, "fit_weight_constants", lambda: zeros)
    monkeypatch.setattr(fit, "fit_truncation_constants",
                        lambda: (1.0, 1.0, 1.0))
    target = tmp_path / "frozen.py"
    monkeypatch.setattr(fit, "TARGET", str(target))
    fit.main()
    written = runpy.run_path(str(target))
    assert written["BATTERY_VERSION"] == frozen.BATTERY_VERSION + 1
    assert set(written["FROZEN"]) == set(frozen.FROZEN)
