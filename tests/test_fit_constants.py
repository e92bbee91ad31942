"""scripts/fit_constants.py: the frozen module it writes and the values it
fits."""

import collections
import importlib.util
import os
import runpy

from sparsedom import frozen

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "fit_constants.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("fit_constants", SCRIPT)
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    return fit


def test_fit_constants_bumps_battery_version(tmp_path, monkeypatch):
    fit = _load_script()
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


def test_fits_reproduce_frozen_constants():
    # fit_domination runs the full released sweep; criterion 3 checks its
    # bound, so only the fast fits are rerun here
    fit = _load_script()
    fitted = dict(fit.fit_scenarios())
    fitted.update(fit.fit_weight_constants())
    fitted.update(zip(("lemmatec1_c", "lemmatec2_c", "weak11_c"),
                      fit.fit_truncation_constants()))
    assert fitted == {k: frozen.FROZEN[k] for k in fitted}
    assert len(fitted) == 13
