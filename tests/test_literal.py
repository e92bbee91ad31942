"""The scenario literal grammar, and the objects it builds: every kernel,
gauge and profile literal of the released battery and of the domination
sweep parses to what explicit constructor calls build."""

import os

import numpy as np
import pytest

from sparsedom import bench, literal, young
from sparsedom import operators as op
from sparsedom.dyadic import Grid
from sparsedom.weights import parse_profile

BATTERY_DIR = os.path.join(os.path.dirname(__file__), "..", "battery")


class LiteralError(ValueError):
    pass


def _parse(text):
    return literal.parse(text, LiteralError)


# -- grammar --------------------------------------------------------------------


def test_grammar_tuples():
    assert _parse("hilbert") == ("hilbert", (), {}, None)
    assert _parse(" hilbert ( ) ") == ("hilbert", (), {}, None)
    assert _parse("indicator(-0.375,-0.125)+0.25") == (
        "indicator", (-0.375, -0.125), {}, 0.25)
    assert _parse("dini(omega=power(0.5),ck=1)") == (
        "dini", (), {"omega": ("power", (0.5,), {}, None), "ck": 1.0}, None)
    assert _parse("table(data/cells-1.csv)") == (
        "table", ("data/cells-1.csv",), {}, None)
    # inf and nan are not numbers: they stay bare strings
    assert _parse("f(inf,nan)")[1] == ("inf", "nan")


@pytest.mark.parametrize("text", ["", "1.5", "Hilbert", "f(", "f(1", "f(1,)",
                                  "f(1))", "f(1)x", "f(1e)", "f(a=1,a=2)",
                                  "f(1)+", "f(1)+x", "f(g(1)(2))",
                                  # past the float range: no finite number
                                  "f(1e999)", "f(a=-1e999)", "f(1)+1e999"])
def test_grammar_rejects_with_the_callers_error(text):
    with pytest.raises(LiteralError):
        _parse(text)


def test_positional_checks_count_kind_keys_and_shift():
    assert literal.positional(_parse("f(1,2)"), float, 1, 2,
                              LiteralError) == (1.0, 2.0)
    assert literal.positional(_parse("f(1)+2"), float, 1, 1, LiteralError,
                              shift=True) == (1.0,)
    for text in ("f(1,2,3)", "f()", "f(a=1)", "f(1)+2", "f(x)", "f(g(1))"):
        with pytest.raises(LiteralError):
            literal.positional(_parse(text), float, 1, 2, LiteralError)


# -- the released literals against explicit constructors ------------------------


KERNELS = {
    "hilbert": op.make_hilbert,
    "dini(omega=power(0.5),ck=1)": lambda: op.make_dini(0.5, 1.0),
    "counter(r=2,beta=1,eta=4)": lambda: op.make_counter(2.0, 1.0, 4.0),
}

GAUGES = {
    "power(1)": young.power(1.0),
    "power(2)": young.power(2.0),
    "power(4)": young.power(4.0),
    "llogl(1)": young.llogl(1.0),
    "llogl(2)": young.llogl(2.0),
    "expl(1)": young.expl(1.0),
    "lll(0,1.5)": young.lll(0.0, 1.5),
    "lll(1,1.5)": young.lll(1.0, 1.5),
}


def _indicator(a, b, c=0.0):
    return lambda x: np.where((x >= a) & (x < b), 1.0, 0.0) + c


PROFILES = {
    "const(0)": lambda x: np.full(x.shape, 0.0),
    "const(1)": lambda x: np.full(x.shape, 1.0),
    "log_abs": lambda x: np.log(np.abs(x)),
    "power_abs(0.5)": lambda x: np.abs(x) ** 0.5,
    "power_abs(0.25)": lambda x: np.abs(x) ** 0.25,
    "indicator(0,0.25)": _indicator(0.0, 0.25),
    "indicator(-0.25,0.125)": _indicator(-0.25, 0.125),
    "indicator(0.125,0.375)": _indicator(0.125, 0.375),
    "indicator(-0.375,-0.125)+0.25": _indicator(-0.375, -0.125, 0.25),
    "indicator(-4.5,-3.5)": _indicator(-4.5, -3.5),
    "indicator(-5,-3)": _indicator(-5.0, -3.0),
    "indicator(-4.25,-3.75)": _indicator(-4.25, -3.75),
    "indicator(-4.75,-4.25)": _indicator(-4.75, -4.25),
}


def _released_literals():
    """(family, literal, grids it is evaluated on) over the battery's
    scenarios and the domination sweep's configurations."""
    out = []
    for name in sorted(os.listdir(BATTERY_DIR)):
        if name.endswith(".ini"):
            scn = bench.parse_scenario(os.path.join(BATTERY_DIR, name))
            grids = [scn.grid(L) for L in scn.levels]
            out.append(("kernel", scn.kernel, grids))
            out += [("gauge", g, grids) for g in (scn.A, scn.B, scn.phi)
                    if g not in (None, "counter")]
            out += [("profile", p, grids) for p in (scn.f, scn.b, scn.w)]
    for cfg in bench.DOMINATION_BATTERY:
        grids = [Grid(1, cfg["origin"], cfg["side"], L) for L in (8, 10, 12)]
        out.append(("kernel", cfg["kernel"], grids))
        if cfg["gauge"] != "counter":
            out.append(("gauge", cfg["gauge"], grids))
        out += [("profile", p, grids) for p in (cfg["b"], *cfg["f"])]
    return out


RELEASED = _released_literals()


def test_released_literals_are_all_covered():
    used = {(family, text) for family, text, _ in RELEASED}
    assert used == ({("kernel", k) for k in KERNELS}
                    | {("gauge", g) for g in GAUGES}
                    | {("profile", p) for p in PROFILES})


def test_released_kernels_match_constructors():
    for family, text, grids in RELEASED:
        if family == "kernel":
            K, E = op.parse_kernel(text), KERNELS[text]()
            assert ((K.family, K.n, K.singular, K.params)
                    == (E.family, E.n, E.singular, E.params)), text
            for g in grids:
                assert K.profile(g).tobytes() == E.profile(g).tobytes(), text


def test_released_gauges_match_constructors():
    for family, text, _ in RELEASED:
        if family == "gauge":
            assert young.parse_young(text) == GAUGES[text], text


def test_released_profiles_are_bitwise_equal():
    for family, text, grids in RELEASED:
        if family == "profile":
            for g in grids:
                cells = parse_profile(text, g).cells
                expect = PROFILES[text](g.cell_centers(0))
                assert cells.dtype == expect.dtype, text
                assert cells.tobytes() == expect.tobytes(), (text, g.level)
