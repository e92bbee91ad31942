"""Seeded inputs for the three workloads.

The benchmark hands sparsedom only what this module generates: INI scenario
files, an angular CSV table and profile literals.  Seed 0 gives the released
inputs: the 14 files of `battery/`, the `DOMINATION_BATTERY` profiles of
`sparsedom.bench`, and the cos(2 theta) table.  Other seeds change the
`sweep` profiles and the `plane` angular table within the same grammar; the
`battery` inputs are the same for every seed.
"""

from __future__ import annotations

import math
import os
import random
import re

# -- battery: the released scenarios, key by key --------------------------

BATTERY = {
    "cf_hilbert_m0": (
        ("kind", "cf"), ("levels", "7"), ("kernel", "hilbert"),
        ("gauge_b", "llogl(1)"), ("f", "indicator(0,0.25)"),
        ("b", "const(0)"), ("w", "power_abs(0.5)"), ("m", "0"), ("p", "2"),
        ("origin", "-0.5"), ("side", "1"),
    ),
    "cf_hilbert_m1": (
        ("kind", "cf"), ("levels", "7"), ("kernel", "hilbert"),
        ("gauge_a", "expl(1)"), ("gauge_b", "power(4)"),
        ("f", "indicator(0,0.25)"), ("b", "log_abs"), ("w", "power_abs(0.5)"),
        ("m", "1"), ("p", "2"), ("origin", "-0.5"), ("side", "1"),
    ),
    "constants_unit": (
        ("kind", "constants"), ("levels", "6"), ("kernel", "hilbert"),
        ("gauge_a", "power(2)"), ("phi", "lll(0,1.5)"), ("b", "const(0)"),
        ("w", "const(1)"), ("p", "2"), ("r", "2"), ("origin", "-0.5"),
        ("side", "1"),
    ),
    "counterexample_weak": (
        ("kind", "counterexample"), ("levels", "8,10,12"), ("r", "2"),
        ("p", "1"), ("gamma", "0.75"), ("beta", "1"), ("origin", "-6"),
        ("side", "12"),
    ),
    "endpoint_czo_m1": (
        ("kind", "endpoint_czo"), ("levels", "7"), ("kernel", "hilbert"),
        ("f", "indicator(0,0.25)"), ("b", "log_abs"), ("w", "power_abs(0.5)"),
        ("m", "1"), ("eps", "0.5"), ("origin", "-0.5"), ("side", "1"),
    ),
    "endpoint_dini_m1": (
        ("kind", "endpoint"), ("levels", "7"),
        ("kernel", "dini(omega=power(0.5),ck=1)"),
        ("f", "indicator(0,0.25)"), ("b", "log_abs"), ("w", "power_abs(0.5)"),
        ("m", "1"), ("eps", "0.5"), ("origin", "-0.5"), ("side", "1"),
    ),
    "endpoint_hilbert_m0": (
        ("kind", "endpoint"), ("levels", "7"), ("kernel", "hilbert"),
        ("gauge_a", "llogl(1)"), ("phi", "lll(1,1.5)"),
        ("f", "indicator(0,0.25)"), ("b", "const(0)"),
        ("w", "power_abs(0.5)"), ("m", "0"), ("origin", "-0.5"),
        ("side", "1"),
    ),
    "expdecay_hilbert_m0": (
        ("kind", "expdecay"), ("levels", "7"), ("kernel", "hilbert"),
        ("gauge_a", "llogl(1)"), ("f", "indicator(0,0.25)"),
        ("b", "const(0)"), ("m", "0"), ("origin", "-0.5"), ("side", "1"),
    ),
    "expdecay_hilbert_m1": (
        ("kind", "expdecay"), ("levels", "8"), ("kernel", "hilbert"),
        ("gauge_a", "llogl(2)"), ("f", "indicator(0,0.25)"),
        ("b", "log_abs"), ("m", "1"), ("origin", "-0.5"), ("side", "1"),
    ),
    "sparse_counter_m0": (
        ("kind", "sparse"), ("levels", "8"),
        ("kernel", "counter(r=2,beta=1,eta=4)"), ("gauge_a", "counter"),
        ("f", "indicator(-4.5,-3.5)"), ("b", "const(0)"), ("m", "0"),
        ("r", "2"), ("beta", "1"), ("origin", "-6"), ("side", "12"),
    ),
    "sparse_dini_m1": (
        ("kind", "sparse"), ("levels", "8"),
        ("kernel", "dini(omega=power(0.5),ck=1)"), ("gauge_a", "llogl(2)"),
        ("f", "indicator(0,0.25)"), ("b", "log_abs"), ("m", "1"),
        ("origin", "-0.5"), ("side", "1"),
    ),
    "sparse_hilbert_m0": (
        ("kind", "sparse"), ("levels", "8"), ("kernel", "hilbert"),
        ("gauge_a", "llogl(1)"), ("f", "indicator(0,0.25)"),
        ("b", "const(0)"), ("m", "0"), ("origin", "-0.5"), ("side", "1"),
    ),
    "strong_dini_m1": (
        ("kind", "strong"), ("levels", "7"),
        ("kernel", "dini(omega=power(0.5),ck=1)"), ("gauge_a", "power(1)"),
        ("f", "indicator(0,0.25)"), ("b", "log_abs"), ("w", "power_abs(0.5)"),
        ("m", "1"), ("p", "2"), ("r", "1"), ("origin", "-0.5"),
        ("side", "1"),
    ),
    "strong_hilbert_m0": (
        ("kind", "strong"), ("levels", "7"), ("kernel", "hilbert"),
        ("gauge_a", "power(1)"), ("f", "indicator(0,0.25)"),
        ("b", "const(0)"), ("w", "power_abs(0.5)"), ("m", "0"), ("p", "2"),
        ("r", "1"), ("origin", "-0.5"), ("side", "1"),
    ),
}


def ini_text(pairs) -> str:
    """The flat INI layout of the released scenario files."""
    return "[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)


def write_battery(directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, pairs in BATTERY.items():
        with open(os.path.join(directory, name + ".ini"), "w") as fh:
            fh.write(ini_text(pairs))


# -- sweep: the domination grid ----------------------------------------------

# The kernel/gauge configurations of sparsedom.bench.DOMINATION_BATTERY, with
# its five released profile slots per configuration.
SWEEP_CONFIGS = (
    {"kernel": "hilbert", "gauge": "llogl(1)", "origin": -0.5, "side": 1.0,
     "b": "log_abs",
     "f": ("indicator(0,0.25)", "indicator(-0.25,0.125)",
           "indicator(0.125,0.375)", "power_abs(0.5)",
           "indicator(-0.375,-0.125)+0.25")},
    {"kernel": "dini(omega=power(0.5),ck=1)", "gauge": "llogl(1)",
     "origin": -0.5, "side": 1.0, "b": "log_abs",
     "f": ("indicator(0,0.25)", "indicator(-0.25,0.125)",
           "indicator(0.125,0.375)", "power_abs(0.5)",
           "indicator(-0.375,-0.125)+0.25")},
    {"kernel": "counter(r=2,beta=1,eta=4)", "gauge": "counter",
     "origin": -6.0, "side": 12.0, "b": "log_abs",
     "f": ("indicator(-4.5,-3.5)", "indicator(-5,-3)",
           "indicator(-4.25,-3.75)", "indicator(-4.75,-4.25)",
           "power_abs(0.25)")},
)
SWEEP_ORDERS = (0, 1, 2)
SWEEP_LEVELS = (8, 10, 12)

_INDICATOR = re.compile(r"indicator\(([-0-9.]+),([-0-9.]+)\)(\+[0-9.]+)?$")
_POWER = re.compile(r"power_abs\(([0-9.]+)\)$")


def _num(x: float) -> str:
    return repr(float(x)).removesuffix(".0")


def _draw_profile(rng: random.Random, literal: str, side: float) -> str:
    """A profile of the slot's shape: the indicator keeps its width and
    offset and moves by up to 4/64 of the domain; the power exponent is
    scaled by a factor in [0.5, 1.5]."""
    m = _INDICATOR.match(literal)
    if m:
        shift = rng.randint(-4, 4) * side / 64
        lo, hi = float(m.group(1)) + shift, float(m.group(2)) + shift
        return f"indicator({_num(lo)},{_num(hi)}){m.group(3) or ''}"
    m = _POWER.match(literal)
    if m:
        return f"power_abs({_num(round(float(m.group(1)) * rng.uniform(0.5, 1.5), 4))})"
    raise ValueError(f"no generator for profile {literal!r}")


def sweep_plan(seed: int) -> list:
    """Items in sweep order (configuration, order m, level).  Each
    (configuration, m) pair takes profile slot (3 config + m) mod 5, so the
    nine pairs cover all five slots, and runs at every level."""
    rng = random.Random(seed)
    items = []
    for ic, cfg in enumerate(SWEEP_CONFIGS):
        slots = cfg["f"] if seed == 0 else tuple(
            _draw_profile(rng, lit, cfg["side"]) for lit in cfg["f"])
        for m in SWEEP_ORDERS:
            f = slots[(3 * ic + m) % len(slots)]
            for level in SWEEP_LEVELS:
                items.append({"config": ic, "m": m, "f": f, "level": level})
    return items


# -- plane: two 2D scenarios with a homogeneous kernel -----------------------

OMEGA_SAMPLES = 64
PLANE = {
    "cf_homog_m1": (
        ("kind", "cf"), ("dim", "2"), ("levels", "4"),
        ("kernel", "homog(omega_table=omega.csv)"), ("gauge_a", "expl(1)"),
        ("gauge_b", "power(4)"), ("f", "indicator(0,0,0.25,0.25)"),
        ("b", "log_abs"), ("w", "power_abs(0.5)"), ("m", "1"), ("p", "2"),
        ("origin", "-0.5,-0.5"), ("side", "1"),
    ),
    "endpoint_czo_homog_m1": (
        ("kind", "endpoint_czo"), ("dim", "2"), ("levels", "7"),
        ("kernel", "homog(omega_table=omega.csv)"),
        ("f", "indicator(0,0,0.25,0.25)"), ("b", "log_abs"),
        ("w", "power_abs(0.5)"), ("m", "1"), ("eps", "0.5"),
        ("origin", "-0.5,-0.5"), ("side", "1"),
    ),
}


def omega_table(seed: int) -> list:
    """Mean-zero angular samples.  Seed 0 is cos(2 theta); other seeds mix
    the harmonics 1..4 with Gaussian weights, centred and scaled to the
    root-mean-square of cos(2 theta)."""
    theta = [2 * math.pi * k / OMEGA_SAMPLES for k in range(OMEGA_SAMPLES)]
    if seed == 0:
        return [math.cos(2 * t) for t in theta]
    rng = random.Random(seed)
    coef = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    vals = [sum(a * math.cos(j * t) + b * math.sin(j * t)
                for j, (a, b) in enumerate(coef, start=1)) for t in theta]
    mean = sum(vals) / len(vals)
    vals = [v - mean for v in vals]
    rms = math.sqrt(sum(v * v for v in vals) / len(vals))
    return [v * math.sqrt(0.5) / rms for v in vals]


def write_plane(directory: str, seed: int):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "omega.csv"), "w") as fh:
        fh.write("".join(repr(v) + "\n" for v in omega_table(seed)))
    for name, pairs in PLANE.items():
        with open(os.path.join(directory, name + ".ini"), "w") as fh:
            fh.write(ini_text(pairs))
