"""Negative controls: a check's true form set beside a false variant of it,
computed from the same lab quantities.  The true form must settle along the
levels while the false one keeps growing, so a check that passes is seen to
separate a true inequality from a false one."""

import numpy as np

from sparsedom import bench


def _endpoint_one_cell(L):
    """endpoint, m = 1, hilbert, b = log|x|, w = 1 on [-0.5, 0.5), with f
    the indicator of the one cell [0, 2^-L)."""
    return bench.Scenario(name=f"control_L{L}", kind="endpoint", levels=(L,),
                          origin=(-0.5,), kernel="hilbert",
                          f=f"indicator(0,{2.0 ** -L!r})", b="log_abs",
                          w="const(1)", m=1, eps=0.5)


def _weak_11_ratio(scn):
    """The largest lambda |{|T_b f| > lambda}| / ||f||_1 over the endpoint
    check's lambda grid: the weak (1,1) bound, false for a commutator."""
    grid, f, b = bench._level(scn, scn.levels[0], "f", "b")
    t = np.abs(bench._centred_commutator(bench.parse_kernel(scn.kernel), b,
                                         scn.m, f))
    mass = float(np.abs(f.cells).sum()) * grid.cell_volume
    return max(lam * float((t > lam).sum()) * grid.cell_volume / mass
               for lam in bench._lambda_grid(float(t.max()),
                                             scn.lambda_points))


def test_endpoint_llogl_form_settles_where_weak_11_grows():
    # Measured at L = 6, 8, 10: the check's L log L form has largest row
    # ratios 0.689, 0.752 and 0.7604 (steps 0.063, 0.008), the weak (1,1)
    # form 7.93, 10.88 and 13.54 (steps 2.95, 2.66).  The
    # verdict itself is not asserted: the frozen endpoint_c (0.494) lies
    # below these ratios until the constants are refitted.
    scns = [_endpoint_one_cell(L) for L in (6, 8, 10)]
    for scn in scns:
        bench._validate(scn)
    true = [max(r["ratio"] for r in bench.endpoint_check(scn)["rows"])
            for scn in scns]
    false = [_weak_11_ratio(scn) for scn in scns]
    steps = np.diff(true)
    assert abs(steps[1]) <= 0.5 * abs(steps[0]), true
    assert all(np.diff(false) >= 2.0), false
