"""Continuum oracles: the lab's kernel products against answers known in
closed form, through the dense blocks (L <= 7) and the FFT products."""

import numpy as np
import pytest
from scipy.integrate import quad

from sparsedom import operators as op
from sparsedom.dyadic import Grid, GridFunction
from sparsedom.weights import parse_profile


@pytest.mark.parametrize("L", (6, 7, 8, 9, 10, 11, 12))
def test_commutator_of_hilbert_with_x_is_known(L):
    # With b(x) = x the commutator kernel (x - y)^m / (x - y) is 1 off the
    # diagonal for m = 1 and x - y for m = 2, so on the grid
    #   T_b^1 f = h sum f - h f(x),   T_b^2 f = h (x sum f - sum y f)
    # up to rounding.  Measured relative errors (max over cells, against
    # the max of the answer): at most 3.8e-15 on the dense blocks of L = 6
    # and 7, at most 1.9e-13 on the FFT products of L = 8-12.
    tol = 1e-14 if L <= 7 else 1e-12
    grid = Grid(1, (-0.5,), 1.0, L)
    h, x = grid.cell_width, grid.cell_centers()
    f = np.random.default_rng(L).standard_normal(grid.shape)
    b = GridFunction(grid, x)
    want = {1: h * f.sum() - h * f, 2: h * (x * f.sum() - (x * f).sum())}
    for m, w in want.items():
        got = op.commutator_apply(op.make_hilbert(), b, m,
                                  GridFunction(grid, f)).cells
        assert np.abs(got - w).max() <= tol * np.abs(w).max(), m


def test_hilbert_of_indicator_converges_at_second_order():
    # T chi_[a, b) against the p.v. integral log|(x - a)/(x - b)| at the
    # cells of five fixed points away from the jumps.  Measured: 5.9e-4,
    # 3.7e-5, 2.4e-6 and 1.5e-7 at L = 6, 8, 10 and 12, a factor of about
    # 16 per two levels.
    a, b = -0.25, 0.125
    points = (-0.4, -0.125, 0.0, 0.25, 0.4)
    errors = []
    for L in (6, 8, 10, 12):
        grid = Grid(1, (-0.5,), 1.0, L)
        f = parse_profile(f"indicator({a},{b})", grid)
        x = grid.cell_centers()
        cells = [int((p - grid.origin[0]) // grid.cell_width) for p in points]
        want = np.log(np.abs((x[cells] - a) / (x[cells] - b)))
        got = op.apply_operator(op.make_hilbert(), f).cells[cells]
        errors.append(float(np.abs(got - want).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 10 <= coarse, errors
    assert errors[-1] <= 3e-7, errors


def test_dini_of_indicator_converges_at_second_order():
    # T chi_[a, b) for dini's K(u) = (1 + 0.5 sin(2|u|^(1/2))) / u is the
    # p.v. integral of 1/u, log|(x - a)/(x - b)|, plus the absolutely
    # integrable rest 0.5 sin(2|u|^(1/2)) / u over (x - b, x - a], split
    # at 0 for quad.  Measured: 6.77e-4, 4.34e-5, 2.78e-6 and 1.75e-7 at
    # L = 6, 8, 10 and 12, a factor of about 16 per two levels.
    a, b = -0.25, 0.125
    points = (-0.4, -0.125, 0.0, 0.25, 0.4)

    def rest(u):
        return 0.5 * np.sin(2.0 * np.sqrt(abs(u))) / u

    errors = []
    for L in (6, 8, 10, 12):
        grid = Grid(1, (-0.5,), 1.0, L)
        f = parse_profile(f"indicator({a},{b})", grid)
        x = grid.cell_centers()
        cells = [int((p - grid.origin[0]) // grid.cell_width) for p in points]
        want = []
        for xc in x[cells]:
            lo, hi = xc - b, xc - a
            ends = (lo, 0.0, hi) if lo < 0.0 < hi else (lo, hi)
            want.append(np.log(abs((xc - a) / (xc - b))) + sum(
                quad(rest, u, v, epsabs=1e-13, epsrel=1e-13)[0]
                for u, v in zip(ends, ends[1:])))
        got = op.apply_operator(op.make_dini(), f).cells[cells]
        errors.append(float(np.abs(got - np.array(want)).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine * 10 <= coarse, errors
    assert errors[-1] <= 3e-7, errors


def test_weighted_norm_of_hilbert_rises_below_the_continuum_norm():
    # On L^2(|x|^alpha) the norm of the 1/u kernel is
    # pi max(cot, tan)(pi (1 - alpha) / 4) (a Mellin transform; Hardy,
    # Littlewood and Polya, ch. IX), pi cot(pi / 8) = 7.5845 at alpha = 1/2.
    # The lab's norm, the top singular value of w^(1/2) T w^(-1/2) with
    # w = |x|^(1/2) on [-1/2, 1/2), rises toward it slowly.  Measured:
    # 3.993, 4.329, 4.614, 4.862 and 5.081 at L = 5-9.
    norms = []
    for L in range(5, 10):
        grid = Grid(1, (-0.5,), 1.0, L)
        K = op.make_hilbert()
        T = np.column_stack([op.apply_operator(K, GridFunction(grid, e)).cells
                             for e in np.eye(grid.cells_per_side)])
        s = np.abs(grid.cell_centers()) ** 0.25  # w^(1/2)
        norms.append(float(np.linalg.norm(s[:, None] * T / s, 2)))
    assert all(a < b for a, b in zip(norms, norms[1:])), norms
    assert norms[-1] < np.pi / np.tan(np.pi / 8), norms
