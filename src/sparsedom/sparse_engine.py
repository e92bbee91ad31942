"""Constructive sparse domination: the stopping-time recursion that builds a
half-sparse cube family whose Orlicz-average form pointwise dominates the
iterated commutator, plus the form evaluator and the domination report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import young
from .dyadic import (Cube, Grid, GridFunction, SparseCheck, SparseFamily,
                     check_sparse, cube_mask, cube_slices, cz_decompose,
                     dilate)
from .operators import (MAX_ORDER, Kernel, commutator_apply,
                        grand_maximal_truncated, hormander_estimate,
                        operator_norm_l2, truncation)


class EngineError(RuntimeError):
    pass


@dataclass
class SparseForm:
    """Half-sparse family with per-cube Orlicz coefficients.

    coeffs[Q] holds, for h in 0..m, the norm of f |b - b_3Q|^h over 3Q in
    the Luxemburg A-gauge.  b_avgs[Q] is the plain average of b over 3Q,
    the centering the form evaluator reuses.
    """

    family: SparseFamily
    coeffs: dict
    b_avgs: dict
    A: young.YoungFunction
    m: int
    alphas: dict = field(default_factory=dict)
    child_fraction: dict = field(default_factory=dict)
    exhausted: bool = False
    ct_components: dict = field(default_factory=dict)


@dataclass
class DominationReport:
    c_star: float
    ratios: GridFunction
    violations: list
    form: SparseForm
    sparse_check: SparseCheck
    t_values: GridFunction
    totals: GridFunction


# safety limits of the stopping-time recursion; hitting one sets exhausted
NODE_BUDGET = 100000
ALPHA_CAP = 2.0 ** 40

_ct_cache: dict = {}


def estimate_ct(K: Kernel, A: young.YoungFunction, grid: Grid,
                seed: int = 0) -> dict:
    """Operator-size gauge: kernel smoothness estimate plus the discrete
    L2 operator norm.  Memoized per (kernel content, grid, gauge, seed), so
    a new kernel or gauge object with the same content reuses the entry and
    no other kernel or gauge can.  This is the program's one memo: a miss
    costs about 10-40 ms on 2 cores at L = 8-12 (smoothness estimate 5-17
    ms, L2 norm 2-19 ms), and a domination sweep repeats each key for
    every commutator order and data profile (18 of the 27 calls of the
    benchmark's sweep hit).  seed draws the smoothness estimate's sample
    of cubes."""
    key = (K.spec(grid), grid, A, seed)
    if key not in _ct_cache:
        h, tail = hormander_estimate(K, A, grid, cube_budget=24, k_max=6,
                                     seed=seed)
        l2 = operator_norm_l2(K, grid)
        _ct_cache[key] = {"hormander": h, "hormander_tail": tail,
                          "l2_norm": l2, "ct": h + l2}
    return _ct_cache[key]


def _local_data(T, f, b, m, A, Q0):
    """Per-node quantities: b's average over 3Q0, the norms of the splits
    g_h = |b - b_3Q0|^h f chi_3Q0, h = 0..m, and, stacked for the splits of
    positive norm (None if none is), |g_h| and the truncation maximal
    values on Q0's cells.  T is the prepared truncation(K, grid)."""
    grid = f.grid
    s3 = cube_slices(dilate(Q0, 3), grid)
    f3 = np.zeros(grid.shape)
    f3[s3] = f.cells[s3]
    b3 = float(b.cells[s3].mean())
    osc = np.abs(b.cells - b3)
    gs = np.stack([osc ** h * f3 for h in range(m + 1)])
    rows = gs[(slice(None),) + s3].reshape(m + 1, -1)  # a view in 1D
    norms = young.luxemburg_norm_batch(
        rows, np.broadcast_to(grid.cell_volume, rows.shape), A).tolist()
    live = [h for h, norm in enumerate(norms) if norm > 0]
    if not live:
        return b3, norms, None, None
    gs = gs[live]
    sl = (slice(None),) + cube_slices(Q0, grid)
    return b3, norms, np.abs(gs[sl]), grand_maximal_truncated(T, gs, Q0)[sl]


def _exceptional(g, mt, norm, alpha, ct):
    """Q's cells where, for some split h of norm N_h, |g_h| > alpha N_h or
    the truncation maximal value of g_h is > alpha ct N_h."""
    return ((g > alpha * norm) | (mt > alpha * ct * norm)).any(axis=0)


def build_sparse_family(K: Kernel, b: GridFunction, m: int,
                        A: young.YoungFunction, f: GridFunction, Q0: Cube,
                        seed: int = 0) -> SparseForm:
    """Stopping-time recursion producing a half-sparse family with
    certificates.

    At each node: the smallest power-of-two alpha (doubling from 1) whose
    exceptional set fills at most 2^-(n+2) of the node; its indicator is
    Calderon-Zygmund decomposed at height 2^-(n+1) into the children, whose
    total measure is then at most half the node.  The node keeps the witness
    set Q minus its children.  seed goes to estimate_ct.
    """
    if not 0 <= m <= MAX_ORDER:
        raise EngineError(f"commutator order must be in 0..{MAX_ORDER}")
    grid = f.grid
    n = grid.n
    ct_info = estimate_ct(K, A, grid, seed)
    ct = max(ct_info["ct"], 1e-12)
    T = truncation(K, grid)

    form = SparseForm(SparseFamily(grid, [], 0.5, certificate={}),
                      {}, {}, A, m, ct_components=dict(ct_info))
    stack = [Q0]
    while stack:
        q = stack.pop()
        if len(form.family.cubes) >= NODE_BUDGET:
            form.exhausted = True
            break
        b3, norms, g, mt = _local_data(T, f, b, m, A, q)
        form.family.cubes.append(q)
        form.coeffs[q] = tuple(norms)
        form.b_avgs[q] = b3

        children = []
        if q.side > 1 and g is not None:
            qcells = q.cell_count()
            target = qcells / float(1 << (n + 2))
            live = np.reshape([v for v in norms if v > 0], (-1,) + (1,) * n)
            alpha = 1.0
            while True:
                E = _exceptional(g, mt, live, alpha, ct)
                if E.sum() <= target or alpha >= ALPHA_CAP:
                    break
                alpha *= 2.0
            form.alphas[q] = alpha
            if E.sum() > target:
                # alpha cap hit without reaching the measure budget
                form.exhausted = True
            elif E.any():
                chi = np.zeros(grid.shape)
                chi[cube_slices(q, grid)] = E
                children = cz_decompose(GridFunction(grid, chi), q,
                                        1.0 / (1 << (n + 1)))
                kid_cells = sum(c.cell_count() for c in children)
                if kid_cells > qcells / 2:
                    raise EngineError("child measure exceeds half the node")
                form.child_fraction[q] = kid_cells / qcells
        witness = cube_mask(q, grid)
        for c in children:
            witness[cube_slices(c, grid)] = False
        form.family.certificate[q] = witness
        stack.extend(sorted(children, key=Cube.sort_key, reverse=True))
    form.family.cubes.sort(key=Cube.sort_key)
    return form


def sparse_form_eval(form: SparseForm, b: GridFunction) -> dict:
    """Cellwise sparse sums A^{m,h}(x) for each split h plus the
    binomial-weighted total."""
    grid = b.grid
    m = form.m
    per_h = [np.zeros(grid.shape) for _ in range(m + 1)]
    for q in form.family.cubes:
        sl = cube_slices(q, grid)
        bq = form.b_avgs[q]
        coef = form.coeffs[q]
        for h in range(m + 1):
            if coef[h] == 0.0:
                continue
            per_h[h][sl] += np.abs(b.cells[sl] - bq) ** (m - h) * coef[h]
    total = np.zeros(grid.shape)
    for h in range(m + 1):
        total += math.comb(m, h) * per_h[h]
    return {"per_h": [GridFunction(grid, a) for a in per_h],
            "total": GridFunction(grid, total)}


def domination_report(K: Kernel, b: GridFunction, m: int,
                      A: young.YoungFunction, f: GridFunction, Q0: Cube,
                      seed: int = 0) -> DominationReport:
    """Builds the family, evaluates the sparse form, and compares it
    cellwise against |T_b^m f| on Q0.  seed goes to estimate_ct."""
    grid = f.grid
    form = build_sparse_family(K, b, m, A, f, Q0, seed=seed)
    ev = sparse_form_eval(form, b)
    total = ev["total"].cells

    s3 = cube_slices(dilate(Q0, 3), grid)
    f3 = np.zeros(grid.shape)
    f3[s3] = f.cells[s3]
    center = form.b_avgs[Q0]
    t = commutator_apply(K, b, m, GridFunction(grid, f3),
                         center=center).cells

    sl = cube_slices(Q0, grid)
    tq = np.abs(t[sl])
    totq = total[sl]
    scale_t = float(tq.max()) if tq.size else 0.0
    scale_s = float(totq.max()) if totq.size else 0.0
    ratios = np.zeros(grid.shape)
    viol = []
    if scale_t > 0:
        pos = totq > 1e-14 * scale_s
        r = np.zeros_like(totq)
        r[pos] = tq[pos] / totq[pos]
        ratios[sl] = r
        bad = (~pos) & (tq > 1e-10 * scale_t)
        if bad.any():
            for idx in zip(*np.nonzero(bad)):
                viol.append(tuple(int(sl[d].start) + int(i)
                                  for d, i in enumerate(idx)))
    c_star = float(ratios[sl].max()) if tq.size else 0.0
    return DominationReport(c_star, GridFunction(grid, ratios), viol, form,
                            check_sparse(form.family),
                            GridFunction(grid, np.where(
                                cube_mask(Q0, grid), t, 0.0)),
                            ev["total"])
