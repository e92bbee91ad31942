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
from .operators import (CommutatorSpec, Kernel, commutator_apply,
                        grand_maximal_truncated, hormander_estimate,
                        operator_norm_l2)


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
    costs 0.1-0.6 s on 2 cores, and a domination sweep repeats each key
    for every commutator order and data profile (18 of the 27 calls of the
    benchmark's sweep hit).  seed draws the smoothness estimate's sample
    of cubes."""
    key = (K.spec(grid), grid, A, seed)
    if key not in _ct_cache:
        if K.matrix is not None:
            h, tail = 0.0, 0.0
        else:
            h, tail = hormander_estimate(K, A, grid, cube_budget=24, k_max=6,
                                         seed=seed)
        l2 = operator_norm_l2(K, grid)
        _ct_cache[key] = {"hormander": h, "hormander_tail": tail,
                          "l2_norm": l2, "ct": h + l2}
    return _ct_cache[key]


def _local_data(K, f, b, m, A, Q0):
    """Per-node quantities: 3Q0-clipped f, oscillation powers, norms and the
    truncation maximal values for each commutator split h."""
    grid = f.grid
    s3 = cube_slices(dilate(Q0, 3), grid)
    f3 = np.zeros(grid.shape)
    f3[s3] = f.cells[s3]
    b3 = float(b.cells[s3].mean())
    osc = np.abs(b.cells - b3)
    gs = [osc ** h * f3 for h in range(m + 1)]
    rows = np.stack([g[s3].ravel() for g in gs])
    norms = young.luxemburg_norm_batch(
        rows, np.full(rows.shape, grid.cell_volume), A).tolist()
    mts = [grand_maximal_truncated(K, GridFunction(grid, g), Q0).cells
           if norm > 0 else None for g, norm in zip(gs, norms)]
    return f3, b3, osc, norms, mts


def exceptional_set(K: Kernel, f: GridFunction, b: GridFunction, h: int,
                    Q0: Cube, alpha: float,
                    A: young.YoungFunction) -> np.ndarray:
    """Cells of Q0 where either the local product |b - b_3Q0|^h |f| or its
    truncation maximal exceeds alpha times the reference 3Q0 norm."""
    if alpha <= 0:
        raise EngineError("alpha must be positive")
    grid = f.grid
    ct = estimate_ct(K, A, grid)["ct"]
    f3, b3, osc, norms, mts = _local_data(K, f, b, h, A, Q0)
    return _exceptional_mask(grid, Q0, osc, f3, norms[h], mts[h], h,
                             alpha, ct)


def _exceptional_mask(grid, Q0, osc, f3, norm, mt, h, alpha, ct):
    mask = np.zeros(grid.shape, dtype=bool)
    if norm == 0.0:
        return mask
    sl = cube_slices(Q0, grid)
    local = osc[sl] ** h * np.abs(f3[sl])
    mask[sl] = local > alpha * norm
    mask[sl] |= mt[sl] > alpha * ct * norm
    return mask


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
    if not 0 <= m <= 4:
        raise EngineError("commutator order must be in 0..4")
    grid = f.grid
    n = grid.n
    ct_info = estimate_ct(K, A, grid, seed)
    ct = max(ct_info["ct"], 1e-12)

    form = SparseForm(SparseFamily(grid, [], 0.5, certificate={}),
                      {}, {}, A, m, ct_components=dict(ct_info))
    stack = [Q0]
    while stack:
        q = stack.pop()
        if len(form.family.cubes) >= NODE_BUDGET:
            form.exhausted = True
            break
        f3, b3, osc, norms, mts = _local_data(K, f, b, m, A, q)
        form.family.cubes.append(q)
        form.coeffs[q] = tuple(norms)
        form.b_avgs[q] = b3

        children = []
        if q.side > 1 and any(v > 0 for v in norms):
            qsl = cube_slices(q, grid)
            qcells = int(np.prod([s.stop - s.start for s in qsl]))
            target = qcells / float(1 << (n + 2))
            alpha = 1.0
            while True:
                E = np.zeros(grid.shape, dtype=bool)
                for h in range(m + 1):
                    if norms[h] > 0:
                        E |= _exceptional_mask(grid, q, osc, f3, norms[h],
                                               mts[h], h, alpha, ct)
                if E.sum() <= target or alpha >= ALPHA_CAP:
                    break
                alpha *= 2.0
            form.alphas[q] = alpha
            if E.sum() > target:
                # alpha cap hit without reaching the measure budget
                form.exhausted = True
                E = np.zeros(grid.shape, dtype=bool)
            if E.any():
                chi = GridFunction(grid, E.astype(float))
                children = cz_decompose(chi, q, 1.0 / (1 << (n + 1)))
                kid_cells = sum(c.cell_count() for c in children)
                if kid_cells > qcells / 2:
                    raise EngineError("child measure exceeds half the node")
                form.child_fraction[q] = kid_cells / qcells
        witness = cube_mask(q, grid)
        for c in children:
            witness &= ~cube_mask(c, grid)
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
    t = commutator_apply(K, CommutatorSpec(b, m), GridFunction(grid, f3),
                         center=center).cells

    sl = cube_slices(Q0, grid)
    tq = np.abs(t[sl])
    totq = total[sl]
    scale_t = float(tq.max()) if tq.size else 0.0
    scale_s = float(totq.max()) if totq.size else 0.0
    ratios = np.zeros(grid.shape)
    viol = []
    if scale_t > 0:
        pos = totq > 1e-14 * max(scale_s, 1.0)
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
