"""Geometry layer: grids, lattices, CZ decomposition, sparseness checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsedom import dyadic as dy

from oracles import brute_cz, descendants, grid_function, triple


def test_grid_rejects_bad_parameters():
    with pytest.raises(dy.GeometryError):
        dy.Grid(3, (0.0, 0.0, 0.0), 1.0, 4)
    with pytest.raises(dy.GeometryError):
        dy.Grid(1, (0.0,), 1.0, 0)
    with pytest.raises(dy.GeometryError):
        dy.Grid(1, (0.0,), -1.0, 4)


def test_grid_metrics(unit_grid):
    assert unit_grid.cells_per_side == 64
    assert unit_grid.cell_width == pytest.approx(1.0 / 64)
    assert unit_grid.cell_volume == pytest.approx(1.0 / 64)
    assert unit_grid.shape == (64,)
    g2 = dy.Grid(2, (0.0, 0.0), 2.0, 3)
    assert g2.shape == (8, 8)
    assert g2.cell_volume == pytest.approx(0.0625)


def test_cell_centers_midpoints(sym_grid):
    x = sym_grid.cell_centers(0)
    assert x[0] == pytest.approx(-0.5 + 0.5 / 64)
    assert np.allclose(np.diff(x), 1.0 / 64)


def test_children_partition_parent(unit_grid):
    q = unit_grid.root_cube()
    kids = dy.children(q)
    assert len(kids) == 2
    acc = np.zeros(unit_grid.shape, dtype=int)
    for c in kids:
        acc += dy.cube_mask(c, unit_grid).astype(int)
    assert np.array_equal(acc, dy.cube_mask(q, unit_grid).astype(int))

    g2 = dy.Grid(2, (0.0, 0.0), 1.0, 3)
    kids2 = dy.children(g2.root_cube())
    assert len(kids2) == 4
    acc2 = np.zeros(g2.shape, dtype=int)
    for c in kids2:
        acc2 += dy.cube_mask(c, g2).astype(int)
    assert np.all(acc2 == 1)


def test_children_stop_at_cells():
    cell = dy.Cube(dy.BASE, 4, (3,), 1)
    assert dy.children(cell) == []
    shifted = dy.Cube(0, 2, (0,), 12)
    with pytest.raises(dy.GeometryError):
        dy.children(shifted)


def test_lattice_counts(unit_grid):
    assert len(dy.build_lattices(unit_grid)) == 3
    g2 = dy.Grid(2, (0.0, 0.0), 1.0, 3)
    assert len(dy.build_lattices(g2)) == 9


@given(st.integers(0, 5), st.integers(0, 62))
def test_triple_lands_in_exactly_one_lattice(k, pos):
    grid = dy.Grid(1, (0.0,), 1.0, 6)
    s = 1 << (6 - k)
    origin = ((pos * s) % 64,)
    q = dy.Cube(dy.BASE, k, origin, s)
    t = triple(q, grid)
    hits = [lat for lat in dy.build_lattices(grid)
            if t in lat.cubes_at_level(k)]
    assert len(hits) == 1
    assert hits[0].lattice_id == t.lattice


@given(st.integers(0, 2), st.integers(0, 7), st.integers(0, 7))
def test_triple_unique_lattice_2d(k, i, j):
    grid = dy.Grid(2, (0.0, 0.0), 1.0, 3)
    s = 1 << (3 - k)
    q = dy.Cube(dy.BASE, k, ((i * s) % 8, (j * s) % 8), s)
    t = triple(q, grid)
    hits = [lat for lat in dy.build_lattices(grid)
            if t in lat.cubes_at_level(k)]
    assert len(hits) == 1


def test_dilate_margins():
    q = dy.Cube(dy.BASE, 3, (8,), 2)
    big = dy.dilate(q, 3)
    assert big.origin == (6,) and big.side == 6
    odd = dy.Cube(dy.BASE, 4, (8,), 1)
    with pytest.raises(dy.GeometryError):
        dy.dilate(odd, 2)


def test_grid_function_checks_shape(unit_grid):
    with pytest.raises(dy.GeometryError):
        dy.GridFunction(unit_grid, np.zeros(3))
    f = grid_function(unit_grid, lambda x: x * 0 + 1.0)
    with pytest.raises(ValueError):
        f.cells[0] = 2.0


def test_descendants_count(unit_grid):
    q = dy.Cube(dy.BASE, 4, (0,), 4)
    # levels 4, 5, 6: 1 + 2 + 4 cubes
    assert len(descendants(q, 6)) == 7


def test_base_cubes_count(unit_grid):
    got = dy.base_cubes(unit_grid)
    assert len(got) == sum(2 ** k for k in range(7))


def test_cubes_at_level_cover_domain(unit_grid):
    for lat in dy.build_lattices(unit_grid):
        cover = np.zeros(unit_grid.shape, dtype=int)
        for q in lat.cubes_at_level(2):
            cover += dy.cube_mask(q, unit_grid).astype(int)
        assert np.all(cover == 1)


# -- Calderon-Zygmund decomposition ------------------------------------------


def test_cz_matches_brute_force_oracle(unit_grid, rng):
    Q0 = unit_grid.root_cube()
    for _ in range(30):
        cells = np.zeros(unit_grid.shape)
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(2, 7))
            s = 1 << (6 - k)
            o = int(rng.integers(0, 64 // s)) * s
            cells[o:o + s] += float(rng.uniform(0.5, 3.0))
        g = dy.GridFunction(unit_grid, cells)
        lam = float(rng.uniform(0.05, 2.0))
        assert dy.cz_decompose(g, Q0, lam) == brute_cz(g, Q0, lam)


def test_cz_selected_averages_bracket(unit_grid, rng):
    # selected cubes exceed lam; their dyadic parents do not
    cells = rng.lognormal(0.0, 1.0, unit_grid.shape)
    g = dy.GridFunction(unit_grid, cells)
    Q0 = unit_grid.root_cube()
    lam = 2.0 * float(cells.mean())
    sel = dy.cz_decompose(g, Q0, lam)
    by_key = {q.sort_key(): q for q in descendants(Q0, unit_grid.level)}
    for q in sel:
        assert float(dy.cube_values(g, q).mean()) > lam
        if q.level > 0:
            parent = by_key[(dy.BASE, q.level - 1,
                             tuple(o - o % (2 * q.side) for o in q.origin))]
            assert float(dy.cube_values(g, parent).mean()) <= lam


def test_cz_root_selected_when_average_large(unit_grid):
    g = grid_function(unit_grid, lambda x: x * 0 + 5.0)
    Q0 = unit_grid.root_cube()
    assert dy.cz_decompose(g, Q0, 1.0) == [Q0]


def test_cz_rejects_bad_input(unit_grid):
    g = grid_function(unit_grid, lambda x: x * 0 + 1.0)
    Q0 = unit_grid.root_cube()
    with pytest.raises(dy.GeometryError):
        dy.cz_decompose(g, Q0, 0.0)
    neg = grid_function(unit_grid, lambda x: x - 0.5)
    with pytest.raises(dy.GeometryError):
        dy.cz_decompose(neg, Q0, 1.0)


# -- sparseness ---------------------------------------------------------------


def test_check_sparse_disjoint_family(unit_grid):
    halves = dy.children(unit_grid.root_cube())
    fam = dy.SparseFamily(unit_grid, halves, 1.0,
                          {q: dy.cube_mask(q, unit_grid) for q in halves})
    assert dy.check_sparse(fam).ok


def test_check_sparse_laminar_chain(unit_grid):
    # a cube and its left child, witnessed by the right child and by the
    # left child itself: each witness is half the root
    Q0 = unit_grid.root_cube()
    chain = [Q0, dy.children(Q0)[0]]
    cert = {Q0: dy.cube_mask(dy.children(Q0)[1], unit_grid),
            chain[1]: dy.cube_mask(chain[1], unit_grid)}
    ok_fam = dy.SparseFamily(unit_grid, chain, 0.5, cert)
    assert dy.check_sparse(ok_fam).ok
    # 0.75 |Q0| does not fit in the root's half
    bad_fam = dy.SparseFamily(unit_grid, chain, 0.75, cert)
    res = dy.check_sparse(bad_fam)
    assert not res.ok
    assert res.violating_cube is not None


def test_check_sparse_nonlaminar_needs_certificate(unit_grid):
    a = dy.Cube(dy.BASE, 1, (0,), 32)
    b = dy.Cube(1, 1, (16,), 48)  # overlaps a without nesting
    with pytest.raises(TypeError, match="certificate"):
        dy.SparseFamily(unit_grid, [a, b], 0.5)
    cells = np.arange(64)
    cert = {a: cells < 16, b: cells >= 16}
    assert dy.check_sparse(dy.SparseFamily(unit_grid, [a, b], 0.5, cert)).ok


def test_check_sparse_certificate_paths(unit_grid):
    Q0 = unit_grid.root_cube()
    left, right = dy.children(Q0)
    lm = dy.cube_mask(left, unit_grid)
    rm = dy.cube_mask(right, unit_grid)
    fam = dy.SparseFamily(unit_grid, [Q0, left], 0.5,
                          certificate={Q0: rm, left: lm})
    assert dy.check_sparse(fam).ok
    # witness outside its cube
    bad = dy.SparseFamily(unit_grid, [left], 0.5, certificate={left: rm})
    assert not dy.check_sparse(bad).ok
    # overlapping witnesses
    over = dy.SparseFamily(unit_grid, [Q0, left], 0.5,
                           certificate={Q0: lm, left: lm})
    assert not dy.check_sparse(over).ok
    # witness too small
    small = lm.copy()
    small[: lm.sum() - 4] = False
    tiny = dy.SparseFamily(unit_grid, [left], 0.5, certificate={left: small})
    assert not dy.check_sparse(tiny).ok
    # missing entry
    miss = dy.SparseFamily(unit_grid, [Q0, left], 0.5, certificate={Q0: rm})
    assert not dy.check_sparse(miss).ok


def test_check_sparse_empty(unit_grid):
    assert dy.check_sparse(dy.SparseFamily(unit_grid, [], 0.5, {})).ok
