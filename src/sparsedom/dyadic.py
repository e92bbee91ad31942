"""Grids, dyadic cubes, shifted lattices, Calderon-Zygmund decomposition and
sparse families with explicit cell-level certificates.

Geometry is exact: every cube is an axis-parallel box in integer cell
coordinates on a 2^L-per-side grid.  A cube of the base lattice at level k
has side 2^(L-k) cells; a cube of a shifted lattice has side 3*2^(L-k) cells
with origin congruent to d*2^(L-k) modulo 3*2^(L-k) per axis, for a digit
vector d in {0,1,2}^n.  Tripled cubes 3Q of base cubes land exactly in one
shifted lattice, which is the point of carrying them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

BASE = -1  # lattice id of the plain dyadic lattice


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic grid over a root cube in dimension n in {1, 2}."""

    n: int
    origin: tuple  # real coordinates of the root corner
    side: float    # real side length of the root
    level: int     # cells per side = 2**level

    def __post_init__(self):
        if self.n not in (1, 2):
            raise GeometryError("dimension must be 1 or 2")
        if self.level < 1:
            raise GeometryError("level must be >= 1")
        if self.side <= 0:
            raise GeometryError("root side must be positive")
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))

    @property
    def cells_per_side(self) -> int:
        return 1 << self.level

    @property
    def cell_width(self) -> float:
        return self.side / self.cells_per_side

    @property
    def cell_volume(self) -> float:
        return self.cell_width ** self.n

    @property
    def shape(self) -> tuple:
        return (self.cells_per_side,) * self.n

    def root_cube(self) -> "Cube":
        return Cube(BASE, 0, (0,) * self.n, self.cells_per_side)

    def cell_centers(self, axis: int = 0) -> np.ndarray:
        N = self.cells_per_side
        return self.origin[axis] + (np.arange(N) + 0.5) * self.cell_width


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube in integer cell coordinates.

    lattice: BASE for the plain dyadic lattice, else the shifted-lattice id
    in {0..3^n-1}.  Coordinates may exit [0, 2^L); callers clip with
    cube_slices when reading grid data.
    """

    lattice: int
    level: int
    origin: tuple
    side: int

    @property
    def n(self) -> int:
        return len(self.origin)

    def cell_count(self) -> int:
        return self.side ** self.n

    def length(self, grid: Grid) -> float:
        return self.side * grid.cell_width

    def sort_key(self):
        return (self.lattice, self.level, self.origin)

    def __str__(self):
        coords = ",".join(str(c) for c in self.origin)
        return f"[{self.lattice}:{self.level}:({coords})]"


def cube_slices(cube: Cube, grid: Grid) -> tuple:
    """Clipping slices of the cube's cells inside the root domain."""
    N = grid.cells_per_side
    return tuple(slice(max(c, 0), min(c + cube.side, N))
                 for c in cube.origin)


def cube_values(f: "GridFunction", cube: Cube) -> np.ndarray:
    return f.cells[cube_slices(cube, f.grid)]


def cube_mask(cube: Cube, grid: Grid) -> np.ndarray:
    m = np.zeros(grid.shape, dtype=bool)
    m[cube_slices(cube, grid)] = True
    return m


def is_clipped(cube: Cube, grid: Grid) -> bool:
    N = grid.cells_per_side
    return any(c < 0 or c + cube.side > N for c in cube.origin)


def children(cube: Cube) -> list:
    """The 2^n dyadic children of a base-lattice cube."""
    if cube.lattice != BASE:
        raise GeometryError("children are defined on the base lattice")
    if cube.side == 1:
        return []
    h = cube.side // 2
    out = []
    for offs in product((0, 1), repeat=cube.n):
        o = tuple(c + d * h for c, d in zip(cube.origin, offs))
        out.append(Cube(BASE, cube.level + 1, o, h))
    return out


def dilate(cube: Cube, factor: int) -> Cube:
    """Concentric dilate 2^k Q; requires integer half-margins."""
    extra = (factor - 1) * cube.side
    if extra % 2:
        raise GeometryError("dilation not representable in cells")
    h = extra // 2
    return Cube(cube.lattice, cube.level,
                tuple(c - h for c in cube.origin), factor * cube.side)


@dataclass(frozen=True)
class GridFunction:
    """Cell-averaged samples on a grid; the universal function container."""

    grid: Grid
    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells, dtype=float)
        if arr.shape != self.grid.shape:
            raise GeometryError(
                f"cell array shape {arr.shape} != grid shape {self.grid.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)


# -- shifted lattices ---------------------------------------------------------


@dataclass(frozen=True)
class DyadicLattice:
    """One of the 3^n shifted lattices over a grid.

    Level-k members have side 3*2^(L-k) cells and origins congruent to
    digit*2^(L-k) modulo the side, per axis.
    """

    grid: Grid
    lattice_id: int
    digits: tuple

    def cubes_at_level(self, k: int) -> list:
        """Members meeting the root domain, clipped reads via cube_slices."""
        N = self.grid.cells_per_side
        s = 1 << (self.grid.level - k)
        side = 3 * s
        out = []
        axes = []
        for d in self.digits:
            # smallest origin o = d*s mod side with o + side > 0
            first = d * s - side if d > 0 else 0
            axes.append(range(first, N, side))
        for origin in product(*axes):
            out.append(Cube(self.lattice_id, k, origin, side))
        return out


def build_lattices(grid: Grid) -> list:
    """The 3^n shifted lattices; 3Q of any base cube is a member of exactly
    one of them."""
    out = []
    for digits in product((0, 1, 2), repeat=grid.n):
        lat = 0
        for d in digits:
            lat = lat * 3 + d
        out.append(DyadicLattice(grid, lat, digits))
    out.sort(key=lambda d: d.lattice_id)
    return out


def base_cubes(grid: Grid, min_level: int = 0) -> list:
    """All base-lattice cubes from min_level down to cell level."""
    out = []
    N = grid.cells_per_side
    for k in range(min_level, grid.level + 1):
        s = 1 << (grid.level - k)
        for origin in product(range(0, N, s), repeat=grid.n):
            out.append(Cube(BASE, k, origin, s))
    return out


def scope_cubes(grid: Grid, shifted: bool = True) -> list:
    """Supremum scope: base cubes at all levels, plus (optionally) every
    shifted-lattice cube meeting the domain, in deterministic order."""
    out = base_cubes(grid)
    if shifted:
        for lat in build_lattices(grid):
            for k in range(0, grid.level + 1):
                out.extend(lat.cubes_at_level(k))
    return out


def scope_tilings(grid: Grid, k: int, shifted: bool) -> list:
    """The tilings of level k in the scope of scope_cubes, as (side, origin)
    in cell coordinates: the base tiling (side s = 2^(L-k), origin 0), then
    with shifted lattices the 3^n tilings of side 3s whose origin is 0, -2s
    or -s per axis (digits 0, 1, 2), in lattice-id order.  Each tiling
    covers the domain once."""
    s = 1 << (grid.level - k)
    out = [(s, (0,) * grid.n)]
    if shifted:
        out += [(3 * s, o) for o in product((0, -2 * s, -s), repeat=grid.n)]
    return out


def scope_blocks(grid: Grid, shifted: bool, *arrays):
    """The cubes of scope_cubes per level, root first, and per tiling of
    scope_tilings: yields (split, mask, *blocks), split the tiling's
    (cubes, side) per axis.

    Blocks hold the arrays over the tiling as (cubes, side**n), each row in
    the cube's row-major cell order; cells outside the domain read 0, and
    mask is 1 on domain cells and 0 on them.  With shifted lattices, per
    level of side s, each array is copied once into a zero frame with
    margins 2s before and 3s after the domain on every axis, and every
    tiling is a reshape of that frame; without them a block is a view of
    the array where the reshape allows (every level in 1D).  The base
    tiling's mask is a read-only slice of one np.broadcast_to(1.0, ...);
    a shifted tiling, clipped since 3s does not divide the domain's side,
    has its block of a zero-one frame.  Blocks may not be written to.
    """
    n, N = grid.n, grid.cells_per_side
    axes = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    ones = np.broadcast_to(1.0, (N ** n,) * 2)  # a slice costs less
    for k in range(grid.level + 1):
        s = 1 << (grid.level - k)
        lo, hi = (2 * s, 3 * s) if shifted else (0, 0)
        shape, dom = (lo + N + hi,) * n, (slice(lo, lo + N),) * n
        frames, mask = arrays, None
        if shifted:
            frames = []
            for a in arrays:
                fr = np.zeros(shape)
                fr[dom] = a
                frames.append(fr)
        for side, origin in scope_tilings(grid, k, shifted):
            # per axis, the cubes of this tiling that meet the domain
            counts = [-(-(N - o) // side) for o in origin]
            split = [x for c in counts for x in (c, side)]
            win = tuple(slice(lo + o, lo + o + c * side)
                        for o, c in zip(origin, counts))
            rows = (-1, side ** n)
            if side == s:  # the base tiling, inside the domain
                m = ones[:math.prod(counts), :rows[1]]
            else:
                if mask is None:
                    mask = np.zeros(shape)
                    mask[dom] = 1.0
                m = mask[win].reshape(split).transpose(axes).reshape(rows)
            yield (split, m, *[fr[win].reshape(split).transpose(axes)
                               .reshape(rows) for fr in frames])


def spread_max(out: np.ndarray, split: list, values: np.ndarray) -> None:
    """Raises out, at each cell, to the value of the cube of split that
    contains it (values: one per cube, in block order)."""
    view = out.reshape(split)
    np.maximum(view, values.reshape([x for c in split[::2] for x in (c, 1)]),
               out=view)


def block_mean(mask: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Per-cube averages over the domain cells of a block of
    scope_blocks."""
    return (block * mask).sum(axis=1) / mask.sum(axis=1)


# -- Calderon-Zygmund decomposition ------------------------------------------


def cz_decompose(g: GridFunction, Q0: Cube, lam: float) -> list:
    """Maximal dyadic subcubes P of Q0 with average of g over P above lam.

    g must be nonnegative.  If the average over Q0 already exceeds lam, Q0
    itself is returned.  Selection stops at single cells.
    """
    if lam <= 0:
        raise GeometryError("height must be positive")
    vals = cube_values(g, Q0)
    if np.any(vals < 0):
        raise GeometryError("cz_decompose requires g >= 0")
    out = []
    stack = [Q0]
    while stack:
        q = stack.pop()
        avg = float(cube_values(g, q).mean())
        if avg > lam:
            out.append(q)
        elif avg > 0 and q.side > 1:
            stack.extend(reversed(children(q)))
    out.sort(key=Cube.sort_key)
    return out


# -- sparse families ----------------------------------------------------------


@dataclass
class SparseFamily:
    """Cubes with an eta-sparseness claim; certificate maps each cube to its
    disjoint witness cell set (a boolean grid mask)."""

    grid: Grid
    cubes: list
    eta: float
    certificate: dict


@dataclass
class SparseCheck:
    ok: bool
    reason: str
    violating_cube: Cube | None = None


def check_sparse(family: SparseFamily) -> SparseCheck:
    """Verify eta-sparseness exactly at cell resolution, against the
    family's certificate: containment, pairwise disjointness and the
    measure bound, cube by cube."""
    grid = family.grid
    used = np.zeros(grid.shape, dtype=bool)
    for q in family.cubes:
        if q not in family.certificate:
            return SparseCheck(False, "missing certificate entry", q)
        eq = family.certificate[q]
        qmask = cube_mask(q, grid)
        if np.any(eq & ~qmask):
            return SparseCheck(False, "witness set not inside its cube", q)
        if np.any(eq & used):
            return SparseCheck(False, "witness sets overlap", q)
        used |= eq
        if eq.sum() < family.eta * qmask.sum():
            return SparseCheck(False, "witness set too small", q)
    return SparseCheck(True, "certificate verified")
