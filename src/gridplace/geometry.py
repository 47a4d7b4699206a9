"""Uniform placement grid, cell geometry, and legality predicates.

The canvas is divided into n_cols x n_rows equal cells. Cell (0, 0) is the
lower-left cell; cell centers are ((col + 0.5) * cell_w, (row + 0.5) * cell_h).
Each cell owns two routing boundaries: its right edge (horizontal routing,
capacity h_capacity tracks) and its top edge (vertical routing, v_capacity).

Legality: a macro's bounding box must lie inside the canvas and may touch,
but not positively overlap, other macros' boxes. Comparisons use a relative
epsilon of 1e-9 of the canvas extent so that cell-aligned placements are not
rejected over last-ulp noise. `MacroState` is the one implementation of this
predicate; the initializers, the annealer and `placement_is_legal` all use
it. A move is an index array checked by one `legal_centers` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, OutOfRange
from .netlist import Canvas, Netlist, Node, Placement, PlacementState, Pose

EPS_FRAC = 1e-9


@dataclass(frozen=True)
class Grid:
    canvas: Canvas
    n_cols: int
    n_rows: int
    h_capacity: float
    v_capacity: float

    @property
    def cell_w(self) -> float:
        return self.canvas.width / self.n_cols

    @property
    def cell_h(self) -> float:
        return self.canvas.height / self.n_rows

    @property
    def n_cells(self) -> int:
        return self.n_cols * self.n_rows

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            raise OutOfRange(f"cell ({col}, {row}) outside {self.n_cols} x {self.n_rows} grid")
        return (col + 0.5) * self.cell_w, (row + 0.5) * self.cell_h

    def cell_of_point(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing a point; points on the far edges map inward."""
        col = min(max(int(math.floor(x / self.cell_w)), 0), self.n_cols - 1)
        row = min(max(int(math.floor(y / self.cell_h)), 0), self.n_rows - 1)
        return col, row

    def cells_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`cell_of_point` of finite points, as column and row arrays."""
        col = np.clip(np.floor(x / self.cell_w), 0, self.n_cols - 1).astype(np.intp)
        row = np.clip(np.floor(y / self.cell_h), 0, self.n_rows - 1).astype(np.intp)
        return col, row

    @property
    def tol(self) -> float:
        return EPS_FRAC * max(self.canvas.width, self.canvas.height)


def build_grid(
    canvas: Canvas,
    n_cols: int = 32,
    n_rows: int = 32,
    h_capacity: float | None = None,
    v_capacity: float | None = None,
) -> Grid:
    """Construct a grid over the canvas.

    Capacities default to 10 tracks per unit boundary length: the right edge of
    a cell is cell_h long, the top edge cell_w.
    """
    if n_cols < 1 or n_rows < 1:
        raise InvalidDimension(f"grid needs at least one cell, got {n_cols} x {n_rows}")
    cell_h = canvas.height / n_rows
    cell_w = canvas.width / n_cols
    if h_capacity is None:
        h_capacity = 10.0 * cell_h
    if v_capacity is None:
        v_capacity = 10.0 * cell_w
    if not all(c > 0 and math.isfinite(c) for c in (h_capacity, v_capacity)):
        raise InvalidDimension(f"capacities must be positive and finite, got {h_capacity}, {v_capacity}")
    return Grid(canvas, n_cols, n_rows, h_capacity, v_capacity)


def node_bbox(node: Node, pose: Pose) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) of the node's outline at the given center pose.

    Orientation never changes the outline because widths/heights are preserved
    by all four mirrorings.
    """
    hw, hh = node.width / 2.0, node.height / 2.0
    return pose.x - hw, pose.y - hh, pose.x + hw, pose.y + hh


def bbox_inside_canvas(bbox, canvas: Canvas, tol: float = 0.0) -> bool:
    x1, y1, x2, y2 = bbox
    return x1 >= -tol and y1 >= -tol and x2 <= canvas.width + tol and y2 <= canvas.height + tol


class MacroState:
    """The legality predicate over the macros (fixed ones included) of a
    placement state.

    Node indices select macros; moves read and write the state's own `x` and
    `y`. An unplaced macro has NaN coordinates. NaN fails every comparison,
    so an unplaced macro blocks nothing and is never legal itself.
    """

    def __init__(self, netlist: Netlist, grid: Grid, placement: PlacementState, require_fixed=True):
        a = placement.arrays
        self.placement = placement
        self.macros = np.flatnonzero(a.is_macro)
        self.movable_idx = np.flatnonzero(a.is_macro & a.movable)
        self.hw = a.half_w[self.macros]
        self.hh = a.half_h[self.macros]
        self.canvas = netlist.canvas
        self.tol = grid.tol
        if require_fixed:
            placement.require(a.is_macro & ~a.movable, "fixed macro")

    def legal_centers(self, i, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """For each candidate center (cx[k], cy[k]) of macro node i, or of
        node i[k] when i is an array, whether it is in-canvas and
        overlap-free against the other macros where they are."""
        p = self.placement
        i = np.asarray(i).reshape(-1, 1)
        hw, hh = p.arrays.half_w[i], p.arrays.half_h[i]
        cx, cy = cx[:, None], cy[:, None]
        t = self.tol
        ok = ((cx - hw >= -t) & (cx + hw <= self.canvas.width + t)
              & (cy - hh >= -t) & (cy + hh <= self.canvas.height + t))
        ox = (self.hw + hw) - np.abs(p.x[self.macros] - cx)
        oy = (self.hh + hh) - np.abs(p.y[self.macros] - cy)
        hit = (ox > t) & (oy > t) & (self.macros != i)
        return ok[:, 0] & ~hit.any(axis=1)

    def try_moves(self, ids: np.ndarray, xs, ys):
        """Move macro nodes `ids` to centers (xs, ys), checked in one
        `legal_centers` call. Returns the function that restores their
        coordinates, or None, with the state unchanged, if one is illegal."""
        p = self.placement
        old_x, old_y = p.x[ids], p.y[ids]

        def undo():
            p.x[ids], p.y[ids] = old_x, old_y
        p.x[ids], p.y[ids] = xs, ys
        if self.legal_centers(ids, p.x[ids], p.y[ids]).all():
            return undo
        undo()
        return None


def placement_is_legal(netlist: Netlist, placement: Placement, grid: Grid) -> bool:
    """Every movable macro is placed, in-canvas and overlap-free against all
    other placed macros."""
    st = MacroState(netlist, grid, PlacementState.of(netlist.arrays, placement), require_fixed=False)
    ids = st.movable_idx
    return bool(st.legal_centers(ids, st.placement.x[ids], st.placement.y[ids]).all())
