"""Independent check of one flow's output placement.

Written against the placement rules and the contest score formula
directly, with its own NumPy code: nothing here imports ``repro``.  The
harness hands over plain arrays (:class:`Netlist` from the input files,
:class:`Placement` from the flow's final node positions) and the numbers
the flow reported; :func:`check_flow` returns one message per violation,
so an empty list means the output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Node kinds as the checker sees them.
CELL = 0     # movable standard cell: must sit on a row, on a site
MACRO = 1    # movable macro
BLOCK = 2    # fixed node with a footprint (fixed macro, I/O pad)
PIN_ONLY = 3  # fixed pin without a footprint

# Contest penalty: 3% of HPWL per percentage point of RC above 100%.
PENALTY_PER_PERCENT = 0.03

# Rotation part of each orientation, counter-clockwise quarter turns,
# as (a, b, c, d) of [[a, b], [c, d]]; a flip negates x first.
_ROTATIONS = np.array(
    [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)], dtype=float
)


@dataclass
class Netlist:
    """What the input files fix: sizes, kinds, pins, rows, fences."""

    width: np.ndarray       # node width in the unrotated orientation
    height: np.ndarray
    kind: np.ndarray        # CELL / MACRO / BLOCK / PIN_ONLY per node
    fence: np.ndarray       # fence index per node, -1 if unconstrained
    pin_node: np.ndarray    # pins in net order
    pin_dx: np.ndarray      # offset from the node centre, unrotated
    pin_dy: np.ndarray
    net_ptr: np.ndarray     # pins of net n: net_ptr[n]:net_ptr[n+1]
    net_weight: np.ndarray
    rows: np.ndarray        # (R, 5): y, height, x_min, site_width, num_sites
    fence_rects: list       # per fence, an (k, 4) array of xl, yl, xh, yh


@dataclass
class Placement:
    """What the flow decided: lower-left corners and orientations."""

    x: np.ndarray
    y: np.ndarray
    rotation: np.ndarray    # quarter turns, 0..3
    flipped: np.ndarray     # mirrored about the y axis before rotating


def placed_sizes(net: Netlist, pl: Placement):
    """Outline width and height on the die."""
    swap = pl.rotation % 2 == 1
    return np.where(swap, net.height, net.width), np.where(swap, net.width, net.height)


def pin_positions(net: Netlist, pl: Placement):
    """Absolute pin coordinates under each node's orientation."""
    w, h = placed_sizes(net, pl)
    node = net.pin_node
    dx = np.where(pl.flipped[node], -net.pin_dx, net.pin_dx)
    a, b, c, d = _ROTATIONS[pl.rotation[node]].T
    px = pl.x[node] + w[node] / 2.0 + a * dx + b * net.pin_dy
    py = pl.y[node] + h[node] / 2.0 + c * dx + d * net.pin_dy
    return px, py


def weighted_hpwl(net: Netlist, pl: Placement) -> float:
    """Sum over nets of weight x (bounding-box width + height) of the pins."""
    px, py = pin_positions(net, pl)
    starts = net.net_ptr[:-1]
    nonempty = np.diff(net.net_ptr) > 0
    if not nonempty.any():
        return 0.0
    idx = starts[nonempty]
    span = (
        np.maximum.reduceat(px, idx) - np.minimum.reduceat(px, idx)
        + np.maximum.reduceat(py, idx) - np.minimum.reduceat(py, idx)
    )
    return float(np.dot(net.net_weight[nonempty], span))


def scaled_hpwl(hpwl: float, rc: float) -> float:
    """The contest score: HPWL times the routing-congestion penalty."""
    return hpwl * (1.0 + PENALTY_PER_PERCENT * max(0.0, (rc - 1.0) * 100.0))


def _overlap(a, b, tol: float) -> np.ndarray:
    """Pairwise positive-area overlap of two (n, 4) / (m, 4) rect arrays."""
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    return (w > tol) & (h > tol)


def check_cells_on_rows(net: Netlist, pl: Placement, tol: float = 1e-6) -> list:
    """Cells on a row, on a site, inside the row, and not overlapping."""
    out = []
    cells = np.flatnonzero(net.kind == CELL)
    if not len(cells):
        return out
    w, h = placed_sizes(net, pl)
    rows = net.rows[np.argsort(net.rows[:, 0])]
    x, y, cw = pl.x[cells], pl.y[cells], w[cells]
    r = np.clip(np.searchsorted(rows[:, 0], y - tol), 0, len(rows) - 1)
    on_row = np.abs(rows[r, 0] - y) <= tol
    x_min, site, sites = rows[r, 2], rows[r, 3], rows[r, 4]
    phase = (x - x_min) / site
    on_site = np.abs(phase - np.rint(phase)) <= 1e-4
    inside = (x >= x_min - tol) & (x + cw <= x_min + sites * site + tol)
    for i in np.flatnonzero(~(on_row & on_site & inside))[:20]:
        out.append(
            f"cell {cells[i]} at ({x[i]:.4f}, {y[i]:.4f}) is off its row or site"
        )
    # Overlap sweep per row: each cell covers the rows its height spans.
    span = np.maximum(1, np.rint(h[cells] / rows[r, 1]).astype(np.int64))
    rep = np.repeat(np.arange(len(cells)), span)
    row_of = np.repeat(r, span) + (np.arange(len(rep)) - np.repeat(np.cumsum(span) - span, span))
    order = np.lexsort((x[rep], row_of))
    rep, row_of = rep[order], row_of[order]
    same_row = row_of[1:] == row_of[:-1]
    clash = same_row & (x[rep[:-1]] + cw[rep[:-1]] > x[rep[1:]] + tol)
    for k in np.flatnonzero(clash)[:20]:
        out.append(f"cells {cells[rep[k]]} and {cells[rep[k + 1]]} overlap")
    # Cells against macros and fixed footprints.
    big = np.flatnonzero((net.kind == MACRO) | (net.kind == BLOCK))
    if len(big):
        cr = np.stack([x, y, x + cw, y + h[cells]], axis=1)
        br = np.stack([pl.x[big], pl.y[big], pl.x[big] + w[big], pl.y[big] + h[big]], axis=1)
        ci, bi = np.nonzero(_overlap(cr, br, tol))
        for i, j in list(zip(ci, bi))[:20]:
            out.append(f"cell {cells[i]} overlaps macro or blockage {big[j]}")
    return out


def check_macros(net: Netlist, pl: Placement, tol: float = 1e-6) -> list:
    """Movable macros overlap no other macro or fixed footprint."""
    w, h = placed_sizes(net, pl)
    big = np.flatnonzero((net.kind == MACRO) | (net.kind == BLOCK))
    rects = np.stack([pl.x[big], pl.y[big], pl.x[big] + w[big], pl.y[big] + h[big]], axis=1)
    hit = np.triu(_overlap(rects, rects, tol), k=1)
    movable = net.kind[big] == MACRO
    hit &= movable[:, None] | movable[None, :]
    return [f"macros {big[i]} and {big[j]} overlap" for i, j in zip(*np.nonzero(hit))]


def check_fences(net: Netlist, pl: Placement, tol: float = 1e-6) -> list:
    """Every fence member lies inside one of its fence's rectangles."""
    out = []
    w, h = placed_sizes(net, pl)
    members = np.flatnonzero((net.fence >= 0) & ((net.kind == CELL) | (net.kind == MACRO)))
    for i in members:
        rects = net.fence_rects[net.fence[i]]
        inside = (
            (pl.x[i] >= rects[:, 0] - tol)
            & (pl.y[i] >= rects[:, 1] - tol)
            & (pl.x[i] + w[i] <= rects[:, 2] + tol)
            & (pl.y[i] + h[i] <= rects[:, 3] + tol)
        )
        if not inside.any():
            out.append(f"node {i} lies outside fence {net.fence[i]}")
    return out


def check_flow(
    net: Netlist, pl: Placement, *, hpwl: float, rc: float, scaled: float,
    rtol: float = 1e-6,
) -> list:
    """Every violation of the placement rules or of the reported score."""
    out = check_cells_on_rows(net, pl) + check_macros(net, pl) + check_fences(net, pl)
    own = weighted_hpwl(net, pl)
    if not np.isclose(own, hpwl, rtol=rtol, atol=0.0):
        out.append(f"reported hpwl {hpwl!r} but the positions give {own!r}")
    own_scaled = scaled_hpwl(own, rc)
    if not np.isclose(own_scaled, scaled, rtol=rtol, atol=0.0):
        out.append(f"reported scaled_hpwl {scaled!r} but hpwl and rc give {own_scaled!r}")
    return out
