"""SVG rendering of a placement: canvas, grid lines, macros, clusters, ports."""

from __future__ import annotations

from .geometry import Grid
from .netlist import NODE_KINDS, Netlist, NodeKind, Placement, write_text

_STYLE = (
    "<style>"
    ".canvas{fill:#fdfdf6;stroke:#333;stroke-width:1.5}"
    ".gridline{stroke:#ccc;stroke-width:0.5}"
    ".macro{fill:#7da7d9;stroke:#29427a;stroke-width:1;fill-opacity:0.85}"
    ".fixedmacro{fill:#b8b8b8;stroke:#555;stroke-width:1;fill-opacity:0.9}"
    ".cluster{fill:#e8a87c;stroke:#a04000;stroke-width:0.8;fill-opacity:0.45}"
    ".port{stroke:#c0392b;stroke-width:2}"
    ".label{font:10px sans-serif;fill:#222}"
    "</style>"
)


def write_svg(netlist: Netlist, placement: Placement, path,
              grid: Grid | None = None, width_px: float = 1000.0,
              labels: bool = False) -> None:
    """Render placed nodes to an SVG file.

    Movable macros are filled rectangles (class "macro"), fixed macros grey
    (class "fixedmacro"), clusters translucent (class "cluster"), ports short
    cross ticks (class "port"). Nodes missing from the placement are skipped.
    """
    cv = netlist.canvas
    scale = width_px / cv.width
    h_px = cv.height * scale

    def sx(x: float) -> float:
        return x * scale

    def sy(y: float) -> float:
        return h_px - y * scale  # flip: canvas y grows upward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width_px:.1f} {h_px:.1f}">',
        _STYLE,
        f'<rect class="canvas" x="0" y="0" width="{width_px:.1f}" height="{h_px:.1f}"/>',
    ]
    if grid is not None:
        for c in range(1, grid.n_cols):
            x = sx(c * grid.cell_w)
            parts.append(f'<line class="gridline" x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{h_px:.1f}"/>')
        for r in range(1, grid.n_rows):
            y = sy(r * grid.cell_h)
            parts.append(f'<line class="gridline" x1="0" y1="{y:.2f}" x2="{width_px:.1f}" y2="{y:.2f}"/>')
    tick = max(3.0, 0.004 * width_px)
    a = netlist.arrays
    for name, k, width, height, movable in zip(a.names, a.kind.tolist(), a.width.tolist(),
                                               a.height.tolist(), a.movable.tolist()):
        pose = placement.get(name)
        if pose is None:
            continue
        kind = NODE_KINDS[k]
        if kind == NodeKind.PORT:
            x, y = sx(pose.x), sy(pose.y)
            parts.append(f'<line class="port" x1="{x - tick:.2f}" y1="{y:.2f}" x2="{x + tick:.2f}" y2="{y:.2f}"/>')
            parts.append(f'<line class="port" x1="{x:.2f}" y1="{y - tick:.2f}" x2="{x:.2f}" y2="{y + tick:.2f}"/>')
            continue
        cls = ("macro" if movable else "fixedmacro") if kind == NodeKind.MACRO else "cluster"
        x = sx(pose.x - width / 2.0)
        y = sy(pose.y + height / 2.0)
        w = width * scale
        h = height * scale
        parts.append(f'<rect class="{cls}" x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"/>')
        if labels:
            parts.append(f'<text class="label" x="{x + 2:.2f}" y="{y + 11:.2f}">{name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
