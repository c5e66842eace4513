"""Minimal deterministic SVG plots.

Hand-rolled so output is byte-identical across reruns: no timestamps, no
generated ids, fixed float formatting, no external assets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _f(x: float) -> str:
    return format(float(x), ".6g")


@dataclass
class LinePlot:
    """Polyline plot with optional vertical markers and a legend."""

    title: str = ""
    xlabel: str = "x"
    ylabel: str = "y"
    width: int = 720
    height: int = 460
    curves: list = field(default_factory=list)   # (label, [(x, y), ...])
    markers: list = field(default_factory=list)  # (label, x, y)

    def add_curve(self, label: str, points) -> None:
        self.curves.append((label, [(float(x), float(y)) for x, y in points]))

    def add_marker(self, label: str, x: float, y: float) -> None:
        self.markers.append((label, float(x), float(y)))

    # ------------------------------------------------------------- rendering

    def _bounds(self):
        xs = [x for _, pts in self.curves for x, _ in pts] + [x for _, x, _ in self.markers]
        ys = [y for _, pts in self.curves for _, y in pts] + [y for _, _, y in self.markers]
        if not xs:  # density --t '' plots no curve
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(min(ys), 0.0), max(ys)
        pad_y = 0.06 * (y1 - y0)
        return x0, x1, y0, y1 + pad_y

    def render(self) -> str:
        left, right, top, bottom = 62, 18, 34, 46
        pw = self.width - left - right
        ph = self.height - top - bottom
        x0, x1, y0, y1 = self._bounds()

        def sx(x: float) -> float:
            return left + (x - x0) / (x1 - x0) * pw

        def sy(y: float) -> float:
            return top + (y1 - y) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            f'<text x="{left}" y="20" font-family="monospace" font-size="13">'
            f'{self.title}</text>',
        ]
        # axes
        out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" '
                   f'y2="{top + ph}" stroke="black" stroke-width="1"/>')
        # ticks (5 per axis)
        for i in range(6):
            xv = x0 + i * (x1 - x0) / 5
            yv = y0 + i * (y1 - y0) / 5
            px, py = sx(xv), sy(yv)
            out.append(f'<line x1="{_f(px)}" y1="{top + ph}" x2="{_f(px)}" '
                       f'y2="{top + ph + 4}" stroke="black"/>')
            out.append(f'<text x="{_f(px)}" y="{top + ph + 17}" font-family="monospace" '
                       f'font-size="10" text-anchor="middle">{_f(xv)}</text>')
            out.append(f'<line x1="{left - 4}" y1="{_f(py)}" x2="{left}" '
                       f'y2="{_f(py)}" stroke="black"/>')
            out.append(f'<text x="{left - 7}" y="{_f(py + 3)}" font-family="monospace" '
                       f'font-size="10" text-anchor="end">{_f(yv)}</text>')
        out.append(f'<text x="{left + pw // 2}" y="{self.height - 8}" '
                   f'font-family="monospace" font-size="11" text-anchor="middle">'
                   f'{self.xlabel}</text>')
        out.append(f'<text x="14" y="{top + ph // 2}" font-family="monospace" '
                   f'font-size="11" text-anchor="middle" '
                   f'transform="rotate(-90 14 {top + ph // 2})">{self.ylabel}</text>')
        # curves
        for k, (label, pts) in enumerate(self.curves):
            color = _PALETTE[k % len(_PALETTE)]
            path = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
            ly = top + 14 + 14 * k
            out.append(f'<line x1="{left + pw - 130}" y1="{ly - 4}" '
                       f'x2="{left + pw - 108}" y2="{ly - 4}" stroke="{color}" '
                       f'stroke-width="1.6"/>')
            out.append(f'<text x="{left + pw - 103}" y="{ly}" font-family="monospace" '
                       f'font-size="10">{label}</text>')
        # markers (atoms): stem plus dot, annotated with label
        for k, (label, x, y) in enumerate(self.markers):
            color = _PALETTE[(len(self.curves) + k) % len(_PALETTE)]
            px, ptop = _f(sx(x)), _f(sy(y))
            out.append(f'<line x1="{px}" y1="{_f(sy(0.0))}" x2="{px}" y2="{ptop}" '
                       f'stroke="{color}" stroke-width="1.4" stroke-dasharray="4,3"/>')
            out.append(f'<circle cx="{px}" cy="{ptop}" r="3.5" fill="{color}"/>')
            out.append(f'<text x="{_f(sx(x) + 5)}" y="{_f(sy(y) - 5)}" '
                       f'font-family="monospace" font-size="10">{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"
