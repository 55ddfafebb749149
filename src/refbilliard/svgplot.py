"""Minimal deterministic SVG line plots.

Plot geometry is polylines only: curve data, the frame, and tick marks are
all ``<polyline>`` elements; text appears solely in axis/tick annotations.
Coordinates are formatted with a fixed precision so identical data produces
byte-identical files.  Curves are kept as float64 arrays and mapped to
pixels with numpy, one formatting operation per polyline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

#: canvas size and frame margin, in pixels
WIDTH, HEIGHT, MARGIN = 640, 480, 60

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


@dataclass
class SvgCanvas:
    """Collects labelled polylines and writes one framed SVG plot."""

    title: str = ""
    equal_aspect: bool = False
    _curves: List[Tuple[np.ndarray, np.ndarray, str]] = \
        field(default_factory=list)

    def add_polyline(self, xs: Sequence[float], ys: Sequence[float],
                     label: str = "") -> None:
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=float)
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        if len(xs):
            self._curves.append((xs, ys, label))

    def _bounds(self) -> Tuple[float, float, float, float]:
        if not self._curves:
            return -1.0, 1.0, -1.0, 1.0
        xs = np.concatenate([c[0] for c in self._curves])
        ys = np.concatenate([c[1] for c in self._curves])
        xs, ys = xs[np.isfinite(xs)], ys[np.isfinite(ys)]
        if not xs.size or not ys.size:
            return -1.0, 1.0, -1.0, 1.0
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 0.5, y1 + 0.5
        padx, pady = 0.04 * (x1 - x0), 0.04 * (y1 - y0)
        x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
        if self.equal_aspect:
            vw = WIDTH - 2 * MARGIN
            vh = HEIGHT - 2 * MARGIN
            sx, sy = (x1 - x0) / vw, (y1 - y0) / vh
            s = max(sx, sy)
            cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = cx - 0.5 * s * vw, cx + 0.5 * s * vw
            y0, y1 = cy - 0.5 * s * vh, cy + 0.5 * s * vh
        return x0, x1, y0, y1

    def render(self, xlabel: str = "x", ylabel: str = "y") -> str:
        x0, x1, y0, y1 = self._bounds()
        W, H, M = WIDTH, HEIGHT, MARGIN

        # scalars (ticks) and arrays (curves) go through the same float
        # operations in the same order
        def px(x):
            return M + (x - x0) / (x1 - x0) * (W - 2 * M)

        def py(y):
            return H - M - (y - y0) / (y1 - y0) * (H - 2 * M)

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
               f'height="{H}" viewBox="0 0 {W} {H}" '
               'style="background:white">']
        frame = [(M, M), (W - M, M), (W - M, H - M), (M, H - M), (M, M)]
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in frame)
        out.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                   'stroke-width="1"/>')
        if self.title:
            out.append(f'<text x="{W // 2}" y="{M - 18}" font-size="14" '
                       f'text-anchor="middle">{self.title}</text>')
        for t in _nice_ticks(x0, x1):
            X = px(t)
            out.append(f'<polyline points="{_fmt(X)},{_fmt(H - M)} '
                       f'{_fmt(X)},{_fmt(H - M + 6)}" fill="none" '
                       'stroke="black" stroke-width="1"/>')
            out.append(f'<text x="{_fmt(X)}" y="{H - M + 20}" font-size="11" '
                       f'text-anchor="middle">{t:.4g}</text>')
        for t in _nice_ticks(y0, y1):
            Y = py(t)
            out.append(f'<polyline points="{_fmt(M)},{_fmt(Y)} '
                       f'{_fmt(M - 6)},{_fmt(Y)}" fill="none" '
                       'stroke="black" stroke-width="1"/>')
            out.append(f'<text x="{M - 9}" y="{_fmt(Y + 4)}" font-size="11" '
                       f'text-anchor="end">{t:.4g}</text>')
        out.append(f'<text x="{W // 2}" y="{H - 12}" font-size="13" '
                   f'text-anchor="middle">{xlabel}</text>')
        out.append(f'<text x="16" y="{H // 2}" font-size="13" '
                   f'text-anchor="middle" transform="rotate(-90 16 '
                   f'{H // 2})">{ylabel}</text>')
        for i, (xs, ys, label) in enumerate(self._curves):
            color = _PALETTE[i % len(_PALETTE)]
            finite = np.isfinite(xs) & np.isfinite(ys)
            pts = np.column_stack((px(xs[finite]), py(ys[finite])))
            coords = " ".join(["%.2f,%.2f"] * len(pts)) % \
                tuple(pts.ravel().tolist())
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.2"/>')
            if label:
                out.append(f'<text x="{W - M + 4}" '
                           f'y="{M + 14 + 14 * i}" font-size="11" '
                           f'fill="{color}">{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path: str, xlabel: str = "x", ylabel: str = "y") -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render(xlabel=xlabel, ylabel=ylabel))
