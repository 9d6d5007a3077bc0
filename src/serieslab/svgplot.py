"""Minimal deterministic SVG line plots.

Just enough plotting for the demonstration figures: polylines, axes with
1-2-5 ticks, and a legend.  Output is plain text with fixed number
formatting, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Tick positions on a 1-2-5 ladder covering [lo, hi]."""
    target = 6  # the finest step giving at most this many intervals wins
    span = hi - lo
    if not (math.isfinite(span) and span > 0):
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1, 2, 5, 10):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-9 * step else v)
        v += step
    return ticks


class LinePlot:
    """Accumulates labelled curves, then renders one SVG."""

    #: canvas size in pixels, the same for every plot
    width = 760
    height = 520

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.curves = []
        self._xlim = None
        self._ylim = None

    def add_curve(self, x, y, label: str, color: str | None = None,
                  dash: str | None = None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("curve arrays must be 1-D and equally long")
        if color is None:
            color = PALETTE[len(self.curves) % len(PALETTE)]
        self.curves.append((x, y, label, color, dash))

    def set_xlim(self, lo: float, hi: float):
        self._xlim = (float(lo), float(hi))

    def set_ylim(self, lo: float, hi: float):
        self._ylim = (float(lo), float(hi))

    def _limits(self):
        if self._xlim and self._ylim:
            return self._xlim, self._ylim
        xs, ys = [], []
        for x, y, *_ in self.curves:
            keep = np.isfinite(x) & np.isfinite(y)
            xs.append(x[keep])
            ys.append(y[keep])
        allx = np.concatenate(xs) if xs else np.empty(0)
        ally = np.concatenate(ys) if ys else np.empty(0)
        if not allx.size:
            # no finite point to fit: the unit square
            allx = ally = np.array([0.0, 1.0])
        def pad(lo, hi):
            if hi <= lo:
                hi = lo + 1.0
                if hi == lo:
                    # past 2**53 adding 1.0 changes nothing: span from zero
                    lo, hi = min(lo, 0.0), max(lo, 0.0)
            margin = 0.05 * (hi - lo)
            return lo - margin, hi + margin
        xlim = self._xlim or pad(float(allx.min()), float(allx.max()))
        ylim = self._ylim or pad(float(ally.min()), float(ally.max()))
        return xlim, ylim

    def render(self) -> str:
        left, right, top, bottom = 72, 18, 42, 56
        bw = self.width - left - right
        bh = self.height - top - bottom
        (x0, x1), (y0, y1) = self._limits()

        def sx(x):
            return left + (x - x0) / (x1 - x0) * bw

        def sy(y):
            return top + (y1 - y) / (y1 - y0) * bh

        out = []
        out.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        out.append(
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>'
        )
        out.append(
            f'<clipPath id="box"><rect x="{left}" y="{top}" width="{bw}" '
            f'height="{bh}"/></clipPath>'
        )
        out.append(
            f'<text x="{self.width // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{self.title}</text>'
        )
        # frame and ticks
        out.append(
            f'<rect x="{left}" y="{top}" width="{bw}" height="{bh}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        for tx in nice_ticks(x0, x1):
            px = sx(tx)
            if left - 0.5 <= px <= left + bw + 0.5:
                out.append(
                    f'<line x1="{px:.2f}" y1="{top + bh}" x2="{px:.2f}" '
                    f'y2="{top + bh + 5}" stroke="black"/>'
                )
                out.append(
                    f'<text x="{px:.2f}" y="{top + bh + 20}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
                )
        for ty in nice_ticks(y0, y1):
            py = sy(ty)
            if top - 0.5 <= py <= top + bh + 0.5:
                out.append(
                    f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" '
                    f'y2="{py:.2f}" stroke="black"/>'
                )
                out.append(
                    f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
                )
        out.append(
            f'<text x="{left + bw / 2:.0f}" y="{self.height - 14}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f'{self.xlabel}</text>'
        )
        out.append(
            f'<text x="20" y="{top + bh / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 20 {top + bh / 2:.0f})">{self.ylabel}</text>'
        )
        # curves, clipped to the frame
        out.append('<g clip-path="url(#box)">')
        for x, y, _label, color, dash in self.curves:
            # whole-curve arithmetic rounds each element as the scalar
            # formula would; only the formatting stays per point
            finite = (np.isfinite(x) & np.isfinite(y)).tolist()
            pts = []
            for keep, px, py in zip(finite, sx(x).tolist(), sy(y).tolist()):
                if keep:
                    pts.append(f"{px:.2f},{py:.2f}")
                else:
                    if len(pts) > 1:
                        self._emit_polyline(out, pts, color, dash)
                    pts = []
            if len(pts) > 1:
                self._emit_polyline(out, pts, color, dash)
        out.append("</g>")
        # legend
        ly = top + 16
        for _x, _y, label, color, dash in self.curves:
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            out.append(
                f'<line x1="{left + bw - 150}" y1="{ly}" x2="{left + bw - 120}" '
                f'y2="{ly}" stroke="{color}" stroke-width="2"{dash_attr}/>'
            )
            out.append(
                f'<text x="{left + bw - 114}" y="{ly + 4}" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
            ly += 18
        out.append("</svg>")
        return "\n".join(out) + "\n"

    @staticmethod
    def _emit_polyline(out, pts, color, dash):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{" ".join(pts)}"/>'
        )

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(self.render(), encoding="utf-8")
        return path
