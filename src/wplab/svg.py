"""Minimal SVG writers over exported analysis data.

Figures are conveniences; the text exports remain the contract.  Output
is deterministic (no timestamps, fixed float formatting), and written
atomically like every export (``seriesio.write_text``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .seriesio import write_text

_W, _H = 640, 480
_MARGIN = 50
# scatter plots thin their points by a constant stride down to this many
_MAX_POINTS = 200_000


def _write(path: str | Path, title: str, marks: list[str]) -> Path:
    """The frame (background, title, axes box) around ``marks``, written."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
        *marks,
        "</svg>",
    ]
    return write_text("\n".join(parts) + "\n", path)


def _scale(vals: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
    vmin = float(vals.min())
    vmax = float(vals.max())
    span = vmax - vmin if vmax > vmin else 1.0
    return lo_px + (vals - vmin) / span * (hi_px - lo_px)


def bars_svg(x: np.ndarray, y: np.ndarray, path: str | Path, title: str) -> Path:
    """Histogram-style vertical bars."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    px = _scale(x, _MARGIN + 5, _W - _MARGIN - 5)
    base = _H - _MARGIN
    top = _scale(y, base, _MARGIN + 5)
    marks = [
        f'<line x1="{xi:.2f}" y1="{base}" x2="{xi:.2f}" y2="{yi:.2f}" '
        f'stroke="steelblue" stroke-width="1.5"/>'
        for xi, yi in zip(px, top)
    ]
    return _write(path, title, marks)


def points_svg(x: np.ndarray, y: np.ndarray, path: str | Path, title: str) -> Path:
    """Scatter of (x, y) points (recurrence plots, return maps)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size > _MAX_POINTS:
        stride = int(np.ceil(x.size / _MAX_POINTS))
        x, y = x[::stride], y[::stride]
    marks = []
    if x.size:
        px = _scale(x, _MARGIN + 5, _W - _MARGIN - 5)
        py = _scale(y, _H - _MARGIN - 5, _MARGIN + 5)
        marks = [
            f'<circle cx="{xi:.2f}" cy="{yi:.2f}" r="0.8" fill="black"/>'
            for xi, yi in zip(px, py)
        ]
    return _write(path, title, marks)


def curve_svg(x: np.ndarray, y: np.ndarray, path: str | Path, title: str) -> Path:
    """Polyline (densities, divergence curves)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    good = np.isfinite(y)
    x, y = x[good], y[good]
    marks = []
    if x.size:
        px = _scale(x, _MARGIN + 5, _W - _MARGIN - 5)
        py = _scale(y, _H - _MARGIN - 5, _MARGIN + 5)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        marks = [f'<polyline points="{pts}" fill="none" stroke="firebrick"/>']
    return _write(path, title, marks)
