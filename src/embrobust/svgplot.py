"""Minimal SVG figure rendering: line plots, bar charts, scatters.

No plotting framework: figures are assembled as plain SVG strings so the
output is deterministic, diffable and parseable in tests. Data-bearing
elements carry stable ``class`` attributes (``series``, ``bar``, ``pt``,
``rule``) so structural assertions do not depend on styling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# qualitative palettes: biological classes vs confounder classes
BIO_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
CONF_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#ffd92f",
)

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 34, 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Ticks at the smallest 1, 2 or 5 × 10^m step of at least a fifth of the span."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


@dataclass
class Axes:
    """Maps data coordinates to pixel coordinates inside fixed margins."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    log_x: bool = False

    def px(self, x: float) -> float:
        if self.log_x:
            x, lo, hi = math.log10(x), math.log10(self.x_lo), math.log10(self.x_hi)
        else:
            lo, hi = self.x_lo, self.x_hi
        frac = (x - lo) / (hi - lo) if hi > lo else 0.5
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo) if self.y_hi > self.y_lo else 0.5
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def x_ticks(self) -> list[float]:
        if self.log_x:
            lo = math.floor(math.log10(self.x_lo))
            hi = math.ceil(math.log10(self.x_hi))
            return [10.0 ** e for e in range(lo, hi + 1)
                    if self.x_lo <= 10.0 ** e <= self.x_hi]
        return _nice_ticks(self.x_lo, self.x_hi)

    def y_ticks(self) -> list[float]:
        return _nice_ticks(self.y_lo, self.y_hi)


@dataclass
class LineSeries:
    x: np.ndarray
    y: np.ndarray
    color: str
    label: str
    markers: bool = False


@dataclass
class Figure:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    meta: str = ""
    body: list[str] = field(default_factory=list)

    def add(self, fragment: str) -> None:
        self.body.append(fragment)

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}"'
            + (f' data-run="{_esc(self.meta)}"' if self.meta else "") + ">")
        chrome = [
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text class="title" x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(self.title)}</text>',
            f'<text class="xlabel" x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
            f'y="{HEIGHT - 10}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12">{_esc(self.xlabel)}</text>',
            f'<text class="ylabel" x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">'
            f'{_esc(self.ylabel)}</text>',
        ]
        return "\n".join([head, *chrome, *self.body, "</svg>"]) + "\n"


def _axes_fragment(ax: Axes, x_ticks: list[float]) -> str:
    parts = []
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts.append(f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in x_ticks:
        px = ax.px(t)
        label = f"{t:g}"
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>')
    for t in ax.y_ticks():
        py = ax.py(t)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>')
    return "\n".join(parts)


def _legend_fragment(entries: list[tuple[str, str]]) -> str:
    x = WIDTH - MARGIN_R - 150
    parts = []
    for i, (label, color) in enumerate(entries):
        y = MARGIN_T + 14 + 16 * i
        parts.append(f'<rect class="legend-swatch" x="{_fmt(x)}" y="{_fmt(y - 9)}" '
                     f'width="12" height="9" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(x + 16)}" y="{_fmt(y)}" font-family="sans-serif" '
                     f'font-size="11">{_esc(label)}</text>')
    return "\n".join(parts)


def _series_fragment(ax: Axes, s: LineSeries) -> str:
    parts = []
    finite = np.isfinite(np.asarray(s.y, dtype=float))
    pts = [(ax.px(float(xv)), ax.py(float(yv)))
           for xv, yv, ok in zip(s.x, s.y, finite) if ok]
    if len(pts) >= 2:
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        parts.append(f'<polyline class="series" data-label="{_esc(s.label)}" fill="none" '
                     f'stroke="{s.color}" stroke-width="1.5" points="{coords}"/>')
    if s.markers or len(pts) < 2:
        for px, py in pts:
            parts.append(f'<circle class="marker" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                         f'fill="{s.color}"/>')
    return "\n".join(parts)


def render_line_plot(
    series: list[LineSeries],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    h_rules: list[tuple[float, str]] | None = None,
    meta: str = "",
) -> str:
    """Line plot on a y axis fixed at [0, 1]: every plotted series is a
    fraction or a rate."""
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ax = Axes(float(xs.min()), float(xs.max()), 0.0, 1.0, log_x=log_x)
    fig = Figure(title=title, xlabel=xlabel, ylabel=ylabel, meta=meta)
    fig.add(_axes_fragment(ax, ax.x_ticks()))
    for value, label in h_rules or []:
        py = ax.py(value)
        fig.add(f'<line class="rule" data-label="{_esc(label)}" x1="{MARGIN_L}" '
                f'y1="{_fmt(py)}" x2="{WIDTH - MARGIN_R}" y2="{_fmt(py)}" '
                f'stroke="#555555" stroke-dasharray="4 4"/>')
    for s in series:
        fig.add(_series_fragment(ax, s))
    fig.add(_legend_fragment([(s.label, s.color) for s in series]
                             + [(lab, "#555555") for _, lab in (h_rules or [])]))
    return fig.render()


def render_bar_chart(
    items: list[tuple[str, float]],
    value_labels: list[str],
    ref_line: float,
    title: str = "",
    ylabel: str = "",
    meta: str = "",
) -> str:
    """Named bars, each topped by its entry of ``value_labels``, with a
    dashed rule at ``ref_line``. The x axis is the bar names: it has no ticks."""
    values = [v for _, v in items]
    y_hi = max([*values, ref_line, 0.0]) * 1.15 or 1.0
    ax = Axes(0.0, 1.0, 0.0, y_hi)
    fig = Figure(title=title, ylabel=ylabel, meta=meta)
    fig.add(_axes_fragment(ax, []))
    span = WIDTH - MARGIN_L - MARGIN_R
    slot = span / max(len(items), 1)
    bar_w = slot * 0.6
    for i, (label, value) in enumerate(items):
        cx = MARGIN_L + (i + 0.5) * slot
        top = ax.py(value)
        base = ax.py(0.0)
        fig.add(f'<rect class="bar" data-label="{_esc(label)}" x="{_fmt(cx - bar_w / 2)}" '
                f'y="{_fmt(top)}" width="{_fmt(bar_w)}" height="{_fmt(base - top)}" '
                f'fill="{BIO_PALETTE[i % len(BIO_PALETTE)]}"/>')
        fig.add(f'<text class="bar-value" x="{_fmt(cx)}" y="{_fmt(top - 4)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_esc(value_labels[i])}</text>')
        fig.add(f'<text class="bar-name" x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 18}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">{_esc(label)}</text>')
    py = ax.py(ref_line)
    fig.add(f'<line class="rule" x1="{MARGIN_L}" y1="{_fmt(py)}" '
            f'x2="{WIDTH - MARGIN_R}" y2="{_fmt(py)}" stroke="#555555" '
            f'stroke-dasharray="4 4"/>')
    return fig.render()


def render_scatter(
    xy: np.ndarray,
    colors: list[str],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    legend: list[tuple[str, str]] | None = None,
    point_labels: list[str] | None = None,
    diagonal: bool = False,
    axes_range: tuple[float, float, float, float] | None = None,
    meta: str = "",
) -> str:
    xy = np.asarray(xy, dtype=float)
    if axes_range is None:
        pad_x = (xy[:, 0].max() - xy[:, 0].min() or 1.0) * 0.05
        pad_y = (xy[:, 1].max() - xy[:, 1].min() or 1.0) * 0.05
        axes_range = (xy[:, 0].min() - pad_x, xy[:, 0].max() + pad_x,
                      xy[:, 1].min() - pad_y, xy[:, 1].max() + pad_y)
    ax = Axes(*axes_range)
    fig = Figure(title=title, xlabel=xlabel, ylabel=ylabel, meta=meta)
    fig.add(_axes_fragment(ax, ax.x_ticks()))
    if diagonal:
        lo = max(axes_range[0], axes_range[2])
        hi = min(axes_range[1], axes_range[3])
        fig.add(f'<line class="rule" x1="{_fmt(ax.px(lo))}" y1="{_fmt(ax.py(lo))}" '
                f'x2="{_fmt(ax.px(hi))}" y2="{_fmt(ax.py(hi))}" stroke="#aaaaaa" '
                f'stroke-dasharray="4 4"/>')
    for i, (x, y) in enumerate(xy):
        fig.add(f'<circle class="pt" cx="{_fmt(ax.px(float(x)))}" cy="{_fmt(ax.py(float(y)))}" '
                f'r="2.5" fill="{colors[i]}"/>')
        if point_labels:
            fig.add(f'<text class="pt-label" x="{_fmt(ax.px(float(x)) + 6)}" '
                    f'y="{_fmt(ax.py(float(y)) - 6)}" font-family="sans-serif" '
                    f'font-size="11">{_esc(point_labels[i])}</text>')
    if legend:
        fig.add(_legend_fragment(legend))
    return fig.render()
