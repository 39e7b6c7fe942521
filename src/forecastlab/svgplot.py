"""Dependency-free SVG line charts for the report bundle.

Produces standalone, XML-parseable SVG documents. Numeric coordinates are
rounded to two decimals so output is stable across platforms. Non-finite
values break a polyline into separate path segments instead of drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .profiling import CorrelogramData, Decomposition, rolling_stats

THEME_COLOR = "#c83e4b"
MEMBER_PALETTE = ("#3a6ea5", "#6a9955", "#b08968", "#7d6b91", "#4a8f8c", "#c2913d")
GRID_COLOR = "#808080"
AXIS_COLOR = "#404040"
FONT = "Helvetica, Arial, sans-serif"

PANEL_WIDTH = 860
PANEL_HEIGHT = 250
MARGIN_LEFT = 60
MARGIN_RIGHT = 16
MARGIN_TOP = 30
MARGIN_BOTTOM = 36


@dataclass(frozen=True)
class Line:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    color: str = THEME_COLOR
    width: float = 2.0
    dash: str | None = None


@dataclass(frozen=True)
class Band:
    """Shaded region between two curves sharing the same x grid."""

    xs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    color: str = THEME_COLOR
    opacity: float = 0.18


@dataclass(frozen=True)
class StemSet:
    """Vertical lines from zero with end markers (correlogram bars)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    color: str = THEME_COLOR


@dataclass(frozen=True)
class Panel:
    title: str
    lines: tuple[Line, ...] = ()
    bands: tuple[Band, ...] = ()
    stems: tuple[StemSet, ...] = ()
    hlines: tuple[float, ...] = ()
    x_label: str = ""
    y_label: str = ""


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _fmt_all(template: str, values: list[float]) -> str:
    """Fill a template of ``%.2f`` fields in one pass; the same text as
    ``_fmt`` on each value, since every field prints two decimals and so
    "-0.00" can only be a whole field."""
    return (template % tuple(values)).replace("-0.00", "0.00")


def _escape(text: str, entities: Mapping[str, str] = {}) -> str:
    """XML character data: ``&``, ``>`` and ``<`` first, then ``entities``."""
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    for char, entity in entities.items():
        text = text.replace(char, entity)
    return text


def _label(v: float) -> str:
    return f"{v:.4g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, target)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (mult * magnitude) <= target + 0.5:
            step = mult * magnitude
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


class _Scale:
    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if hi <= lo:
            pad = 0.5 if lo == 0 else abs(lo) * 0.05
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float | np.ndarray) -> float | np.ndarray:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _finite_range(arrays: list[np.ndarray]) -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for arr in arrays:
        finite = arr[np.isfinite(arr)]
        if finite.size:
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
    if math.isinf(lo):
        return 0.0, 1.0
    return lo, hi


def _path_segments(xs: np.ndarray, ys: np.ndarray, sx: _Scale, sy: _Scale) -> str:
    ok = np.isfinite(xs) & np.isfinite(ys)
    idx = np.flatnonzero(ok)
    # a point after a non-finite one (or the first point) lifts the pen
    moves = np.diff(idx, prepend=-2) != 1
    template = " ".join("M%.2f,%.2f" if move else "L%.2f,%.2f" for move in moves.tolist())
    coords = np.empty(2 * idx.size)
    coords[0::2] = sx(xs[ok])
    coords[1::2] = sy(ys[ok])
    return _fmt_all(template, coords.tolist())


def _band_path(xs: np.ndarray, lower: np.ndarray, upper: np.ndarray, sx: _Scale, sy: _Scale) -> str:
    """One closed outline over the points where all three are finite: the
    upper edge left to right, then the lower edge back."""
    ok = np.isfinite(xs) & np.isfinite(lower) & np.isfinite(upper)
    count = int(ok.sum())
    if not count:
        return ""
    px = sx(xs[ok])
    coords = np.empty(4 * count)
    coords[0:2 * count:2] = px
    coords[1:2 * count:2] = sy(upper[ok])
    coords[2 * count::2] = px[::-1]
    coords[2 * count + 1::2] = sy(lower[ok])[::-1]
    return _fmt_all("M" + " L".join(["%.2f,%.2f"] * (2 * count)) + " Z", coords.tolist())


def _render_panel(panel: Panel, y_offset: float, width: float, height: float) -> list[str]:
    left = MARGIN_LEFT
    right = width - MARGIN_RIGHT
    top = y_offset + MARGIN_TOP
    bottom = y_offset + height - MARGIN_BOTTOM

    x_arrays = [np.asarray(l.xs, dtype=float) for l in panel.lines]
    x_arrays += [np.asarray(b.xs, dtype=float) for b in panel.bands]
    x_arrays += [np.asarray(s.xs, dtype=float) for s in panel.stems]
    y_arrays = [np.asarray(l.ys, dtype=float) for l in panel.lines]
    y_arrays += [np.asarray(b.lower, dtype=float) for b in panel.bands]
    y_arrays += [np.asarray(b.upper, dtype=float) for b in panel.bands]
    y_arrays += [np.asarray(s.ys, dtype=float) for s in panel.stems]
    y_arrays += [np.asarray(panel.hlines, dtype=float)] if panel.hlines else []
    if panel.stems:
        y_arrays.append(np.asarray([0.0]))

    x_lo, x_hi = _finite_range(x_arrays)
    y_lo, y_hi = _finite_range(y_arrays)
    if y_hi > y_lo:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    sx = _Scale(x_lo, x_hi, left, right)
    sy = _Scale(y_lo, y_hi, bottom, top)

    out: list[str] = []
    out.append('<g class="panel">')
    out.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(y_offset + 16)}" '
        f'font-family="{FONT}" font-size="12" font-weight="bold" '
        f'text-anchor="middle" fill="{AXIS_COLOR}">{_escape(panel.title)}</text>'
    )

    # Gridlines: solid majors at the ticks, dotted minors between them.
    x_ticks = _nice_ticks(sx.lo, sx.hi)
    y_ticks = _nice_ticks(sy.lo, sy.hi)
    for seq, is_x in ((x_ticks, True), (y_ticks, False)):
        for i, t in enumerate(seq):
            if is_x:
                px = _fmt(sx(t))
                major = f'<line x1="{px}" y1="{_fmt(top)}" x2="{px}" y2="{_fmt(bottom)}"'
            else:
                py = _fmt(sy(t))
                major = f'<line x1="{_fmt(left)}" y1="{py}" x2="{_fmt(right)}" y2="{py}"'
            out.append(
                f'{major} stroke="{GRID_COLOR}" stroke-width="0.5" stroke-opacity="0.5"/>'
            )
            if i + 1 < len(seq):
                mid = (t + seq[i + 1]) / 2
                if is_x:
                    px = _fmt(sx(mid))
                    minor = f'<line x1="{px}" y1="{_fmt(top)}" x2="{px}" y2="{_fmt(bottom)}"'
                else:
                    py = _fmt(sy(mid))
                    minor = f'<line x1="{_fmt(left)}" y1="{py}" x2="{_fmt(right)}" y2="{py}"'
                out.append(
                    f'{minor} stroke="{GRID_COLOR}" stroke-width="0.3" '
                    f'stroke-opacity="0.2" stroke-dasharray="1,2"/>'
                )

    for band in panel.bands:
        xs = np.asarray(band.xs, dtype=float)
        lower = np.asarray(band.lower, dtype=float)
        upper = np.asarray(band.upper, dtype=float)
        d = _band_path(xs, lower, upper, sx, sy)
        if not d:
            continue
        out.append(
            f'<path class="band" fill="{band.color}" fill-opacity="{band.opacity}" '
            f'stroke="none" d="{d}"/>'
        )

    for level in panel.hlines:
        py = _fmt(sy(level))
        out.append(
            f'<line x1="{_fmt(left)}" y1="{py}" x2="{_fmt(right)}" y2="{py}" '
            f'stroke="{AXIS_COLOR}" stroke-width="0.8" stroke-opacity="0.5"/>'
        )

    for stems in panel.stems:
        zero = _fmt(sy(0.0))
        for x, y in zip(stems.xs, stems.ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            px, py = _fmt(sx(x)), _fmt(sy(y))
            out.append(
                f'<line class="stem" x1="{px}" y1="{zero}" x2="{px}" y2="{py}" '
                f'stroke="{stems.color}" stroke-width="1.5"/>'
            )
            out.append(f'<circle cx="{px}" cy="{py}" r="1.6" fill="{stems.color}"/>')

    for line in panel.lines:
        xs = np.asarray(line.xs, dtype=float)
        ys = np.asarray(line.ys, dtype=float)
        d = _path_segments(xs, ys, sx, sy)
        if not d:
            continue
        dash = f' stroke-dasharray="{line.dash}"' if line.dash else ""
        out.append(
            f'<path class="series" data-label="{_escape(line.label, {chr(34): "&quot;"})}" '
            f'fill="none" stroke="{line.color}" stroke-width="{line.width}"{dash} d="{d}"/>'
        )

    # Axes and tick labels.
    out.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
        f'height="{_fmt(bottom - top)}" fill="none" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for t in x_ticks:
        out.append(
            f'<text x="{_fmt(sx(t))}" y="{_fmt(bottom + 14)}" font-family="{FONT}" '
            f'font-size="9" text-anchor="middle" fill="{AXIS_COLOR}">{_label(t)}</text>'
        )
    for t in y_ticks:
        out.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(sy(t) + 3)}" font-family="{FONT}" '
            f'font-size="9" text-anchor="end" fill="{AXIS_COLOR}">{_label(t)}</text>'
        )
    if panel.x_label:
        out.append(
            f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(bottom + 28)}" '
            f'font-family="{FONT}" font-size="10" text-anchor="middle" '
            f'fill="{AXIS_COLOR}">{_escape(panel.x_label)}</text>'
        )
    if panel.y_label:
        cx, cy = _fmt(14.0), _fmt((top + bottom) / 2)
        out.append(
            f'<text x="{cx}" y="{cy}" font-family="{FONT}" font-size="10" '
            f'text-anchor="middle" transform="rotate(-90 {cx} {cy})" '
            f'fill="{AXIS_COLOR}">{_escape(panel.y_label)}</text>'
        )

    # Legend: one swatch per labeled line, top-left inside the plot area.
    legend_y = top + 12
    for line in panel.lines:
        if not line.label:
            continue
        out.append(
            f'<line x1="{_fmt(left + 8)}" y1="{_fmt(legend_y - 3)}" x2="{_fmt(left + 26)}" '
            f'y2="{_fmt(legend_y - 3)}" stroke="{line.color}" stroke-width="{line.width}"/>'
        )
        out.append(
            f'<text x="{_fmt(left + 30)}" y="{_fmt(legend_y)}" font-family="{FONT}" '
            f'font-size="9" fill="{AXIS_COLOR}">{_escape(line.label)}</text>'
        )
        legend_y += 12
    out.append("</g>")
    return out


def render_figure(panels: Sequence[Panel], width: int = PANEL_WIDTH, panel_height: int = PANEL_HEIGHT) -> str:
    """Render stacked panels into one standalone SVG document."""
    if not panels:
        raise ValueError("need at least one panel")
    total_height = panel_height * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_height}" '
        f'viewBox="0 0 {width} {total_height}">',
        f'<rect x="0" y="0" width="{width}" height="{total_height}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_render_panel(panel, i * panel_height, width, panel_height))
    parts.append("</svg>")
    return "\n".join(parts)


def overview_figure(values: Sequence[float], window: int = 24) -> str:
    """Raw series with a trailing rolling mean and a +/- one-std band."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    xs = tuple(float(i) for i in range(n))
    lines = [Line("series", xs, tuple(arr.tolist()), THEME_COLOR, 2.0)]
    bands: tuple[Band, ...] = ()
    if n >= window:
        means, stds = rolling_stats(arr, window)
        roll_x = tuple(float(i) for i in range(window - 1, n))
        lines.append(Line(f"rolling mean (w={window})", roll_x, tuple(means.tolist()), "#3a6ea5", 1.3))
        bands = (
            Band(
                roll_x,
                tuple((means - stds).tolist()),
                tuple((means + stds).tolist()),
                "#3a6ea5",
                0.15,
            ),
        )
    panel = Panel(
        title="Input window with rolling statistics",
        lines=tuple(lines),
        bands=bands,
        x_label="time index",
        y_label="value",
    )
    return render_figure([panel])


def decomposition_figure(dec: Decomposition) -> str:
    """Observed, trend, seasonal, and residual components stacked."""
    n = len(dec.observed)
    xs = tuple(float(i) for i in range(n))
    panels = []
    for name, series in (
        ("Observed", dec.observed),
        ("Trend", dec.trend),
        ("Seasonal", dec.seasonal),
        ("Residual", dec.residual),
    ):
        panels.append(
            Panel(
                title=f"{name} (period {dec.period})",
                lines=(Line("", xs, tuple(series), THEME_COLOR, 1.5),),
                x_label="time index" if name == "Residual" else "",
            )
        )
    return render_figure(panels, panel_height=180)


def correlogram_figure(cor: CorrelogramData) -> str:
    """ACF and PACF stem panels with the +/- confidence band shaded."""
    panels = []
    for name, seq in (("Autocorrelation", cor.acf), ("Partial autocorrelation", cor.pacf)):
        xs = tuple(float(i) for i in range(len(seq)))
        band = Band(
            (0.0, float(len(seq) - 1)),
            (-cor.confidence_band, -cor.confidence_band),
            (cor.confidence_band, cor.confidence_band),
            "#3a6ea5",
            0.15,
        )
        panels.append(
            Panel(
                title=f"{name} (band +/-{cor.confidence_band:.3f})",
                stems=(StemSet(xs, tuple(seq), THEME_COLOR),),
                bands=(band,),
                hlines=(0.0,),
                x_label="lag",
            )
        )
    return render_figure(panels, panel_height=220)


def forecast_figure(
    history: Sequence[float],
    members: Mapping[str, Sequence[float]],
    ensemble: Sequence[float],
    lower: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
    max_history: int = 256,
) -> str:
    """History tail, member forecasts, ensemble forecast, interval band."""
    hist = np.asarray(history, dtype=float)
    if hist.size > max_history:
        hist = hist[-max_history:]
    n_hist = hist.size
    horizon = len(ensemble)
    hist_x = tuple(float(i) for i in range(n_hist))
    fut_x = tuple(float(n_hist + i) for i in range(horizon))
    lines = [Line("history", hist_x, tuple(hist.tolist()), "#555555", 1.3)]
    for idx, (name, forecast) in enumerate(members.items()):
        color = MEMBER_PALETTE[idx % len(MEMBER_PALETTE)]
        lines.append(
            Line(name, fut_x, tuple(float(v) for v in forecast), color, 1.0, dash="4,3")
        )
    lines.append(Line("ensemble", fut_x, tuple(float(v) for v in ensemble), THEME_COLOR, 2.0))
    bands: tuple[Band, ...] = ()
    if lower is not None and upper is not None:
        bands = (
            Band(
                fut_x,
                tuple(float(v) for v in lower),
                tuple(float(v) for v in upper),
                THEME_COLOR,
                0.15,
            ),
        )
    panel = Panel(
        title="Ensemble forecast",
        lines=tuple(lines),
        bands=bands,
        x_label="time index",
        y_label="value",
    )
    return render_figure([panel])
