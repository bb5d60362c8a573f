"""Minimal deterministic SVG figures for error-vs-dimension style series.

A figure shows one or more series of (x, error) points with the x axis
log-scaled, circular markers at the data points, and a least-squares fit
line err = a + b*log(x) per series.  Output is plain SVG text built with
fixed number formatting so identical input produces identical bytes.
"""

import csv

import numpy as np

from .surrogate import atomic_open

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def fit_log_line(x, y):
    """Least-squares coefficients (a, b) of y ~ a + b*log(x).

    Needs at least two points with distinct x values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("need two or more paired points")
    if np.any(x <= 0):
        raise ValueError("log fit needs positive x values")
    lx = np.log(x)
    if np.ptp(lx) == 0:
        raise ValueError("x values are all equal")
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def load_series_csv(path):
    """Read a long-format series file with header label,x,y.

    Returns a list of {label, x, y} dicts in first-appearance order.
    """
    series = {}
    order = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["label", "x", "y"]:
            raise ValueError(f"{path}: expected header label,x,y")
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) < 3:
                raise ValueError(f"{path}: short row {row!r}")
            label = row[0].strip()
            if label not in series:
                series[label] = ([], [])
                order.append(label)
            series[label][0].append(float(row[1]))
            series[label][1].append(float(row[2]))
    return [{"label": k, "x": series[k][0], "y": series[k][1]} for k in order]


def save_series_csv(path, series):
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "x", "y"])
        for s in series:
            for xv, yv in zip(s["x"], s["y"]):
                writer.writerow([s["label"], _fmt(xv), _fmt(yv)])


def _fmt(v):
    return format(float(v), ".8g")


def _log_ticks(lo, hi):
    # decade ticks, padded with 2x and 5x mantissas when the span is short
    ticks = []
    k0 = int(np.floor(np.log10(lo) - 1e-12))
    k1 = int(np.ceil(np.log10(hi) + 1e-12))
    decades = k1 - k0
    mantissas = [1.0] if decades > 3 else [1.0, 2.0, 5.0]
    for k in range(k0, k1 + 1):
        for m in mantissas:
            v = m * 10.0**k
            if lo / 1.0001 <= v <= hi * 1.0001:
                ticks.append(v)
    return ticks or [lo, hi]


def _linear_ticks(lo, hi, target=5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw))
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def render_plot(series, title="", xlabel="", ylabel=""):
    """Render series (list of {label, x, y}) to SVG text.

    The x axis is log-scaled.  Each series gets markers plus, when it has
    two or more points, the least-squares line err = a + b*log(x).
    """
    if not series:
        raise ValueError("no series to plot")
    for s in series:
        if len(s["x"]) != len(s["y"]) or len(s["x"]) == 0:
            raise ValueError(f"series {s.get('label')!r}: empty or mismatched")
        if min(s["x"]) <= 0:
            raise ValueError(f"series {s.get('label')!r}: x must be positive")

    all_x = np.concatenate([np.asarray(s["x"], float) for s in series])
    all_y = np.concatenate([np.asarray(s["y"], float) for s in series])
    x_lo, x_hi = all_x.min(), all_x.max()
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 2, x_hi * 2
    y_lo, y_hi = all_y.min(), all_y.max()
    pad = 0.08 * (y_hi - y_lo) if y_hi > y_lo else max(abs(y_hi), 1e-12) * 0.25
    y_lo, y_hi = y_lo - pad, y_hi + pad

    lx_lo, lx_hi = np.log(x_lo), np.log(x_hi)

    def sx(x):
        return _ML + (np.log(x) - lx_lo) / (lx_hi - lx_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="24" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{title}</text>'
        )

    axis = 'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')

    for t in _log_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" y2="{_H - _MB + 5}" {axis}/>')
        out.append(
            f'<text x="{px:.2f}" y="{_H - _MB + 20}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _linear_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" {axis}/>')
        out.append(
            f'<text x="{_ML - 9}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{_fmt(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = (_MT + _H - _MB) / 2
        out.append(
            f'<text x="18" y="{cy:.1f}" font-family="sans-serif" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 18 {cy:.1f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs = np.asarray(s["x"], float)
        ys = np.asarray(s["y"], float)
        if xs.size >= 2 and np.ptp(np.log(xs)) > 0:
            a, b = fit_log_line(xs, ys)
            grid = np.exp(np.linspace(lx_lo, lx_hi, 64))
            pts = " ".join(f"{sx(g):.2f},{sy(a + b * np.log(g)):.2f}" for g in grid)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for xv, yv in zip(xs, ys):
            out.append(f'<circle cx="{sx(xv):.2f}" cy="{sy(yv):.2f}" r="3.5" fill="{color}"/>')

    lx = _W - _MR - 150
    ly = _MT + 8
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<circle cx="{lx}" cy="{ly + 18 * i:.1f}" r="3.5" fill="{color}"/>')
        out.append(
            f'<text x="{lx + 10}" y="{ly + 18 * i + 4:.1f}" font-family="sans-serif" '
            f'font-size="12">{s["label"]}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, svg_text):
    with atomic_open(path, newline="\n") as fh:
        fh.write(svg_text)
