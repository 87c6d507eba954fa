"""CSV and SVG emitters for spectral flows.

The flow CSV header and 12-significant-digit number format are a fixed
external contract; emission is single-writer and byte-deterministic for
a given FlowResult.  Both CSVs write one row per level from the same
columns (_level_rows): the flow CSV prefixes each with the sweep kind
and grid value, the spectrum CSV writes them under its own header.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .spectral import FlowResult, SpectrumTable

LEVEL_CSV_HEADER = "level_index,energy,group_id,group_size,n_fock,converged"
FLOW_CSV_HEADER = f"sweep_kind,grid_value,{LEVEL_CSV_HEADER}"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _level_rows(table: SpectrumTable) -> list[str]:
    """The LEVEL_CSV_HEADER columns of each level, walking table.groups once."""
    tail = f"{table.n_fock_used},{'true' if table.converged else 'false'}"
    return [
        f"{level},{_fmt(table.energies[level])},{gid},{size},{tail}"
        for gid, (start, size) in enumerate(table.groups)
        for level in range(start, start + size)
    ]


def _write_csv(path: str | Path, header: str, rows: list[str]) -> None:
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write CSV {path}: {exc}") from exc


def emit_flow_csv(flow: FlowResult, path: str | Path) -> None:
    """Write one row per (grid point, level), ordered by grid then level."""
    _write_csv(path, FLOW_CSV_HEADER, [
        f"{flow.sweep_kind},{_fmt(gval)},{row}"
        for gval, table in zip(flow.grid, flow.tables)
        for row in _level_rows(table)
    ])


def emit_spectrum_csv(table: SpectrumTable, path: str | Path) -> None:
    """Single-spectrum CSV: one row per level."""
    _write_csv(path, LEVEL_CSV_HEADER, _level_rows(table))


_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 120, 20, 50


def emit_flow_svg(flow: FlowResult, path: str | Path) -> None:
    """Standalone SVG line plot: one polyline per level index."""
    if len(flow.grid) < 2:
        raise ConfigError("SVG plot needs at least 2 grid points")
    k = len(flow.tables[0].energies)
    xs = np.asarray(flow.grid, dtype=float)
    ys = np.array([t.energies for t in flow.tables])  # (points, k)
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    margin = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - margin, y_hi + margin
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    x_label = "r" if flow.sweep_kind == "r_sweep" else "g"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        xp, yp = px(xv), py(yv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{_MARGIN_T + plot_h}" x2="{xp:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{_MARGIN_T + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{yp:.1f}" x2="{_MARGIN_L}" '
            f'y2="{yp:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.1f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">'
        f'energy / hbar</text>'
    )
    for level in range(k):
        color = _PALETTE[level % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys[:, level])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * level
        lx = _MARGIN_L + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="11">level {level}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write SVG {path}: {exc}") from exc
