"""Two-panel SVG line chart for Monte Carlo summaries.

Coverage on top, average interval length below, one polyline per method,
a single solid vertical rule through both panels at the fitted order p,
and a dashed horizontal rule at the nominal level. Hand-rolled so the
package carries no plotting dependency.
"""

from __future__ import annotations

import math

METHOD_COLORS = {
    "LS": "#1f77b4",
    "S-LS": "#d62728",
    "BOOT": "#2ca02c",
    "BOOT-db": "#9467bd",
}
_FALLBACK_COLORS = ("#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_WIDTH = 860
_HEIGHT = 690
_X0, _X1 = 70, 820
_COV_Y0, _COV_Y1 = 50, 320
_LEN_Y0, _LEN_Y1 = 390, 660


def _escape(text: str) -> str:
    """``text`` with &, < and > escaped, as ``xml.sax.saxutils.escape`` gives it.

    Written here because importing ``xml.sax.saxutils`` loads ``urllib.request``,
    ``http.client``, ``ssl`` and ``email``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an XML attribute value, as ``xml.sax.saxutils.quoteattr`` quotes it."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _color(method: str, index: int) -> str:
    return METHOD_COLORS.get(method, _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)])


def _xscale(h: float, h_max: float) -> float:
    return _X0 + (_X1 - _X0) * (h / h_max if h_max else 0.0)


def _yscale(v: float, v_max: float, y0: int, y1: int) -> float:
    frac = v / v_max if v_max else 0.0
    return y1 - (y1 - y0) * frac


def _nice_step(v_max: float, target_ticks: int = 5) -> float:
    if v_max <= 0:
        return 1.0
    raw = v_max / target_ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def render_mc_chart(
    rows: list[dict],
    p: int,
    level: float,
    title: str = "",
) -> str:
    """SVG document for mc_results rows.

    Each row maps "method" to a name, "horizon" to an int, and "coverage"
    and "avg_length" to floats.
    """
    if not rows:
        raise ValueError("no data rows to plot")
    methods: list[str] = []
    for row in rows:
        if row["method"] not in methods:
            methods.append(row["method"])
    h_max = max(r["horizon"] for r in rows)
    len_max = max(r["avg_length"] for r in rows) * 1.05 or 1.0

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )

    def axis(y0: int, y1: int, label: str) -> None:
        parts.append(
            f'<g class="axis" stroke="#333" fill="none">'
            f'<line x1="{_X0}" y1="{y1}" x2="{_X1}" y2="{y1}"/>'
            f'<line x1="{_X0}" y1="{y0}" x2="{_X0}" y2="{y1}"/></g>'
        )
        parts.append(
            f'<text x="20" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 20 {(y0 + y1) / 2:.0f})">{_escape(label)}</text>'
        )

    axis(_COV_Y0, _COV_Y1, "coverage")
    axis(_LEN_Y0, _LEN_Y1, "average length")
    parts.append(
        f'<text x="{(_X0 + _X1) / 2:.0f}" y="{_HEIGHT - 6}" text-anchor="middle">horizon</text>'
    )

    # x ticks shared by both panels
    step = max(1, h_max // 10)
    for h in range(0, h_max + 1, step):
        x = _xscale(h, h_max)
        for y_base in (_COV_Y1, _LEN_Y1):
            parts.append(
                f'<line x1="{x:.2f}" y1="{y_base}" x2="{x:.2f}" y2="{y_base + 4}" stroke="#333"/>'
            )
        parts.append(
            f'<text x="{x:.2f}" y="{_LEN_Y1 + 18}" text-anchor="middle">{h}</text>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_COV_Y1 + 18}" text-anchor="middle">{h}</text>'
        )

    # y ticks: coverage at fifths, length at a nice step
    for i in range(6):
        v = i / 5.0
        y = _yscale(v, 1.0, _COV_Y0, _COV_Y1)
        parts.append(f'<line x1="{_X0 - 4}" y1="{y:.2f}" x2="{_X0}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_X0 - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.1f}</text>'
        )
    lstep = _nice_step(len_max)
    v = 0.0
    while v <= len_max + 1e-12:
        y = _yscale(v, len_max, _LEN_Y0, _LEN_Y1)
        parts.append(f'<line x1="{_X0 - 4}" y1="{y:.2f}" x2="{_X0}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_X0 - 8}" y="{y + 4:.2f}" text-anchor="end">{v:g}</text>'
        )
        v += lstep

    by_method: dict[str, list[tuple[int, float, float]]] = {m: [] for m in methods}
    for row in rows:
        by_method[row["method"]].append((row["horizon"], row["coverage"], row["avg_length"]))

    parts.append('<g id="panel-coverage" fill="none">')
    parts.append(
        f'<line class="nominal" x1="{_X0}" x2="{_X1}" '
        f'y1="{_yscale(level, 1.0, _COV_Y0, _COV_Y1):.2f}" '
        f'y2="{_yscale(level, 1.0, _COV_Y0, _COV_Y1):.2f}" '
        f'stroke="#666" stroke-dasharray="6 4"/>'
    )
    for idx, method in enumerate(methods):
        pts = " ".join(
            f"{_xscale(h, h_max):.2f},{_yscale(min(cov, 1.0), 1.0, _COV_Y0, _COV_Y1):.2f}"
            for h, cov, _ in sorted(by_method[method])
        )
        parts.append(
            f'<polyline class="series" data-method={_quoteattr(method)} '
            f'points="{pts}" stroke="{_color(method, idx)}" stroke-width="1.6"/>'
        )
    parts.append("</g>")

    parts.append('<g id="panel-length" fill="none">')
    for idx, method in enumerate(methods):
        pts = " ".join(
            f"{_xscale(h, h_max):.2f},{_yscale(length, len_max, _LEN_Y0, _LEN_Y1):.2f}"
            for h, _, length in sorted(by_method[method])
        )
        parts.append(
            f'<polyline class="series" data-method={_quoteattr(method)} '
            f'points="{pts}" stroke="{_color(method, idx)}" stroke-width="1.6"/>'
        )
    parts.append("</g>")

    # single solid rule at i = p through both panels
    xp = _xscale(min(p, h_max), h_max)
    parts.append(
        f'<line class="threshold" x1="{xp:.2f}" x2="{xp:.2f}" '
        f'y1="{_COV_Y0}" y2="{_LEN_Y1}" stroke="#000" stroke-width="1.2"/>'
    )

    # legend
    lx, ly = _X1 - 130, _COV_Y0 + 4
    for idx, method in enumerate(methods):
        y = ly + idx * 18
        parts.append(
            f'<line x1="{lx}" y1="{y}" x2="{lx + 24}" y2="{y}" '
            f'stroke="{_color(method, idx)}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{y + 4}">{_escape(method)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
