"""Rendering helpers: run manifests and the per-direction score bar chart.

The chart is a static grouped-bar SVG (one group per direction, one bar
per setting), written without any plotting dependency so ``report`` stays
usable in minimal environments.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

_BAR_COLORS = ("#4878a8", "#d08642", "#6aa84f", "#9b59b6")


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out, command: str, arguments: dict, config: dict | None, seed: int | None,
                   inputs=(), outputs=()) -> None:
    """Write a command's manifest next to its outputs.

    An output directory ``out`` gets ``manifest.json``, a single output file
    ``out`` gets ``<out>.manifest.json``, so it replaces no directory's
    manifest. The manifest holds ``command`` (e.g. "data split"),
    ``arguments`` (every parsed argument under its option's name with
    underscores, e.g. ``max_new_tokens``), ``config`` (the resolved
    experiment config, or null), ``seed`` (the seed the command drew its
    random numbers from, or null), ``created_unix``, and ``inputs`` and
    ``outputs`` (the sha256 of each listed file that exists, by path).
    """
    manifest = {
        "command": command,
        "arguments": arguments,
        "config": config,
        "seed": seed,
        "created_unix": int(time.time()),
        "inputs": {str(p): file_sha256(p) for p in inputs if os.path.exists(str(p))},
        "outputs": {str(p): file_sha256(p) for p in outputs if os.path.exists(str(p))},
    }
    path = os.path.join(out, "manifest.json") if os.path.isdir(out) else f"{out}.manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def bar_chart_svg(directions, settings, score_fn) -> str:
    """Grouped bar chart; score_fn(setting, direction) -> float."""
    bar_w = 18
    group_gap = 24
    left, top, bottom = 50, 40, 60
    height = 320
    plot_h = height - top - bottom
    group_w = bar_w * len(settings) + group_gap
    width = left + group_w * len(directions) + 140
    max_score = max(
        [score_fn(s, d) for s in settings for d in directions] + [1.0]
    )
    scale = plot_h / (max_score * 1.1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="20" font-size="14">spBLEU by direction</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="#333"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - 120}" y2="{top + plot_h}" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        val = max_score * frac
        y = top + plot_h - val * scale
        parts.append(
            f'<text x="{left - 6}" y="{y + 4}" text-anchor="end" fill="#555">{val:.0f}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{width - 120}" y2="{y}" stroke="#ddd"/>'
        )
    for gi, direction in enumerate(directions):
        x0 = left + group_gap // 2 + gi * group_w
        for si, setting in enumerate(settings):
            val = score_fn(setting, direction)
            h = max(val, 0.0) * scale
            x = x0 + si * bar_w
            y = top + plot_h - h
            color = _BAR_COLORS[si % len(_BAR_COLORS)]
            parts.append(
                f'<rect x="{x}" y="{y:.1f}" width="{bar_w - 2}" height="{h:.1f}" fill="{color}">'
                f"<title>{_escape(direction)} {_escape(setting)}: {val:.2f}</title></rect>"
            )
        label_x = x0 + bar_w * len(settings) / 2
        parts.append(
            f'<text x="{label_x:.1f}" y="{top + plot_h + 14}" text-anchor="middle" '
            f'transform="rotate(35 {label_x:.1f} {top + plot_h + 14})">{_escape(direction)}</text>'
        )
    legend_x = width - 110
    for si, setting in enumerate(settings):
        y = top + si * 18
        color = _BAR_COLORS[si % len(_BAR_COLORS)]
        parts.append(f'<rect x="{legend_x}" y="{y}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 18}" y="{y + 10}">{_escape(setting)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
