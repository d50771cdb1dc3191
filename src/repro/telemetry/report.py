"""Self-contained HTML report over a saved telemetry trace.

One artifact, no dependencies, no network: :func:`write_report` renders
the attribution tables, per-replica utilization bars, KV-pool occupancy
sparklines, the epoch goodput/backlog timeline, and the SLO alert log
into a single HTML file (inline CSS + SVG only), so a CI run can upload
"what happened in this run" as one browsable artifact next to the
Perfetto trace.

Inputs mirror the CLI: the flat JSONL event dicts
(:func:`~repro.telemetry.export.read_jsonl` /
:func:`~repro.telemetry.export.iter_scope_events`), plus an optional
:class:`~repro.core.results.ClusterResult` whose measured
``metrics_timeline`` and ``alert_log`` replace the trace-replayed
equivalents when available.
"""

from __future__ import annotations

import html
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.telemetry.attribution import TraceAttribution, attribute_trace
from repro.telemetry.slo import (
    AlertLog,
    SloMonitor,
    default_rules,
    snapshots_from_trace,
)

__all__ = ["render_report", "write_report"]

Event = Dict[str, Any]

#: Segment palette of the stacked bars (matched across table and legend).
_COLORS = {
    "queued": "#c9b458",
    "prefill": "#4c78a8",
    "decode": "#59a14f",
    "preempted": "#e15759",
    "idle": "#d3d3d3",
}

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 70rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; font-size: .85rem; }
th, td { padding: .25rem .6rem; text-align: right; }
th { border-bottom: 1px solid #aaa; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
.bar { display: flex; height: .9rem; width: 16rem; background: #eee;
       border-radius: 2px; overflow: hidden; }
.bar span { display: block; height: 100%; }
.legend span.chip { display: inline-block; width: .8rem; height: .8rem;
                    border-radius: 2px; margin: 0 .25rem 0 .9rem;
                    vertical-align: -0.1rem; }
.alert { border-left: 4px solid #e15759; background: #fbecec;
         padding: .4rem .8rem; margin: .4rem 0; font-size: .9rem; }
.alert.cleared { border-color: #c9b458; background: #fdf7e3; }
.ok { border-left: 4px solid #59a14f; background: #eef7ee;
      padding: .4rem .8rem; font-size: .9rem; }
svg .axis { stroke: #999; stroke-width: 1; }
svg text { font-size: 10px; fill: #555; }
.muted { color: #777; font-size: .85rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _stacked_bar(parts: Sequence[Tuple[str, float]], total: float) -> str:
    """One horizontal stacked bar; ``parts`` are (kind, seconds)."""
    if total <= 0:
        return '<div class="bar"></div>'
    spans = []
    for kind, seconds in parts:
        width = 100.0 * max(seconds, 0.0) / total
        if width < 0.05:
            continue
        spans.append(f'<span style="width:{width:.2f}%;'
                     f'background:{_COLORS.get(kind, "#888")}" '
                     f'title="{_esc(kind)}: {seconds * 1e3:.1f}ms"></span>')
    return f'<div class="bar">{"".join(spans)}</div>'


def _legend(kinds: Sequence[str]) -> str:
    chips = "".join(
        f'<span class="chip" style="background:{_COLORS[k]}"></span>{k}'
        for k in kinds)
    return f'<p class="legend muted">{chips}</p>'


def _sparkline(points: Sequence[Tuple[float, float]], *, width: int = 640,
               height: int = 60, y_max: Optional[float] = None,
               color: str = "#4c78a8") -> str:
    """Inline SVG polyline over ``(x, y)`` samples (y clamped at 0)."""
    if not points:
        return '<p class="muted">no samples</p>'
    xs = [p[0] for p in points]
    ys = [max(p[1], 0.0) for p in points]
    x0, x1 = min(xs), max(xs)
    top = y_max if y_max is not None else max(max(ys), 1e-12)
    span = (x1 - x0) or 1.0
    coords = " ".join(
        f"{4 + (width - 8) * (x - x0) / span:.1f},"
        f"{height - 4 - (height - 12) * min(y / top, 1.0):.1f}"
        for x, y in zip(xs, ys, strict=True))
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<line class="axis" x1="4" y1="{height - 4}" x2="{width - 4}" '
        f'y2="{height - 4}"/>'
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"/>'
        f'<text x="4" y="10">max {top:.4g}</text>'
        f'<text x="{width - 120}" y="{height - 8}">'
        f'{x0:.3f}s&#8211;{x1:.3f}s</text>'
        "</svg>")


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _overview_section(events: Sequence[Event]) -> str:
    families: Dict[str, int] = {}
    t0 = t1 = None
    scopes = set()
    for event in events:
        family = event["name"].split(".", 1)[0]
        families[family] = families.get(family, 0) + 1
        scopes.add(event["scope"])
        end = event["ts_s"] + event.get("dur_s", 0.0)
        t0 = event["ts_s"] if t0 is None else min(t0, event["ts_s"])
        t1 = end if t1 is None else max(t1, end)
    cells = "".join(
        f"<tr><td class='name'>{_esc(name)}</td><td>{count}</td></tr>"
        for name, count in sorted(families.items()))
    span = f"{t0:.3f}s &#8211; {t1:.3f}s" if events else "empty"
    return (
        f"<h2>Overview</h2>"
        f"<p>{len(events)} events across {len(scopes)} scopes, "
        f"time span {span}.</p>"
        f"<table><tr><th class='name'>family</th><th>events</th></tr>"
        f"{cells}</table>")


def _utilization_section(attribution: TraceAttribution) -> str:
    rows = []
    for scope in sorted(attribution.scope_busy):
        busy = attribution.scope_busy[scope]
        span = busy["end_s"] - busy["start_s"]
        active = busy["prefill"] + busy["decode"]
        if active == 0.0 and scope == "control":
            continue  # the control plane has no engine windows
        parts = [("prefill", busy["prefill"]), ("decode", busy["decode"]),
                 ("idle", max(span - active, 0.0))]
        rows.append(
            f"<tr><td class='name'>{_esc(scope)}</td>"
            f"<td>{span:.3f}s</td>"
            f"<td>{attribution.scope_utilization(scope):.1%}</td>"
            f"<td>{_stacked_bar(parts, span)}</td></tr>")
    if not rows:
        return "<h2>Replica utilization</h2><p class='muted'>no engine " \
               "window spans in this trace</p>"
    return (
        "<h2>Replica utilization</h2>"
        "<table><tr><th class='name'>scope</th><th>span</th>"
        "<th>busy</th><th style='text-align:left'>breakdown</th></tr>"
        + "".join(rows) + "</table>"
        + _legend(("prefill", "decode", "idle")))


def _attribution_section(attribution: TraceAttribution, *,
                         top: int = 20) -> str:
    rows = sorted(
        attribution.request_rows,
        key=lambda row: -(row["queued_s"] + row["prefill_s"]
                          + row["decode_s"]))
    if not rows:
        return "<h2>Request attribution</h2><p class='muted'>no request " \
               "lifecycles in this trace</p>"
    cells = []
    for row in rows[:top]:
        total = row["queued_s"] + row["prefill_s"] + row["decode_s"]
        parts = [("queued", row["queued_s"]), ("prefill", row["prefill_s"]),
                 ("decode", row["decode_s"])]
        flag = "" if row["finished"] else " *"
        cells.append(
            f"<tr><td class='name'>{_esc(row['scope'])}</td>"
            f"<td>{row['request_id']}{flag}</td>"
            f"<td>{row['queued_s'] * 1e3:.1f}</td>"
            f"<td>{row['prefill_s'] * 1e3:.1f}</td>"
            f"<td>{row['decode_s'] * 1e3:.1f}</td>"
            f"<td>{row['preempted_s'] * 1e3:.1f}</td>"
            f"<td>{total * 1e3:.1f}</td>"
            f"<td>{_stacked_bar(parts, total)}</td></tr>")
    finished = sum(1 for row in rows if row["finished"])
    return (
        "<h2>Request attribution</h2>"
        f"<p class='muted'>{len(rows)} lifecycles ({finished} finished); "
        f"slowest {min(top, len(rows))} by wall time, milliseconds; "
        "* = did not finish on this scope (migrated or still open); "
        "preempted time overlays the phase walls.</p>"
        "<table><tr><th class='name'>scope</th><th>req</th><th>queued</th>"
        "<th>prefill</th><th>decode</th><th>preempted</th><th>total</th>"
        "<th style='text-align:left'>breakdown</th></tr>"
        + "".join(cells) + "</table>"
        + _legend(("queued", "prefill", "decode")))


def _kv_section(attribution: TraceAttribution) -> str:
    if not attribution.kv_occupancy:
        return ""
    blocks = []
    for scope in sorted(attribution.kv_occupancy):
        timeline = attribution.kv_occupancy[scope]
        blocks.append(f"<h3 class='name'>{_esc(scope)}</h3>"
                      + _sparkline(timeline, y_max=1.0, color="#e15759"))
    swapped = attribution.link_swap_bytes / 2 ** 20
    migrated = attribution.link_migrated_bytes / 2 ** 20
    return (
        "<h2>KV pool occupancy</h2>"
        "<p class='muted'>fraction of pool blocks in use, per sample</p>"
        + "".join(blocks)
        + f"<p>CXL link: {swapped:.1f} MiB KV swapped (swap-out + swap-in), "
          f"{migrated:.1f} MiB live-migrated through host memory.</p>")


def _epoch_section(events: Sequence[Event], result) -> str:
    if result is not None and result.metrics_timeline:
        goodput = [(s.ts_s, s.values.get("cluster.goodput_tokens_per_s", 0.0))
                   for s in result.metrics_timeline]
        backlog = [(s.ts_s, s.values.get("cluster.backlog", 0.0))
                   for s in result.metrics_timeline]
        source = "measured metrics timeline"
    else:
        epochs = [event for event in events
                  if event["name"] == "cluster.epoch"]
        goodput = [(e["ts_s"] + e.get("dur_s", 0.0),
                    (e.get("args") or {}).get("goodput_tokens_per_s", 0.0))
                   for e in epochs]
        backlog = [(e["ts_s"] + e.get("dur_s", 0.0),
                    (e.get("args") or {}).get("backlog", 0.0))
                   for e in epochs]
        source = "trace epoch spans"
    if not goodput:
        return ""
    return (
        "<h2>Epoch timeline</h2>"
        f"<p class='muted'>{len(goodput)} epochs ({source})</p>"
        "<h3>goodput (tokens/s)</h3>"
        + _sparkline(goodput, color="#59a14f")
        + "<h3>backlog (mean queued requests)</h3>"
        + _sparkline(backlog, color="#c9b458"))


def _alerts_section(events: Sequence[Event], result) -> str:
    if result is not None:
        log: AlertLog = result.alert_log
        source = "recorded during the run"
    else:
        snapshots = snapshots_from_trace(events)
        log = SloMonitor(default_rules()).observe_timeline(snapshots)
        source = "replayed from the trace with the stock rules"
    if not log:
        body = "<p class='ok'>no SLO alerts fired</p>"
    else:
        body = "".join(
            f"<div class='alert{'' if alert.active else ' cleared'}'>"
            f"{_esc(alert.describe())}</div>"
            for alert in log)
    return f"<h2>SLO alerts</h2><p class='muted'>{source}</p>{body}"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def render_report(events: Iterable[Event], *, result=None,
                  title: str = "telemetry report") -> str:
    """The full report as one self-contained HTML string."""
    events = list(events)
    attribution = attribute_trace(events)
    sections = [
        _overview_section(events),
        _utilization_section(attribution),
        _attribution_section(attribution),
        _kv_section(attribution),
        _epoch_section(events, result),
        _alerts_section(events, result),
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>"
        + "".join(section for section in sections if section)
        + "</body></html>")


def write_report(path: str, events: Iterable[Event], *, result=None,
                 title: str = "telemetry report") -> str:
    """Render and write the HTML report; returns ``path``."""
    document = render_report(events, result=result, title=title)
    with open(path, "w") as handle:
        handle.write(document)
    return path
