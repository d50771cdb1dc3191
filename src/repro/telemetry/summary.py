"""Trace summarization behind ``python -m repro.telemetry``.

All functions operate on the flat event dicts the JSONL export produces
(``read_jsonl``) — ``{"scope", "pid", "name", "ts_s", "dur_s"?,
"request_id"?, "args"?}`` — so the CLI can audit any saved trace without
re-running the simulation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "epoch_audit",
    "overview",
    "preemption_chains",
    "request_timeline",
]

Event = Dict[str, Any]


def _args(event: Event) -> Dict[str, Any]:
    return event.get("args") or {}


def overview(events: Iterable[Event]) -> str:
    """Event counts per name, per scope, plus the trace's time range."""
    events = list(events)
    if not events:
        return "empty trace"
    names = Counter(event["name"] for event in events)
    scopes = Counter(event["scope"] for event in events)
    start = min(event["ts_s"] for event in events)
    end = max(event["ts_s"] + event.get("dur_s", 0.0) for event in events)
    lines = [f"{len(events)} events across {len(scopes)} scopes, "
             f"t = {start:.3f}s .. {end:.3f}s", "", "by event type:"]
    for name, count in sorted(names.items()):
        lines.append(f"  {name:<28} {count:>7}")
    lines.append("")
    lines.append("by scope:")
    for scope, count in sorted(scopes.items()):
        lines.append(f"  {scope:<28} {count:>7}")
    return "\n".join(lines)


def request_timeline(events: Iterable[Event], request_id: int,
                     scope: Optional[str] = None) -> str:
    """Chronological walk of one request's events.

    Follows ``cluster.migrate`` correlation events across replicas: if the
    request was live-migrated, the timeline continues under the request id
    it received on the destination replica.
    """
    events = sorted(events, key=lambda event: event["ts_s"])
    if scope is None:
        for event in events:
            if event.get("request_id") == request_id:
                scope = event["scope"]
                break
        if scope is None:
            return f"request {request_id}: no events"

    lines: List[str] = []
    hops = 0
    while True:
        lines.append(f"[{scope}] request {request_id}:")
        migrated_to: Optional[Tuple[str, int]] = None
        for event in events:
            if event["scope"] != scope or event.get("request_id") != request_id:
                continue
            detail = ", ".join(f"{key}={value}" for key, value
                               in sorted(_args(event).items())
                               if key != "request_id")
            dur = event.get("dur_s")
            span = f" [{dur * 1e3:.2f} ms]" if dur is not None else ""
            lines.append(f"  t={event['ts_s']:10.4f}s  "
                         f"{event['name']:<24}{span}"
                         f"{'  ' + detail if detail else ''}")
        for event in events:
            if (event["name"] == "cluster.migrate"
                    and _args(event).get("source_scope") == scope
                    and _args(event).get("source_request") == request_id):
                migrated_to = (_args(event)["dest_scope"],
                               _args(event)["dest_request"])
                break
        if migrated_to is None or hops >= 8:
            break
        hops += 1
        scope, request_id = migrated_to
        lines.append(f"  -- live-migrated to {scope} "
                     f"as request {request_id} --")
    return "\n".join(lines)


def preemption_chains(events: Iterable[Event], *, top: int = 10) -> str:
    """Per-request preempt -> resume chains, longest chains first."""
    chains: Dict[Tuple[str, int], List[Event]] = defaultdict(list)
    for event in events:
        if event["name"] in ("serving.preempt", "request.resume"):
            chains[(event["scope"], event["request_id"])].append(event)
    if not chains:
        return "no preemptions recorded"
    ranked = sorted(chains.items(),
                    key=lambda item: -sum(entry["name"] == "serving.preempt"
                                          for entry in item[1]))
    lines = [f"{len(chains)} requests preempted; "
             f"longest chains:"]
    for (scope, rid), chain in ranked[:top]:
        chain.sort(key=lambda event: event["ts_s"])
        steps = []
        for event in chain:
            if event["name"] == "serving.preempt":
                restore = _args(event).get("restore", "?")
                steps.append(f"preempt({restore})@{event['ts_s']:.3f}s")
            else:
                steps.append(f"resume@{event['ts_s']:.3f}s")
        lines.append(f"  [{scope}] request {rid}: " + " -> ".join(steps))
    return "\n".join(lines)


def epoch_audit(events: Iterable[Event]) -> str:
    """Control-plane decision audit: one line per epoch, with the
    projected-gain-vs-stall arithmetic of every applied rebalance."""
    epochs = [event for event in events if event["name"] == "cluster.epoch"]
    decisions = [event for event in events
                 if event["name"] == "cluster.rebalance"]
    if not epochs and not decisions:
        return "no control-plane events recorded"
    by_end: Dict[float, List[Event]] = defaultdict(list)
    for decision in decisions:
        by_end[decision["ts_s"]].append(decision)
    lines = [f"{len(epochs)} epochs, {len(decisions)} applied rebalances:"]
    for epoch in sorted(epochs, key=lambda event: event["ts_s"]):
        args = _args(epoch)
        end_s = epoch["ts_s"] + epoch.get("dur_s", 0.0)
        lines.append(f"  epoch {args.get('epoch', '?'):>3}  "
                     f"t={epoch['ts_s']:8.2f}s..{end_s:8.2f}s  "
                     f"goodput {args.get('goodput_tokens_per_s', 0.0):9.1f} "
                     f"tok/s  backlog {args.get('backlog', 0.0):7.1f}")
        for decision in by_end.get(end_s, []):
            d_args = _args(decision)
            gain = d_args.get("projected_gain_tokens", 0.0)
            cost = d_args.get("migration_cost_tokens", 0.0)
            lines.append(
                f"       -> REBALANCE: projected gain {gain:,.0f} tokens vs "
                f"migration cost {cost:,.0f} tokens "
                f"(stall {d_args.get('stall_s', 0.0):.2f}s, rebuilt "
                f"replicas {d_args.get('rebuilt', [])})")
    orphans = [decision for decision in decisions
               if not any(abs(decision["ts_s"] - (epoch["ts_s"]
                              + epoch.get("dur_s", 0.0))) < 1e-9
                          for epoch in epochs)]
    for decision in orphans:
        d_args = _args(decision)
        lines.append(f"  t={decision['ts_s']:8.2f}s  REBALANCE "
                     f"(gain {d_args.get('projected_gain_tokens', 0.0):,.0f} "
                     f"vs cost {d_args.get('migration_cost_tokens', 0.0):,.0f}"
                     f" tokens)")
    return "\n".join(lines)
