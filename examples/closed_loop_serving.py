#!/usr/bin/env python3
"""Closed-loop cluster serving: epoch re-placement on measured backlog.

Two Llama2-7B tenants share a 12-device pool, but their traffic is
*phase-shifted*: ``early`` fires a heavy-tailed burst immediately, ``late``
fires an equal burst once the first should have drained.  Total demand is
symmetric, so every static placement splits the pool evenly — and each
tenant drowns during its own burst while its neighbour's devices idle.

The closed loop (``repro.cluster.control``) pauses every replica at epoch
boundaries, measures each tenant's backlog (the tokens its replica still
owes, plus the epoch's arrivals), and re-places the pool toward the
bursting tenant whenever the projected goodput gain beats the migration
stall (model weights reloading over the CXL fabric).  When a re-placement
dismantles a replica, its in-flight requests' KV is **live-migrated**
through host memory (``migration="live"``) so they resume at their
original progress instead of restarting from scratch.  The study prints
the static-vs-closed-loop comparison, the applied re-placements, and the
migration economics (requests moved, KV bytes, progress preserved).

Run with::

    python examples/closed_loop_serving.py

Pass ``--trace PREFIX`` to record the closed-loop run with the unified
telemetry layer and write ``PREFIX.perfetto.json`` (open in
chrome://tracing or https://ui.perfetto.dev — replicas appear as
processes, requests as tracks, with preemption instants and rebalance
decisions on the control track) plus ``PREFIX.jsonl`` for
``python -m repro.telemetry PREFIX.jsonl``.  Pass ``--report PREFIX``
(implies tracing) to additionally render ``PREFIX.report.html`` — the
self-contained attribution / utilization / SLO report.
"""

import argparse

from repro.evaluation import closed_loop_study, format_table
from repro.telemetry import TraceRecorder, write_jsonl, write_perfetto, write_report
from repro.telemetry.export import iter_scope_events

POOL_DEVICES = 12
QUERIES_PER_TENANT = 40


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="PREFIX", default=None,
                        help="record the closed-loop run and write "
                             "PREFIX.perfetto.json + PREFIX.jsonl")
    parser.add_argument("--report", metavar="PREFIX", default=None,
                        help="also write PREFIX.report.html (attribution + "
                             "utilization + SLO alerts); implies tracing")
    cli = parser.parse_args()

    recorder = TraceRecorder() if (cli.trace or cli.report) else None
    study = closed_loop_study(num_devices=POOL_DEVICES,
                              queries_per_tenant=QUERIES_PER_TENANT,
                              telemetry=recorder)
    print(format_table(
        study["rows"],
        f"Closed-loop vs static placement ({POOL_DEVICES} devices, "
        f"{QUERIES_PER_TENANT} queries/tenant)",
    ))
    print(f"\noperating point: {study['rate_qps']:.2f} qps per burst, "
          f"SLO {study['sla_s']:.1f} s, control epoch {study['epoch_s']:.1f} s")
    print("closed-loop goodput gain over static sla_aware: "
          f"{study['closed_loop_gain']:.2f}x "
          f"({study['num_rebalances']} re-placements, "
          f"{study['migration_stall_s']:.2f} s total migration stall)")
    print("live KV migration: "
          f"{study['num_migrated_requests']} in-flight requests moved, "
          f"{study['migrated_kv_bytes'] / 2**20:.1f} MiB of KV through host "
          f"memory in {study['kv_migration_time_s'] * 1e3:.1f} ms, "
          f"{study['restored_progress_tokens']} progress tokens preserved")
    print(f"open-loop path bit-exact across runs: {study['static_bit_exact']}")
    print("\nper-epoch pool goodput / backlog:")
    for start_s, goodput, backlog in study["epoch_timeline"]:
        bar = "#" * min(int(backlog), 60)
        print(f"  t={start_s:7.1f}s  goodput {goodput:8.1f} tok/s  "
              f"backlog {backlog:6.1f} {bar}")

    closed = study["closed_result"]
    if closed.alert_log:
        print(f"\nSLO alerts ({len(closed.alert_log)} fired, "
              f"{len(closed.alert_log.active)} active at end of run):")
        print(closed.alert_log.describe())
    elif recorder is not None:
        print("\nSLO alerts: none fired (stock rules)")

    if recorder is not None:
        recorder.finalize()
        if cli.trace:
            events = write_perfetto(recorder, f"{cli.trace}.perfetto.json")
            lines = write_jsonl(recorder, f"{cli.trace}.jsonl")
            print(f"\ntrace: {events} Perfetto events -> "
                  f"{cli.trace}.perfetto.json (open in chrome://tracing), "
                  f"{lines} records -> {cli.trace}.jsonl "
                  f"(inspect with python -m repro.telemetry)")
        if cli.report:
            path = write_report(f"{cli.report}.report.html",
                                iter_scope_events(recorder), result=closed,
                                title="closed_loop_serving")
            print(f"HTML report -> {path}")


if __name__ == "__main__":
    main()
