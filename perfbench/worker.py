"""One benchmark process: set up a workload, serve it, report as JSON.

Started by ``run.py`` from the checkout root with ``src`` on the path; the
last line of standard output is the JSON report.  Modes:

``setup``   time set-up only (imports, input generation, construction);
``timed``   set up, one cold serve call, then ``WARM_CALLS`` repeats of it;
``traced``  the same calls with span wrappers on every layer entry point:
            cold traced, then warm calls alternating untraced and traced.
            Writes the spans as Chrome trace-event JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

#: Warm repeats per timed process; with them one process takes from a few
#: seconds (offline_decode) up to ~25 s (cluster_rebalance, whose cold call
#: simulates ~25 transformer blocks).  Host drift moves whole runs far more
#: than the sampling error of a median over more warm calls would.
WARM_CALLS = 2
#: Untraced/traced warm call pairs in the traced run.
TRACED_WARM_PAIRS = 2


def _setup(workload: str, seed: int, out_dir: str):
    """Import, generate and construct; returns (scenario, generate_s)."""
    import scenarios

    start = time.perf_counter()
    inputs = scenarios.generate(workload, seed)
    generate_s = time.perf_counter() - start
    return scenarios.construct(workload, inputs, out_dir), generate_s


def _check(scenario, result, reference):
    """Outcome of one serve call, with its failures; pins the fingerprint."""
    import scenarios

    outcome = scenario.outcome(result)
    outcome["failures"] += scenarios.shape_failures(scenario.name, outcome)
    if reference is not None and outcome["fingerprint"] != reference["fingerprint"]:
        outcome["failures"].append("simulated fingerprint differs from the "
                                   "first run's")
    return outcome


def _fresh_heap(scenario) -> None:
    """Free the previous call's record and collect before the next call, so
    neither the freeing nor leftover garbage is charged to that call.  The
    caller must already have dropped the previous result."""
    scenario.record = None
    gc.collect()


def _timed_call(scenario):
    _fresh_heap(scenario)
    start = time.perf_counter()
    result = scenario.serve()
    return result, time.perf_counter() - start


def run_setup(args) -> dict:
    start = time.perf_counter()
    _setup(args.workload, args.seed, args.out)
    return {"setup_s": time.perf_counter() - start}


def run_timed(args) -> dict:
    start = time.perf_counter()
    scenario, _ = _setup(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - start
    result, cold_s = _timed_call(scenario)
    first = _check(scenario, result, None)
    failures = list(first["failures"])
    attempted, failed = 1, int(bool(failures))
    warm = []
    for _ in range(WARM_CALLS):
        del result  # the previous result must not be alive during the call
        result, seconds = _timed_call(scenario)
        warm.append(seconds)
        outcome = _check(scenario, result, first)
        attempted += 1
        failed += bool(outcome["failures"])
        failures += outcome["failures"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"setup_s": setup_s, "cold_run_s": cold_s, "warm_run_s": warm,
            "peak_rss_mib": peak, "attempted": attempted, "failed": failed,
            "failures": failures, "outcome": first}


def run_traced(args) -> dict:
    import layers
    from spans import SpanRecorder, adopt_orphans, write_chrome_trace

    recorder = SpanRecorder()
    scenario, generate_s = _setup(args.workload, args.seed, args.out)
    calls = []  # root span index of each traced serve call

    def traced_call():
        _fresh_heap(scenario)
        with layers.patched(recorder):
            with recorder.span(layers.SERVE_SPAN) as root:
                result = scenario.serve()
        calls.append(root)
        return result

    result = traced_call()
    first = _check(scenario, result, None)
    outcomes = [first]
    # Warm calls alternate untraced and traced, so the overhead ratio
    # compares neighbours rather than a call against a colder one.
    untraced_s = []
    for _ in range(TRACED_WARM_PAIRS):
        del result
        result, seconds = _timed_call(scenario)
        untraced_s.append(seconds)
        outcomes.append(_check(scenario, result, first))
        del result
        result = traced_call()
        outcomes.append(_check(scenario, result, first))

    spans = recorder.spans
    parents = adopt_orphans(spans, root_thread=spans[calls[0]].thread)
    cold = layers.SpanTable(spans, parents, calls[0])
    warm = layers.SpanTable(spans, parents, calls[1])
    if args.workload == "offline_decode" and layers.kv_store_calls(cold):
        first["failures"].append("offline_decode made KV-store calls")
    traced_s = [spans[index].duration_ns / 1e9 for index in calls[1:]]
    metrics = layers.layer_metrics(
        cold, warm, generate_s=generate_s, outcome=first,
        overhead_frac=statistics.median(traced_s)
        / statistics.median(untraced_s) - 1.0)
    predictions = layers.layer_predictions(
        args.workload, cold, warm, metrics["trace.unattributed_frac"])
    write_chrome_trace(os.path.join(args.out, f"{args.workload}.spans.json"),
                       spans, parents,
                       process_name=f"perfbench {args.workload} seed {args.seed}")
    return {"metrics": metrics, "predictions": predictions,
            "attempted": len(outcomes),
            "failed": sum(bool(outcome["failures"]) for outcome in outcomes),
            "failures": [text for outcome in outcomes
                         for text in outcome["failures"]],
            "outcome": first, "spans": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    report = {"setup": run_setup, "timed": run_timed,
              "traced": run_traced}[args.mode](args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
