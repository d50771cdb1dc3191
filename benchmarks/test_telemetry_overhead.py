"""Telemetry overhead: tracing must be free when off and bounded when on.

PR 7 threads a ``TraceRecorder`` through the serving engine, the KV
allocator and the cluster control loop.  The contract is that every
emission site is guarded by a single ``recorder is not None`` check, so a
run with telemetry disabled executes the same vectorized fast path as
before the instrumentation landed.  This benchmark pins that contract to
numbers:

* ``sim_requests_per_s[tracing_off]`` — simulator throughput with
  ``telemetry=None`` on the decode-heavy single-replica trace.  The
  ``requests_per_s`` marker in ``benchmarks/compare_bench.py`` makes it a
  higher-is-better gated metric, so an instrumentation change that slows
  the disabled path fails CI like any other simulator regression.
* ``telemetry_overhead_frac[tracing_on]`` — relative wall-clock cost of
  running the same trace with a live recorder,
  ``(traced - untraced) / untraced``.  The ``overhead`` marker makes it a
  lower-is-better gated metric: tracing-on cost may not silently grow.
* ``attribution_s`` — post-hoc analysis cost: one conservation-verified
  :func:`repro.telemetry.attribute_run` pass over the traced run.
  Reported for visibility (it runs after the simulation, so it can never
  slow the simulator itself).

Tracing-on stays bounded because the hot loops coalesce: decode windows
are one span (never per-token events) and the event-horizon fast-forward
emits a single merged window per closed-form jump.
"""

import time

from repro import CentConfig, CentSystem, LLAMA2_7B, TraceRecorder
from repro.telemetry import attribute_run
from repro.serving.engine import ServingEngine
from repro.workloads.queries import (
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)

#: Same decode-heavy regime as ``test_sim_speed.py``, sized down so the
#: trace runs three times (warm-up, untraced, traced) in CI time.
OVERHEAD_REQUESTS = 4_000


def _decode_heavy_trace(count: int, *, rate_qps: float, seed: int = 7):
    queries = sharegpt_like_queries(
        count, seed=seed, mean_prompt_tokens=96.0,
        mean_decode_tokens=1536.0, sigma=0.4, max_context=2048)
    return with_arrivals(
        queries, poisson_arrivals(count, rate_qps=rate_qps, seed=seed + 4))


def _timed_simulate(engine: ServingEngine, trace, *, telemetry=None):
    start = time.perf_counter()
    run = engine.simulate(trace, telemetry=telemetry)
    return time.perf_counter() - start, run


def test_telemetry_overhead(benchmark, once, capsys):
    system = CentSystem(CentConfig(num_devices=16), LLAMA2_7B)
    trace = _decode_heavy_trace(OVERHEAD_REQUESTS, rate_qps=100.0)

    engine = ServingEngine(system, admission="paged")
    # Warm the grid/table caches so both measurements see the same steady
    # state (first-touch block-simulation cost is shared across runs).
    engine.simulate(trace[:200])

    def measure():
        off_s, _ = _timed_simulate(engine, trace)
        recorder = TraceRecorder()
        on_s, traced = _timed_simulate(engine, trace, telemetry=recorder)
        recorder.finalize()
        events = sum(len(scope.events) for scope in recorder.scopes)
        return off_s, on_s, events, traced

    off_s, on_s, events, traced = once(benchmark, measure)
    requests_per_s = OVERHEAD_REQUESTS / off_s
    overhead_frac = (on_s - off_s) / off_s

    # Post-hoc analysis cost: attribution runs on the finished EngineRun,
    # strictly outside the simulation loop (it cannot slow the simulator),
    # but its cost should stay visible as the request count grows.
    start = time.perf_counter()
    attribution = attribute_run(traced)
    attribution_s = time.perf_counter() - start
    assert attribution.num_finished + attribution.num_rejected \
        + attribution.num_unfinished == OVERHEAD_REQUESTS

    benchmark.extra_info["sim_requests_per_s[tracing_off]"] = requests_per_s
    benchmark.extra_info["telemetry_overhead_frac[tracing_on]"] = overhead_frac
    benchmark.extra_info["telemetry_trace_events"] = events
    benchmark.extra_info["attribution_s"] = attribution_s
    with capsys.disabled():
        print()
        print(f"telemetry overhead: {requests_per_s:,.0f} simulated "
              f"requests/s untraced ({off_s:.2f}s wall); tracing on adds "
              f"{overhead_frac:+.1%} ({on_s:.2f}s, {events:,} events); "
              f"attribution of {attribution.num_finished:,} requests in "
              f"{attribution_s * 1e3:.1f}ms")

    # Both runs simulate the same outcome — recording never changes it.
    untraced = engine.simulate(trace)
    assert traced.makespan_s == untraced.makespan_s
    assert len(traced.requests) == len(untraced.requests)

    # Floors/ceilings are machine-independent backstops; the real gate is
    # compare_bench.py tracking both extra_info metrics across runs.  The
    # throughput floor matches test_sim_speed.py (scalar fallback ~300
    # req/s); the overhead ceiling catches per-token event emission or a
    # broken fast-forward coalesce (either costs well over 100%).
    assert requests_per_s > 1_000
    assert overhead_frac < 1.0
    # Windows coalesced: far fewer events than simulated tokens.
    assert 0 < events < OVERHEAD_REQUESTS * 20
