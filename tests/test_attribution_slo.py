"""The analysis layer: time attribution, SLO monitoring, reporting.

Three contracts under test:

* **Conservation** — every :class:`RequestAttribution`'s segments sum
  *bit-exactly* to its measured latency and every
  :class:`ReplicaAttribution`'s to its makespan, for arbitrary timing
  marks (hypothesis) and for real engine runs with preemptions, swaps
  and recompute rebuilds.  Attribution derives from engine counters, not
  the trace, so traced/untraced and scalar/vectorized runs must produce
  *identical* attributions.
* **SLO rule semantics** — windowed burn rate (no firing before the
  window fills), breach fractions, guard metrics, hysteresis (one alert
  per excursion, not a flap storm), rate rules over monotonic counters,
  and silence on healthy timelines.  Plus the integration contract: a
  traced overloaded closed-loop run fires, an underloaded one stays
  silent, and replaying the rules over the saved trace reproduces the
  live monitor's alerts.
* **Reporting** — the HTML report is self-contained and the
  ``python -m repro.telemetry`` subviews render from a saved trace.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterEngine, TenantSpec
from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import ServingEngine
from repro.serving.request import RequestState, ServingRequest
from repro.telemetry import (
    Alert,
    AlertLog,
    ConservationError,
    SloMonitor,
    SloRule,
    TraceRecorder,
    attribute_run,
    attribute_trace,
    default_rules,
    snapshots_from_trace,
    verify_conservation,
    write_jsonl,
    write_report,
)
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.export import iter_scope_events
from repro.telemetry.metrics import MetricsSnapshot
from repro.workloads import (
    bursty_arrivals,
    fixed_queries,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)
from repro.workloads.queries import Query


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2),
                      small_model)


@pytest.fixture(scope="module")
def tight_capacity(small_model):
    """Capacity for ~2 full contexts: paged admission must preempt."""
    profile = ModelMemoryProfile(small_model)
    return int(profile.parameter_bytes
               + 2.2 * profile.kv_cache_bytes_per_query(512))


def preempting_trace():
    return fixed_queries(8, prompt_tokens=256, decode_tokens=256)


# --------------------------------------------------------------- conservation


def finished_request(request_id, *, arrival, queued, prefill, prefill_stall,
                     decode_stall, decode):
    """Build a FINISHED ServingRequest from its intended segment widths."""
    request = ServingRequest(request_id, Query(64, 64,
                                               arrival_time_s=arrival))
    request.admitted_time_s = arrival + queued
    request.first_token_time_s = (request.admitted_time_s
                                  + prefill + prefill_stall)
    request.finish_time_s = (request.first_token_time_s
                             + decode_stall + decode)
    request.prefill_stall_s = prefill_stall
    request.stall_s = prefill_stall + decode_stall
    request.state = RequestState.FINISHED
    return request


def run_stub(requests, *, prefill_busy=0.0, decode_busy=0.0, idle=0.0):
    """Duck-typed EngineRun: attribute_run only reads these four fields."""
    return SimpleNamespace(requests=list(requests),
                           makespan_s=prefill_busy + decode_busy + idle,
                           prefill_time_s=prefill_busy,
                           decode_time_s=decode_busy)


seconds = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                    allow_infinity=False)
segment_widths = st.tuples(seconds, seconds, seconds, seconds, seconds,
                           seconds)


class TestConservationProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(segment_widths, min_size=1, max_size=8),
           seconds, seconds, seconds)
    def test_segments_always_sum_to_measured_totals(
            self, widths, prefill_busy, decode_busy, idle):
        # Arbitrary non-negative segment widths (including zeros and
        # values spanning eight orders of magnitude, where float addition
        # is at its least associative): the fold must reproduce the
        # measured latency bit-exactly because the final segment is the
        # residual of that very fold.
        requests = [
            finished_request(i, arrival=arrival, queued=queued,
                             prefill=prefill, prefill_stall=prefill_stall,
                             decode_stall=decode_stall, decode=decode)
            for i, (arrival, queued, prefill, prefill_stall, decode_stall,
                    decode) in enumerate(widths)
        ]
        run = run_stub(requests, prefill_busy=prefill_busy,
                       decode_busy=decode_busy, idle=idle)
        attribution = attribute_run(run)  # verify_conservation inside
        assert attribution.num_finished == len(widths)
        for row in attribution.requests:
            assert row.segment_sum_s == row.latency_s
            # The timing marks round-trip through the float64 columnar
            # store, so recovered segments match what we constructed up
            # to float addition error.
            assert row.queued_s == pytest.approx(
                widths[row.request_id][1], abs=1e-6, rel=1e-9)
        replica = attribution.replica
        assert replica.segment_sum_s == replica.makespan_s
        assert replica.idle_s == pytest.approx(idle, abs=1e-9, rel=1e-9)
        totals = attribution.totals()
        assert set(totals) == {"queued", "prefill", "prefill_stall",
                               "decode_stall", "decode"}

    def test_mixed_outcomes_are_counted_not_decomposed(self):
        finished = finished_request(0, arrival=0.0, queued=0.1, prefill=0.2,
                                    prefill_stall=0.0, decode_stall=0.3,
                                    decode=0.4)
        rejected = ServingRequest(1, Query(64, 64),
                                  state=RequestState.REJECTED)
        unfinished = ServingRequest(2, Query(64, 64, arrival_time_s=0.5),
                                    state=RequestState.DECODE)
        attribution = attribute_run(
            run_stub([finished, rejected, unfinished], idle=2.0))
        assert attribution.num_requests == 3
        assert attribution.num_finished == 1
        assert attribution.num_rejected == 1
        assert attribution.num_unfinished == 1
        assert len(attribution.requests) == 1

    def test_overcharged_stall_fails_conservation(self):
        # A prefill stall larger than the admission->first-token gap means
        # some other segment was over-charged: the prefill segment goes
        # meaningfully negative and verification must refuse the
        # decomposition instead of silently shifting the time elsewhere.
        request = finished_request(0, arrival=0.0, queued=0.1, prefill=0.2,
                                   prefill_stall=0.0, decode_stall=0.0,
                                   decode=0.5)
        request.prefill_stall_s = 5.0
        request.stall_s = 5.0
        with pytest.raises(ConservationError, match="negative"):
            attribute_run(run_stub([request], idle=1.0))

    def test_verify_rejects_tampered_rows(self):
        attribution = attribute_run(run_stub(
            [finished_request(0, arrival=0.0, queued=0.1, prefill=0.2,
                              prefill_stall=0.0, decode_stall=0.0,
                              decode=0.5)], idle=1.0))
        row = attribution.requests[0]
        import dataclasses
        tampered = dataclasses.replace(attribution, requests=(
            dataclasses.replace(row, decode_s=row.decode_s + 0.25),))
        with pytest.raises(ConservationError, match="segments sum"):
            verify_conservation(tampered)


# -------------------------------------------------- run-level attribution


#: The stall-heavy scenarios: every restore mode plus the legacy path.
SCENARIOS = {
    "reserve": dict(admission="reserve"),
    "paged_swap": dict(admission="paged", preemption_restore="swap"),
    "paged_recompute": dict(admission="paged",
                            preemption_restore="recompute"),
}


def make_engine(system, kwargs, *, vectorize, capacity=None):
    extra = {}
    if capacity is not None:
        extra["memory_capacity_bytes"] = capacity
    return ServingEngine(system, context_step=512, vectorize=vectorize,
                         **kwargs, **extra)


class TestRunAttribution:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scalar_and_vectorized_attributions_identical(
            self, system, tight_capacity, scenario):
        kwargs = SCENARIOS[scenario]
        capacity = tight_capacity if kwargs["admission"] == "paged" else None
        trace = preempting_trace()
        runs = {
            vectorize: make_engine(system, kwargs, vectorize=vectorize,
                                   capacity=capacity).simulate(trace)
            for vectorize in (False, True)
        }
        scalar = attribute_run(runs[False])
        vectorized = attribute_run(runs[True])
        assert scalar.requests == vectorized.requests
        assert scalar.replica == vectorized.replica
        assert scalar.link == vectorized.link

    def test_tracing_never_changes_the_attribution(self, system,
                                                   tight_capacity):
        kwargs = SCENARIOS["paged_swap"]
        trace = preempting_trace()
        engine = make_engine(system, kwargs, vectorize=True,
                             capacity=tight_capacity)
        plain = engine.simulate(trace)
        recorder = TraceRecorder()
        traced = engine.simulate(trace, telemetry=recorder)
        recorder.finalize()
        assert attribute_run(plain) == attribute_run(traced)

    def test_preempted_run_attributes_stalls(self, system, tight_capacity):
        run = make_engine(system, SCENARIOS["paged_swap"], vectorize=True,
                          capacity=tight_capacity).simulate(
                              preempting_trace())
        attribution = attribute_run(run)
        preempted = [row for row in attribution.requests
                     if row.num_preemptions > 0]
        assert preempted, "the tight pool must have preempted someone"
        # A preempted request's off-device time lands in the stall
        # segments, and the swap restores show up on the link.
        assert any(row.prefill_stall_s > 0 or row.decode_stall_s > 0
                   for row in preempted)
        assert attribution.link.num_swap_outs > 0
        assert attribution.link.swap_busy_s > 0
        # Busy + idle fractions are a partition of the makespan.
        replica = attribution.replica
        assert 0.0 < replica.busy_fraction <= 1.0
        assert replica.idle_s >= 0.0


# ---------------------------------------------------- post-hoc (trace) views


class TestTraceAttribution:
    def test_kv_occupancy_uses_pool_capacity(self):
        events = [
            {"scope": "engine", "pid": 1, "name": "kv.pool", "ts_s": 0.0,
             "args": {"total_blocks": 10, "block_bytes": 1024}},
            {"scope": "engine", "pid": 1, "name": "kv.alloc", "ts_s": 1.0,
             "args": {"free_blocks": 4}},
            {"scope": "engine", "pid": 1, "name": "kv.release", "ts_s": 2.0,
             "args": {"free_blocks": 9}},
            {"scope": "engine", "pid": 1, "name": "kv.release", "ts_s": 3.0,
             "args": {"free_blocks": 8}},
            {"scope": "engine", "pid": 1, "name": "serving.preempt",
             "ts_s": 3.0, "request_id": 0,
             "args": {"restore": "swap", "swap_bytes": 3 * 1024}},
            {"scope": "engine", "pid": 1, "name": "kv.alloc", "ts_s": 4.0,
             "args": {"free_blocks": 5}},
            {"scope": "engine", "pid": 1, "name": "request.resume",
             "ts_s": 4.0, "request_id": 0,
             "args": {"via": "swap", "swap_bytes": 3 * 1024}},
            {"scope": "engine", "pid": 1, "name": "serving.preempt",
             "ts_s": 5.0, "request_id": 1, "args": {"restore": "recompute"}},
        ]
        attribution = attribute_trace(events)
        assert attribution.kv_occupancy["engine"] == [
            (1.0, 0.6), (2.0, 0.1), (3.0, 0.2), (4.0, 0.5)]
        # 3 KiB swapped out and the same 3 KiB back in; the recompute
        # eviction moves nothing over the link.
        assert attribution.link_swap_bytes == 6 * 1024

    def test_link_swap_bytes_match_the_priced_swaps(
            self, system, tight_capacity, monkeypatch):
        import repro.serving.engine as engine_module

        priced = []
        real = engine_module.kv_swap_time_s

        def recording(num_bytes, link, pp_stages=1):
            priced.append(num_bytes)
            return real(num_bytes, link, pp_stages=pp_stages)

        monkeypatch.setattr(engine_module, "kv_swap_time_s", recording)
        engine = make_engine(system, SCENARIOS["paged_swap"], vectorize=True,
                             capacity=tight_capacity)
        recorder = TraceRecorder()
        run = engine.simulate(preempting_trace(), telemetry=recorder)
        recorder.finalize()
        swaps = sum(r.num_swap_outs + r.num_swap_ins for r in run.requests)
        assert swaps > 0, "the tight pool must have swapped someone"
        assert len(priced) == swaps
        link_bytes = attribute_trace(iter_scope_events(recorder)).link_swap_bytes
        assert link_bytes == sum(priced) > 0

    def test_scope_busy_sums_window_spans(self):
        events = [
            {"scope": "engine", "pid": 1, "name": "engine.prefill_window",
             "ts_s": 0.0, "dur_s": 2.0},
            {"scope": "engine", "pid": 1, "name": "engine.decode_window",
             "ts_s": 2.0, "dur_s": 6.0},
            {"scope": "engine", "pid": 1, "name": "request.finished",
             "ts_s": 10.0, "request_id": 0},
        ]
        attribution = attribute_trace(events)
        busy = attribution.scope_busy["engine"]
        assert busy["prefill"] == 2.0 and busy["decode"] == 6.0
        assert attribution.scope_utilization("engine") == pytest.approx(0.8)

    def test_request_rows_decompose_lifecycles(self, system, tight_capacity):
        engine = make_engine(system, SCENARIOS["paged_swap"], vectorize=True,
                             capacity=tight_capacity)
        recorder = TraceRecorder()
        engine.simulate(preempting_trace(), telemetry=recorder)
        recorder.finalize()
        events = list(iter_scope_events(recorder))
        rows = attribute_trace(events).request_rows
        assert rows and all(row["finished"] for row in rows)
        for row in rows:
            for key in ("queued_s", "prefill_s", "decode_s", "preempted_s"):
                assert row[key] >= 0.0
        assert any(row["preempted_s"] > 0 for row in rows)


# ------------------------------------------------------------------ SLO rules


def snapshots(metric, values, *, ts0=1.0, dt=1.0, extra=None):
    return [MetricsSnapshot(ts_s=ts0 + i * dt,
                            values={metric: value, **(extra or {})})
            for i, value in enumerate(values)]


class TestSloRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="ops"):
            SloRule(name="r", metric="m", threshold=1.0, op=">=")
        with pytest.raises(ValueError, match="window"):
            SloRule(name="r", metric="m", threshold=1.0, window=0)
        with pytest.raises(ValueError, match="breach_fraction"):
            SloRule(name="r", metric="m", threshold=1.0, breach_fraction=0.0)
        with pytest.raises(ValueError, match="clear_margin"):
            SloRule(name="r", metric="m", threshold=1.0, clear_margin=-0.1)
        rule = SloRule(name="r", metric="m", threshold=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloMonitor([rule, rule])

    def test_burn_rate_needs_a_full_breaching_window(self):
        rule = SloRule(name="spike", metric="m", threshold=10.0, window=3)
        # Two breaches then recovery: never fires.
        monitor = SloMonitor([rule])
        log = monitor.observe_timeline(snapshots("m", [20, 20, 5, 5]))
        assert not log
        # Three consecutive breaches: fires exactly once, at the third.
        monitor = SloMonitor([rule])
        log = monitor.observe_timeline(snapshots("m", [20, 20, 20, 20]))
        assert len(log) == 1
        assert log.alerts[0].fired_ts_s == 3.0
        assert log.alerts[0].active

    def test_breach_fraction_tolerates_healthy_epochs(self):
        rule = SloRule(name="spike", metric="m", threshold=10.0,
                       window=4, breach_fraction=0.75)
        log = SloMonitor([rule]).observe_timeline(
            snapshots("m", [20, 20, 5, 20]))
        assert len(log) == 1
        # The firing snapshot itself was healthy on one pattern; the alert
        # must cite the most recent *breaching* value, never the healthy
        # one that merely completed the window.
        log = SloMonitor([rule]).observe_timeline(
            snapshots("m", [20, 20, 20, 5]))
        assert len(log) == 1
        assert log.alerts[0].value == 20.0

    def test_hysteresis_one_alert_per_excursion(self):
        rule = SloRule(name="spike", metric="m", threshold=10.0, window=2,
                       clear_margin=0.5)
        # Oscillation between breach and barely-below-threshold: the alert
        # stays open (no flap storm), then clears only on the margin-deep
        # recovery at 4.0 <= 10 * (1 - 0.5).
        log = SloMonitor([rule]).observe_timeline(
            snapshots("m", [20, 20, 9, 20, 9, 4]))
        assert len(log) == 1
        alert = log.alerts[0]
        assert alert.fired_ts_s == 2.0
        assert alert.cleared_ts_s == 6.0
        assert not alert.active
        # A fresh excursion after the clear is a fresh alert, and the
        # window restarts from empty (one breach is not enough).
        log = SloMonitor([rule]).observe_timeline(
            snapshots("m", [20, 20, 4, 20, 20]))
        assert len(log) == 2
        assert [alert.fired_ts_s for alert in log] == [2.0, 5.0]

    def test_guard_metric_gates_breaches(self):
        rule = SloRule(name="collapse", metric="goodput", threshold=1.0,
                       op="<", window=2, guard_metric="backlog",
                       guard_threshold=5.0, clear_margin=1.0)
        # Zero goodput with an empty backlog is an idle pool, not an
        # incident: the guard keeps the rule silent.
        idle = snapshots("goodput", [0, 0, 0, 0], extra={"backlog": 0.0})
        assert not SloMonitor([rule]).observe_timeline(idle)
        # The same goodput with demand piling up fires — and the alert
        # clears as soon as the guard disarms (the precondition went away).
        monitor = SloMonitor([rule])
        monitor.observe_timeline(
            snapshots("goodput", [0, 0], extra={"backlog": 50.0}))
        assert len(monitor.alert_log.active) == 1
        monitor.observe(MetricsSnapshot(
            ts_s=10.0, values={"goodput": 0.0, "backlog": 0.0}))
        assert not monitor.alert_log.active

    def test_rate_rule_differentiates_counters(self):
        rule = SloRule(name="storm", metric="preempts", threshold=10.0,
                       rate=True, window=2, clear_margin=0.5)
        # Counter grows by 50/s for two intervals (rates: -, 50, 50, 1, 1).
        log = SloMonitor([rule]).observe_timeline(
            snapshots("preempts", [0, 50, 100, 101, 102]))
        assert len(log) == 1
        alert = log.alerts[0]
        assert alert.value == 50.0
        assert alert.fired_ts_s == 3.0  # second measurable rate
        assert alert.cleared_ts_s == 4.0
        # A counter plateau (rate zero) never fires.
        assert not SloMonitor([rule]).observe_timeline(
            snapshots("preempts", [5, 5, 5, 5]))

    def test_healthy_timeline_is_silent(self):
        monitor = SloMonitor(default_rules(ttft_slo_s=0.5))
        log = monitor.observe_timeline(snapshots(
            "cluster.goodput_tokens_per_s", [500.0] * 6,
            extra={"cluster.backlog": 2.0, "serving.preemptions": 3.0,
                   "serving.ttft_p99_s": 0.1}))
        assert not log
        assert log.describe() == "no alerts fired"

    def test_missing_metric_holds_the_window(self):
        rule = SloRule(name="spike", metric="m", threshold=10.0, window=2)
        monitor = SloMonitor([rule])
        monitor.observe(MetricsSnapshot(ts_s=1.0, values={"m": 20.0}))
        monitor.observe(MetricsSnapshot(ts_s=2.0, values={"other": 1.0}))
        monitor.observe(MetricsSnapshot(ts_s=3.0, values={"m": 20.0}))
        # Two breaches straddling the absent epoch complete the window.
        assert len(monitor.alert_log) == 1

    def test_on_alert_callback_fires_once_per_alert(self):
        seen = []
        rule = SloRule(name="spike", metric="m", threshold=10.0, window=2)
        monitor = SloMonitor([rule], on_alert=seen.append)
        monitor.observe_timeline(snapshots("m", [20, 20, 20, 20]))
        assert len(seen) == 1
        assert isinstance(seen[0], Alert)
        assert seen[0].rule == "spike"

    def test_alert_log_queries(self):
        rule = SloRule(name="spike", metric="m", threshold=10.0, window=2)
        log = SloMonitor([rule]).observe_timeline(
            snapshots("m", [20, 20]))
        assert log and len(log) == 1
        assert log.fired("spike") and not log.fired("other")
        assert log.for_rule("spike") == log.alerts
        assert "spike" in log.describe() and "active" in log.describe()
        assert AlertLog() == AlertLog()  # ClusterResult equality relies on it


# ------------------------------------------------------- cluster integration


def overloaded_cluster(small_model):
    """The memory-tight bursty mix of examples/trace_explorer.py: paged
    admission under a ~3-context KV budget, so the burst preempts hard."""
    profile = ModelMemoryProfile(small_model)
    tight = int(profile.parameter_bytes
                + 3.0 * profile.kv_cache_bytes_per_query(512))
    config = CentConfig(num_devices=6, context_samples=2)
    tenants = [
        TenantSpec("early", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(30, seed=5),
                       bursty_arrivals(30, 400.0, seed=5))),
        TenantSpec("late", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(30, seed=6),
                       bursty_arrivals(30, 400.0, seed=6, start_s=0.3))),
    ]
    return ClusterEngine(config, tenants, context_step=512,
                         admission="paged", memory_capacity_bytes=tight)


def rebalancing_cluster(small_model):
    """Phase-shifted bursts under reserve admission: the closed loop
    re-places the pool and moves in-flight requests between replicas."""
    config = CentConfig(num_devices=6, context_samples=2)
    tenants = [
        TenantSpec("early", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(30, seed=5),
                       bursty_arrivals(30, 400.0, seed=5))),
        TenantSpec("late", model=small_model, sla_latency_s=0.2,
                   trace=with_arrivals(
                       sharegpt_like_queries(30, seed=6),
                       bursty_arrivals(30, 400.0, seed=6, start_s=0.3))),
    ]
    return ClusterEngine(config, tenants, context_step=512)


def underloaded_cluster(small_model):
    """Gentle Poisson traffic with a loose SLO: no rule should fire."""
    config = CentConfig(num_devices=6, context_samples=2)
    tenants = [
        TenantSpec("calm", model=small_model, sla_latency_s=0.5,
                   trace=with_arrivals(
                       sharegpt_like_queries(20, seed=9),
                       poisson_arrivals(20, 20.0, seed=9))),
    ]
    return ClusterEngine(config, tenants, context_step=512)


@pytest.fixture(scope="module")
def overloaded_traced(small_model):
    recorder = TraceRecorder()
    result = overloaded_cluster(small_model).run(
        rebalance="epoch", epoch_s=0.05, telemetry=recorder)
    recorder.finalize()
    return result, recorder


class TestClusterSloIntegration:
    def test_overloaded_run_raises_alerts(self, overloaded_traced):
        result, _ = overloaded_traced
        assert result.alert_log, "the overloaded mix must trip a rule"
        assert result.alert_log.fired("preemption-storm")
        for alert in result.alert_log:
            assert alert.fired_ts_s >= 0.0
            if not alert.active:
                assert alert.cleared_ts_s > alert.fired_ts_s

    def test_underloaded_run_stays_silent(self, small_model):
        recorder = TraceRecorder()
        result = underloaded_cluster(small_model).run(
            rebalance="epoch", epoch_s=0.05, telemetry=recorder)
        assert not result.alert_log

    def test_untraced_run_arms_no_monitor(self, small_model):
        result = overloaded_cluster(small_model).run(
            rebalance="epoch", epoch_s=0.05)
        assert result.alert_log == AlertLog()
        assert result.metrics_timeline == ()

    def test_predicted_rate_gauge_on_timeline(self, overloaded_traced):
        result, _ = overloaded_traced
        assert result.metrics_timeline
        rates = [snapshot.values.get("cluster.predicted_rate_qps")
                 for snapshot in result.metrics_timeline]
        assert all(rate is not None and rate >= 0.0 for rate in rates)
        # The EWMA must actually track the bursts: some epoch forecasts a
        # positive arrival rate.
        assert max(rates) > 0.0

    def test_explicit_monitor_and_callback(self, small_model):
        seen = []
        monitor = SloMonitor(default_rules(), on_alert=seen.append)
        result = overloaded_cluster(small_model).run(
            rebalance="epoch", epoch_s=0.05, telemetry=TraceRecorder(),
            slo_monitor=monitor)
        assert result.alert_log == monitor.alert_log
        assert len(seen) == len(result.alert_log)

    def test_slo_monitor_requires_epoch_timeline(self, small_model):
        with pytest.raises(ValueError, match="metrics timeline"):
            overloaded_cluster(small_model).run(
                slo_monitor=SloMonitor(default_rules()))

    def test_trace_replay_reproduces_live_alerts(self, overloaded_traced,
                                                 small_model):
        result, recorder = overloaded_traced
        events = list(iter_scope_events(recorder))
        pseudo = snapshots_from_trace(events)
        assert len(pseudo) == len(result.metrics_timeline)
        ttft_slo = 0.2  # the tightest tenant SLO the live run armed
        replay = SloMonitor(default_rules(ttft_slo_s=ttft_slo)) \
            .observe_timeline(pseudo)
        live = [(alert.rule, alert.fired_ts_s, alert.cleared_ts_s)
                for alert in result.alert_log]
        replayed = [(alert.rule, alert.fired_ts_s, alert.cleared_ts_s)
                    for alert in replay]
        assert replayed == live

    @pytest.mark.parametrize("migration", ["live", "restart"])
    def test_live_ttft_gauge_matches_trace_replay(self, small_model,
                                                  migration):
        """Regression: the live ``serving.ttft_p99_s`` gauge counted first
        tokens of iterations that ran past the epoch end, and again on each
        live-migrated copy; the trace replay counts each first token once,
        in the epoch that emitted it.  Both timelines must agree exactly."""
        recorder = TraceRecorder()
        result = rebalancing_cluster(small_model).run(
            rebalance="epoch", epoch_s=0.05, migration=migration,
            telemetry=recorder)
        recorder.finalize()
        assert result.num_rebalances > 0
        if migration == "live":
            assert result.num_migrated_requests > 0
        pseudo = snapshots_from_trace(iter_scope_events(recorder))
        live = [snapshot.values.get("serving.ttft_p99_s")
                for snapshot in result.metrics_timeline]
        replayed = [snapshot.values.get("serving.ttft_p99_s")
                    for snapshot in pseudo]
        assert replayed == live
        assert [s.ts_s for s in pseudo] == [s.ts_s for s in result.metrics_timeline]

    def test_single_engine_trace_has_no_snapshots(self, system):
        recorder = TraceRecorder()
        ServingEngine(system, context_step=512).simulate(
            fixed_queries(4, prompt_tokens=128, decode_tokens=64),
            telemetry=recorder)
        recorder.finalize()
        assert snapshots_from_trace(iter_scope_events(recorder)) == []


# -------------------------------------------------------------- report + CLI


@pytest.fixture(scope="module")
def trace_path(overloaded_traced, tmp_path_factory):
    _, recorder = overloaded_traced
    path = tmp_path_factory.mktemp("slo") / "cluster.jsonl"
    write_jsonl(recorder, path)
    return path


class TestReportAndCli:
    def test_write_report_is_self_contained(self, overloaded_traced,
                                            tmp_path):
        result, recorder = overloaded_traced
        path = tmp_path / "run.report.html"
        assert write_report(path, iter_scope_events(recorder),
                            result=result, title="integration") == path
        html = path.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        for marker in ("integration", "Replica utilization",
                       "Request attribution", "KV pool occupancy",
                       "Epoch timeline", "SLO alerts", "preemption-storm"):
            assert marker in html, f"report lost its {marker!r} section"
        # Self-contained: no external scripts, stylesheets or images.
        for external in ("<script src", "<link ", "http://", "https://"):
            assert external not in html

    def test_report_replays_alerts_without_result(self, trace_path,
                                                  tmp_path):
        from repro.telemetry import read_jsonl
        path = tmp_path / "replay.report.html"
        write_report(path, read_jsonl(trace_path))
        assert "SLO alerts" in path.read_text()

    def test_cli_attribution_view(self, trace_path, capsys):
        assert telemetry_cli([str(trace_path), "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "slowest" in out and "queued" in out

    def test_cli_utilization_view(self, trace_path, capsys):
        assert telemetry_cli([str(trace_path), "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "per-scope utilization" in out
        assert "KV block-pool occupancy" in out
        assert "CXL link" in out

    def test_cli_slo_view(self, trace_path, capsys):
        assert telemetry_cli([str(trace_path), "--slo",
                              "--ttft-slo", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "preemption-storm" in out

    def test_cli_slo_needs_epochs(self, system, tmp_path, capsys):
        recorder = TraceRecorder()
        ServingEngine(system, context_step=512).simulate(
            fixed_queries(4, prompt_tokens=128, decode_tokens=64),
            telemetry=recorder)
        recorder.finalize()
        path = tmp_path / "single.jsonl"
        write_jsonl(recorder, path)
        assert telemetry_cli([str(path), "--slo"]) == 0
        assert "needs a closed-loop run" in capsys.readouterr().out

    def test_cli_report_flag(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "cli.report.html"
        assert telemetry_cli([str(trace_path), "--report",
                              str(out_path)]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        assert out_path.exists()
