"""The unified telemetry layer: recording, derived views, exporters.

The heart of the suite is the trace-equivalence contract: the vectorized
engine (event-horizon fast-forward, coalesced window spans) and the scalar
reference loop must emit **identical** event streams, and attaching a
recorder must never change the simulated outcome.  The rest covers the
metrics registry, the Perfetto/JSONL exporters, the ``python -m
repro.telemetry`` summaries, and the cluster-level control-plane trace
(epoch spans, rebalance decisions, live-migration correlation events).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import ClusterEngine, TenantSpec
from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.models.memory import ModelMemoryProfile
from repro.serving import ServingEngine
from repro.telemetry import (
    MetricsRegistry,
    TraceRecorder,
    epoch_audit,
    overview,
    perfetto_trace,
    preemption_chains,
    read_jsonl,
    request_timeline,
    write_jsonl,
    write_perfetto,
)
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.export import iter_scope_events
from repro.telemetry.recorder import TraceEvent
from repro.workloads import (
    bursty_arrivals,
    fixed_queries,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2),
                      small_model)


def timed_trace(count, rate, seed=1, **kwargs):
    return with_arrivals(sharegpt_like_queries(count, seed=seed, **kwargs),
                         poisson_arrivals(count, rate, seed=seed))


@pytest.fixture(scope="module")
def tight_capacity(small_model):
    """Capacity for ~2 full contexts: paged admission must preempt."""
    profile = ModelMemoryProfile(small_model)
    return int(profile.parameter_bytes
               + 2.2 * profile.kv_cache_bytes_per_query(512))


def preempting_trace():
    return fixed_queries(8, prompt_tokens=256, decode_tokens=256)


#: Same matrix as tests/test_vectorized_engine.py: every admission /
#: restore combination the engine supports.
SCENARIOS = {
    "reserve": dict(admission="reserve"),
    "paged_swap": dict(admission="paged", preemption_restore="swap"),
    "paged_recompute": dict(admission="paged",
                            preemption_restore="recompute"),
}


def make_engine(system, kwargs, *, vectorize, pressure=False):
    extra = {}
    if pressure:
        extra["memory_capacity_bytes"] = system.memory_capacity_bytes // 4
    return ServingEngine(system, context_step=512, vectorize=vectorize,
                         **kwargs, **extra)


def traced_stream(engine, trace, *, until_points=()):
    """Run the engine with a recorder attached; return (events, recorder).

    ``events`` is the flat, fully-ordered event list — scope name included —
    so two streams compare exactly (TraceEvent equality covers name,
    timestamp, duration, request id and every arg).
    """
    recorder = TraceRecorder()
    state = engine.begin(trace, telemetry=recorder)
    for until_s in until_points:
        engine.advance(state, until_s=until_s)
    engine.advance(state)
    recorder.finalize()
    return ([(scope.name, event)
             for scope, event in recorder.iter_events()], recorder)


# --------------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counters_are_monotonic(self):
        metrics = MetricsRegistry()
        metrics.inc("serving.preemptions")
        metrics.inc("serving.preemptions", 2)
        assert metrics.value("serving.preemptions") == 3
        metrics.set_counter("serving.preemptions", 5)
        with pytest.raises(ValueError):
            metrics.set_counter("serving.preemptions", 4)
        with pytest.raises(ValueError):
            metrics.inc("serving.preemptions", -1)

    def test_gauges_move_freely(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("kv.pool_occupancy", 0.9)
        metrics.set_gauge("kv.pool_occupancy", 0.2)
        assert metrics.value("kv.pool_occupancy") == 0.2

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
            metrics.observe("serving.ttft_s", value)
        snapshot = metrics.snapshot(10.0, record=False)
        values = snapshot.as_dict()
        assert values["serving.ttft_s.count"] == 5
        assert values["serving.ttft_s.max"] == 100.0
        assert values["serving.ttft_s.p50"] == 3.0
        assert values["serving.ttft_s.mean"] == pytest.approx(22.0)

    def test_snapshot_timeline(self):
        metrics = MetricsRegistry()
        metrics.inc("cluster.rebalances")
        first = metrics.snapshot(1.0)
        metrics.inc("cluster.rebalances")
        second = metrics.snapshot(2.0)
        assert metrics.timeline_tuple() == (first, second)
        assert first["cluster.rebalances"] == 1
        assert second["cluster.rebalances"] == 2
        assert first.ts_s == 1.0


# -------------------------------------------------------------------- recorder


class TestRecorder:
    def test_window_coalescing_merges_contiguous_steps(self):
        scope = TraceRecorder().scope("engine")
        key = ((1, 2), ())
        scope.window_step("decode", key, 0.0, 0.5, 1, 0)
        scope.window_step("decode", key, 0.5, 1.0, 1, 0)
        scope.window_step("decode", key, 1.0, 1.5, 1, 0)
        scope.flush()
        assert len(scope.events) == 1
        span = scope.events[0]
        assert span.name == "engine.decode_window"
        assert (span.ts_s, span.dur_s) == (0.0, 1.5)
        assert span.args["steps"] == 3
        assert span.args["decode_batch"] == (1, 2)

    def test_window_flushes_on_batch_change_or_clock_gap(self):
        scope = TraceRecorder().scope("engine")
        scope.window_step("decode", ((1,), ()), 0.0, 0.5, 1, 0)
        scope.window_step("decode", ((1, 2), ()), 0.5, 1.0, 1, 0)  # batch
        scope.window_step("decode", ((1, 2), ()), 2.0, 2.5, 1, 0)  # gap
        scope.flush()
        assert [e.dur_s for e in scope.events] == [0.5, 0.5, 0.5]

    def test_fast_forward_and_scalar_windows_collapse_identically(self):
        """One window_step of k steps == k contiguous single-step calls."""
        ff = TraceRecorder().scope("engine")
        ff.window_step("decode", ((7,), ()), 0.0, 3.0, 6, 0)
        ff.flush()
        scalar = TraceRecorder().scope("engine")
        for i in range(6):
            scalar.window_step("decode", ((7,), ()), i * 0.5, (i + 1) * 0.5,
                               1, 0)
        scalar.flush()
        assert ff.events == scalar.events

    def test_trace_event_equality_covers_args(self):
        a = TraceEvent("x", 1.0, request_id=3, args={"k": 1})
        b = TraceEvent("x", 1.0, request_id=3, args={"k": 1})
        c = TraceEvent("x", 1.0, request_id=3, args={"k": 2})
        assert a == b and hash(a) == hash(b)
        assert a != c


# ---------------------------------------------------------- trace equivalence


class TestTraceEquivalence:
    """Scalar and vectorized engines must emit identical event streams."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_streams_identical_under_pressure(self, system, scenario):
        trace = timed_trace(120, 300.0, seed=3)
        vec, _ = traced_stream(
            make_engine(system, SCENARIOS[scenario], vectorize=True,
                        pressure=True), trace)
        scalar, _ = traced_stream(
            make_engine(system, SCENARIOS[scenario], vectorize=False,
                        pressure=True), trace)
        assert vec == scalar

    @pytest.mark.parametrize("scenario", ["paged_swap", "paged_recompute"])
    def test_streams_identical_with_preemption(self, system, tight_capacity,
                                               scenario):
        """A pool holding ~2 contexts forces evictions; the preempt /
        resume / kv.* event interleaving must match exactly."""
        trace = preempting_trace()
        kwargs = dict(SCENARIOS[scenario],
                      memory_capacity_bytes=tight_capacity)
        vec, _ = traced_stream(
            ServingEngine(system, context_step=512, vectorize=True,
                          **kwargs), trace)
        scalar, _ = traced_stream(
            ServingEngine(system, context_step=512, vectorize=False,
                          **kwargs), trace)
        assert vec == scalar
        names = {event.name for _, event in vec}
        assert "serving.preempt" in names  # the contract is exercised
        assert "request.resume" in names
        assert "kv.release" in names

    def test_segmented_stream_identical(self, system):
        """Segment bounds cut fast-forward windows mid-flight; the spans
        must still coalesce to the unsegmented stream."""
        trace = timed_trace(60, 200.0, seed=2)
        engine = make_engine(system, SCENARIOS["paged_swap"], vectorize=True)
        whole, _ = traced_stream(engine, trace)
        cut, _ = traced_stream(engine, trace,
                               until_points=[0.05, 0.11, 0.26, 0.50])
        assert whole == cut

    @pytest.mark.parametrize("scenario", ["reserve", "paged_swap"])
    def test_recording_never_changes_the_simulation(self, system, scenario):
        trace = timed_trace(80, 250.0, seed=4)
        engine = make_engine(system, SCENARIOS[scenario], vectorize=True,
                             pressure=True)
        plain = engine.simulate(trace)
        traced = engine.simulate(trace, telemetry=TraceRecorder())
        assert plain.makespan_s == traced.makespan_s
        assert plain.decode_step_tokens == traced.decode_step_tokens
        assert (tuple(plain.queue_depth_timeline)
                == tuple(traced.queue_depth_timeline))
        assert tuple(plain.preemption_log) == tuple(traced.preemption_log)
        assert [(r.state.name, r.finish_time_s, r.stall_s)
                for r in plain.requests] \
            == [(r.state.name, r.finish_time_s, r.stall_s)
                for r in traced.requests]

    def test_derived_views_match_plain_lists(self, system, tight_capacity):
        """With tracing on, ``queue_depth_timeline`` / ``preemption_log``
        are views over the event stream — bit-exact with the plain lists
        the untraced engine keeps."""
        trace = preempting_trace()
        engine = ServingEngine(system, context_step=512, vectorize=True,
                               memory_capacity_bytes=tight_capacity,
                               **SCENARIOS["paged_swap"])
        plain = engine.simulate(trace)
        recorder = TraceRecorder()
        traced = engine.simulate(trace, telemetry=recorder)
        assert traced.preemption_log  # the scenario preempts
        assert list(traced.queue_depth_timeline) \
            == list(plain.queue_depth_timeline)
        assert list(traced.preemption_log) == list(plain.preemption_log)
        # And the timeline really is the recorder's storage, not a copy.
        scope = recorder.scopes[0]
        assert traced.queue_depth_timeline is scope.queue_signal


# -------------------------------------------------------------------- export


@pytest.fixture(scope="module")
def serving_recorder(system, tight_capacity):
    engine = ServingEngine(system, context_step=512, admission="paged",
                           preemption_restore="swap",
                           memory_capacity_bytes=tight_capacity)
    recorder = TraceRecorder()
    engine.simulate(preempting_trace(), telemetry=recorder)
    return recorder


class TestPerfettoExport:
    def test_trace_event_schema(self, serving_recorder):
        trace = perfetto_trace(serving_recorder)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events, "empty trace"
        json.dumps(trace)  # strictly JSON-serializable
        for event in events:
            assert event["ph"] in ("M", "X", "i", "C")
            assert isinstance(event["pid"], int)
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["name"]
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_process_and_thread_metadata(self, serving_recorder):
        events = perfetto_trace(serving_recorder)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert "engine" in names
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert "engine" in threads
        assert any(name.startswith("request ") for name in threads)

    def test_request_lifecycle_slices(self, serving_recorder):
        events = perfetto_trace(serving_recorder)["traceEvents"]
        slices = {e["name"] for e in events if e["ph"] == "X"
                  and e["tid"] != 0}
        assert {"queued", "prefill", "decode"} <= slices
        assert "preempted" in slices  # the pressured scenario evicts
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "queue_depth"

    def test_write_perfetto(self, serving_recorder, tmp_path):
        path = tmp_path / "trace.json"
        count = write_perfetto(serving_recorder, path)
        assert count > 0
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count


class TestJsonlExport:
    def test_round_trip(self, serving_recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(serving_recorder, path)
        events = read_jsonl(path)
        assert len(events) == count
        for event in events:
            assert set(event) <= {"scope", "pid", "name", "ts_s", "dur_s",
                                  "request_id", "args"}
            assert event["scope"] == "engine"
        names = {event["name"] for event in events}
        assert "request.queued" in names
        assert "engine.decode_window" in names
        assert "serving.preempt" in names

    def test_summaries_read_the_log(self, serving_recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(serving_recorder, path)
        events = read_jsonl(path)
        assert "events across" in overview(events)
        assert "preempt" in preemption_chains(events)
        finished = next(e for e in events if e["name"] == "request.finished")
        timeline = request_timeline(events, finished["request_id"])
        assert "request.queued" in timeline
        assert "request.finished" in timeline

    def test_cli_smoke(self, serving_recorder, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_jsonl(serving_recorder, path)
        assert telemetry_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "by event type" in out
        assert telemetry_cli([str(path), "--preemptions"]) == 0
        assert "preempt(" in capsys.readouterr().out


# -------------------------------------------------------------------- cluster


@pytest.fixture(scope="module")
def cluster_factory(small_model):
    def make():
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
    return make


@pytest.fixture(scope="module")
def cluster_traced(cluster_factory):
    recorder = TraceRecorder()
    result = cluster_factory().run(rebalance="epoch", epoch_s=0.05,
                                   telemetry=recorder)
    return result, recorder


class TestClusterTrace:
    def test_tracing_keeps_the_run_bit_exact(self, cluster_factory,
                                             cluster_traced):
        traced, _ = cluster_traced
        plain = cluster_factory().run(rebalance="epoch", epoch_s=0.05)
        assert traced.makespan_s == plain.makespan_s
        assert traced.epoch_timeline == plain.epoch_timeline
        assert traced.rebalance_log == plain.rebalance_log
        assert (traced.aggregate_goodput_tokens_per_s
                == plain.aggregate_goodput_tokens_per_s)
        assert traced.num_migrated_requests == plain.num_migrated_requests

    def test_control_plane_events(self, cluster_traced):
        result, recorder = cluster_traced
        control = next(s for s in recorder.scopes if s.name == "control")
        epochs = [e for e in control.events if e.name == "cluster.epoch"]
        assert len(epochs) == len(result.epoch_timeline)
        for event, (start_s, goodput, backlog) in zip(
                epochs, result.epoch_timeline, strict=True):
            assert event.ts_s == start_s
            assert event.args["goodput_tokens_per_s"] == goodput
            assert event.args["backlog"] == backlog
        decisions = [e for e in control.events
                     if e.name == "cluster.rebalance"]
        assert len(decisions) == result.num_rebalances
        for event in decisions:
            assert event.args["projected_gain_tokens"] \
                > event.args["migration_cost_tokens"]
            assert event.args["stall_s"] > 0
            assert event.args["rebuilt"]

    def test_migration_correlation_events(self, cluster_traced):
        result, recorder = cluster_traced
        control = next(s for s in recorder.scopes if s.name == "control")
        scope_names = {s.name for s in recorder.scopes}
        live = [e for e in control.events if e.name == "cluster.migrate"
                and e.args["mode"] == "live"]
        accepted = [e for e in live if e.args["accepted"]]
        assert len(accepted) == result.num_migrated_requests
        for event in live:
            assert event.args["source_scope"] in scope_names
            assert event.args["dest_scope"] in scope_names
            assert event.args["source_scope"] != event.args["dest_scope"]

    def test_request_timeline_follows_migration(self, cluster_traced,
                                                tmp_path):
        _, recorder = cluster_traced
        path = tmp_path / "cluster.jsonl"
        write_jsonl(recorder, path)
        events = read_jsonl(path)
        migrate = next(e for e in events if e["name"] == "cluster.migrate"
                       and e["args"]["mode"] == "live"
                       and e["args"]["accepted"])
        walk = request_timeline(events, migrate["args"]["source_request"],
                                scope=migrate["args"]["source_scope"])
        assert "request.migrate_out" in walk
        assert "live-migrated to" in walk
        assert migrate["args"]["dest_scope"] in walk
        audit = epoch_audit(events)
        assert "REBALANCE: projected gain" in audit
        assert "migration cost" in audit

    def test_metrics_timeline_per_epoch(self, cluster_traced):
        result, _ = cluster_traced
        timeline = result.metrics_timeline
        assert len(timeline) == len(result.epoch_timeline)
        rebalances = [s["cluster.rebalances"] for s in timeline]
        assert rebalances == sorted(rebalances)  # counters are monotonic
        assert rebalances[-1] == result.num_rebalances
        assert timeline[-1]["cluster.migrated_requests"] \
            == result.num_migrated_requests
        assert all("kv.pool_occupancy" in s.as_dict() or True
                   for s in timeline)
        assert timeline[0].ts_s < timeline[-1].ts_s

    def test_untraced_cluster_has_empty_metrics_timeline(self,
                                                         cluster_factory):
        result = cluster_factory().run(rebalance="epoch", epoch_s=0.05)
        assert result.metrics_timeline == ()

    def test_replica_scopes_render_as_processes(self, cluster_traced):
        _, recorder = cluster_traced
        events = perfetto_trace(recorder)["traceEvents"]
        processes = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
        assert "control" in processes
        assert any(name.startswith("replica-") for name in processes)
        pids = {s.name: s.pid for s in recorder.scopes}
        assert len(pids) == len(set(pids.values()))  # one pid per scope


# ------------------------------------------------------ golden export bytes


@pytest.fixture(scope="module")
def cluster_live_recorder(cluster_factory):
    """Epoch re-placement with live migration: the trace carries the
    ``rebuilt`` tuple and accepted ``cluster.migrate`` correlation events."""
    recorder = TraceRecorder()
    cluster_factory().run(rebalance="epoch", epoch_s=0.05, migration="live",
                          telemetry=recorder)
    return recorder


def numpy_args_recorder(bad_arg=False):
    """A hand-built trace whose args are numpy scalars, tuples and
    JSON-native values (plus, optionally, one unserializable arg)."""
    recorder = TraceRecorder()
    scope = recorder.scope("engine")
    scope.event("custom.instant", 0.5, request_id=3, count=np.int64(7),
                ratio=np.float64(0.1), half=np.float32(0.1),
                flag=np.bool_(True), batch=(1, 2, 3), label="x",
                missing=None)
    scope.span("custom.span", 0.25, 0.75, count=np.int64(-2),
               ok=np.bool_(False), batch=(np.int64(4), 5))
    scope.queue_signal.append((0.5, 1, 2))
    if bad_arg:
        scope.event("custom.bad", 1.0, thing=object())
    return recorder


def export_digests(recorder, tmp_path):
    """SHA-256 of the Perfetto, JSONL and JSONL-with-queue-signal files."""
    writers = {
        "perfetto": write_perfetto,
        "jsonl": write_jsonl,
        "jsonl_queue": lambda rec, path: write_jsonl(
            rec, path, include_queue_signal=True),
    }
    digests = {}
    for name, writer in writers.items():
        path = tmp_path / name
        writer(recorder, path)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestExportGoldenDigests:
    """Export bytes pinned across commits: an exporter rewrite that keeps
    the format keeps every digest."""

    def test_serving_recorder(self, serving_recorder, tmp_path):
        assert export_digests(serving_recorder, tmp_path) == {
            "perfetto": "7095e8832957fc554ca9c6b12a9f39d3"
                        "c4c785b718c6a2877669478af7ded0d0",
            "jsonl": "8c1d9aa0cc4f6e1080136e1936acebdf"
                     "c0d6fc8edaeeb08e1e1bfeb3fd709bcb",
            "jsonl_queue": "31dd9f61d06a63029e72c4bd9a7b4142"
                           "bb6ab50ab5f52610de38c6f51f733ebc",
        }

    def test_cluster_live_migration(self, cluster_live_recorder, tmp_path):
        events = [event for scope in cluster_live_recorder.scopes
                  for event in scope.events]
        assert any(event.name == "cluster.rebalance"
                   and isinstance(event.args["rebuilt"], tuple)
                   for event in events)
        assert any(event.name == "cluster.migrate"
                   and event.args["mode"] == "live" and event.args["accepted"]
                   for event in events)
        assert export_digests(cluster_live_recorder, tmp_path) == {
            "perfetto": "21cc36090806df70b6f958fa8aeb6a36"
                        "26ec0934866983a647db53de0f94458c",
            "jsonl": "47f080baf9bfc8b57efc90d91842fb85"
                     "75e28490266bcd09e7f69cbe1469f5bc",
            "jsonl_queue": "cf05b6970ab3a50efbf0f44330a85a02"
                           "44e7fc74783734bb4d9cabe60a5758ab",
        }


def test_iter_scope_events_matches_read_back(cluster_live_recorder, tmp_path):
    """``iter_scope_events`` is the in-memory ``write_jsonl`` +
    ``read_jsonl``: tuples come back as lists, numpy scalars as Python
    values."""
    for recorder in (cluster_live_recorder, numpy_args_recorder()):
        path = tmp_path / "trace.jsonl"
        write_jsonl(recorder, path)
        assert list(iter_scope_events(recorder)) == read_jsonl(path)


class TestExportArgTypes:
    """Args are JSON-native scalars, tuples of them, or numpy scalars."""

    INSTANT = {"count": 7, "ratio": 0.1, "half": 0.10000000149011612,
               "flag": True, "batch": [1, 2, 3], "label": "x",
               "missing": None}
    SPAN = {"count": -2, "ok": False, "batch": [4, 5]}

    @staticmethod
    def assert_native(args, expected):
        def types(value):
            if isinstance(value, list):
                return [types(item) for item in value]
            return type(value)

        assert args == expected
        assert ({key: types(value) for key, value in args.items()}
                == {key: types(value) for key, value in expected.items()})

    def test_exports_parse_to_python_values(self, tmp_path):
        recorder = numpy_args_recorder()
        path = tmp_path / "trace.jsonl"
        write_jsonl(recorder, path)
        for span, instant in (read_jsonl(path),
                              list(iter_scope_events(recorder))):
            self.assert_native(span["args"], self.SPAN)
            self.assert_native(instant["args"], self.INSTANT)
        path = tmp_path / "trace.json"
        write_perfetto(recorder, path)
        loaded = {event["name"]: event["args"]
                  for event in json.loads(path.read_text())["traceEvents"]}
        self.assert_native(loaded["custom.span"], self.SPAN)
        self.assert_native(loaded["custom.instant"],
                           {**self.INSTANT, "request_id": 3})

    def test_export_bytes(self, tmp_path):
        assert export_digests(numpy_args_recorder(), tmp_path) == {
            "perfetto": "edcc5029026fb3e38dd3e07bbbe3b0cb"
                        "f0bc899187db554532fc3ef5a2528f80",
            "jsonl": "9dd4f414d3bb5753a23fb58c894edaaa"
                     "dc83822d87a83ee84d676ed25cdc60a8",
            "jsonl_queue": "5167ec12078d02cb30255e34f72845be"
                           "9a5c1507f027711728ed3f1120367e45",
        }

    @pytest.mark.parametrize("writer", [write_perfetto, write_jsonl])
    def test_unserializable_arg_raises(self, writer, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            writer(numpy_args_recorder(bad_arg=True), tmp_path / "trace")


# ----------------------------------------------------------- result metrics


class TestResultMetrics:
    def test_serving_result_metrics_namespace(self, system):
        engine = ServingEngine(system, context_step=512, admission="paged",
                               preemption_restore="swap",
                               memory_capacity_bytes=(
                                   system.memory_capacity_bytes // 4))
        result = engine.run(timed_trace(60, 250.0, seed=4))
        metrics = result.metrics.as_dict()
        assert metrics["serving.requests"] == result.num_requests
        assert metrics["serving.preemptions"] == result.num_preemptions
        assert metrics["serving.goodput_tokens_per_s"] \
            == result.goodput_tokens_per_s
        assert 0.0 < metrics["kv.pool_occupancy"] <= 1.0
        assert all(name.startswith(("serving.", "kv."))
                   for name in metrics)

    def test_cluster_result_metrics_namespace(self, cluster_traced):
        result, _ = cluster_traced
        metrics = result.metrics.as_dict()
        assert metrics["cluster.rebalances"] == result.num_rebalances
        assert metrics["cluster.migrated_requests"] \
            == result.num_migrated_requests
        assert metrics["serving.preemptions"] == result.total_preemptions
        assert metrics["cluster.goodput_tokens_per_s"] \
            == result.aggregate_goodput_tokens_per_s
        assert all(name.startswith(("serving.", "kv.", "cluster."))
                   for name in metrics)
