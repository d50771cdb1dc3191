"""Tests for closed-loop cluster control and segmented serving runs."""

import pytest

from repro.cluster import (
    MIGRATION_MODES,
    ClusterEngine,
    ClusterPlacer,
    ControlConfig,
    RebalancePolicy,
    TenantSpec,
    weight_reload_time_s,
)
from repro.cluster.placement import ReplicaSpec
from repro.core.config import CentConfig
from repro.core.performance import PerformanceModel
from repro.core.system import CentSystem
from repro.evaluation import closed_loop_study
from repro.models.config import ModelConfig
from repro.serving import RequestState, ServingEngine
from repro.telemetry import SloMonitor, SloRule, TraceRecorder
from repro.telemetry.export import iter_scope_events
from repro.workloads import (
    Query,
    bursty_arrivals,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024, num_heads=16,
                       num_kv_heads=4, d_ff=2816, vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2), small_model)


def timed_trace(count, rate, seed=1, **kwargs):
    return with_arrivals(sharegpt_like_queries(count, seed=seed, **kwargs),
                         poisson_arrivals(count, rate, seed=seed))


# --------------------------------------------------------------------- config


class TestControlConfig:
    def test_defaults_valid(self):
        config = ControlConfig()
        assert config.rebalance == "epoch"
        assert config.migration == "live"
        assert MIGRATION_MODES == ("restart", "live")

    @pytest.mark.parametrize("kwargs", [
        {"epoch_s": 0.0},
        {"rebalance": "hourly"},
        {"migration": "teleport"},
        {"hysteresis": -0.1},
        {"hysteresis": float("nan")},
        {"hysteresis": float("inf")},
        {"hysteresis": float("-inf")},
        {"epoch_s": -1.0},
        {"max_epochs": 0},
    ])
    def test_validation(self, kwargs):
        """A NaN ``hysteresis`` used to construct and then make every gain
        comparison false, so the closed loop never re-placed."""
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ControlConfig(**kwargs)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_non_finite_epoch_s_rejected(self, small_model, epoch_s):
        """A NaN or infinite epoch used to pass the ``<= 0`` check and fail
        inside the loop with an ``int()`` conversion error."""
        with pytest.raises(ValueError, match="epoch_s"):
            ControlConfig(epoch_s=epoch_s)
        tenant = TenantSpec("t", model=small_model, trace=timed_trace(3, 5.0))
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenant], context_step=512)
        with pytest.raises(ValueError, match="epoch_s"):
            engine.run(rebalance="epoch", epoch_s=epoch_s)

    def test_unknown_rebalance_mode_on_run(self, small_model):
        tenant = TenantSpec("t", model=small_model, trace=timed_trace(3, 5.0))
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenant], context_step=512)
        with pytest.raises(ValueError, match="rebalance mode"):
            engine.run(rebalance="sometimes")


# ------------------------------------------------------------------ rebalance


class TestRebalancePolicy:
    @staticmethod
    def capability(names, devices):
        return 100.0 * devices

    def make_policy(self, small_model, **overrides):
        config = ControlConfig(epoch_s=10.0, **overrides)
        placer = ClusterPlacer("proportional")
        link = CentConfig(num_devices=4).link
        return RebalancePolicy(config, placer=placer,
                               capability_tokens_per_s=self.capability,
                               link=link)

    def make_tenants(self, small_model):
        return [TenantSpec("a", model=small_model, trace=timed_trace(4, 5.0)),
                TenantSpec("b", model=small_model,
                           trace=timed_trace(4, 5.0, seed=2))]

    def test_holds_when_demand_matches_placement(self, small_model):
        policy = self.make_policy(small_model)
        tenants = self.make_tenants(small_model)
        current = policy.placer.place(tenants, 4, weights={"a": 1.0, "b": 1.0})
        decision = policy.decide(tenants, 4, current,
                                 {"a": 100.0, "b": 100.0})
        assert decision is None

    def test_rebalances_toward_observed_demand(self, small_model):
        policy = self.make_policy(small_model)
        tenants = self.make_tenants(small_model)
        current = policy.placer.place(tenants, 6, weights={"a": 1.0, "b": 1.0})
        assert current.tenant_devices == {"a": 3, "b": 3}
        decision = policy.decide(tenants, 6, current,
                                 {"a": 1e6, "b": 0.0})
        assert decision is not None
        assert decision.placement.tenant_devices["a"] > 3
        assert decision.projected_gain_tokens > decision.migration_cost_tokens
        assert decision.stall_s > 0
        assert decision.rebuilt_replica_ids

    def test_hysteresis_blocks_marginal_gains(self, small_model):
        eager = self.make_policy(small_model, hysteresis=0.0)
        tenants = self.make_tenants(small_model)
        current = eager.placer.place(tenants, 6, weights={"a": 1.0, "b": 1.0})
        # Demand slightly above the even split: the shift gains a little.
        demand = {"a": 320.0, "b": 280.0}
        moved = eager.decide(tenants, 6, current, demand)
        wary = self.make_policy(small_model, hysteresis=1e6)
        held = wary.decide(tenants, 6, current, demand)
        assert held is None
        # The eager policy may or may not move on this margin, but a zero
        # hysteresis can never be stricter than an enormous one.
        if moved is None:
            assert held is None

    def test_weight_reload_faster_with_more_devices(self, small_model):
        link = CentConfig(num_devices=8).link
        one = weight_reload_time_s(
            ReplicaSpec(0, "t", small_model, 1, 0), link)
        four = weight_reload_time_s(
            ReplicaSpec(0, "t", small_model, 4, 0), link)
        assert one > four > 0


class TestPlacementWeights:
    def test_explicit_weights_steer_spare_devices(self, small_model):
        placer = ClusterPlacer("static")
        a = TenantSpec("a", model=small_model, trace=timed_trace(4, 5.0))
        b = TenantSpec("b", model=small_model, trace=timed_trace(4, 5.0, seed=2))
        skewed = placer.place([a, b], 6, weights={"a": 10.0, "b": 0.0})
        assert skewed.tenant_devices["a"] > skewed.tenant_devices["b"]
        assert skewed.tenant_devices["b"] >= 1  # floor still honoured

    def test_all_zero_weights_fall_back_to_even(self, small_model):
        placer = ClusterPlacer("static")
        a = TenantSpec("a", model=small_model, trace=timed_trace(4, 5.0))
        b = TenantSpec("b", model=small_model, trace=timed_trace(4, 5.0, seed=2))
        even = placer.place([a, b], 6, weights={"a": 0.0, "b": 0.0})
        assert even.tenant_devices == {"a": 3, "b": 3}

    def test_weights_validation(self, small_model):
        placer = ClusterPlacer("static")
        a = TenantSpec("a", model=small_model, trace=timed_trace(4, 5.0))
        b = TenantSpec("b", model=small_model, trace=timed_trace(4, 5.0, seed=2))
        with pytest.raises(ValueError, match="missing"):
            placer.place([a, b], 6, weights={"a": 1.0})
        with pytest.raises(ValueError, match="finite"):
            placer.place([a, b], 6, weights={"a": 1.0, "b": -2.0})


# ------------------------------------------------------------ segmented engine


class TestSegmentedEngine:
    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_segmented_full_trace_matches_simulate(self, system, admission):
        engine = ServingEngine(system, context_step=512, admission=admission,
                               memory_capacity_bytes=system.memory_capacity_bytes // 4)
        trace = timed_trace(20, 8.0)
        whole = engine.simulate(trace)

        state = engine.begin(trace)
        boundary = 0.0
        for _ in range(200):
            if state.drained:
                break
            boundary += 1.0
            engine.advance(state, until_s=boundary)
        assert state.drained
        segmented = engine.snapshot(state)

        assert segmented.makespan_s == whole.makespan_s
        assert segmented.prefill_time_s == whole.prefill_time_s
        assert segmented.decode_time_s == whole.decode_time_s
        assert segmented.decode_step_tokens == whole.decode_step_tokens
        assert segmented.peak_memory_bytes == whole.peak_memory_bytes
        assert list(segmented.queue_depth_timeline) == \
            list(whole.queue_depth_timeline)
        assert segmented.preemption_log == whole.preemption_log
        for ours, theirs in zip(state.requests, whole.requests, strict=True):
            assert ours.state is theirs.state
            assert ours.finish_time_s == theirs.finish_time_s
            assert ours.first_token_time_s == theirs.first_token_time_s
            assert ours.tbt_samples_s == theirs.tbt_samples_s

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_epoch_fed_arrivals_match_simulate(self, system, admission):
        engine = ServingEngine(system, context_step=512, admission=admission,
                               memory_capacity_bytes=system.memory_capacity_bytes // 4)
        trace = timed_trace(20, 8.0)
        whole = engine.simulate(trace)

        ordered = sorted(trace, key=lambda q: q.arrival_time_s)
        state = engine.begin([], planning_trace=trace)
        boundary, fed = 0.0, 0
        for _ in range(200):
            boundary += 1.0
            while fed < len(ordered) and ordered[fed].arrival_time_s < boundary:
                engine.extend(state, [ordered[fed]])
                fed += 1
            engine.advance(state, until_s=boundary)
            if fed == len(ordered) and state.drained:
                break
        assert state.drained
        segmented = engine.snapshot(state)
        assert segmented.makespan_s == whole.makespan_s
        assert segmented.decode_step_tokens == whole.decode_step_tokens
        finishes = sorted(r.finish_time_s for r in state.requests
                          if r.finish_time_s is not None)
        expected = sorted(r.finish_time_s for r in whole.requests
                          if r.finish_time_s is not None)
        assert finishes == expected

    def test_advance_at_reached_bound_is_a_no_op(self, system):
        engine = ServingEngine(system, context_step=512)
        state = engine.begin(timed_trace(4, 5.0))
        engine.advance(state, until_s=0.0)
        before = engine.snapshot(state)
        assert before.makespan_s == 0.0
        engine.advance(state)
        assert state.drained

    @pytest.mark.parametrize("until_s", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_advance_rejects_non_finite_bound(self, system, until_s):
        """A NaN bound used to reach the fast-forward's ``int()``."""
        engine = ServingEngine(system, context_step=512)
        state = engine.begin(timed_trace(4, 5.0))
        with pytest.raises(ValueError, match="until_s"):
            engine.advance(state, until_s=until_s)
        engine.advance(state)
        assert state.drained

    def test_extend_rejects_context_beyond_planning_trace(self, system):
        engine = ServingEngine(system, context_step=512)
        short = timed_trace(4, 5.0, max_context=256)
        state = engine.begin([], planning_trace=short)
        with pytest.raises(ValueError, match="planning_trace"):
            engine.extend(state, timed_trace(1, 5.0, max_context=2048))

    @staticmethod
    def footprint(state, recorder):
        """What a refused call must leave unchanged."""
        names = [event.name for event in recorder.scopes[0].events]
        return (len(state.requests), state.columns.size, list(state.pending),
                list(state.preempted), names.count("request.queued"),
                names.count("request.migrate_in"))

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_refused_extend_leaves_no_orphans(self, system, admission):
        """One unplanned query refuses its whole batch before any request
        of it is created, so its valid neighbour is not silently lost."""
        engine = ServingEngine(system, context_step=512, admission=admission)
        recorder = TraceRecorder()
        state = engine.begin([Query(100, 50)], telemetry=recorder)
        before = self.footprint(state, recorder)
        with pytest.raises(ValueError, match="planned context 150"):
            engine.extend(state, [Query(100, 50, arrival_time_s=0.1),
                                  Query(1000, 50, arrival_time_s=0.2)])
        assert self.footprint(state, recorder) == before
        run = engine.advance(state)
        assert [r.state for r in run.requests] == [RequestState.FINISHED]

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_refused_migrate_in_leaves_no_orphans(self, system, admission):
        engine = ServingEngine(system, context_step=512, admission=admission)
        source = engine.begin([Query(1000, 50)])
        moved = engine.migrate_out(source, source.requests[0], now_s=0.0)
        recorder = TraceRecorder()
        state = engine.begin([Query(100, 50)], telemetry=recorder)
        before = self.footprint(state, recorder)
        with pytest.raises(ValueError, match="planned context 150"):
            engine.migrate_in(state, moved, now_s=0.0)
        assert self.footprint(state, recorder) == before
        run = engine.advance(state)
        assert [r.state for r in run.requests] == [RequestState.FINISHED]

    def test_begin_empty_without_planning_trace_raises(self, system):
        engine = ServingEngine(system, context_step=512)
        with pytest.raises(ValueError, match="at least one query"):
            engine.begin([])

    def test_unfinished_tracks_migratable_work(self, system):
        engine = ServingEngine(system, context_step=512)
        state = engine.begin(timed_trace(6, 5.0))
        assert len(state.unfinished) == 6
        engine.advance(state)
        assert state.unfinished == []


# -------------------------------------------------------------- live migration


class TestEngineMigration:
    """migrate_out / migrate_in: the engine-level live-migration primitive."""

    def make_engine(self, small_model, admission):
        system = CentSystem(CentConfig(num_devices=2, context_samples=2),
                            small_model)
        return ServingEngine(
            system, context_step=512, admission=admission,
            memory_capacity_bytes=system.memory_capacity_bytes // 4)

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_migration_preserves_progress_and_original_arrival(
            self, small_model, admission):
        """Satellite regression: a request moved after a re-placement keeps
        its *original* arrival time in TTFT/latency/SLA accounting, and its
        decode resumes at the migrated token instead of restarting."""
        source = self.make_engine(small_model, admission)
        target = self.make_engine(small_model, admission)
        trace = timed_trace(25, 300.0)
        state_a = source.begin(trace)
        source.advance(state_a, until_s=0.05)
        movable = [r for r in state_a.unfinished
                   if r.context_length > 0 and r.restore_remaining == 0]
        assert movable, "the cut must strand in-flight work"

        state_b = target.begin([], planning_trace=trace)
        state_b.clock = 0.05
        landed = []
        for request in movable:
            snapshot = (request.query.arrival_time_s, request.tokens_generated,
                        request.first_token_time_s, list(request.tbt_samples_s))
            moved = source.migrate_out(state_a, request, now_s=0.05)
            migrated = target.migrate_in(state_b, moved, now_s=0.05)
            assert request.state is RequestState.MIGRATED
            assert request not in state_a.unfinished
            assert migrated.arrival_time_s == snapshot[0]
            assert migrated.tokens_generated == snapshot[1]
            assert migrated.first_token_time_s == snapshot[2]
            assert migrated.tbt_samples_s == snapshot[3]
            assert migrated.migrated_count == 1
            assert migrated.migrated_kv_bytes == moved.swap_bytes > 0
            landed.append((migrated, snapshot))
        for request in state_a.unfinished:
            target.extend(state_b, [request.query])
        target.advance(state_b)
        assert state_b.drained
        for migrated, snapshot in landed:
            assert migrated.state is RequestState.FINISHED
            # Exactly decode_tokens generated across both engines: the
            # pre-migration tokens were never re-emitted.
            assert migrated.tokens_generated == migrated.query.decode_tokens
            # Latency spans from the ORIGINAL arrival (before the cut).
            assert migrated.latency_s == pytest.approx(
                migrated.finish_time_s - snapshot[0])
            # The move itself was priced: a swap-in and off-device stall.
            assert migrated.num_swap_ins >= 1
            assert migrated.stall_s > 0

    def test_restarted_request_keeps_original_arrival(self, small_model):
        """Satellite regression for the restart path: re-feeding the query
        into a fresh engine keeps the original arrival, so TTFT counts the
        whole disruption, not just the post-restart wait."""
        engine = self.make_engine(small_model, "reserve")
        query = timed_trace(1, 5.0)[0]
        state = engine.begin([], planning_trace=[query])
        state.clock = 3.0                      # the re-placement instant
        engine.extend(state, [query])
        engine.advance(state)
        request = state.requests[0]
        assert request.state is RequestState.FINISHED
        assert request.arrival_time_s == query.arrival_time_s
        # The pre-restart queueing shows up in the measured TTFT.
        assert request.ttft_s >= 3.0 - query.arrival_time_s

    def test_migrate_out_refuses_unmovable_requests(self, small_model):
        engine = self.make_engine(small_model, "paged")
        trace = timed_trace(4, 50.0)
        state = engine.begin(trace)
        engine.advance(state)
        finished = state.requests[0]
        with pytest.raises(ValueError, match="only in-flight"):
            engine.migrate_out(state, finished, now_s=1.0)

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_migration_is_deterministic(self, small_model, admission):
        def run_once():
            source = self.make_engine(small_model, admission)
            target = self.make_engine(small_model, admission)
            trace = timed_trace(25, 300.0)
            state_a = source.begin(trace)
            source.advance(state_a, until_s=0.05)
            state_b = target.begin([], planning_trace=trace)
            state_b.clock = 0.05
            for request in list(state_a.unfinished):
                if request.context_length > 0 and request.restore_remaining == 0:
                    moved = source.migrate_out(state_a, request, now_s=0.05)
                    target.migrate_in(state_b, moved, now_s=0.05)
                else:
                    target.extend(state_b, [request.query])
            target.advance(state_b)
            return sorted((r.request_id, r.finish_time_s)
                          for r in state_b.requests
                          if r.finish_time_s is not None)
        assert run_once() == run_once()


class TestClusterLiveMigration:
    """The closed loop's migration="live" vs the PR-4 restart behaviour."""

    def make_engine(self, small_model, num_devices=6):
        config = CentConfig(num_devices=num_devices, context_samples=2)
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

    @pytest.fixture(scope="class")
    def live_result(self, small_model):
        return self.make_engine(small_model).run(rebalance="epoch",
                                                 epoch_s=0.05)

    @pytest.fixture(scope="class")
    def restart_result(self, small_model):
        return self.make_engine(small_model).run(rebalance="epoch",
                                                 epoch_s=0.05,
                                                 migration="restart")

    def test_live_is_the_default_and_actually_migrates(self, live_result):
        assert live_result.num_rebalances >= 1
        assert live_result.num_migrated_requests > 0
        assert live_result.migrated_kv_bytes > 0
        assert live_result.kv_migration_time_s > 0
        assert live_result.restored_progress_tokens > 0

    def test_migration_counters_propagate_to_tenant_results(self, live_result):
        migrated_in = sum(r.num_migrated_in
                          for r in live_result.tenant_results.values())
        assert migrated_in >= live_result.num_migrated_requests > 0
        assert sum(r.migrated_kv_bytes
                   for r in live_result.tenant_results.values()) \
            >= live_result.migrated_kv_bytes

    def test_live_conserves_requests(self, live_result):
        for result in live_result.tenant_results.values():
            assert result.num_requests == 30
            assert result.num_completed + result.num_rejected == 30

    def test_restart_mode_reports_zero_migration(self, restart_result):
        assert restart_result.num_rebalances >= 1
        assert restart_result.num_migrated_requests == 0
        assert restart_result.migrated_kv_bytes == 0
        assert restart_result.kv_migration_time_s == 0.0
        assert restart_result.restored_progress_tokens == 0
        for result in restart_result.tenant_results.values():
            assert result.num_migrated_in == 0
            assert result.num_completed + result.num_rejected == 30

    def test_live_beats_restart_on_the_bursty_mix(self, live_result,
                                                  restart_result):
        """The tentpole claim at test scale: keeping in-flight KV across a
        re-placement delivers strictly more SLA goodput than restarting."""
        assert live_result.aggregate_goodput_tokens_per_s > \
            restart_result.aggregate_goodput_tokens_per_s

    def test_restart_mode_is_deterministic(self, small_model, restart_result):
        again = self.make_engine(small_model).run(rebalance="epoch",
                                                  epoch_s=0.05,
                                                  migration="restart")
        assert again == restart_result

    def test_live_mode_is_deterministic(self, small_model, live_result):
        again = self.make_engine(small_model).run(rebalance="epoch",
                                                  epoch_s=0.05,
                                                  migration="live")
        assert again == live_result

    def test_migration_study_reports_the_gain(self, small_model):
        from repro.evaluation import migration_study
        study = migration_study(model=small_model, num_devices=6,
                                queries_per_tenant=30, context_samples=2)
        by_mode = {row["mode"]: row for row in study["rows"]}
        assert set(by_mode) == {"restart", "live"}
        assert study["best_mode"] == "live"
        assert study["live_gain"] > 1.0
        assert by_mode["live"]["num_migrated_requests"] > 0
        assert by_mode["restart"]["num_migrated_requests"] == 0

    def test_migration_param_validation(self, small_model):
        engine = self.make_engine(small_model)
        with pytest.raises(ValueError, match="not.*both"):
            engine.run(rebalance="epoch", migration="live",
                       control=ControlConfig())
        with pytest.raises(ValueError, match="closed-loop"):
            engine.run(migration="live")
        with pytest.raises(ValueError, match="migration mode"):
            engine.run(rebalance="epoch", migration="teleport")

    def test_cluster_result_migration_validation(self):
        from repro.core.results import ClusterResult
        with pytest.raises(ValueError, match="migration accounting"):
            ClusterResult("static", 2, 2, 1.0,
                          num_migrated_requests=-1)
        with pytest.raises(ValueError, match="migration accounting"):
            ClusterResult("static", 2, 2, 1.0,
                          migrated_kv_bytes=-5)


# ----------------------------------------------------------------- closed loop


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def study(self, small_model):
        return closed_loop_study(model=small_model, num_devices=6,
                                 queries_per_tenant=50, context_samples=2)

    def test_closed_loop_beats_static_on_bursty_mix(self, study):
        by_mode = {row["mode"]: row for row in study["rows"]}
        static = by_mode["static_sla_aware"]
        closed = by_mode["closed_loop"]
        assert closed["aggregate_goodput_tokens_per_s"] > \
            static["aggregate_goodput_tokens_per_s"]
        assert study["best_mode"] == "closed_loop"
        assert study["closed_loop_gain"] > 1.0

    def test_closed_loop_actually_rebalanced(self, study):
        by_mode = {row["mode"]: row for row in study["rows"]}
        closed = by_mode["closed_loop"]
        assert closed["num_rebalances"] >= 1
        assert closed["migration_stall_s"] > 0.0
        assert by_mode["static_sla_aware"]["num_rebalances"] == 0

    def test_static_path_is_bit_exact(self, study):
        assert study["static_bit_exact"] is True

    def test_epoch_timeline_recorded(self, study):
        timeline = study["epoch_timeline"]
        assert len(timeline) >= 2
        starts = [row[0] for row in timeline]
        assert starts == sorted(starts)
        assert all(goodput >= 0 and backlog >= 0
                   for _, goodput, backlog in timeline)
        # Some epoch saw a measured backlog: the mix overloads the pool.
        assert any(backlog > 0 for _, _, backlog in timeline)

    def test_rebalance_off_matches_open_loop_run(self, small_model):
        burst = with_arrivals(
            sharegpt_like_queries(20, seed=3),
            bursty_arrivals(20, 30.0, burstiness=4.0, seed=3))
        trickle = with_arrivals(
            sharegpt_like_queries(10, seed=4),
            poisson_arrivals(10, 2.0, seed=4))
        tenants = [TenantSpec("burst", model=small_model, trace=burst,
                              sla_latency_s=5.0),
                   TenantSpec("trickle", model=small_model, trace=trickle)]
        engine = ClusterEngine(CentConfig(num_devices=4, context_samples=2),
                               tenants, context_step=512)
        legacy = engine.run(placement_policy="proportional")
        off = engine.run(placement_policy="proportional", rebalance="off")
        assert legacy == off
        assert legacy.epoch_s is None
        assert legacy.num_rebalances == 0
        assert legacy.epoch_timeline == ()

    def test_closed_loop_conserves_requests(self, small_model):
        study = closed_loop_study(model=small_model, num_devices=6,
                                  queries_per_tenant=30, context_samples=2)
        assert study["rows"]  # ran
        # Re-run the closed loop directly and check per-tenant accounting.
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
        engine = ClusterEngine(config, tenants, context_step=512)
        result = engine.run(rebalance="epoch", epoch_s=0.05)
        for tenant in tenants:
            tenant_result = result.tenant_results[tenant.name]
            assert tenant_result.num_requests == len(tenant.trace)
            assert (tenant_result.num_completed + tenant_result.num_rejected
                    <= tenant_result.num_requests)
            # Everything eventually drains: nothing is silently lost.
            assert tenant_result.num_completed + tenant_result.num_rejected \
                == tenant_result.num_requests

    def test_closed_loop_determinism(self, small_model):
        config = CentConfig(num_devices=6, context_samples=2)

        def build():
            tenants = [
                TenantSpec("early", model=small_model, sla_latency_s=0.2,
                           trace=with_arrivals(
                               sharegpt_like_queries(20, seed=7),
                               bursty_arrivals(20, 300.0, seed=7))),
                TenantSpec("late", model=small_model, sla_latency_s=0.2,
                           trace=with_arrivals(
                               sharegpt_like_queries(20, seed=8),
                               bursty_arrivals(20, 300.0, seed=8, start_s=0.25))),
            ]
            return ClusterEngine(config, tenants, context_step=512)

        first = build().run(rebalance="epoch", epoch_s=0.05)
        second = build().run(rebalance="epoch", epoch_s=0.05)
        assert first == second

    def test_serve_cluster_passthrough(self, small_model):
        tenants = [TenantSpec("a", model=small_model,
                              trace=timed_trace(6, 50.0, seed=9)),
                   TenantSpec("b", model=small_model,
                              trace=timed_trace(6, 50.0, seed=10))]
        system = CentSystem(CentConfig(num_devices=4, context_samples=2),
                            small_model)
        result = system.serve_cluster(tenants, rebalance="epoch", epoch_s=0.5,
                                      context_step=512)
        assert result.epoch_s == 0.5
        assert result.num_rebalances >= 0
        control = ControlConfig(epoch_s=0.5, rebalance="off")
        ablation = system.serve_cluster(tenants, control=control,
                                        context_step=512)
        assert ablation.num_rebalances == 0
        assert ablation.epoch_s == 0.5

    def test_serve_cluster_forwards_telemetry(self, small_model):
        """``serve_cluster`` hands ``telemetry`` and ``slo_monitor`` to
        ``ClusterEngine.run``: same result, same recorded trace."""
        tenants = [TenantSpec("a", model=small_model,
                              trace=timed_trace(12, 80.0, seed=9)),
                   TenantSpec("b", model=small_model,
                              trace=timed_trace(12, 80.0, seed=10))]
        config = CentConfig(num_devices=4, context_samples=2)
        outcomes = []
        for via_system in (True, False):
            recorder = TraceRecorder()
            options = dict(rebalance="epoch", epoch_s=0.05, telemetry=recorder,
                           slo_monitor=SloMonitor([SloRule(
                               "any-ttft", "serving.ttft_p99_s", 0.0,
                               window=1)]))
            if via_system:
                result = CentSystem(config, small_model).serve_cluster(
                    tenants, context_step=512, **options)
            else:
                result = ClusterEngine(
                    config, tenants, default_model=small_model,
                    context_step=512).run(**options)
            outcomes.append((result, list(iter_scope_events(recorder))))
        (result, events), expected = outcomes
        assert events and result.alert_log.alerts
        assert (result, events) == expected

    def test_unknown_engine_keyword_fails_before_planning(
            self, small_model, monkeypatch):
        """A keyword ``ServingEngine`` does not take fails at the call that
        received it, before any block simulation, naming that call."""
        simulated = []
        simulate_block = PerformanceModel._simulate_block

        def counting(self, *args, **kwargs):
            simulated.append(args)
            return simulate_block(self, *args, **kwargs)

        monkeypatch.setattr(PerformanceModel, "_simulate_block", counting)
        tenant = TenantSpec("t", model=small_model, trace=timed_trace(3, 5.0))
        config = CentConfig(num_devices=2, context_samples=2)
        with pytest.raises(TypeError, match="ClusterEngine.*'telemetri'"):
            CentSystem(config, small_model).serve_cluster(
                [tenant], telemetri=TraceRecorder())
        with pytest.raises(TypeError, match="ClusterEngine.*'bogus'"):
            ClusterEngine(config, [tenant], bogus=1)
        assert simulated == []

    def test_aliased_query_objects_are_all_accounted(self, small_model):
        """Regression: a trace aliasing one Query object many times must not
        collapse the closed loop's per-request accounting."""
        from repro.workloads import Query
        shared = Query(64, 32, arrival_time_s=0.0)
        tenants = [TenantSpec("alias", model=small_model,
                              trace=[shared] * 12, sla_latency_s=5.0),
                   TenantSpec("other", model=small_model,
                              trace=timed_trace(4, 50.0, seed=11))]
        engine = ClusterEngine(CentConfig(num_devices=4, context_samples=2),
                               tenants, context_step=512)
        result = engine.run(rebalance="epoch", epoch_s=0.5)
        aliased = result.tenant_results["alias"]
        assert aliased.num_requests == 12
        assert aliased.num_completed + aliased.num_rejected == 12

    def test_idle_gap_is_fast_forwarded(self, small_model):
        """A long idle gap between bursts must not grind one empty epoch row
        per interval (nor inflate the epoch timeline)."""
        gap_s = 1000.0
        tenants = [
            TenantSpec("early", model=small_model,
                       trace=timed_trace(5, 100.0, seed=12)),
            TenantSpec("late", model=small_model,
                       trace=with_arrivals(
                           sharegpt_like_queries(5, seed=13),
                           poisson_arrivals(5, 100.0, seed=13,
                                            start_s=gap_s))),
        ]
        engine = ClusterEngine(CentConfig(num_devices=4, context_samples=2),
                               tenants, context_step=512)
        result = engine.run(rebalance="epoch", epoch_s=0.5)
        # Without the fast-forward the gap alone would produce ~2000 rows.
        assert len(result.epoch_timeline) < 100
        for tenant in tenants:
            assert result.tenant_results[tenant.name].num_completed == 5

    def test_max_epochs_cutoff_still_routes_the_tail(self, small_model):
        """Hitting the epoch safety bound must drain the unrouted tail, not
        silently drop it from the per-tenant accounting."""
        tenants = [TenantSpec("t", model=small_model,
                              trace=timed_trace(10, 2.0, seed=14))]
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenants[0]], context_step=512)
        control = ControlConfig(epoch_s=0.05, max_epochs=3)
        result = engine.run(control=control)
        served = result.tenant_results["t"]
        assert served.num_completed + served.num_rejected == 10
        # The drain is reported, not silent: control stopped at the bound.
        assert result.control_stopped_epoch == 3
        # The bound is on the epoch index, which the idle-gap fast-forward
        # advances too: only one epoch was measured before the stop.
        assert len(result.epoch_timeline) == 1

    def test_control_stopped_epoch_none_when_control_holds(self, small_model):
        tenant = TenantSpec("t", model=small_model,
                            trace=timed_trace(10, 2.0, seed=14))
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenant], context_step=512)
        closed = engine.run(control=ControlConfig(epoch_s=0.5))
        assert closed.epoch_timeline
        assert closed.control_stopped_epoch is None
        assert engine.run().control_stopped_epoch is None  # open loop

    def test_epoch_s_conflicts_with_explicit_control(self, small_model):
        tenant = TenantSpec("t", model=small_model, trace=timed_trace(3, 5.0))
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenant], context_step=512)
        with pytest.raises(ValueError, match="not both"):
            engine.run(rebalance="epoch", epoch_s=1.0,
                       control=ControlConfig())

    def test_epoch_s_on_the_open_loop_is_rejected(self, small_model):
        """Regression: ``epoch_s`` without the closed loop used to be
        ignored silently (no epochs ran, ``epoch_s`` reported as None)."""
        tenant = TenantSpec("t", model=small_model, trace=timed_trace(3, 5.0))
        engine = ClusterEngine(CentConfig(num_devices=2, context_samples=2),
                               [tenant], context_step=512)
        with pytest.raises(ValueError, match="epoch_s only applies"):
            engine.run(epoch_s=0.5)
        system = CentSystem(CentConfig(num_devices=2, context_samples=2),
                            small_model)
        with pytest.raises(ValueError, match="epoch_s only applies"):
            system.serve_cluster([tenant], epoch_s=0.5, context_step=512)
        assert engine.run(rebalance="epoch", epoch_s=0.5).epoch_s == 0.5

    def test_cluster_result_rebalance_validation(self):
        from repro.core.results import ClusterResult
        with pytest.raises(ValueError, match="epoch_s"):
            ClusterResult("static", 2, 2, 1.0, epoch_s=0.0)
        with pytest.raises(ValueError):
            ClusterResult("static", 2, 2, 1.0, num_rebalances=-1)
        with pytest.raises(ValueError):
            ClusterResult("static", 2, 2, 1.0,
                          migration_stall_s=-0.5)
