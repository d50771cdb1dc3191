"""Tests for multi-tenant cluster serving on one shared device pool."""

import pytest

from repro.cluster import (
    ClusterEngine,
    ClusterPlacer,
    ClusterScheduler,
    ControlConfig,
    SlaClass,
    TenantSpec,
    min_feasible_devices,
)
from repro.cluster.placement import ReplicaSpec
from repro.core.config import CentConfig
from repro.core.results import ClusterResult, ServingResult
from repro.core.system import CentSystem
from repro.evaluation import multi_tenant_policy_study
from repro.models.config import ModelConfig
from repro.serving import ServingEngine
from repro.workloads import (
    Query,
    fixed_queries,
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024, num_heads=16,
                       num_kv_heads=4, d_ff=2816, vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def pool_config():
    return CentConfig(num_devices=6, context_samples=2)


def make_tenant(name, count=10, rate=20.0, seed=1, model=None, **kwargs):
    queries = sharegpt_like_queries(count, seed=seed)
    trace = with_arrivals(queries, poisson_arrivals(count, rate, seed=seed))
    return TenantSpec(name, model=model, trace=trace, **kwargs)


class TestTenantSpec:
    def test_validation(self, small_model):
        with pytest.raises(ValueError):
            TenantSpec("", model=small_model, trace=fixed_queries(1))
        with pytest.raises(ValueError):
            TenantSpec("empty", model=small_model, trace=[])
        with pytest.raises(ValueError):
            TenantSpec("t", model=small_model, trace=fixed_queries(1), priority=0.0)
        with pytest.raises(ValueError):
            TenantSpec("t", model=small_model, trace=fixed_queries(1),
                       sla_latency_s=-1.0)

    def test_sla_class_defaults_and_override(self, small_model):
        base = TenantSpec("t", model=small_model, trace=fixed_queries(1),
                          sla_class=SlaClass.INTERACTIVE)
        assert base.latency_slo_s == 30.0
        override = TenantSpec("t", model=small_model, trace=fixed_queries(1),
                              sla_class=SlaClass.INTERACTIVE, sla_latency_s=5.0)
        assert override.latency_slo_s == 5.0

    def test_demand_accounting(self, small_model):
        tenant = TenantSpec("t", model=small_model,
                            trace=[Query(100, 50), Query(200, 25)])
        assert tenant.offered_prompt_tokens == 300
        assert tenant.offered_decode_tokens == 75
        assert tenant.offered_tokens == 375
        assert tenant.max_context == 225


class TestPlacement:
    def test_min_feasible_devices_monotone_entry(self, small_model):
        floor = min_feasible_devices(small_model, 6)
        assert 1 <= floor <= 6

    def test_devices_conserved_and_floored(self, small_model):
        placer = ClusterPlacer("proportional")
        heavy = make_tenant("heavy", count=40, seed=1, model=small_model)
        light = make_tenant("light", count=5, seed=2, model=small_model)
        placement = placer.place([heavy, light], 6)
        assert placement.devices_used <= 6
        assert sum(placement.tenant_devices.values()) == 6
        floor = min_feasible_devices(small_model, 6)
        assert all(d >= floor for d in placement.tenant_devices.values())

    def test_proportional_favours_heavy_tenant(self, small_model):
        placer = ClusterPlacer("proportional")
        heavy = make_tenant("heavy", count=40, seed=1, model=small_model)
        light = make_tenant("light", count=5, seed=2, model=small_model)
        placement = placer.place([heavy, light], 6)
        assert placement.tenant_devices["heavy"] > placement.tenant_devices["light"]

    def test_static_splits_evenly(self, small_model):
        placer = ClusterPlacer("static")
        a = make_tenant("a", count=40, seed=1, model=small_model)
        b = make_tenant("b", count=5, seed=2, model=small_model)
        placement = placer.place([a, b], 6)
        assert placement.tenant_devices["a"] == placement.tenant_devices["b"] == 3

    def test_sla_aware_favours_tight_slo(self, small_model):
        placer = ClusterPlacer("sla_aware")
        urgent = make_tenant("urgent", count=10, seed=1, model=small_model,
                             sla_class=SlaClass.INTERACTIVE, priority=2.0)
        lazy = make_tenant("lazy", count=10, seed=2, model=small_model,
                           sla_class=SlaClass.BATCH)
        placement = placer.place([urgent, lazy], 6)
        assert placement.tenant_devices["urgent"] > placement.tenant_devices["lazy"]

    def test_replica_sizes_respect_cap_and_floor(self, small_model):
        placer = ClusterPlacer("static", max_replica_devices=2)
        # floor 2, cap 2, allotment 5: both bounds hold and the odd device
        # stays idle instead of inflating one replica past the cap.
        assert placer._replica_sizes(5, 2) == [2, 2]
        assert placer._replica_sizes(5, 1) == [2, 2, 1]
        assert placer._replica_sizes(4, 2) == [2, 2]
        # A cap below the floor is raised to the floor (feasibility wins).
        tight = ClusterPlacer("static", max_replica_devices=1)
        assert tight._replica_sizes(5, 2) == [2, 2]

    def test_max_replica_devices_splits_allotment(self, small_model):
        placer = ClusterPlacer("static", max_replica_devices=1)
        tenant = make_tenant("t", count=10, model=small_model)
        placement = placer.place([tenant], 4)
        assert len(placement.replicas) == 4
        assert all(r.num_devices == 1 for r in placement.replicas)
        # Device ranges tile the pool without overlap.
        ranges = sorted(r.device_range for r in placement.replicas)
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_share_replicas_merges_same_model(self, small_model):
        placer = ClusterPlacer("static", share_replicas=True)
        a = make_tenant("a", count=10, seed=1, model=small_model)
        b = make_tenant("b", count=10, seed=2, model=small_model)
        placement = placer.place([a, b], 6)
        assert len(placement.replicas) == 1
        assert set(placement.replicas[0].tenant_names) == {"a", "b"}

    def test_capability_trims_to_best_count(self, small_model):
        # A capability curve that peaks below the grant: the placer must
        # leave the excess idle rather than deploy the worse mapping.
        placer = ClusterPlacer("static", capability=lambda members, d: -abs(d - 2))
        tenant = make_tenant("t", count=10, model=small_model)
        placement = placer.place([tenant], 5)
        assert placement.tenant_devices["t"] == 2
        assert placement.devices_used == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ClusterPlacer("fifo")

    def test_pool_too_small(self, small_model):
        big = ModelConfig(name="huge", num_layers=96, d_model=12288, num_heads=96,
                          num_kv_heads=96, d_ff=49152, vocab_size=50000,
                          max_context=2048)
        tenant = TenantSpec("t", model=big, trace=fixed_queries(1))
        with pytest.raises(MemoryError):
            ClusterPlacer("static").place([tenant], 1)


class TestScheduler:
    def _replicas(self, model, count):
        return tuple(
            ReplicaSpec(replica_id=i, tenant_names=("t",), model=model,
                        num_devices=1, first_device=i)
            for i in range(count)
        )

    def _placement(self, model, count):
        from repro.cluster.placement import ClusterPlacement

        return ClusterPlacement(policy="static", pool_devices=count,
                                replicas=self._replicas(model, count),
                                tenant_devices={"t": count})

    def test_round_robin_cycles(self, small_model):
        tenant = make_tenant("t", count=9, rate=100.0, model=small_model)
        plan = ClusterScheduler("round_robin").route(
            [tenant], self._placement(small_model, 3), lambda r, q: 0.1)
        sizes = sorted(len(v) for v in plan.assignments.values())
        assert sizes == [3, 3, 3]

    def test_least_outstanding_balances(self, small_model):
        tenant = make_tenant("t", count=30, rate=1000.0, model=small_model)
        plan = ClusterScheduler("least_outstanding").route(
            [tenant], self._placement(small_model, 3), lambda r, q: 0.05)
        sizes = [len(v) for v in plan.assignments.values()]
        assert sum(sizes) == 30
        assert max(sizes) - min(sizes) <= 1

    def test_admission_cap_rejects_excess(self, small_model):
        queries = [Query(64, 32, arrival_time_s=0.0) for _ in range(6)]
        tenant = TenantSpec("t", model=small_model, trace=queries, max_outstanding=2)
        plan = ClusterScheduler("least_outstanding").route(
            [tenant], self._placement(small_model, 1), lambda r, q: 10.0)
        assert plan.accounting["t"].routed == 2
        assert plan.accounting["t"].rejected == 4
        assert len(plan.rejected["t"]) == 4
        assert plan.accounting["t"].admitted_fraction == pytest.approx(2 / 6)

    def test_sla_deadline_prefers_meeting_replicas(self, small_model):
        # Replica 0 is slow (never meets the 1 s SLO), replica 1 is fast:
        # the deadline-aware router must send traffic to the fast one, while
        # round robin would alternate.
        queries = [Query(64, 32, arrival_time_s=0.01 * i) for i in range(10)]
        tenant = TenantSpec("t", model=small_model, trace=queries, sla_latency_s=1.0)
        placement = self._placement(small_model, 2)
        def estimator(r, q):
            return 5.0 if r.replica_id == 0 else 0.01

        plan = ClusterScheduler("sla_deadline").route([tenant], placement, estimator)
        assert len(plan.assignments[1]) == 10
        assert len(plan.assignments[0]) == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ClusterScheduler("random")


class TestClusterEngine:
    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    @pytest.mark.parametrize("epoch_s", [None, 0.05, 0.5],
                             ids=["open", "epoch-0.05", "epoch-0.5"])
    def test_single_tenant_matches_serving_engine(self, small_model, epoch_s,
                                                  admission):
        """Acceptance: a single-tenant cluster run reproduces
        ``ServingEngine.run`` on the same pool exactly, open loop or epoch
        segmented."""
        config = CentConfig(num_devices=4, context_samples=2)
        system = CentSystem(config, small_model)
        trace = with_arrivals(sharegpt_like_queries(50, seed=5),
                              poisson_arrivals(50, 40.0, seed=5))
        solo = ServingEngine(system, admission=admission).run(
            trace, sla_latency_s=2.0)
        control = (None if epoch_s is None
                   else ControlConfig(epoch_s=epoch_s, rebalance="off"))
        cluster = system.serve_cluster(
            [TenantSpec("only", trace=trace, sla_latency_s=2.0)],
            control=control, admission=admission)
        assert cluster.tenant_results["only"] == solo

    def test_two_tenants_with_default_model(self, small_model, pool_config):
        system = CentSystem(pool_config, small_model)
        result = system.serve_cluster([
            make_tenant("a", count=12, seed=1, sla_latency_s=5.0),
            make_tenant("b", count=8, seed=2, sla_latency_s=5.0),
        ])
        assert isinstance(result, ClusterResult)
        assert set(result.tenant_results) == {"a", "b"}
        for tenant_result in result.tenant_results.values():
            assert isinstance(tenant_result, ServingResult)
            assert tenant_result.num_completed == tenant_result.num_requests
        assert result.makespan_s > 0
        assert 0 < result.pool_utilization <= 1
        assert 0 < result.max_min_goodput_ratio <= 1
        assert 0 < result.jain_fairness_index <= 1

    def test_admission_cap_shows_in_tenant_result(self, small_model, pool_config):
        system = CentSystem(pool_config, small_model)
        queries = [Query(64, 256, arrival_time_s=0.0) for _ in range(8)]
        capped = TenantSpec("capped", trace=queries, max_outstanding=2)
        other = make_tenant("other", count=4, seed=3, sla_latency_s=10.0)
        result = system.serve_cluster([capped, other])
        tenant = result.tenant_results["capped"]
        assert tenant.num_requests == 8
        assert tenant.num_rejected > 0
        assert tenant.num_completed + tenant.num_rejected == 8

    def test_routed_replicas_share_one_pool(self, small_model, pool_config):
        system = CentSystem(pool_config, small_model)
        result = system.serve_cluster(
            [make_tenant("t", count=20, rate=200.0, sla_latency_s=5.0)],
            max_replica_devices=2,
            routing_policy="round_robin",
        )
        assert result.devices_used <= pool_config.num_devices
        assert result.tenant_results["t"].num_completed == 20

    def test_share_replicas_time_share_same_model(self, small_model, pool_config):
        system = CentSystem(pool_config, small_model)
        result = system.serve_cluster(
            [make_tenant("a", count=10, seed=1, sla_latency_s=10.0),
             make_tenant("b", count=10, seed=2, sla_latency_s=10.0)],
            share_replicas=True,
        )
        for tenant_result in result.tenant_results.values():
            assert tenant_result.num_completed == 10
        # Both tenants time-share every device of the merged allotment.
        assert result.tenant_devices["a"] == result.tenant_devices["b"]

    def test_duplicate_tenant_names_rejected(self, small_model, pool_config):
        system = CentSystem(pool_config, small_model)
        tenant = make_tenant("dup", count=2)
        with pytest.raises(ValueError):
            system.serve_cluster([tenant, tenant])


class TestOpenLoopIsOneUnboundedEpoch:
    """Metamorphic relation: the open loop equals a closed loop whose single
    epoch outlasts the run, with re-placement off."""

    @staticmethod
    def assert_same_run(engine):
        open_loop = engine.run()
        one_epoch = engine.run(
            control=ControlConfig(epoch_s=1e9, rebalance="off"))
        assert open_loop.tenant_results == one_epoch.tenant_results
        assert open_loop.makespan_s == one_epoch.makespan_s
        assert open_loop.busy_device_seconds == one_epoch.busy_device_seconds
        assert open_loop.epoch_s is None and open_loop.epoch_timeline == ()
        assert len(one_epoch.epoch_timeline) == 1

    @pytest.mark.parametrize("routing_policy",
                             ["round_robin", "least_outstanding"])
    def test_tenant_spread_over_replicas(self, small_model, pool_config,
                                         routing_policy):
        engine = ClusterEngine(
            pool_config,
            [make_tenant("t", count=30, rate=200.0, seed=3, model=small_model,
                         sla_latency_s=5.0)],
            routing_policy=routing_policy, max_replica_devices=2,
            context_step=512)
        assert len(engine.placer.place(engine.tenants,
                                       pool_config.num_devices).replicas) > 1
        self.assert_same_run(engine)

    def test_shared_replica_with_tied_arrivals(self, small_model, pool_config):
        """Tenants listed out of name order, all arriving at t=0 on one
        time-shared replica: ties resolve by tenant list position."""
        z = TenantSpec("z", model=small_model, sla_latency_s=10.0,
                       trace=[Query(512, 64, arrival_time_s=0.0)
                              for _ in range(6)])
        a = TenantSpec("a", model=small_model, sla_latency_s=10.0,
                       trace=[Query(64, 256, arrival_time_s=0.0)
                              for _ in range(6)])
        engine = ClusterEngine(pool_config, [z, a], share_replicas=True,
                               context_step=512)
        self.assert_same_run(engine)


class TestClusterResultMetrics:
    def test_total_collapse_scores_zero_fairness(self):
        from repro.core.results import ServingResult

        empty = ServingResult(model_name="m", plan_name="p", num_requests=4,
                              num_completed=0, num_rejected=4, makespan_s=1.0,
                              sla_latency_s=1.0)
        collapsed = ClusterResult(
            placement_policy="static", routing_policy="round_robin",
            pool_devices=4, devices_used=4, makespan_s=1.0,
            tenant_results={"a": empty, "b": empty},
            tenant_devices={"a": 2, "b": 2},
            tenant_offered_decode_tokens={"a": 100, "b": 100})
        assert collapsed.max_min_goodput_ratio == 0.0
        assert collapsed.jain_fairness_index == 0.0
        assert collapsed.aggregate_goodput_tokens_per_s == 0.0


class TestMultiTenantStudy:
    def test_adaptive_placement_beats_static(self, small_model):
        """Acceptance: at least one placement policy beats the static
        partition on aggregate SLA goodput for an asymmetric tenant mix."""
        study = multi_tenant_policy_study(
            model=small_model, num_devices=6, context_samples=2,
            context_step=256, seed=3)
        rows = {row["policy"]: row for row in study["rows"]}
        assert set(rows) == {"static", "proportional", "sla_aware"}
        static = rows["static"]["aggregate_goodput_tokens_per_s"]
        adaptive = max(rows["proportional"]["aggregate_goodput_tokens_per_s"],
                       rows["sla_aware"]["aggregate_goodput_tokens_per_s"])
        assert adaptive > static
        assert study["best_policy"] != "static"
        # The overloaded static chat share violates its SLO; the winner
        # serves a strictly larger fraction of the chat demand.
        best = rows[study["best_policy"]]
        assert best["chat_goodput_fraction"] > rows["static"]["chat_goodput_fraction"]
        for row in rows.values():
            assert 0 <= row["max_min_goodput_ratio"] <= 1
            assert 0 <= row["jain_fairness_index"] <= 1
            assert 0 <= row["pool_utilization"] <= 1
