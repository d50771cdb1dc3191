"""Tests for multi-tenant cluster serving on one shared device pool."""

import pytest

from repro.cluster import (
    PLACEMENT_POLICIES,
    ClusterEngine,
    ClusterPlacer,
    ClusterScheduler,
    ControlConfig,
    SlaClass,
    TenantSpec,
    min_feasible_devices,
)
from repro.cluster.placement import ClusterPlacement, ReplicaSpec
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

    @pytest.mark.parametrize("sla_latency_s", [float("nan"), float("inf")])
    def test_non_finite_sla_rejected(self, small_model, sla_latency_s):
        """A NaN SLA used to be accepted: no latency is within it."""
        with pytest.raises(ValueError, match="sla_latency_s"):
            TenantSpec("t", model=small_model, trace=fixed_queries(1),
                       sla_latency_s=sla_latency_s)

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

    @pytest.mark.parametrize("variant", ["policy", "weights", "trimmed"])
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_devices_conserved_and_floored(self, small_model, policy, variant):
        # The trim's capability curve peaks at the floor, so every grant
        # above it is cut back and the rest of the pool stays idle.
        placer = ClusterPlacer(
            policy, capability=(lambda tenant, d: -d) if variant == "trimmed"
            else None)
        heavy = make_tenant("heavy", count=40, seed=1, model=small_model)
        light = make_tenant("light", count=5, seed=2, model=small_model)
        floors = {t.name: min_feasible_devices(small_model, 6,
                                               context_length=t.max_context)
                  for t in (heavy, light)}
        weights = {"heavy": 1.0, "light": 3.0} if variant == "weights" else None
        # Listed out of name order: replicas follow the tenant list.
        placement = placer.place([light, heavy], 6, weights=weights)
        assert [r.tenant_name for r in placement.replicas] == ["light", "heavy"]
        assert [r.replica_id for r in placement.replicas] == [0, 1]
        next_device = 0
        for replica in placement.replicas:
            assert replica.first_device == next_device
            next_device = replica.device_range[1]
            assert (placement.tenant_devices[replica.tenant_name]
                    == replica.num_devices >= floors[replica.tenant_name])
        assert placement.devices_used == next_device <= 6
        if variant == "trimmed":
            assert placement.tenant_devices == floors
        else:
            assert sum(placement.tenant_devices.values()) == 6

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

    def test_capability_trims_to_best_count(self, small_model):
        # A capability curve that peaks below the grant: the placer must
        # leave the excess idle rather than deploy the worse mapping.
        placer = ClusterPlacer("static", capability=lambda tenant, d: -abs(d - 2))
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
    @staticmethod
    def _placement(model, names):
        replicas = tuple(
            ReplicaSpec(replica_id=i, tenant_name=name, model=model,
                        num_devices=1, first_device=i)
            for i, name in enumerate(names))
        return ClusterPlacement(policy="static", pool_devices=len(names),
                                replicas=replicas,
                                tenant_devices={name: 1 for name in names})

    def test_routes_each_query_to_its_tenant_replica(self, small_model):
        a = make_tenant("a", count=5, seed=1, model=small_model)
        b = make_tenant("b", count=4, seed=2, model=small_model)
        stream = sorted([(q, "a") for q in a.trace] + [(q, "b") for q in b.trace],
                        key=lambda item: item[0].arrival_time_s)
        routed = ClusterScheduler().route_window(
            [a, b], self._placement(small_model, ["b", "a"]), stream=stream)
        assert list(routed) == [0, 1]
        for replica_id, name in ((0, "b"), (1, "a")):
            assert routed[replica_id] == [q for q, owner in stream
                                          if owner == name]

    def test_tenant_without_replica_raises_clear_error(self, small_model):
        """Regression: a tenant no replica serves must fail loudly, not have
        its requests silently dropped or die on a bare KeyError."""
        served = make_tenant("served", count=2, model=small_model)
        orphan = make_tenant("orphan", count=2, seed=2, model=small_model)
        with pytest.raises(ValueError, match="no replica serves tenant 'orphan'"):
            ClusterScheduler().route_window(
                [served, orphan], self._placement(small_model, ["served"]),
                stream=[(q, "served") for q in served.trace])


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

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_own_replicas_with_tied_arrivals(self, small_model, pool_config,
                                             admission):
        """Tenants listed out of name order, all arriving at t=0, each on
        its own replica: ties resolve by tenant list position."""
        z = TenantSpec("z", model=small_model, sla_latency_s=10.0,
                       trace=[Query(512, 64, arrival_time_s=0.0)
                              for _ in range(6)])
        a = TenantSpec("a", model=small_model, sla_latency_s=10.0,
                       trace=[Query(64, 256, arrival_time_s=0.0)
                              for _ in range(6)])
        engine = ClusterEngine(pool_config, [z, a], context_step=512,
                               admission=admission)
        replicas = engine.placer.place(engine.tenants,
                                       pool_config.num_devices).replicas
        assert [r.tenant_name for r in replicas] == ["z", "a"]
        self.assert_same_run(engine)


class TestClusterResultMetrics:
    def test_total_collapse_scores_zero_fairness(self):
        from repro.core.results import ServingResult

        empty = ServingResult(model_name="m", plan_name="p", num_requests=4,
                              num_completed=0, num_rejected=4, makespan_s=1.0,
                              sla_latency_s=1.0)
        collapsed = ClusterResult(
            placement_policy="static",
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
