"""A cold serve call's imports, and the percentiles that avoid one.

numpy's ``np.unique`` and ``np.percentile`` import ``numpy.ma`` on their
first call in a process, which costs ~16 ms inside every cold serve call.
The simulator computes distinct contexts and linear percentiles without
them; this module checks both that no serve or export path imports
``numpy.ma`` and that the percentiles keep numpy's bits.
"""

import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import LatencyStats, linear_percentiles, percentile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

COLD_RUN = textwrap.dedent("""
    import os, sys, tempfile
    from repro import CentConfig, CentSystem
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.tenant import TenantSpec
    from repro.models.config import ModelConfig
    from repro.serving import ServingEngine
    from repro.telemetry import TraceRecorder, write_jsonl, write_perfetto
    from repro.workloads import (bursty_arrivals, poisson_arrivals,
                                 prefix_reuse_queries, sharegpt_like_queries,
                                 with_arrivals)

    model = ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                        num_heads=16, num_kv_heads=4, d_ff=2816,
                        vocab_size=32000, max_context=2048)
    system = CentSystem(CentConfig(num_devices=2, context_samples=2), model)
    trace = with_arrivals(
        prefix_reuse_queries(30, num_tenants=2, mean_prefix_tokens=100.0,
                             seed=3, max_context=2048),
        poisson_arrivals(30, 200.0, seed=3))
    paged = ServingEngine(system, admission="paged", context_step=512)
    result = paged.run(trace, sla_latency_s=5.0)
    assert result.num_completed == 30, result.num_completed
    tenants = [
        TenantSpec(name, model=model, sla_latency_s=0.2,
                   trace=with_arrivals(sharegpt_like_queries(20, seed=seed),
                                       bursty_arrivals(20, 400.0, seed=seed,
                                                       start_s=start_s)))
        for name, seed, start_s in (("early", 5, 0.0), ("late", 6, 0.3))]
    recorder = TraceRecorder()
    ClusterEngine(CentConfig(num_devices=6, context_samples=2), tenants,
                  context_step=512).run(rebalance="epoch", epoch_s=0.05,
                                        telemetry=recorder)
    with tempfile.TemporaryDirectory() as out:
        write_jsonl(recorder, os.path.join(out, "run.jsonl"))
        write_perfetto(recorder, os.path.join(out, "run.perfetto.json"))
    print("numpy.ma" in sys.modules)
""")


def test_cold_serve_and_exports_do_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", COLD_RUN], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def bits(value):
    return struct.pack("<d", float(value))


finite = st.floats(allow_nan=False, allow_infinity=False)
samples = st.lists(st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308]),
    st.floats(-1e-300, 1e-300), st.floats(-1e300, 1e300)),
    min_size=1, max_size=40)
# Duplicates: repeat drawn values.
repeated = st.lists(st.tuples(samples, st.integers(1, 4)), min_size=1,
                    max_size=3).map(
    lambda parts: [v for values, times in parts for v in values * times])


@st.composite
def counted_samples(draw):
    """Distinct-or-not values, each with a positive count.  ``-0.0`` becomes
    ``0.0`` (``x + 0.0``): numpy's partition of the repeated array may put
    either signed zero at a rank, and the counted form never builds that
    array to find out.  Time-between-tokens gaps are never ``-0.0``."""
    values = [v + 0.0 for v in draw(st.one_of(samples, repeated))]
    counts = draw(st.lists(st.integers(1, 5), min_size=len(values),
                           max_size=len(values)))
    return np.array(values), np.array(counts, dtype=np.int64)


quantiles = st.one_of(st.floats(0.0, 100.0),
                      st.sampled_from([0.0, 50.0, 90.0, 99.0, 100.0]))


class TestLinearPercentiles:
    @settings(settings.get_profile("ci"), max_examples=500)
    @given(values=st.one_of(samples, repeated),
           qs=st.lists(quantiles, min_size=1, max_size=4))
    def test_bits_match_numpy(self, values, qs):
        expected = np.percentile(np.array(values), qs)
        got = linear_percentiles(np.array(values), qs)
        assert [bits(v) for v in got] == [bits(v) for v in expected]
        for q in qs:
            assert bits(percentile(values, q)) == bits(np.percentile(values, q))

    @settings(settings.get_profile("ci"), max_examples=300)
    @given(counted=counted_samples(),
           qs=st.lists(quantiles, min_size=1, max_size=4))
    def test_weighted_bits_match_numpy(self, counted, qs):
        """Values with counts read like ``np.repeat(values, counts)``."""
        values, counts = counted
        expected = np.percentile(np.repeat(values, counts), qs)
        got = linear_percentiles(values, qs, counts)
        assert [bits(v) for v in got] == [bits(v) for v in expected]

    # The mean of huge samples overflows to inf; only percentiles matter.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(settings.get_profile("ci"), max_examples=200)
    @given(values=st.one_of(samples, repeated))
    def test_latency_stats_match_numpy(self, values):
        p50, p90, p99 = np.percentile(np.array(values), [50.0, 90.0, 99.0])
        stats = LatencyStats.from_samples(list(values))
        assert [bits(stats.p50_s), bits(stats.p90_s), bits(stats.p99_s)] \
            == [bits(p50), bits(p90), bits(p99)]

    def test_single_element_and_signed_zero(self):
        for values in ([-0.0], [0.0, -0.0], [-0.0, -0.0, 3.0], [2.5]):
            for q in (0.0, 37.5, 50.0, 100.0):
                assert bits(percentile(values, q)) == bits(
                    np.percentile(values, q))

    def test_nan_propagates(self):
        assert math.isnan(percentile([1.0, float("nan"), 2.0], 50.0))
