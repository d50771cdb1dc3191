"""repro-lint fixture tests: every rule fires on its fixture and stays
silent on the near-miss, escapes (suppression/baseline) behave, and
reverting any real guard/seed/fold/sort fix in the tree re-fires the rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, lint_paths, rule_classes, scan_suppressions
from repro.analysis.cli import main as lint_main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def lint_snippet(tmp_path, relname: str, source: str, **kwargs):
    """Write ``source`` at ``tmp_path/relname`` (path decides rule scope)
    and return the lint findings."""
    target = tmp_path / relname
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], **kwargs)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_and_environ_fire(self, tmp_path):
        result = lint_snippet(tmp_path, "engine.py", """\
            import os
            import time
            import datetime

            def now():
                a = time.time()
                b = time.perf_counter()
                c = datetime.datetime.now()
                d = os.environ["SEED"]
                e = os.getenv("SEED")
                return a, b, c, d, e
            """)
        assert rule_ids(result) == ["determinism"] * 5

    def test_aliased_import_resolves(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            from time import perf_counter as clock

            def f():
                return clock()
            """)
        assert rule_ids(result) == ["determinism"]

    def test_unseeded_rngs_fire(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            import random
            import numpy as np

            def f():
                a = random.random()
                b = np.random.rand(3)
                c = np.random.default_rng()
                return a, b, c
            """)
        assert rule_ids(result) == ["determinism"] * 3

    def test_seeded_rng_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            import random
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                alt = random.Random(seed)
                return rng.normal(), alt.random()
            """)
        assert result.findings == []

    def test_host_concurrency_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "control.py", """\
            import os
            import threading
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            def advance_all(replicas):
                with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
                    pool.map(lambda r: r.advance(), replicas)
                ProcessPoolExecutor()
                threading.Thread(target=print).start()
                multiprocessing.Pool(2)
            """)
        assert rule_ids(result) == ["determinism"] * 5

    def test_lock_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "performance.py", """\
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rlock = threading.RLock()
                    self.entries = {}

                def get(self, key):
                    with self._lock:
                        return self.entries.get(key)
            """)
        assert result.findings == []

    def test_engine_clock_arithmetic_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            def advance(clock_s, step_s):
                return clock_s + step_s
            """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# no-set-iteration
# ---------------------------------------------------------------------------


class TestSetIteration:
    def test_set_iteration_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "cluster/engine.py", """\
            def assign(owners, pending):
                for owner in set(owners):
                    pending[owner] = []
                victims = [r for r in {1, 2, 3}]
                order = list(frozenset(owners))
                return victims, order
            """)
        assert rule_ids(result) == ["no-set-iteration"] * 3

    def test_set_typed_name_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "kvstore/pool.py", """\
            def reclaim(chains, pinned):
                cold = set(chains) - pinned
                for chain in cold:
                    chain.release()
            """)
        assert rule_ids(result) == ["no-set-iteration"]

    def test_sorted_set_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "cluster/engine.py", """\
            def assign(owners, pending):
                for owner in sorted(set(owners)):
                    pending[owner] = []
                if "a" in set(owners):
                    return max({1, 2}), len(set(owners))
            """)
        assert result.findings == []

    def test_out_of_scope_module_is_silent(self, tmp_path):
        # Same pattern in a non-engine module (e.g. evaluation) is fine.
        result = lint_snippet(tmp_path, "evaluation/tables.py", """\
            def label(names):
                return [n for n in set(names)]
            """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# telemetry-guard
# ---------------------------------------------------------------------------


class TestTelemetryGuard:
    def test_unguarded_emission_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/engine.py", """\
            def finish(rec, clock, request):
                rec.event("request.finished", clock, request.request_id)
            """)
        assert rule_ids(result) == ["telemetry-guard"]

    def test_guarded_emission_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/engine.py", """\
            def finish(rec, recorder, telemetry, clock):
                if rec is not None:
                    rec.event("request.finished", clock, 0)
                if recorder is None:
                    return
                recorder.window_step("decode", (), clock, clock, 1, 0)
                if telemetry is not None and clock > 0:
                    telemetry.event("kv.release", clock, 1)
            """)
        assert result.findings == []

    def test_assert_and_else_branch_guards(self, tmp_path):
        result = lint_snippet(tmp_path, "kvstore/allocator.py", """\
            def release(recorder, now_s):
                assert recorder is not None
                recorder.event("kv.release", now_s, 0)

            def evict(rec, now_s):
                if rec is None:
                    pass
                else:
                    rec.event("kv.evict", now_s, 0)
            """)
        assert result.findings == []

    def test_rebinding_receiver_drops_guard(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/engine.py", """\
            def step(state, clock):
                rec = state.recorder
                if rec is None:
                    return
                rec = state.other
                rec.event("request.queued", clock, 0)
            """)
        assert rule_ids(result) == ["telemetry-guard"]

    def test_guard_on_other_name_does_not_leak(self, tmp_path):
        result = lint_snippet(tmp_path, "cluster/control.py", """\
            def epoch(rec, control_rec, clock):
                if rec is not None:
                    control_rec.event("cluster.epoch", clock, None)
            """)
        assert rule_ids(result) == ["telemetry-guard"]


# ---------------------------------------------------------------------------
# float-fold
# ---------------------------------------------------------------------------


class TestFloatFold:
    def test_bare_sum_fires_in_scoped_modules(self, tmp_path):
        result = lint_snippet(tmp_path, "telemetry/attribution.py", """\
            import math
            import numpy as np

            def totals(segments):
                a = sum(seconds for _, seconds in segments)
                b = math.fsum(seconds for _, seconds in segments)
                c = np.sum([1.0, 2.0])
                return a, b, c
            """)
        assert rule_ids(result) == ["float-fold"] * 3

    def test_integer_count_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "core/iteration.py", """\
            def count(rows, events):
                finished = sum(1 for r in rows if r.finished)
                blocks = sum(int(e.blocks) for e in events)
                return finished + blocks
            """)
        assert result.findings == []

    def test_explicit_fold_near_miss_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "telemetry/attribution.py", """\
            def segment_sum_s(segments):
                total = 0.0
                for _, seconds in segments:
                    total += seconds
                return total
            """)
        assert result.findings == []

    def test_unscoped_module_is_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "evaluation/tables.py", """\
            def mean(xs):
                return sum(xs) / len(xs)
            """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# slots-discipline
# ---------------------------------------------------------------------------


_HANDLE = """\
class Handle:
    __slots__ = ("request_id", "swap_time_s")

    def __init__(self, request_id):
        self.request_id = request_id
        self.swap_time_s = 0.0

    @property
    def state(self):
        return self.request_id

    @state.setter
    def state(self, value):
        self.request_id = value
"""


class TestSlotsDiscipline:
    def test_out_of_surface_writes_fire(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/request.py", _HANDLE + """\

def use(handle: Handle):
    handle.extra = 1
    setattr(handle, "more", 2)

def make():
    h = Handle(0)
    h.stray = 3
""")
        assert rule_ids(result) == ["slots-discipline"] * 3

    def test_self_write_outside_surface_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/request.py", _HANDLE + """\

    def grow(self):
        self.cache = {}
""")
        assert rule_ids(result) == ["slots-discipline"]

    def test_slotted_init_near_miss_is_silent(self, tmp_path):
        # Writes to declared slots (in __init__ or not) and through the
        # property setter are the declared surface: silent.
        result = lint_snippet(tmp_path, "serving/request.py", _HANDLE + """\

def use(handle: Handle):
    handle.swap_time_s += 1.5
    handle.state = 7
""")
        assert result.findings == []

    def test_concatenated_slots_resolve(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/request.py", """\
            _INTS = ("a", "b")

            class Columns:
                _FLOATS = ("x_s",)
                __slots__ = _INTS + _FLOATS + ("size",)

                def __init__(self):
                    self.size = 0

                def grow(self):
                    self.capacity = 4
            """)
        assert rule_ids(result) == ["slots-discipline"]
        assert "capacity" in result.findings[0].message

    def test_unslotted_and_inheriting_classes_are_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "serving/request.py", """\
            class Plain:
                def grow(self):
                    self.anything = 1

            class Base:
                __slots__ = ("a",)

            class Derived(Base):
                __slots__ = ("b",)

                def grow(self):
                    self.a = 1
            """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# unit-suffix
# ---------------------------------------------------------------------------


class TestUnitSuffix:
    def test_mixed_unit_arithmetic_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "cost/model.py", """\
            def f(swap_time_s, kv_bytes, rate_qps, total_tokens):
                a = swap_time_s + kv_bytes
                swap_time_s -= total_tokens
                stall_s = rate_qps
                return a, stall_s
            """)
        assert rule_ids(result) == ["unit-suffix"] * 3

    def test_seconds_vs_nanoseconds_fires(self, tmp_path):
        result = lint_snippet(tmp_path, "core/iteration.py", """\
            def f(block_latency_ns, decode_time_s):
                return decode_time_s + block_latency_ns
            """)
        assert rule_ids(result) == ["unit-suffix"]

    def test_same_unit_and_conversions_are_silent(self, tmp_path):
        result = lint_snippet(tmp_path, "cost/model.py", """\
            def f(start_s, end_s, kv_bytes, link_bytes, latency_ns):
                span_s = end_s - start_s
                total_bytes = kv_bytes + link_bytes
                latency_s = latency_ns * 1e-9
                rate = kv_bytes / span_s
                return span_s, total_bytes, latency_s, rate
            """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# suppressions, baseline, CLI
# ---------------------------------------------------------------------------


class TestEscapes:
    def test_inline_suppression_same_line(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            import time

            def f():
                # measurement harness, not simulation
                return time.time()  # repro-lint: ignore[determinism]
            """)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["determinism"]

    def test_inline_suppression_line_above(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            import time

            def f():
                # repro-lint: ignore[determinism] — harness wall clock
                return time.time()
            """)
        assert result.findings == []

    def test_suppression_is_rule_specific(self, tmp_path):
        result = lint_snippet(tmp_path, "mod.py", """\
            import time

            def f():
                return time.time()  # repro-lint: ignore[no-set-iteration]
            """)
        assert rule_ids(result) == ["determinism"]

    def test_scan_suppressions_parses_lists(self):
        table = scan_suppressions(
            "x = 1  # repro-lint: ignore[a, b]\n"
            "# repro-lint: ignore[c]\ny = 2\n")
        assert table[1] == {"a", "b"}
        assert table[3] == {"c"}

    def test_baseline_tolerates_then_goes_stale(self, tmp_path):
        source = """\
            import time

            def f():
                return time.time()
            """
        dirty = lint_snippet(tmp_path, "mod.py", source)
        assert len(dirty.findings) == 1
        baseline_file = tmp_path / "baseline.json"
        Baseline().write(baseline_file, dirty.findings)

        baselined = lint_snippet(tmp_path, "mod2.py", source,
                                 baseline=Baseline.load(baseline_file))
        # Different file -> fingerprint mismatch -> still fails, and the
        # unmatched entry is reported stale.
        assert len(baselined.findings) == 1
        assert len(baselined.stale_baseline) == 1

        again = lint_snippet(tmp_path, "mod.py", source,
                             baseline=Baseline.load(baseline_file))
        assert again.findings == []
        assert [f.rule for f in again.baselined] == ["determinism"]
        assert again.stale_baseline == []

    def test_baseline_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": [1, 2]}), encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(bad)

    def test_cli_exit_codes_and_select(self, tmp_path, capsys):
        target = tmp_path / "serving" / "mod.py"
        target.parent.mkdir()
        target.write_text("import time\nWALL = time.time()\n",
                          encoding="utf-8")
        assert lint_main([str(target)]) == 1
        assert lint_main([str(target), "--select", "no-set-iteration"]) == 0
        assert lint_main([str(target), "--select", "nonsense"]) == 2
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out and "telemetry-guard" in out

    def test_cli_write_baseline_roundtrip(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nWALL = time.time()\n",
                          encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline",
                          str(baseline)]) == 0
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert lint_main([str(target)]) == 1

    def test_syntax_error_fails_run(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n", encoding="utf-8")
        result = lint_paths([target])
        assert not result.ok
        assert result.errors


# ---------------------------------------------------------------------------
# the real tree: clean now, and each fix is load-bearing
# ---------------------------------------------------------------------------


def _mutated(tmp_path, source_file: Path, relname: str, old: str, new: str):
    """Copy a real module with one fix reverted; the revert must apply."""
    source = source_file.read_text(encoding="utf-8")
    mutated = source.replace(old, new)
    assert mutated != source, (
        f"mutation no longer applies to {source_file}; update the test "
        "to track the current spelling of the fix")
    target = tmp_path / relname
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(mutated, encoding="utf-8")
    return target


class TestRealTree:
    def test_src_repro_is_clean_with_empty_baseline(self):
        result = lint_paths([SRC])
        assert result.errors == []
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings)

    def test_cli_module_runs_clean(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC)],
            capture_output=True, text=True, env=env, cwd=str(REPO))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_reverting_sorted_set_fix_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "cluster" / "control.py", "cluster/control.py",
            "plan_names = sorted({run.plan.name for run in used})",
            "plan_names = list({run.plan.name for run in used})")
        assert "no-set-iteration" in rule_ids(lint_paths([target]))

    def test_restoring_threaded_replicas_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "cluster" / "control.py", "cluster/control.py",
            "        for runtime in live.values():\n"
            "            runtime.engine.advance(runtime.state, until_s=until_s)\n",
            "        from concurrent.futures import ThreadPoolExecutor\n"
            "        with ThreadPoolExecutor() as pool:\n"
            "            for runtime in live.values():\n"
            "                pool.submit(runtime.engine.advance, runtime.state,\n"
            "                            until_s=until_s)\n")
        assert "determinism" in rule_ids(lint_paths([target]))

    def test_reverting_iteration_fold_fix_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "core" / "iteration.py", "core/iteration.py",
            "        total_block_ns = 0.0\n"
            "        for context in contexts:\n"
            "            total_block_ns += self.block_latency_ns(context)\n"
            "        mean_block_ns = total_block_ns / len(contexts)\n",
            "        mean_block_ns = sum(self.block_latency_ns(c) "
            "for c in contexts) / len(contexts)\n")
        assert "float-fold" in rule_ids(lint_paths([target]))

    def test_reverting_attribution_fold_fix_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "telemetry" / "attribution.py",
            "telemetry/attribution.py",
            "            total = 0.0\n"
            "            for _, fraction in timeline:"
            "  # explicit left fold (float-fold)\n"
            "                total += fraction\n"
            "            mean = total / len(timeline)\n",
            "            mean = sum(f for _, f in timeline) "
            "/ len(timeline)\n")
        assert "float-fold" in rule_ids(lint_paths([target]))

    def test_deleting_allocator_guard_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "kvstore" / "allocator.py",
            "kvstore/allocator.py",
            "if recorder is not None and (blocks or swapped):",
            "if blocks or swapped:")
        assert "telemetry-guard" in rule_ids(lint_paths([target]))

    def test_deleting_workload_seed_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "workloads" / "queries.py",
            "workloads/queries.py",
            "np.random.default_rng(seed)",
            "np.random.default_rng()")
        assert "determinism" in rule_ids(lint_paths([target]))

    def test_deleting_request_slot_fires(self, tmp_path):
        target = _mutated(
            tmp_path, SRC / "serving" / "request.py",
            "serving/request.py",
            '        "prefix_pending",\n',
            "")
        assert "slots-discipline" in rule_ids(lint_paths([target]))
