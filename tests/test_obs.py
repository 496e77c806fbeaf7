"""Tests of the observability stack (repro.obs).

Covers the metrics registry (enable/disable semantics, histogram
bucketing, Prometheus exposition), the sim-time tracer (parent/child
integrity, record cap, JSONL round-trip), the campaign integration
(an injected fault followable channel -> baseband -> L2CAP/BNEP ->
classification) and the cross-check against the mined relationship
table.
"""

import json

import pytest

from repro import Observability, api, build_relationship_table
from repro.obs import (
    EngineProfiler,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TRACER,
    Tracer,
    cross_check_relationship,
    full_stack_spans,
    get_registry,
    get_tracer,
    propagation_paths,
    read_trace_jsonl,
    render_prometheus,
    set_registry,
    set_tracer,
    stack_instruments,
)
from repro.obs.export import is_full_chain, span_layer_path
from repro.obs.metrics import MetricError, NULL_SERIES
from repro.sim import Simulator


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        errors = registry.counter("bt_errors_total", "errors", labels=("kind",))
        errors.labels(kind="crc").inc()
        errors.labels(kind="crc").inc(2)
        assert registry.value("bt_errors_total", kind="crc") == 3
        assert registry.value("bt_errors_total", kind="other") == 0.0

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "other help text")
        assert a is b

    def test_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labels=("b",))
        with pytest.raises(MetricError):
            registry.gauge("x_total", labels=("a",))

    def test_label_schema_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("y_total", labels=("kind",))
        with pytest.raises(MetricError):
            family.labels(wrong="x")
        with pytest.raises(MetricError):
            family.inc()  # labelled family has no unlabelled series

    def test_gauge_set_max(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        depth.set_max(10)
        depth.set_max(4)
        assert registry.value("queue_depth") == 10

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            hist.observe(value)
        child = hist.labels()
        assert child.counts == [2, 1, 1, 1]  # <=1, <=5, <=10, +Inf
        assert child.cumulative_counts() == [2, 3, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(111.5)

    def test_null_registry_is_free_and_silent(self):
        assert NULL_REGISTRY.enabled is False
        series = NULL_REGISTRY.counter("anything", labels=("a",))
        assert series is NULL_SERIES
        series.inc()
        series.labels(a="x").observe(3)  # chains stay no-ops
        assert NULL_REGISTRY.families() == []
        assert NULL_REGISTRY.value("anything") == 0.0

    def test_active_registry_default_and_restore(self):
        assert get_registry() is NULL_REGISTRY
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
        finally:
            set_registry(previous)
        assert get_registry() is NULL_REGISTRY

    def test_stack_instruments_rebind_on_registry_change(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            live = stack_instruments()
            live.bnep_connections.inc()
            assert registry.value("repro_bnep_connections_total") == 1
        finally:
            set_registry(previous)
        # Back on the null registry the bundle is rebuilt as no-ops.
        assert stack_instruments().bnep_connections is NULL_SERIES


class TestPrometheusExposition:
    def test_counter_and_histogram_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels=("k",)).labels(k="x").inc(2)
        registry.histogram("h", "a histogram", buckets=(1.0, 2.0)).observe(1.5)
        text = render_prometheus(registry)
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="x"} 2' in text
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels=("m",)).labels(m='say "hi"\n').inc()
        text = render_prometheus(registry)
        assert r'e_total{m="say \"hi\"\n"} 1' in text

    def test_profiler_series_appended(self):
        profiler = EngineProfiler()
        sim = Simulator()
        profiler.attach(sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        profiler.detach(sim)
        text = render_prometheus(MetricsRegistry(), profiler=profiler)
        assert "repro_engine_events_total 1" in text
        assert "repro_engine_callsite_seconds_total" in text


class TestTracer:
    def test_spans_stamped_with_clock(self):
        t = [0.0]
        tracer = Tracer(clock=lambda: t[0])
        span = tracer.start_span("fault:test", failure="test")
        t[0] = 5.0
        tracer.event(span, layer="channel", what="burst")
        t[0] = 9.0
        tracer.end_span(span, status="failure")
        record = tracer.spans[0]
        assert record.t_start == 0.0
        assert record.t_end == 9.0
        assert record.status == "failure"
        assert tracer.events[0].t == 5.0

    def test_parent_child_integrity(self):
        tracer = Tracer()
        parent = tracer.start_span("parent")
        child_a = tracer.start_span("a", parent=parent)
        child_b = tracer.start_span("b", parent=parent)
        assert [s.id for s in tracer.children(parent)] == [child_a, child_b]
        assert tracer.children(child_a) == []
        tracer.end_span(parent)
        assert [s.id for s in tracer.open_spans()] == [child_a, child_b]

    def test_record_cap_counts_drops(self):
        tracer = Tracer(max_records=2)
        span = tracer.start_span("one")
        tracer.event(span, layer="channel", what="x")
        assert tracer.start_span("overflow") == 0
        tracer.event(span, layer="channel", what="y")
        assert tracer.dropped == 2
        assert len(tracer.spans) + len(tracer.events) == 2

    def test_events_on_zero_span_ignored(self):
        tracer = Tracer()
        tracer.event(0, layer="channel", what="x")
        tracer.end_span(0)
        assert tracer.events == []

    def test_null_tracer_never_records(self):
        assert NULL_TRACER.start_span("x") == 0
        NULL_TRACER.event(1, layer="channel", what="x")
        assert NULL_TRACER.to_records() == []
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_restore(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is NULL_TRACER

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(clock=lambda: 1.25)
        span = tracer.start_span("fault:loss", failure="packet_loss")
        tracer.event(span, layer="channel", what="burst", packet_type="DM1")
        tracer.end_span(span, status="failure")
        open_span = tracer.start_span("fault:pending")
        path = tmp_path / "trace.jsonl"
        from repro.obs import write_trace_jsonl

        write_trace_jsonl(tracer, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert {l["kind"] for l in lines} == {"span", "event"}

        loaded = read_trace_jsonl(path)
        assert [s.to_dict() for s in loaded.spans] == [
            s.to_dict() for s in tracer.spans
        ]
        assert [e.to_dict() for e in loaded.events] == [
            e.to_dict() for e in tracer.events
        ]
        assert [s.id for s in loaded.open_spans()] == [open_span]
        # ids keep incrementing past the loaded ones
        assert loaded.start_span("new") == open_span + 1

    def test_is_full_chain(self):
        assert is_full_chain(
            ["faults", "channel", "baseband", "l2cap", "bnep", "classification"]
        )
        assert is_full_chain(["channel", "baseband", "bnep", "hci", "classification"])
        assert not is_full_chain(["channel", "baseband", "classification"])
        assert not is_full_chain(["baseband", "channel", "l2cap", "classification"])


class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def observed(self):
        obs = Observability()
        result = api.run(duration=6 * 3600.0, seed=11, observability=obs)
        return obs, result

    def test_metrics_populated(self, observed):
        obs, _ = observed
        registry = obs.registry
        assert registry.value("repro_bnep_connections_total") > 0
        injected = registry.get("repro_faults_injected_total")
        assert injected is not None and len(list(injected.samples())) > 0

    def test_exposition_non_empty(self, observed):
        obs, _ = observed
        text = obs.metrics_text()
        assert "# TYPE repro_faults_injected_total counter" in text
        assert "repro_engine_events_total" in text

    def test_fault_followable_through_the_stack(self, observed):
        obs, _ = observed
        complete = full_stack_spans(obs.tracer)
        assert complete, "no fault crossed channel->baseband->mux->classification"
        span = complete[0]
        path = span_layer_path(obs.tracer, span.id)
        assert path[0] == "faults"
        assert span.status in ("failure", "masked")
        assert span.attrs["failure"] in ("packet_loss", "data_mismatch")

    def test_propagation_paths_cover_transfer_faults(self, observed):
        obs, _ = observed
        folded = propagation_paths(obs.tracer)
        assert any(name.startswith("fault:") for name in folded)

    def test_cross_check_against_relationship_table(self, observed):
        obs, result = observed
        table = build_relationship_table(
            result.repository, result.node_nap_pairs()
        )
        rows = cross_check_relationship(obs.tracer, table)
        assert rows, "cross-check produced no rows"
        loss = rows.get("packet_loss")
        assert loss is not None and loss["traced"] > 0
        # the miner cannot observe more packet losses than were injected
        assert loss["mined"] <= loss["traced"]

    def test_profiler_saw_the_run(self, observed):
        obs, result = observed
        assert obs.profiler.events_processed > 0
        assert obs.profiler.queue_depth_hwm > 0
        assert result.sim.profiler is None  # detached after the run

    def test_globals_restored_after_campaign(self, observed):
        assert get_registry() is NULL_REGISTRY
        assert get_tracer() is NULL_TRACER

    def test_observability_off_records_nothing(self):
        result = api.run(duration=3600.0, seed=1)
        assert result.observability is None
        assert get_registry() is NULL_REGISTRY


class TestDeterminism:
    def test_observability_does_not_perturb_campaign(self):
        plain = api.run(duration=4 * 3600.0, seed=23)
        instrumented = api.run(
            duration=4 * 3600.0, seed=23, observability=Observability()
        )
        plain_records = [
            r.to_dict() for r in plain.repository.iter_records(kind="test")
        ]
        obs_records = [
            r.to_dict() for r in instrumented.repository.iter_records(kind="test")
        ]
        assert plain_records == obs_records


class TestSnapshotMergeCollisions:
    """merge_snapshot refuses to mis-merge: every schema drift is an error."""

    def _snapshot_with(self, **overrides):
        base = {
            "kind": "counter",
            "help": "",
            "labels": ["kind"],
            "series": [[["crc"], 2.0]],
        }
        base.update(overrides)
        return {"bt_errors_total": base}

    def test_kind_collision_raises_naming_family(self):
        registry = MetricsRegistry()
        registry.gauge("bt_errors_total", labels=("kind",))
        with pytest.raises(MetricError, match="bt_errors_total"):
            registry.merge_snapshot(self._snapshot_with())

    def test_label_schema_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("bt_errors_total", labels=("layer",))
        with pytest.raises(MetricError, match="collision"):
            registry.merge_snapshot(self._snapshot_with())

    def test_histogram_bucket_bounds_collision_raises(self):
        registry = MetricsRegistry()
        registry.histogram("bt_latency", labels=(), buckets=(0.1, 1.0))
        incoming = {
            "bt_latency": {
                "kind": "histogram",
                "help": "",
                "labels": [],
                "buckets": [0.5, 5.0],
                "series": [[[], {"counts": [1, 0, 0], "sum": 0.2, "count": 1}]],
            }
        }
        with pytest.raises(MetricError, match="bucket bounds"):
            registry.merge_snapshot(incoming)

    def test_series_key_arity_mismatch_raises(self):
        registry = MetricsRegistry()
        bad = self._snapshot_with(series=[[["crc", "extra"], 2.0]])
        with pytest.raises(MetricError, match="label schema"):
            registry.merge_snapshot(bad)

    def test_unknown_kind_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="kind"):
            registry.merge_snapshot(self._snapshot_with(kind="summary"))

    def test_clean_merge_still_adds(self):
        registry = MetricsRegistry()
        registry.counter("bt_errors_total", labels=("kind",)).labels(kind="crc").inc()
        registry.merge_snapshot(self._snapshot_with())
        assert registry.value("bt_errors_total", kind="crc") == 3.0


class TestJournalDisabledPath:
    """Telemetry off must cost nothing: no files, no hooks, no-op emits."""

    def test_sweep_without_telemetry_writes_no_journal(self, tmp_path):
        result = api.sweep(
            2, jobs=1, duration=1800.0, seed=11, checkpoint_dir=tmp_path
        )
        assert result.journal is None
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_run_shard_without_telemetry_installs_no_progress_hook(self):
        from repro.core.campaign import ExperimentConfig
        from repro.parallel import run_shard

        seen = []
        original = ExperimentConfig._execute

        def spy(self, *args, **kwargs):
            seen.append(kwargs)
            return original(self, *args, **kwargs)

        ExperimentConfig._execute = spy
        try:
            run_shard(ExperimentConfig(duration=1800.0, seed=3))
        finally:
            ExperimentConfig._execute = original
        assert len(seen) == 1
        assert seen[0].get("on_progress") is None
        assert not seen[0].get("progress_interval")

    def test_null_journal_is_shared_and_silent(self, tmp_path):
        from repro.obs.journal import NULL_JOURNAL, NullJournal

        assert isinstance(NULL_JOURNAL, NullJournal)
        assert NULL_JOURNAL.path is None
        # emit/close accept the full writer signature and do nothing.
        NULL_JOURNAL.emit("shard_started", seed=1, wall={"ts": 0.0}, index=0)
        NULL_JOURNAL.close()
        assert list(tmp_path.iterdir()) == []

    def test_disabled_emit_has_no_measurable_cost(self):
        # Mirrors DISABLED_BUDGET in benchmarks/test_bench_obs_overhead.py:
        # the disabled path must stay within noise.  The absolute bound
        # here is deliberately generous (CI boxes are slow and shared);
        # the point is catching accidental I/O or formatting on the
        # disabled path, which would cost 10-100x more than this.
        import time as _time

        from repro.obs.journal import NULL_JOURNAL

        rounds = 10_000
        start = _time.perf_counter()
        for index in range(rounds):
            NULL_JOURNAL.emit("shard_progress", seed=1, sim_time=float(index))
        per_event = (_time.perf_counter() - start) / rounds
        assert per_event < 50e-6, f"disabled emit costs {per_event * 1e6:.1f}us"
