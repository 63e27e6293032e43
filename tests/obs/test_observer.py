"""The Observer handle: null path, wiring, and non-interference.

The load-bearing invariant: attaching an observer never changes what the
pipeline computes — similarity values and the deterministic
``pair_updates`` work metric are identical with observation on and off.
"""


import numpy as np
import pytest

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.exceptions import BudgetExhausted
from repro.graph.dependency import DependencyGraph
from repro.obs import (
    NULL_OBSERVER,
    FakeClock,
    MetricsRegistry,
    Observer,
    Tracer,
)
from repro.runtime import DegradationPolicy, MatchBudget
from repro.synthesis.corpus import build_scalability_pair


class TestNullObserver:
    def test_observes_nothing(self):
        assert not NULL_OBSERVER.tracing
        assert not NULL_OBSERVER.enabled
        NULL_OBSERVER.count("x")
        NULL_OBSERVER.gauge("y", 1.0)
        NULL_OBSERVER.observe("z", 0.5)
        NULL_OBSERVER.event("marker", detail=1)

    def test_null_span_is_a_context_manager(self):
        with NULL_OBSERVER.span("anything", pairs=3) as span:
            span.attributes["written"] = True  # lands in a throwaway dict


class TestObserverWiring:
    def test_sinks_flip_the_flags(self):
        assert Observer(tracer=Tracer()).tracing
        assert not Observer(metrics=MetricsRegistry()).tracing
        assert Observer(metrics=MetricsRegistry()).enabled

    def test_clock_defaults_to_the_tracers(self):
        clock = FakeClock(start=7.0)
        observer = Observer(tracer=Tracer(clock=clock))
        assert observer.clock is clock

    def test_span_and_metrics_record(self):
        observer = Observer(tracer=Tracer(clock=FakeClock()), metrics=MetricsRegistry())
        with observer.span("graph.build", activities=6):
            observer.count("ems_fixpoint_total", 2.0)
        assert observer.tracer.roots[0].attributes == {"activities": 6}
        assert observer.metrics.get("ems_fixpoint_total").value == 2.0


class TestPipelineSpans:
    def test_engine_emits_fixpoint_iteration_and_freeze(self, fig1_graphs):
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        result = EMSEngine(EMSConfig(), observer=observer).similarity(*fig1_graphs)
        assert observer.tracer.open_depth == 0
        names = [span.name for span in observer.tracer.all_spans()]
        (fixpoint,) = [n for n in names if n == "ems.fixpoint"]
        assert any(n.startswith("ems.iteration[") for n in names)
        assert names.count("pruning.freeze") == 2  # one instant per direction
        assert (
            observer.metrics.get("ems_pair_updates_total").value
            == result.pair_updates
        )

    def test_iteration_spans_account_every_pair_update(self, fig1_graphs):
        observer = Observer(tracer=Tracer())
        result = EMSEngine(EMSConfig(), observer=observer).similarity(*fig1_graphs)
        recorded = sum(
            span.attributes["pair_updates"]
            for span in observer.tracer.all_spans()
            if span.name.startswith("ems.iteration[")
        )
        assert recorded == result.pair_updates


class TestFixpointAccounting:
    """Every fixpoint reports its work, whatever ended it."""

    @pytest.fixture(scope="class")
    def graphs_20(self):
        pair = build_scalability_pair(20, seed=1)
        return (
            DependencyGraph.from_log(pair.log_first),
            DependencyGraph.from_log(pair.log_second),
        )

    def observed(self, graphs, **kwargs):
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        result = EMSEngine(EMSConfig(), observer=observer).similarity(*graphs, **kwargs)
        metrics = observer.metrics
        freezes = [
            span for span in observer.tracer.all_spans() if span.name == "pruning.freeze"
        ]
        return result, metrics, freezes

    @pytest.mark.parametrize("cap", [None, 100_000, 500])
    def test_counters_match_the_meter(self, graphs_20, cap):
        meter = MatchBudget(max_pair_updates=cap).start() if cap else None
        result, metrics, freezes = self.observed(
            graphs_20, meter=meter, degradation=DegradationPolicy()
        )
        assert result.stage == ("estimated" if cap == 500 else "exact")
        assert metrics.get("ems_fixpoint_total").value == 1
        assert [span.attributes["direction"] for span in freezes] == ["forward", "backward"]
        spent = metrics.get("ems_pair_updates_total").value
        assert spent == result.pair_updates
        if meter is not None:
            assert spent == meter.pair_updates_spent
        if cap == 500:
            assert spent == 501

    def test_exhaustion_without_ladder_still_counts(self, graphs_20):
        meter = MatchBudget(max_pair_updates=500).start()
        observer = Observer(metrics=MetricsRegistry())
        with pytest.raises(BudgetExhausted):
            EMSEngine(EMSConfig(), observer=observer).similarity(*graphs_20, meter=meter)
        assert observer.metrics.get("ems_fixpoint_total").value == 1
        assert observer.metrics.get("ems_pair_updates_total").value == 501

    def test_bd_abort_reports_its_work(self, graphs_20):
        meter = MatchBudget(max_pair_updates=10**12).start()
        result, metrics, freezes = self.observed(graphs_20, meter=meter, abort_below=0.99)
        assert result.aborted
        assert result.pair_updates > 0
        assert len(freezes) == 2
        assert metrics.get("ems_bound_aborts_total").value == 1
        assert metrics.get("ems_fixpoint_total").value == 1
        assert metrics.get("ems_pair_updates_total").value == meter.pair_updates_spent
        assert meter.pair_updates_spent == result.pair_updates


class TestNonInterference:
    def test_engine_results_identical_with_observer(self, fig1_graphs):
        plain = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        observed = EMSEngine(EMSConfig(), observer=observer).similarity(*fig1_graphs)
        assert np.array_equal(plain.matrix.values, observed.matrix.values)
        assert plain.pair_updates == observed.pair_updates
        assert plain.iterations == observed.iterations

    def test_composite_results_identical_with_observer(self, fig1_logs):
        kwargs = dict(delta=0.001, min_confidence=0.9, max_run_length=3)
        plain = CompositeMatcher(EMSConfig(), **kwargs).match(*fig1_logs)
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        observed = CompositeMatcher(EMSConfig(), observer=observer, **kwargs).match(
            *fig1_logs
        )
        assert np.array_equal(plain.matrix.values, observed.matrix.values)
        assert plain.accepted_second == observed.accepted_second
        assert plain.stats.pair_updates == observed.stats.pair_updates
        assert observer.tracer.open_depth == 0
