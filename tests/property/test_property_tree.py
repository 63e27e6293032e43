"""Property-based tests of model generation and playout."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.merge import merge_runs
from repro.synthesis.generator import perturbed, random_process_tree, reweighted
from repro.synthesis.playout import play_out

sizes = st.integers(min_value=1, max_value=25)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(sizes, seeds)
@settings(max_examples=40, deadline=None)
def test_generated_tree_covers_exactly_the_activities(size, seed):
    names = [f"a{i}" for i in range(size)]
    tree = random_process_tree(names, random.Random(seed))
    assert tree.activities() == frozenset(names)


@given(sizes, seeds)
@settings(max_examples=30, deadline=None)
def test_playout_traces_use_model_vocabulary(size, seed):
    names = [f"a{i}" for i in range(size)]
    rng = random.Random(seed)
    tree = random_process_tree(names, rng)
    log = play_out(tree, 15, rng)
    assert log.activities() <= frozenset(names)
    assert len(log) == 15


@given(sizes, seeds, seeds)
@settings(max_examples=30, deadline=None)
def test_reweighted_and_perturbed_preserve_vocabulary(size, seed_tree, seed_mutation):
    names = [f"a{i}" for i in range(size)]
    tree = random_process_tree(names, random.Random(seed_tree))
    rng = random.Random(seed_mutation)
    assert reweighted(tree, rng).activities() == tree.activities()
    assert perturbed(tree, rng, swaps=2).activities() == tree.activities()


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_merge_roundtrip_preserves_event_mass(seed):
    """Merging a run reduces the event count by exactly the number of
    collapsed occurrences times (run length - 1)."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(6)]
    tree = random_process_tree(names, rng)
    log = play_out(tree, 20, rng)
    candidates = [(names[0], names[1])]
    merged, members = merge_runs(log, [candidates[0]])
    original_events = sum(len(trace) for trace in log)
    merged_events = sum(len(trace) for trace in merged)
    merged_name = "⟨" + "+".join(candidates[0]) + "⟩"
    collapsed = sum(
        trace.activities.count(merged_name) for trace in merged
    )
    assert original_events - merged_events == collapsed
