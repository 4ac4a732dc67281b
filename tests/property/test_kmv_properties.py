"""Property-based tests for the KMV (ℓ0) sketch (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.l0 import KMVSketch

item_sets = st.frozensets(st.integers(min_value=0, max_value=10_000), max_size=300)


@given(items=item_sets, capacity=st.integers(min_value=8, max_value=64), seed=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_insertion_order_irrelevant(items, capacity, seed):
    a = KMVSketch(capacity, seed=seed)
    b = KMVSketch(capacity, seed=seed)
    a.update_many(sorted(items))
    b.update_many(sorted(items, reverse=True))
    assert sorted(a.values()) == sorted(b.values())
    assert a.estimate() == b.estimate()


@given(items=item_sets, capacity=st.integers(min_value=8, max_value=64), seed=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_exact_when_under_capacity(items, capacity, seed):
    sketch = KMVSketch(capacity, seed=seed)
    sketch.update_many(items)
    if len(items) < capacity:
        # Strictly under capacity the sketch has seen every distinct item and
        # knows it (once full it must fall back to the order-statistic estimate).
        assert sketch.estimate() == float(len(items))
    assert sketch.size <= capacity


@given(
    left=item_sets,
    right=item_sets,
    capacity=st.integers(min_value=8, max_value=64),
    seed=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_merge_equals_inserting_union(left, right, capacity, seed):
    a = KMVSketch(capacity, seed=seed)
    b = KMVSketch(capacity, seed=seed)
    a.update_many(left)
    b.update_many(right)
    merged = KMVSketch.merge_all([a, b])
    direct = KMVSketch(capacity, seed=seed)
    direct.update_many(left | right)
    assert sorted(merged.values()) == sorted(direct.values())
    assert merged.estimate() == direct.estimate()


@given(items=item_sets, seed=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_estimate_never_negative_and_zero_for_empty(items, seed):
    sketch = KMVSketch(16, seed=seed)
    assert sketch.estimate() == 0.0
    sketch.update_many(items)
    assert sketch.estimate() >= 0.0
