"""Tests for prioritary processes (Sec. 4.4)."""

import random

import pytest

from repro.membership import PartialViewMembership, PriorityProcessSet


def make_layer(owner=0, view=()):
    return PartialViewMembership(
        owner=owner, view_max=5, subs_max=5, unsubs_max=5, unsub_ttl=10.0,
        rng=random.Random(0), initial_view=view,
    )


class TestPriorityProcessSet:
    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            PriorityProcessSet(())

    def test_deduplicates(self):
        priority = PriorityProcessSet((1, 1, 2))
        assert priority.pids == (1, 2)
        assert len(priority) == 2

    def test_bootstrap_contact_is_member(self):
        priority = PriorityProcessSet((1, 2, 3))
        contact = priority.bootstrap_contact(random.Random(0))
        assert contact in priority

    def test_normalize_injects_into_view(self):
        priority = PriorityProcessSet((100, 101))
        layer = make_layer(view=(1, 2))
        added = priority.normalize(layer)
        assert added == 2
        assert 100 in layer.view and 101 in layer.view

    def test_normalize_skips_owner(self):
        priority = PriorityProcessSet((0, 100))
        layer = make_layer(owner=0)
        added = priority.normalize(layer)
        assert added == 1
        assert 0 not in layer.view

    def test_normalize_respects_budget(self):
        priority = PriorityProcessSet((100, 101, 102))
        layer = make_layer()
        assert priority.normalize(layer, max_injected=1) == 1

    def test_normalize_keeps_view_bounded(self):
        priority = PriorityProcessSet(tuple(range(100, 110)))
        layer = make_layer(view=(1, 2, 3, 4, 5))
        priority.normalize(layer)
        assert len(layer.view) <= 5

    def test_normalize_counts_its_view_evictions(self):
        priority = PriorityProcessSet(tuple(range(100, 110)))
        layer = make_layer(view=(1, 2, 3, 4, 5))
        added = priority.normalize(layer)
        assert added == 10
        assert layer.view_evictions == 10

    def test_normalize_idempotent_when_known(self):
        priority = PriorityProcessSet((100,))
        layer = make_layer(view=(100,))
        assert priority.normalize(layer) == 0

    def test_normalize_all(self):
        priority = PriorityProcessSet((100,))
        layers = [make_layer(owner=i) for i in range(3)]
        assert priority.normalize_all(layers) == 3

    def test_iteration(self):
        priority = PriorityProcessSet((5, 6))
        assert list(priority) == [5, 6]
