"""Tests for the separable membership layer (Sec. 6.2)."""

import random

from repro.core.events import Unsubscription
from repro.membership import PartialViewMembership, TotalMembership


def make_layer(owner=0, view=(), weighted=False, **kw):
    defaults = dict(view_max=5, subs_max=5, unsubs_max=5, unsub_ttl=10.0)
    defaults.update(kw)
    return PartialViewMembership(
        owner=owner, rng=random.Random(0), weighted=weighted,
        initial_view=view, **defaults
    )


class TestPartialViewMembership:
    def test_initial_view_truncated_to_bound(self):
        layer = make_layer(view=tuple(range(1, 20)))
        assert len(layer.view) == 5

    def test_apply_subscriptions(self):
        layer = make_layer(view=(1,))
        layer.apply_membership((2, 3), (), now=0.0)
        assert 2 in layer.view and 3 in layer.view
        assert 2 in layer.subs and 3 in layer.subs

    def test_apply_unsubscriptions(self):
        layer = make_layer(view=(1, 2))
        layer.apply_membership((), (Unsubscription(2, 0.5),), now=1.0)
        assert 2 not in layer.view
        assert 2 in layer.unsubs

    def test_owner_never_enters_view(self):
        layer = make_layer(owner=9)
        layer.apply_membership((9, 2), (), now=0.0)
        assert 9 not in layer.view
        assert 2 in layer.view

    def test_payload_includes_self(self):
        layer = make_layer(owner=9, view=(1,))
        subs, unsubs = layer.membership_payload(now=0.0)
        assert 9 in subs

    def test_payload_excludes_self_after_unsubscribe(self):
        layer = make_layer(owner=9, view=(1,))
        assert layer.local_unsubscribe(now=0.0, refusal_threshold=3)
        subs, unsubs = layer.membership_payload(now=0.0)
        assert 9 not in subs
        assert any(u.pid == 9 for u in unsubs)

    def test_payload_no_duplicates(self):
        layer = make_layer(owner=9, view=(1,))
        layer.subs.add(9)  # pathological: self in subs buffer
        subs, _ = layer.membership_payload(now=0.0)
        assert len(subs) == len(set(subs))

    def test_local_unsubscribe_refused_when_saturated(self):
        layer = make_layer(unsubs_max=10)
        for pid in range(20, 24):
            layer.unsubs.add(Unsubscription(pid, 0.0))
        assert not layer.local_unsubscribe(now=1.0, refusal_threshold=3)
        assert not layer.unsubscribed

    def test_local_unsubscribe_idempotent(self):
        layer = make_layer()
        assert layer.local_unsubscribe(now=0.0, refusal_threshold=3)
        assert layer.local_unsubscribe(now=1.0, refusal_threshold=3)

    def test_purge_drops_obsolete_unsubs(self):
        layer = make_layer(unsub_ttl=5.0)
        layer.unsubs.add(Unsubscription(3, 0.0))
        layer.purge(now=10.0)
        assert 3 not in layer.unsubs

    def test_view_overflow_recycles_into_subs(self):
        layer = make_layer(view=(1, 2, 3, 4, 5), subs_max=20)
        layer.apply_membership((6, 7), (), now=0.0)
        assert len(layer.view) == 5
        outside = {1, 2, 3, 4, 5, 6, 7} - set(layer.view)
        assert outside <= set(layer.subs)

    def test_add_counts_and_recycles_its_view_evictions(self):
        # Joins, SubscriptionAck and PriorityProcessSet.normalize go through
        # add(); its evictions count like Phase II's.
        layer = make_layer(view=(1, 2, 3, 4, 5), subs_max=20)
        assert layer.add(6)
        assert len(layer.view) == 5
        assert layer.view_evictions == 1
        (evicted,) = {1, 2, 3, 4, 5, 6} - set(layer.view)
        assert evicted in layer.subs
        assert layer.add(7)
        assert layer.view_evictions == 2

    def test_add_below_bound_evicts_nothing(self):
        layer = make_layer(view=(1, 2))
        assert layer.add(3)
        assert not layer.add(3)
        assert layer.view_evictions == 0

    def test_weighted_awareness(self):
        layer = make_layer(view=(1, 2), weighted=True)
        layer.apply_membership((1,), (), now=0.0)
        assert layer.view.weight_of(1) == 1

    def test_gossip_targets_from_view(self):
        layer = make_layer(view=(1, 2, 3))
        targets = layer.gossip_targets(2)
        assert len(targets) == 2
        assert set(targets) <= {1, 2, 3}

    def test_add_remove_contains_len(self):
        layer = make_layer()
        assert layer.add(4)
        assert 4 in layer
        assert len(layer) == 1
        assert layer.remove(4)
        assert 4 not in layer


class TestTotalMembership:
    def test_knows_everyone_but_self(self):
        total = TotalMembership(0, members=range(5), rng=random.Random(0))
        assert set(total.known_processes()) == {1, 2, 3, 4}

    def test_gossip_targets_sampled(self):
        total = TotalMembership(0, members=range(10), rng=random.Random(0))
        targets = total.gossip_targets(3)
        assert len(targets) == 3
        assert 0 not in targets

    def test_apply_membership_updates(self):
        total = TotalMembership(0, members=(1, 2), rng=random.Random(0))
        total.apply_membership((3,), (Unsubscription(1, 0.0),), now=0.0)
        assert 3 in total
        assert 1 not in total

    def test_empty_payload(self):
        total = TotalMembership(0, members=(1, 2), rng=random.Random(0))
        assert total.membership_payload(now=0.0) == ((), ())

    def test_add_remove(self):
        total = TotalMembership(0, rng=random.Random(0))
        assert total.add(5)
        assert not total.add(5)
        assert not total.add(0)  # self
        assert total.remove(5)
        assert not total.remove(5)
