"""The fused Phase II and the shared eviction kernel against a reference.

``PartialViewMembership._phase2_subscriptions`` works on the view's and the
``subs`` buffer's own lists and indexes in one pass, and every uniform random
eviction runs :func:`repro.core.buffers.evict_random`.  The reference below
is the straightforward Figure 1(a) sequence — ``view.add``/``subs.add`` per
entry, then evict from the view with ``rng.randrange``, recycle the evictees
with ``subs.add_all`` and evict from ``subs`` — so the properties pin that the
fast path makes the same changes in the same order and consumes exactly the
same random stream.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import RandomDropBuffer
from repro.core.events import Unsubscription, make_notification
from repro.core.node import _notification_key
from repro.membership import PartialViewMembership

OWNER = 0
pids = st.integers(min_value=0, max_value=15)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _identity(item):
    return item


def reference_evict(items, index, max_size, rng, key=_identity):
    """Pre-kernel eviction: ``rng.randrange`` positions, swap-remove."""
    evicted = []
    while len(items) > max_size:
        pos = rng.randrange(len(items))
        item = items[pos]
        last = items.pop()
        del index[key(item)]
        if pos < len(items):
            items[pos] = last
            index[key(last)] = pos
        evicted.append(item)
    return evicted


def reference_weighted_evict(view, rng):
    """Pre-change weighted eviction: a heaviest position, chosen uniformly."""
    items, index, weights = view._items, view._index, view._weights
    evicted = []
    while len(items) > view.max_size:
        max_weight = max(weights[pid] for pid in items)
        heaviest = [pos for pos, pid in enumerate(items)
                    if weights[pid] == max_weight]
        pos = rng.choice(heaviest)
        pid = items[pos]
        last = items.pop()
        del index[pid]
        weights.pop(pid, None)
        if pos < len(items):
            items[pos] = last
            index[last] = pos
        evicted.append(pid)
    return evicted


def reference_phase2(layer, subs):
    """Figure 1(a) Phase II, one method call per entry."""
    if not subs:
        return
    view = layer.view
    rng = layer._rng
    for new_sub in subs:
        if new_sub == layer.owner or new_sub in layer.unsubs:
            continue
        if new_sub in view:
            if layer.weighted:
                view.note_awareness(new_sub)
            continue
        if view.add(new_sub):
            layer.subs.add(new_sub)
    if layer.weighted:
        evicted = reference_weighted_evict(view, rng)
    else:
        evicted = reference_evict(view._items, view._index, view.max_size,
                                  rng)
    layer.view_evictions += len(evicted)
    layer.subs.add_all(evicted)
    reference_evict(layer.subs._items, layer.subs._index,
                    layer.subs.max_size, rng)


def build_layer(seed, weighted, view_max, subs_max, view, subs, unsubs,
                bumps):
    layer = PartialViewMembership(
        owner=OWNER, view_max=view_max, subs_max=subs_max, unsubs_max=16,
        unsub_ttl=10.0, rng=random.Random(seed), weighted=weighted,
        initial_view=view,
    )
    for pid in subs[:subs_max]:
        layer.subs.add(pid)
    for pid in unsubs:
        layer.unsubs.add(Unsubscription(pid, 1.0))
    # ``add`` skips the death-certificate check, so a buffered
    # unsubscription can coexist with a view entry; cover that state too.
    for pid in unsubs[:1]:
        layer.add(pid)
    if weighted:
        for pid in bumps:
            layer.view.note_awareness(pid)
    return layer


def layer_state(layer):
    view, subs = layer.view, layer.subs
    return (
        list(view._items),
        dict(view._index),
        list(subs._items),
        dict(subs._index),
        layer.view_evictions,
        dict(getattr(view, "_weights", {})),
        layer._rng.getstate(),
    )


def assert_index_consistent(items, index):
    assert len(index) == len(items)
    for pos, item in enumerate(items):
        assert index[item] == pos


class TestFusedPhase2MatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=seeds,
        weighted=st.booleans(),
        view_max=st.integers(0, 6),
        subs_max=st.integers(0, 5),
        view=st.lists(pids, max_size=10),
        subs=st.lists(pids, max_size=8),
        unsubs=st.lists(pids, max_size=4),
        bumps=st.lists(pids, max_size=6),
        batches=st.lists(st.lists(pids, max_size=12).map(tuple),
                         min_size=1, max_size=5),
    )
    def test_same_state_and_same_draws(self, seed, weighted, view_max,
                                       subs_max, view, subs, unsubs, bumps,
                                       batches):
        fused = build_layer(seed, weighted, view_max, subs_max, view, subs,
                            unsubs, bumps)
        reference = build_layer(seed, weighted, view_max, subs_max, view,
                                subs, unsubs, bumps)
        assert layer_state(fused) == layer_state(reference)
        for batch in batches:
            fused._phase2_subscriptions(batch)
            reference_phase2(reference, batch)
            assert layer_state(fused) == layer_state(reference)
            assert_index_consistent(fused.view._items, fused.view._index)
            assert_index_consistent(fused.subs._items, fused.subs._index)
            assert len(fused.view) <= view_max
            assert len(fused.subs) <= subs_max

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, view_max=st.integers(0, 6),
           view=st.lists(pids, max_size=10), extra=st.lists(pids, max_size=6))
    def test_add_matches_reference_and_counts_evictions(self, seed, view_max,
                                                        view, extra):
        fused = build_layer(seed, False, view_max, 4, view, [], [], [])
        reference = build_layer(seed, False, view_max, 4, view, [], [], [])
        for pid in extra:
            before = fused.view_evictions
            was_full = len(fused.view) == view_max
            added = fused.add(pid)
            if reference.view.add(pid):
                evicted = reference_evict(
                    reference.view._items, reference.view._index,
                    reference.view.max_size, reference._rng)
                reference.view_evictions += len(evicted)
                reference.subs.add_all(evicted)
                reference_evict(reference.subs._items, reference.subs._index,
                                reference.subs.max_size, reference._rng)
                assert added
            assert layer_state(fused) == layer_state(reference)
            assert fused.view_evictions - before == int(added and was_full)


class TestKeyedTruncateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, capacity=st.integers(0, 6),
           event_ids=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 8)),
                              max_size=20))
    def test_events_buffer_truncate(self, seed, capacity, event_ids):
        # Notifications carry unhashable payloads, as on the events buffer.
        staged = [make_notification(origin, seq, payload=[origin, seq])
                  for origin, seq in event_ids]
        fast = RandomDropBuffer(capacity, random.Random(seed),
                                key=_notification_key)
        slow = RandomDropBuffer(capacity, random.Random(seed),
                                key=_notification_key)
        fast.add_all(staged)
        slow.add_all(staged)
        evicted = fast.truncate()
        expected = reference_evict(slow._items, slow._index, capacity,
                                   slow._rng, key=_notification_key)
        assert evicted == expected
        assert fast._items == slow._items
        assert fast._index == slow._index
        assert fast._rng.getstate() == slow._rng.getstate()
        assert_index_consistent([_notification_key(n) for n in fast._items],
                                fast._index)
