"""Correctness checks on the program's outputs.

A failed check raises :class:`CheckFailure`; the run then reports
``"correct": false`` and exits non-zero, so a broken output fails the
benchmark instead of skewing a metric.

Deliveries are recorded by a listener that only appends, and checked after
the timed window, so the checks cost nothing inside the measured rounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: The share of processes every columnar event must reach by the end of a
#: run.
CURVE_FLOOR = 0.99


class CheckFailure(Exception):
    """An output of the program is wrong."""


class DeliveryLog:
    """Records every LPB-DELIVER as ``(pid, notification, now)``.

    Register :attr:`listener` on each node; appending to a list is atomic,
    so the UDP runtime's threads may share one log."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        append = self.records.append

        def listener(pid, notification, now) -> None:
            append((pid, notification, now))

        self.listener = listener


def check_no_duplicates(records: Iterable[tuple], window: int) -> int:
    """No process delivers an event twice while the event's id is still in
    its ``eventIds`` buffer.

    ``eventIds`` is a FIFO of ``window`` ids (``|eventIds|m``) and each
    delivery adds one id, so an id leaves it only once ``window`` further
    deliveries have been recorded; a second delivery at most ``window``
    deliveries after the first cannot be explained by eviction.  A later
    re-delivery is the paper's bounded memory at work (the id was
    forgotten); it is counted and returned, not flagged.
    """
    count: Dict[int, int] = {}
    last: Dict[tuple, int] = {}
    redelivered = 0
    for pid, notification, _now in records:
        n = count.get(pid, 0) + 1
        count[pid] = n
        key = (pid, notification.event_id)
        first = last.get(key)
        if first is not None:
            if n - first <= window:
                raise CheckFailure(
                    f"process {pid} delivered {notification.event_id} twice "
                    f"within {n - first} deliveries (|eventIds|m={window})")
            redelivered += 1
        last[key] = n
    return redelivered


def check_only_published(records: Iterable[tuple],
                         published: Mapping) -> None:
    """Every delivered event id was published by the benchmark."""
    for pid, notification, _now in records:
        if notification.event_id not in published:
            raise CheckFailure(
                f"process {pid} delivered {notification.event_id}, which "
                "was never published")


def check_causal(records: Sequence[tuple], published: Mapping,
                 n: int) -> None:
    """Causal delivery: each process delivers an event at most once, and
    only after every dependency named in its ``deps`` and the origin's
    previous event.

    ``published`` maps each published event id to its row index.  The check
    builds, per process, the position of each event in that process's
    delivery sequence, then compares an event's position with its
    dependencies' positions — one vectorised comparison per event.
    """
    events = len(published)
    never = np.iinfo(np.int64).max
    position = np.full((n, events), never, dtype=np.int64)
    seen = np.zeros(n, dtype=np.int64)
    notes: Dict[int, object] = {}
    for pid, notification, _now in records:
        row = published.get(notification.event_id)
        if row is None:
            raise CheckFailure(
                f"process {pid} delivered {notification.event_id}, which "
                "was never published")
        if position[pid, row] != never:
            raise CheckFailure(
                f"process {pid} delivered {notification.event_id} twice "
                "under causal delivery")
        position[pid, row] = seen[pid]
        seen[pid] += 1
        notes[row] = notification
    for row, notification in notes.items():
        origin, seq = notification.event_id
        needed = list(notification.deps)
        if seq > 1:
            needed.append((origin, seq - 1))
        dep_rows = []
        for dep in needed:
            dep_row = published.get(dep)
            if dep_row is None:
                raise CheckFailure(
                    f"{notification.event_id} depends on {tuple(dep)}, "
                    "which was never published")
            dep_rows.append(dep_row)
        if not dep_rows:
            continue
        at = position[:, row]
        late = ((position[:, dep_rows] >= at[:, None]).any(axis=1)
                & (at != never))
        if late.any():
            pid = int(late.argmax())
            raise CheckFailure(
                f"process {pid} delivered {notification.event_id} before "
                "one of its dependencies")


def check_curves(curves: Mapping[int, Sequence[float]]) -> None:
    """Each event's delivery-ratio curve never falls and ends at or above
    :data:`CURVE_FLOOR`."""
    for event, curve in curves.items():
        for before, after in zip(curve, curve[1:]):
            if after < before:
                raise CheckFailure(
                    f"event {event}: delivery ratio fell from {before} "
                    f"to {after}")
        if not curve or curve[-1] < CURVE_FLOOR:
            raise CheckFailure(
                f"event {event}: delivery ratio ended at "
                f"{curve[-1] if curve else 0.0}, below {CURVE_FLOOR}")


def check_datagrams(counters: Mapping[str, int]) -> None:
    """The UDP cluster decoded every datagram it received."""
    if counters.get("decode_errors", 0):
        raise CheckFailure(
            f"{counters['decode_errors']} datagrams failed to decode")


def first_deliveries(records: Iterable[tuple],
                     wanted: Mapping) -> Dict[Tuple[int, object], float]:
    """``{(pid, event_id): now}`` of the first delivery of each wanted
    event at each process."""
    first: Dict[Tuple[int, object], float] = {}
    for pid, notification, now in records:
        event_id = notification.event_id
        if event_id in wanted:
            first.setdefault((pid, event_id), now)
    return first
