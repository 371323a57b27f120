"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and the metric catalogue agree, that every
workload (at reduced size) emits every end-to-end and per-layer metric with
its unit, and that each correctness check fires on a planted bad input —
both fed to the checker directly and planted in a live run.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._load()

from benchlib import checks, metrics, workloads  # noqa: E402
from benchlib.stats import binned_quantile  # noqa: E402
from repro.core.delivery import CausalDeliveryGate  # noqa: E402
from repro.core.events import Notification  # noqa: E402
from repro.core.ids import EventId  # noqa: E402
from repro.core.node import LpbcastNode  # noqa: E402
from repro.sim import ColumnarRoundSimulation  # noqa: E402

WORKLOADS = ("paper-serial", "overload-causal", "columnar-1m", "udp-loopback")


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def small_run(name: str, trace: bool = False, full: bool = False) -> dict:
    out = run.run_one(name, seed=7, seconds=1.0, trace=trace, small=True)
    return out if full else out["result"]


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(sorted(workloads.workloads()), sorted(WORKLOADS))


class Emission(unittest.TestCase):
    def check_emitted(self, result: dict, units: dict) -> None:
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        emitted = {name: entry["unit"]
                   for name, entry in result["metrics"].items()}
        self.assertEqual(emitted, units)
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], float)

    def test_every_workload_emits_every_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name, trace=0):
                result = small_run(name)
                self.check_emitted(result, metrics.END_TO_END)
                for metric, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0.0, metric)
            with self.subTest(workload=name, trace=1):
                self.check_emitted(small_run(name, trace=True),
                                   metrics.PER_LAYER)


def note(origin, seq, deps=()):
    return Notification(EventId(origin, seq), None, 0.0, tuple(deps))


class PlantedInputs(unittest.TestCase):
    """Each checker, fed a bad input directly."""

    def test_duplicate_within_window_fires(self):
        records = [(1, note(0, 1), 1.0), (1, note(0, 2), 1.0),
                   (1, note(0, 1), 2.0)]
        with self.assertRaises(checks.CheckFailure):
            checks.check_no_duplicates(records, window=60)

    def test_duplicate_at_exactly_the_window_fires(self):
        # With |eventIds|m=2, (0, 1) is still buffered after one further
        # delivery and leaves only on the second.
        records = [(1, note(0, 1), 1.0), (1, note(0, 2), 1.0),
                   (1, note(0, 1), 2.0)]
        with self.assertRaises(checks.CheckFailure):
            checks.check_no_duplicates(records, window=2)

    def test_redelivery_after_eviction_is_counted(self):
        records = [(1, note(0, 1), 1.0), (1, note(0, 2), 1.0),
                   (1, note(0, 3), 1.0), (1, note(0, 1), 2.0)]
        self.assertEqual(checks.check_no_duplicates(records, window=2), 1)

    def test_unpublished_delivery_fires(self):
        published = {EventId(0, 1): 0}
        with self.assertRaises(checks.CheckFailure):
            checks.check_only_published([(1, note(5, 9), 1.0)], published)

    def test_delivery_before_dependency_fires(self):
        first, second = note(0, 1), note(1, 1, deps=[EventId(0, 1)])
        published = {first.event_id: 0, second.event_id: 1}
        good = [(2, first, 1.0), (2, second, 2.0)]
        checks.check_causal(good, published, n=3)
        bad = [(2, second, 1.0), (2, first, 2.0)]
        with self.assertRaises(checks.CheckFailure):
            checks.check_causal(bad, published, n=3)

    def test_fifo_gap_fires(self):
        first, second = note(0, 1), note(0, 2)
        published = {first.event_id: 0, second.event_id: 1}
        with self.assertRaises(checks.CheckFailure):
            checks.check_causal([(1, second, 1.0)], published, n=2)

    def test_causal_duplicate_fires(self):
        first = note(0, 1)
        with self.assertRaises(checks.CheckFailure):
            checks.check_causal([(1, first, 1.0), (1, first, 2.0)],
                                {first.event_id: 0}, n=2)

    def test_falling_or_short_curve_fires(self):
        checks.check_curves({0: [0.1, 0.5, 0.995]})
        with self.assertRaises(checks.CheckFailure):
            checks.check_curves({0: [0.1, 0.6, 0.5, 1.0]})
        with self.assertRaises(checks.CheckFailure):
            checks.check_curves({0: [0.1, 0.5, 0.98]})

    def test_decode_errors_fire(self):
        checks.check_datagrams({"decode_errors": 0})
        with self.assertRaises(checks.CheckFailure):
            checks.check_datagrams({"decode_errors": 1})

    def test_binned_quantile_is_continuous(self):
        self.assertAlmostEqual(binned_quantile({3: 10}, 0.5), 3.0)
        self.assertAlmostEqual(binned_quantile({3: 5, 4: 5}, 0.5), 3.5)
        self.assertLess(binned_quantile({3: 6, 4: 4}, 0.5),
                        binned_quantile({3: 5, 4: 5}, 0.5))


class PlantedRuns(unittest.TestCase):
    """Each workload's checks, wired into a live run of a broken program."""

    def assert_fails(self, name: str, reason: str) -> None:
        out = small_run(name, full=True)
        self.assertFalse(out["result"]["correct"])
        self.assertIn(reason, out["record"]["check_failed"])

    def test_double_delivery_fails_paper_serial(self):
        def twice(node, listener):
            node._listeners.extend([listener, listener])

        with patched(LpbcastNode, "add_delivery_listener", twice):
            self.assert_fails("paper-serial", "twice within")

    def test_causal_order_violation_fails_overload_causal(self):
        with patched(CausalDeliveryGate, "_ready",
                     lambda gate, notification: True):
            self.assert_fails("overload-causal", "before one of its")

    def test_falling_curve_fails_columnar(self):
        def shrinking(sim, event=0):
            return 1.0 / (1 + sim.round)

        with patched(ColumnarRoundSimulation, "delivery_ratio", shrinking):
            self.assert_fails("columnar-1m", "delivery ratio fell")

    def test_garbage_datagram_fails_udp(self):
        def build_and_poison(workload, seed, repeat):
            built = original(workload, seed, repeat)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"\xffnot a frame", built[0].hosts[0].address)
            return built

        original = workloads.UdpWorkload.build
        with patched(workloads.UdpWorkload, "build", build_and_poison):
            self.assert_fails("udp-loopback", "failed to decode")


def tearDownModule() -> None:
    run.stop_helpers()


if __name__ == "__main__":
    unittest.main(verbosity=2)
