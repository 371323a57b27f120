"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; the self-test asserts the two
agree and that a run emits every one of them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

#: Untraced runs (``--trace 0``).  Every workload reports every name.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "deliver_rounds_p50": "rounds",
    "deliver_rounds_p99": "rounds",
    "delivery_ratio": "fraction",
    "peak_rss_mb": "MB",
    "gossip_rate_ratio": "fraction",
}

#: Spans recorded in the traced run, grouped by the layer (module) that
#: owns the wrapped function.  A layer's self time is the sum of its spans'
#: self times.
LAYER_SPANS = {
    "membership": ("membership.apply_membership",
                   "membership.gossip_targets",
                   "membership.membership_payload",
                   "view.truncate", "buffers.truncate"),
    "node": ("node.on_tick", "node.handle_message"),
    "delivery": ("delivery.offer",),
    "retransmit": ("retransmit.select_missing",),
    "round_runner": ("round_runner.run_round",),
    "telemetry": ("telemetry.record_sends",),
    "columnar": ("columnar.run_round",),
    "bitset": ("bitset.mask_from_indices", "bitset.bit_indices",
               "bitset.unpack_bools"),
    "columnar_shm": ("columnar_shm.gossip_round",),
    "wire": ("wire.pack_datagrams", "wire.decode_frame"),
}

#: Traced runs (``--trace 1``).  A round is a gossip round on the simulated
#: workloads and a nominal gossip period T on UDP.  A layer a workload does
#: not reach reports 0.
PER_LAYER = {
    "membership.apply_membership.calls": "calls/round",
    "membership.apply_membership.s": "s/round",
    "membership.gossip_targets.s": "s/round",
    "membership.membership_payload.s": "s/round",
    "view.truncate.s": "s/round",
    "buffers.truncate.s": "s/round",
    "membership.view_evictions_per_apply": "evictions/apply",
    "node.on_tick.calls": "calls/round",
    "node.on_tick.s": "s/round",
    "node.handle_message.calls": "calls/round",
    "node.handle_message.self_s": "s/round",
    "node.events_dropped_per_delivery": "drops/delivery",
    "delivery.offer.calls": "calls/round",
    "delivery.offer.s": "s/round",
    "delivery.evicted_ratio": "fraction",
    "retransmit.select_missing.calls": "calls/round",
    "retransmit.select_missing.s": "s/round",
    "retransmit.useful_ratio": "recovered/req",
    "round_runner.run_round.self_s": "s/round",
    "round_runner.messages_per_round": "msgs/round",
    "telemetry.record_sends.calls": "calls/round",
    "telemetry.record_sends.s": "s/round",
    "telemetry.trace_overhead_ratio": "ratio",
    "columnar.build.s": "s",
    "columnar.run_round.s": "s/round",
    "columnar.state_bytes_per_node": "B/node",
    "bitset.mask_from_indices.s": "s/round",
    "bitset.bit_indices.s": "s/round",
    "bitset.unpack_bools.s": "s/round",
    "columnar_shm.gossip_round.s": "s/round",
    "columnar_shm.scratch_bytes": "B",
    "wire.pack_datagrams.calls": "calls/round",
    "wire.pack_datagrams.s": "s/round",
    "wire.decode_frame.calls": "calls/round",
    "wire.decode_frame.s": "s/round",
    "wire.bytes_per_datagram": "B/datagram",
    "udp.tick_interval_p50": "periods",
    "udp.tick_interval_p99": "periods",
    "udp.unreceived_ratio": "fraction",
    "udp.publish_late_ms_p99": "ms",
}
PER_LAYER.update({f"{layer}.self_share": "fraction" for layer in LAYER_SPANS})


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Mapping[str, list], rounds: int,
                  root_seconds: float,
                  extra: Optional[Mapping[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer values from span totals (``{name: [calls, s, self_s]}``)
    over ``rounds`` traced rounds.  ``root_seconds`` is what the layer
    shares divide: ``run_round`` time, or host CPU time on UDP.  ``extra``
    supplies the counter-based values; every other name defaults to 0."""
    values = {name: 0.0 for name in PER_LAYER}

    def get(name: str) -> list:
        return totals.get(name, [0, 0.0, 0.0])

    for span in ("membership.apply_membership", "node.on_tick",
                 "node.handle_message", "delivery.offer",
                 "retransmit.select_missing", "telemetry.record_sends",
                 "wire.pack_datagrams", "wire.decode_frame"):
        values[f"{span}.calls"] = ratio(get(span)[0], rounds)
    for span in ("membership.apply_membership", "membership.gossip_targets",
                 "membership.membership_payload", "view.truncate",
                 "buffers.truncate", "node.on_tick", "delivery.offer",
                 "retransmit.select_missing", "telemetry.record_sends",
                 "columnar.run_round", "bitset.mask_from_indices",
                 "bitset.bit_indices", "bitset.unpack_bools",
                 "columnar_shm.gossip_round", "wire.pack_datagrams",
                 "wire.decode_frame"):
        values[f"{span}.s"] = ratio(get(span)[1], rounds)
    values["node.handle_message.self_s"] = ratio(
        get("node.handle_message")[2], rounds)
    values["round_runner.run_round.self_s"] = ratio(
        get("round_runner.run_round")[2], rounds)
    for layer, spans in LAYER_SPANS.items():
        own = sum(get(span)[2] for span in spans)
        values[f"{layer}.self_share"] = ratio(own, root_seconds)
    if extra:
        for name, value in extra.items():
            if name not in values:
                raise KeyError(f"unknown per-layer metric {name}")
            values[name] = value
    return values


def emit(values: Mapping[str, float], units: Mapping[str, str]) -> Dict:
    """``{name: {"value": v, "unit": u}}`` for every name in ``units``."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}
