"""The benchmark's four workloads.

Each workload turns the run seed into the program's only inputs — node
seeds and a publisher schedule — drives the program through its public API,
checks the outputs (:mod:`checks`) and returns a :class:`Outcome` holding
the end-to-end values, or with ``trace`` the per-layer values.

The three simulated workloads are open loops in simulated time: a fixed
number of publishes per round, whatever the engine's speed.  A run plays
whole episodes (set-up, rounds, drain), each two or three times from the
same inputs (:class:`ReplayedWorkload`), until the plays have taken
``seconds``; every episode has the same size, so a faster engine runs
more episodes of the same work rather than a longer, different one.
``udp-loopback`` is an open loop in wall time: one publish per gossip
period, each timed from when it was due.

Only paths that the engine roadmap keeps are measured: the serial engine
(``create_simulation("serial")``), the columnar engine with
``backend="numpy"`` and ``workers=2``, and ``wire_format="binary"``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import LpbcastConfig
from repro.core.buffers import RandomDropBuffer
from repro.core.delivery import CausalDeliveryGate
from repro.core.node import LpbcastNode
from repro.core.retransmit import RetransmissionEngine
from repro.core.view import PartialView
from repro.membership.layer import PartialViewMembership
from repro.runtime import udp as udp_runtime
from repro.runtime.udp import LocalDeployment
from repro.sim import (
    ColumnarRoundSimulation,
    NetworkModel,
    build_lpbcast_nodes,
    create_simulation,
)
from repro.sim import bitset
from repro.sim.columnar_shm import ShmRoundExecutor
from repro.telemetry import Telemetry

from . import checks, hostinfo
from .metrics import layer_metrics, ratio
from .stats import binned_quantile, median, quantile
from .tracing import Tracer

#: A UDP host that has not gossiped this long after starting is broken.
UDP_START_TIMEOUT_S = 5.0
#: A run starts no new episode once this much wall time has passed, so it
#: ends well inside the three-minute limit on a slow host.
EPISODE_BUDGET_S = 90.0

#: The paper's defaults (Sec. 4.1, Sec. 5): F=3, l=25, |events|m=30,
#: |eventIds|m=60.
PAPER_CONFIG = LpbcastConfig(fanout=3, view_max=25, events_max=30,
                             event_ids_max=60)


def derive(seed: int, *parts) -> int:
    """A 32-bit seed for one input stream of a run."""
    text = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


@dataclass
class Outcome:
    """What a workload run measured."""

    values: Dict[str, float]
    attempted: int
    failed: int
    notes: Dict[str, object] = field(default_factory=dict)


class Latencies:
    """Delivery latency samples: integer rounds in simulated time, real
    gossip periods on UDP."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.samples: List[float] = []

    def add_rounds(self, rounds: int, count: int = 1) -> None:
        self.counts[rounds] = self.counts.get(rounds, 0) + count

    def total(self) -> int:
        return sum(self.counts.values()) + len(self.samples)

    def quantile(self, q: float) -> float:
        if self.samples:
            return quantile(self.samples, q)
        return binned_quantile(self.counts, q)


def _end_to_end(setups: List[float], rounds: float, round_seconds: float,
                latencies: Latencies, delivered_pairs: int,
                attempted_pairs: int, rss_kb: int,
                gossip_rate: float) -> Dict[str, float]:
    return {
        "setup_s": median(setups),
        "rounds_per_s": rounds / round_seconds,
        "deliver_rounds_p50": latencies.quantile(0.50),
        "deliver_rounds_p99": latencies.quantile(0.99),
        "delivery_ratio": delivered_pairs / attempted_pairs,
        "peak_rss_mb": rss_kb / 1024.0,
        "gossip_rate_ratio": gossip_rate,
    }


def wrap_node_layers(tracer: Tracer,
                     tick_observer: Optional[Callable] = None) -> None:
    """Spans around the public entry points of the object-per-node layers."""
    tracer.wrap(LpbcastNode, "on_tick", "node.on_tick", tick_observer)
    tracer.wrap(LpbcastNode, "handle_message", "node.handle_message")
    tracer.wrap(PartialViewMembership, "apply_membership",
                "membership.apply_membership")
    tracer.wrap(PartialViewMembership, "gossip_targets",
                "membership.gossip_targets")
    tracer.wrap(PartialViewMembership, "membership_payload",
                "membership.membership_payload")
    tracer.wrap(PartialView, "truncate", "view.truncate")
    tracer.wrap(RandomDropBuffer, "truncate", "buffers.truncate")
    tracer.wrap(CausalDeliveryGate, "offer", "delivery.offer")
    tracer.wrap(RetransmissionEngine, "select_missing",
                "retransmit.select_missing")
    tracer.wrap(Telemetry, "record_sends", "telemetry.record_sends")


def _node_counters(nodes) -> Dict[str, int]:
    sums = {"view_evictions": 0, "events_dropped": 0, "delivered": 0,
            "causal_evicted": 0, "retransmits_delivered": 0,
            "retransmit_requests_sent": 0, "gossips_sent": 0}
    for node in nodes:
        stats = node.stats
        sums["view_evictions"] += node.membership.view_evictions
        sums["events_dropped"] += stats.events_dropped
        sums["delivered"] += stats.delivered
        sums["retransmits_delivered"] += stats.retransmits_delivered
        sums["retransmit_requests_sent"] += stats.retransmit_requests_sent
        sums["gossips_sent"] += stats.gossips_sent
        if node.causal is not None:
            sums["causal_evicted"] += node.causal.evicted
    return sums


def _add(into: Dict[str, float], before: Dict[str, int],
         after: Dict[str, int]) -> None:
    for name, value in after.items():
        into[name] = into.get(name, 0) + value - before[name]


def _node_layer_extra(totals, counters: Dict[str, float]) -> Dict[str, float]:
    applies = totals.get("membership.apply_membership", [0])[0]
    offers = totals.get("delivery.offer", [0])[0]
    return {
        "membership.view_evictions_per_apply": ratio(
            counters.get("view_evictions", 0), applies),
        "node.events_dropped_per_delivery": ratio(
            counters.get("events_dropped", 0), counters.get("delivered", 0)),
        "delivery.evicted_ratio": ratio(
            counters.get("causal_evicted", 0), offers),
        "retransmit.useful_ratio": ratio(
            counters.get("retransmits_delivered", 0),
            counters.get("retransmit_requests_sent", 0)),
    }


# ---------------------------------------------------------------------------
# Replayed episodes: the simulated workloads
# ---------------------------------------------------------------------------

@dataclass
class Play:
    """One play of an episode: the timed rounds' wall times and the same
    times as the end-to-end metrics use them (scaled, or equal to
    ``times``), a fingerprint of the outputs, and workload-specific
    samples."""

    times: List[float]
    scaled: List[float]
    fingerprint: object
    data: Dict[str, object]


class ReplayedWorkload:
    """Runs each episode ``plays`` times from the same inputs.

    A simulated episode is deterministic, so every play does the same work;
    the plays must produce identical outputs (a failed check otherwise).
    Each round's time is the fastest of its plays, which keeps bursts of
    interference from other tenants of a shared host out of the figures.
    In a traced run the last play is traced and the first is not, so the
    tracing overhead compares the same rounds.  Subclasses provide
    ``build``, ``play``, ``close`` and ``summarize``.
    """

    name = ""
    #: Set-ups per run, at least; ``setup_s`` is their median.
    setups = 0
    #: Plays of each episode.
    plays = 2
    #: Whether set-up and round times are scaled to the reference speed
    #: (:class:`hostinfo.ScaledTimer`): right where all the work runs on
    #: the benchmark's own thread, beside the probe.  A scaled run is
    #: pinned to one core, so the probe and the work share it.
    scaled = False

    def build(self, seed: int, episode: int, tracer: Optional[Tracer]):
        raise NotImplementedError

    def play(self, seed: int, episode: int, built,
             tracer: Optional[Tracer]) -> Play:
        raise NotImplementedError

    def close(self, built) -> None:
        """Release what ``build`` started."""

    def summarize(self, plays: List[List[Play]], setups: List[float],
                  tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def _timed_build(self, seed: int, episode: int, setups: List[float],
                     tracer: Optional[Tracer]):
        gc.collect()
        timer = hostinfo.ScaledTimer() if self.scaled else None
        start = time.perf_counter()
        built = self.build(seed, episode, tracer)
        elapsed = time.perf_counter() - start
        self.setup_walls.append(elapsed)
        setups.append(timer.scale(elapsed) if timer else elapsed)
        return built

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        began = time.perf_counter()
        tracer = Tracer() if trace else None
        setups: List[float] = []
        self.setup_walls: List[float] = []
        plays: List[List[Play]] = []
        measured = 0.0
        episode = 0
        pin = self.scaled and hasattr(os, "sched_setaffinity")
        if pin:
            cores = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(cores)})
        try:
            while True:
                runs: List[Play] = []
                for replay in range(self.plays):
                    traced = tracer if replay == self.plays - 1 else None
                    built = self._timed_build(seed, episode, setups, tracer)
                    try:
                        runs.append(self.play(seed, episode, built, traced))
                    finally:
                        self.close(built)
                    built = None
                    measured += sum(runs[-1].times)
                if any(r.fingerprint != runs[0].fingerprint for r in runs):
                    raise checks.CheckFailure(
                        f"{self.name} episode {episode}: plays of the same "
                        "inputs produced different outputs")
                plays.append(runs)
                episode += 1
                if (measured >= seconds
                        or time.perf_counter() - began > EPISODE_BUDGET_S):
                    break
            while len(setups) < self.setups:
                self.close(self._timed_build(seed, episode, setups, tracer))
                episode += 1
        finally:
            if pin:
                os.sched_setaffinity(0, cores)
            if tracer is not None:
                tracer.remove()
        return self.summarize(plays, setups, tracer)


def _fastest(plays: List[List[Play]]) -> List[float]:
    """Per-round minimum over the plays of each episode."""
    return [min(times) for runs in plays
            for times in zip(*(play.scaled for play in runs))]


def _overhead(plays: List[List[Play]]) -> float:
    """Traced (last play) over untraced (first play) time, same rounds."""
    plain = sum(sum(runs[0].scaled) for runs in plays)
    traced = sum(sum(runs[-1].scaled) for runs in plays)
    return ratio(traced, plain)


# ---------------------------------------------------------------------------
# Serial engine: paper-serial and overload-causal
# ---------------------------------------------------------------------------

@dataclass
class SerialEpisode:
    """A built serial episode: engine, nodes, every delivery so far, and
    the publishes (event id -> row; row -> round published)."""

    sim: object
    nodes: list
    log: checks.DeliveryLog
    published: Dict[object, int]
    publish_round: List[int]


@dataclass(frozen=True)
class SerialSpec:
    n: int
    config: LpbcastConfig
    loss_rate: float
    publishes_per_round: int
    warmup: int   # rounds before the measured publishes
    window: int   # rounds whose publishes are measured
    drain: int    # further rounds that let them spread
    setups: int   # set-ups per run, at least
    plays: int    # plays of each episode


class SerialWorkload(ReplayedWorkload):
    """The serial round engine at a fixed size, publishing from random
    processes every round (warm-up, window and drain alike, so the load is
    steady).  Latency and delivery are sampled for the window's events
    only; every round after the warm-up is timed, and the warm-up is part
    of the set-up.  The engine runs on the benchmark's thread, so its
    times are scaled to the reference speed."""

    scaled = True

    def __init__(self, name: str, spec: SerialSpec) -> None:
        self.name = name
        self.spec = spec
        self.setups = spec.setups
        self.plays = spec.plays

    def build(self, seed: int, episode: int, tracer: Optional[Tracer]):
        """Nodes, engine, publisher and delivery log, then the warm-up
        rounds: everything before the first timed round."""
        spec = self.spec
        n = spec.n
        node_seed = derive(seed, self.name, "nodes", episode)
        nodes = build_lpbcast_nodes(n, spec.config, seed=node_seed)
        network = None
        if spec.loss_rate:
            network = NetworkModel(
                loss_rate=spec.loss_rate,
                rng=random.Random(derive(seed, self.name, "loss", episode)))
        sim = create_simulation("serial", seed=node_seed, network=network)
        sim.add_nodes(nodes)
        log = checks.DeliveryLog()
        for node in nodes:
            node.add_delivery_listener(log.listener)
        schedule = random.Random(derive(seed, self.name, "schedule", episode))
        episode_state = SerialEpisode(sim, nodes, log, {}, [])
        published = episode_state.published
        publish_round = episode_state.publish_round

        def publish(round_no: int, _sim) -> None:
            for _ in range(spec.publishes_per_round):
                pid = schedule.randrange(n)
                row = len(publish_round)
                note = sim.nodes[pid].lpb_cast(f"p{row}", float(round_no))
                published[note.event_id] = row
                publish_round.append(round_no)

        sim.add_round_hook(publish)
        for _ in range(spec.warmup):
            sim.run_round()
        return episode_state

    def play(self, seed: int, episode: int, built: "SerialEpisode",
             tracer: Optional[Tracer]) -> Play:
        spec = self.spec
        sim, nodes = built.sim, built.nodes
        times: List[float] = []
        scaled: List[float] = []
        before = _node_counters(nodes)
        messages = sim.messages_delivered
        timer = hostinfo.ScaledTimer()
        for round_no in range(spec.warmup + 1,
                              spec.warmup + spec.window + spec.drain + 1):
            if tracer is not None:
                tracer.trace_id = round_no
                wrap_node_layers(tracer)
                start = time.perf_counter()
                with tracer.span("round_runner.run_round"):
                    sim.run_round()
                elapsed = time.perf_counter() - start
                tracer.remove()
            else:
                start = time.perf_counter()
                sim.run_round()
                elapsed = time.perf_counter() - start
            times.append(elapsed)
            scaled.append(timer.scale(elapsed))
        counters: Dict[str, float] = {}
        _add(counters, before, _node_counters(nodes))
        counters["messages"] = sim.messages_delivered - messages

        records = built.log.records
        data = {"counters": counters, "speeds": timer.speeds}
        if tracer is None:
            # The traced play repeats these outputs exactly (the
            # fingerprints are compared), so it skips the checks.
            data.update(self._check_and_sample(records, built.published,
                                               built.publish_round))
        return Play(times, scaled, hash(tuple(
            (pid, note.event_id, now) for pid, note, now in records)), data)

    def _check_and_sample(self, records, published,
                          publish_round) -> Dict[str, object]:
        spec = self.spec
        redelivered = 0
        if spec.config.causal_delivery:
            checks.check_causal(records, published, spec.n)
        else:
            checks.check_only_published(records, published)
            redelivered = checks.check_no_duplicates(
                records, spec.config.event_ids_max)
        first_round = spec.warmup + 1
        last_round = spec.warmup + spec.window
        wanted = {eid: row for eid, row in published.items()
                  if first_round <= publish_round[row] <= last_round}
        first = checks.first_deliveries(records, wanted)
        latencies = Latencies()
        reach: Dict[object, int] = {}
        for (pid, event_id), now in first.items():
            latencies.add_rounds(
                int(round(now)) - publish_round[wanted[event_id]])
            reach[event_id] = reach.get(event_id, 0) + 1
        return {
            "latencies": latencies, "redelivered": redelivered,
            "broadcasts": len(wanted),
            "failed": sum(1 for eid in wanted if reach.get(eid, 0) <= 1),
            "delivered_pairs": len(first),
            "attempted_pairs": len(wanted) * spec.n,
        }

    def summarize(self, plays: List[List[Play]], setups: List[float],
                  tracer: Optional[Tracer]) -> Outcome:
        spec = self.spec
        firsts = [runs[0].data for runs in plays]
        latencies = Latencies()
        for data in firsts:
            for value, count in data["latencies"].counts.items():
                latencies.add_rounds(value, count)
        broadcasts = sum(d["broadcasts"] for d in firsts)
        failed = sum(d["failed"] for d in firsts)
        fastest = _fastest(plays)
        notes = {"episodes": len(plays), "plays": self.plays,
                 "rounds": len(fastest),
                 "latency_samples": latencies.total(),
                 "redelivered_after_eviction": sum(
                     d["redelivered"] for d in firsts),
                 "setups_s": setups, "setups_wall_s": self.setup_walls,
                 "round_s": [[p.times for p in runs] for runs in plays],
                 "round_scaled_s": [[p.scaled for p in runs]
                                    for runs in plays],
                 "probe_mops": [[p.data["speeds"] for p in runs]
                                for runs in plays]}
        if tracer is None:
            gossips = sum(d["counters"]["gossips_sent"] for d in firsts)
            values = _end_to_end(
                setups, len(fastest), sum(fastest), latencies,
                sum(d["delivered_pairs"] for d in firsts),
                sum(d["attempted_pairs"] for d in firsts),
                hostinfo.peak_rss_kb(),
                ratio(gossips, spec.n * len(fastest)))
            return Outcome(values, broadcasts, failed, notes)
        traced = [runs[-1] for runs in plays]
        counters: Dict[str, float] = {}
        for play in traced:
            for name, value in play.data["counters"].items():
                counters[name] = counters.get(name, 0) + value
        rounds = sum(len(play.times) for play in traced)
        totals = tracer.totals()
        extra = _node_layer_extra(totals, counters)
        extra["round_runner.messages_per_round"] = ratio(
            counters["messages"], rounds)
        extra["telemetry.trace_overhead_ratio"] = _overhead(plays)
        values = layer_metrics(totals, rounds,
                               sum(sum(p.times) for p in traced), extra)
        notes["tracer"] = tracer
        return Outcome(values, broadcasts, failed, notes)


# ---------------------------------------------------------------------------
# Columnar engine: columnar-1m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnarSpec:
    n: int
    workers: int
    publishes: int
    rounds: int
    setups: int   # set-ups per run, at least


class ColumnarWorkload(ReplayedWorkload):
    """``ColumnarRoundSimulation.build`` at mega scale on the numpy backend
    with shared-memory workers; a few seeded publishes, then a fixed
    number of rounds, reading every event's delivery-ratio curve after
    each round."""

    name = "columnar-1m"

    def __init__(self, spec: ColumnarSpec) -> None:
        self.spec = spec
        self.setups = spec.setups

    def build(self, seed: int, episode: int, tracer: Optional[Tracer]):
        spec = self.spec
        node_seed = derive(seed, self.name, "nodes", episode)
        schedule = random.Random(derive(seed, self.name, "schedule", episode))
        with (tracer.span("columnar.build") if tracer is not None
              else contextlib.nullcontext()):
            sim = ColumnarRoundSimulation.build(
                n=spec.n, config=PAPER_CONFIG, seed=node_seed,
                backend="numpy", workers=spec.workers)
        # The first publish allocates the columns and starts the workers.
        for event in range(spec.publishes):
            sim.nodes[schedule.randrange(spec.n)].lpb_cast(f"p{event}", 0.0)
        return sim

    def close(self, built) -> None:
        built.close()

    def play(self, seed: int, episode: int, sim,
             tracer: Optional[Tracer]) -> Play:
        spec = self.spec
        events = spec.publishes
        curves: Dict[int, List[float]] = {
            e: [sim.delivery_ratio(e)] for e in range(events)}
        sends = sim.telemetry.counter_total("sim.sends", kind="GossipMessage")
        executors: List[ShmRoundExecutor] = []

        def capture(args, _start) -> None:
            if not executors:
                executors.append(args[0])

        times: List[float] = []
        for round_no in range(1, spec.rounds + 1):
            if tracer is not None:
                tracer.trace_id = round_no
                tracer.wrap(ShmRoundExecutor, "gossip_round",
                            "columnar_shm.gossip_round", capture)
                for fn in ("mask_from_indices", "bit_indices",
                           "unpack_bools"):
                    tracer.wrap(bitset, fn, f"bitset.{fn}")
                start = time.perf_counter()
                with tracer.span("columnar.run_round"):
                    sim.run_round()
                elapsed = time.perf_counter() - start
                tracer.remove()
            else:
                start = time.perf_counter()
                sim.run_round()
                elapsed = time.perf_counter() - start
            times.append(elapsed)
            for e in range(events):
                curves[e].append(sim.delivery_ratio(e))
        children = [p.pid for p in multiprocessing.active_children()]
        data = {
            "sends": sim.telemetry.counter_total(
                "sim.sends", kind="GossipMessage") - sends,
            "rss_kb": hostinfo.peak_rss_kb(children),
            "state_bytes": sim.memory_bytes(),
            "scratch_bytes": (executors[0].scratch_bytes() if executors
                              else 0),
            "alive": sim.alive_count(),
        }
        if tracer is None:
            checks.check_curves(curves)
        return Play(times, times, tuple(tuple(c) for c in curves.values()),
                    dict(data, curves=curves))

    def summarize(self, plays: List[List[Play]], setups: List[float],
                  tracer: Optional[Tracer]) -> Outcome:
        spec = self.spec
        latencies = Latencies()
        delivered = attempted = broadcasts = failed = sends = 0
        for runs in plays:
            data = runs[0].data
            alive = data["alive"]
            sends += data["sends"]
            for curve in data["curves"].values():
                reached = [int(round(r * alive)) for r in curve]
                previous = 0
                for round_no, count in enumerate(reached):
                    if count > previous:
                        latencies.add_rounds(round_no, count - previous)
                    previous = count
                delivered += reached[-1]
                attempted += alive
                broadcasts += 1
                failed += reached[-1] <= 1
        fastest = _fastest(plays)
        notes = {"episodes": len(plays), "plays": self.plays,
                 "rounds": len(fastest),
                 "latency_samples": latencies.total(), "setups_s": setups,
                 "round_s": [[p.times for p in runs] for runs in plays]}
        rss_kb = max(p.data["rss_kb"] for runs in plays for p in runs)
        if tracer is None:
            values = _end_to_end(
                setups, len(fastest), sum(fastest), latencies, delivered,
                attempted, rss_kb,
                ratio(sends, PAPER_CONFIG.fanout * spec.n * len(fastest)))
            return Outcome(values, broadcasts, failed, notes)
        traced = [runs[-1] for runs in plays]
        rounds = sum(len(play.times) for play in traced)
        totals = tracer.totals()
        builds = totals.get("columnar.build", [0, 0.0])
        extra = {
            "columnar.build.s": ratio(builds[1], builds[0]),
            "columnar.state_bytes_per_node":
                traced[-1].data["state_bytes"] / spec.n,
            "columnar_shm.scratch_bytes":
                float(traced[-1].data["scratch_bytes"]),
            "telemetry.trace_overhead_ratio": _overhead(plays),
        }
        values = layer_metrics(totals, rounds,
                               sum(sum(p.times) for p in traced), extra)
        notes["tracer"] = tracer
        return Outcome(values, broadcasts, failed, notes)


# ---------------------------------------------------------------------------
# UDP runtime: udp-loopback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UdpSpec:
    n: int
    period: float       # nominal gossip period T, seconds
    warmup_periods: int
    drain_periods: int
    setups: int         # set-ups per run; one ends when every host has
                        # gossiped once, about a period after it starts


class UdpWorkload:
    """``LocalDeployment`` on loopback with binary frames: one publish per
    period, at a random point of it and a random host, for ``seconds``,
    then a drain.  Latency is
    counted in nominal periods from when each publish was due.

    T is 200 ms: a 10-second run publishes 50 events, fewer than
    |eventIds|m=60, so no host evicts an id during the run.  Past that,
    digest-implied delivery resurrects evicted ids and the cluster's load
    grows for as long as the run lasts (README, Findings).  At T=100 ms
    the cluster also lags its timers whenever the host is contended."""

    name = "udp-loopback"

    def __init__(self, spec: UdpSpec) -> None:
        self.spec = spec

    def build(self, seed: int, repeat: int):
        spec = self.spec
        node_seed = derive(seed, self.name, "nodes", repeat)
        nodes = build_lpbcast_nodes(spec.n, PAPER_CONFIG, seed=node_seed)
        log = checks.DeliveryLog()
        for node in nodes:
            node.add_delivery_listener(log.listener)
        cluster = LocalDeployment(nodes, gossip_period=spec.period,
                                  seed=node_seed, wire_format="binary")
        cluster.start()
        # Set-up ends when every host has gossiped once: the cluster is
        # live.  Each timer starts at a random phase within the first period.
        deadline = time.monotonic() + UDP_START_TIMEOUT_S
        while any(node.stats.gossips_sent == 0 for node in nodes):
            if time.monotonic() > deadline:
                cluster.stop()
                raise checks.CheckFailure(
                    f"a host sent no gossip within {UDP_START_TIMEOUT_S} s "
                    "of starting")
            time.sleep(0.001)
        return cluster, nodes, log

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        spec = self.spec
        period = spec.period
        tracer = Tracer() if trace else None
        setups: List[float] = []
        built = None
        try:
            for repeat in range(spec.setups):
                if built is not None:
                    built[0].stop()
                start = time.perf_counter()
                built = self.build(seed, repeat)
                setups.append(time.perf_counter() - start)
            cluster, nodes, log = built
            time.sleep(spec.warmup_periods * period)
            result = self._measure(seed, seconds, cluster, nodes, tracer)
        finally:
            if built is not None:
                built[0].stop()
            if tracer is not None:
                tracer.remove()
        counters = cluster.datagram_counters()

        published = result["published"]
        checks.check_datagrams(counters)
        checks.check_only_published(log.records, published)
        redelivered = checks.check_no_duplicates(
            log.records, PAPER_CONFIG.event_ids_max)
        first = checks.first_deliveries(log.records, published)
        latencies = Latencies()
        reach: Dict[object, int] = {}
        due = result["due"]
        for (pid, event_id), now in first.items():
            latencies.samples.append((now - due[published[event_id]])
                                     / period)
            reach[event_id] = reach.get(event_id, 0) + 1
        failed = sum(1 for eid in published if reach.get(eid, 0) <= 1)
        notes = {"periods": len(due), "latency_samples": latencies.total(),
                 "redelivered_after_eviction": redelivered,
                 "datagrams": counters, "setups_s": setups}

        # Rounds a host runs per wall second; in nominal periods, the same
        # figure is gossip_rate_ratio.
        elapsed = result["elapsed"]
        rounds = result["gossips"] / spec.n
        if tracer is None:
            values = _end_to_end(
                setups, rounds, elapsed, latencies, len(first),
                len(published) * spec.n, hostinfo.peak_rss_kb(),
                rounds / (elapsed / period))
            return Outcome(values, len(published), failed, notes)

        totals = tracer.totals()
        intervals: List[float] = []
        for times in result["ticks"].values():
            intervals.extend((b - a) / period for a, b in zip(times, times[1:]))
        extra = _node_layer_extra(totals, result["traced_counters"])
        sent = counters["sent"]
        extra.update({
            "wire.bytes_per_datagram": ratio(counters["bytes_sent"], sent),
            "udp.tick_interval_p50": quantile(intervals, 0.50),
            "udp.tick_interval_p99": quantile(intervals, 0.99),
            "udp.unreceived_ratio": ratio(sent - counters["received"], sent),
            "udp.publish_late_ms_p99": 1000.0 * quantile(result["late"],
                                                         0.99),
            "telemetry.trace_overhead_ratio": ratio(
                result["traced_cpu"] / result["traced_periods"],
                result["plain_cpu"] / result["plain_periods"]),
        })
        values = layer_metrics(totals, result["traced_periods"],
                               result["traced_cpu"], extra)
        notes["tracer"] = tracer
        return Outcome(values, len(published), failed, notes)

    def _measure(self, seed: int, seconds: float, cluster, nodes,
                 tracer: Optional[Tracer]) -> Dict[str, object]:
        spec = self.spec
        period = spec.period
        periods = max(2, int(round(seconds / period)))
        half = periods // 2
        schedule = random.Random(derive(seed, self.name, "schedule"))
        hosts = [schedule.randrange(spec.n) for _ in range(periods)]
        # Each publish falls at a random point of its period.  The hosts'
        # timers keep a fixed phase for the whole run, so publishes on a
        # fixed grid would meet each host's timer at the same offset every
        # time, and the latencies would hinge on one draw per host.
        offsets = [schedule.random() for _ in range(periods)]
        ticks: Dict[int, List[float]] = {}

        def on_tick(args, start) -> None:
            ticks.setdefault(args[0].pid, []).append(start)

        published: Dict[object, int] = {}
        due: List[float] = []
        late: List[float] = []
        gossips_before = sum(node.stats.gossips_sent for node in nodes)
        cpu = [time.process_time()]
        traced_counters: Dict[str, float] = {}
        counters_before = None
        begin = time.monotonic()
        for k in range(periods):
            if tracer is not None and k == half:
                cpu.append(time.process_time())
                counters_before = _node_counters(nodes)
                wrap_node_layers(tracer, on_tick)
                tracer.wrap(udp_runtime, "pack_datagrams",
                            "wire.pack_datagrams")
                tracer.wrap(udp_runtime, "decode_frame", "wire.decode_frame")
            at = begin + (k + offsets[k]) * period
            delay = at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if tracer is not None:
                tracer.trace_id = k
            late.append(time.monotonic() - at)
            note = cluster.host(nodes[hosts[k]].pid).publish(f"p{k}")
            published[note.event_id] = k
            due.append(at)
        end_of_publishing = begin + periods * period
        delay = end_of_publishing - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if tracer is not None:
            cpu.append(time.process_time())
            tracer.remove()
            _add(traced_counters, counters_before, _node_counters(nodes))
        end = end_of_publishing + spec.drain_periods * period
        delay = end - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        gossips = sum(node.stats.gossips_sent for node in nodes)
        elapsed = time.monotonic() - begin
        result = {"published": published, "due": due, "late": late,
                  "gossips": gossips - gossips_before, "elapsed": elapsed,
                  "ticks": ticks, "traced_counters": traced_counters}
        if tracer is not None:
            result.update({
                "plain_cpu": cpu[1] - cpu[0], "plain_periods": half,
                "traced_cpu": cpu[2] - cpu[1],
                "traced_periods": periods - half})
        return result


# ---------------------------------------------------------------------------

def workloads(small: bool = False) -> Dict[str, object]:
    """The benchmark's workloads; ``small`` gives the self-test's reduced
    sizes (same code paths, seconds instead of minutes)."""
    causal = PAPER_CONFIG.with_overrides(
        causal_delivery=True, digest_implies_delivery=False,
        retransmissions=True)
    if small:
        return {
            "paper-serial": SerialWorkload("paper-serial", SerialSpec(
                n=300, config=PAPER_CONFIG, loss_rate=0.0,
                publishes_per_round=2, warmup=1, window=4, drain=8,
                setups=2, plays=2)),
            "overload-causal": SerialWorkload("overload-causal", SerialSpec(
                n=200, config=causal, loss_rate=0.05,
                publishes_per_round=8, warmup=1, window=2, drain=8,
                setups=2, plays=2)),
            "columnar-1m": ColumnarWorkload(ColumnarSpec(
                n=20_000, workers=2, publishes=3, rounds=12, setups=2)),
            "udp-loopback": UdpWorkload(UdpSpec(
                n=8, period=0.05, warmup_periods=2, drain_periods=10,
                setups=2)),
        }
    return {
        "paper-serial": SerialWorkload("paper-serial", SerialSpec(
            n=5000, config=PAPER_CONFIG, loss_rate=0.0,
            publishes_per_round=2, warmup=1, window=2, drain=10, setups=9,
            plays=2)),
        "overload-causal": SerialWorkload("overload-causal", SerialSpec(
            n=1000, config=causal, loss_rate=0.05, publishes_per_round=20,
            warmup=2, window=2, drain=10, setups=15, plays=3)),
        "columnar-1m": ColumnarWorkload(ColumnarSpec(
            n=1_000_000, workers=2, publishes=3, rounds=14, setups=9)),
        "udp-loopback": UdpWorkload(UdpSpec(
            n=24, period=0.2, warmup_periods=3, drain_periods=10,
            setups=15)),
    }
