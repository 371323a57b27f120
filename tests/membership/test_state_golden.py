"""Golden fingerprint of the membership state after a fixed-seed serial run.

The counter golden in ``tests/telemetry/test_engine_parity.py`` counts sends
and deliveries, so a change that only reorders a view (or consumes the random
stream differently without changing any count) can slip past it.  This golden
hashes what Phases I and II actually leave behind on every node: the view in
list order, ``subs`` in list order, the buffered unsubscriptions, the
``view_evictions`` counter and the state of the node's random stream.  Any
optimisation of the membership path must reproduce it bit for bit.

If an intentional protocol change shifts it, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from tests.membership.test_state_golden import (membership_golden_run,
                                                    membership_sha256)
    print(membership_sha256(membership_golden_run()))
    print(membership_sha256(membership_golden_run(weighted=True)))
    EOF
"""

import hashlib
import random

from repro.core import LpbcastConfig
from repro.sim import NetworkModel, build_lpbcast_nodes, create_simulation

MEMBERSHIP_GOLDEN_N = 500
MEMBERSHIP_GOLDEN_ROUNDS = 20
MEMBERSHIP_GOLDEN_SEED = 20261018
MEMBERSHIP_GOLDEN_PUBLISHES = 5
#: Nodes that leave (Sec. 3.4) in the given round, so Phase I and the
#: death-certificate check of Phase II both see buffered unsubscriptions.
MEMBERSHIP_GOLDEN_LEAVERS = {3: (7, 11), 6: (42,), 9: (101, 202, 303)}
MEMBERSHIP_GOLDEN_SHA256 = \
    "4c208670aed52394a2ded48bf544231d879424e9946b95222396ff223458ab1e"
#: The same run with the weighted views of Sec. 6.1.
WEIGHTED_MEMBERSHIP_GOLDEN_SHA256 = \
    "e30ecde4bf516a1120c5a8a67282d0bc189f93cf2d99d92a1fb9d51c84cc5263"


def membership_golden_run(weighted=False):
    cfg = LpbcastConfig(weighted_views=weighted)
    nodes = build_lpbcast_nodes(MEMBERSHIP_GOLDEN_N, cfg,
                                seed=MEMBERSHIP_GOLDEN_SEED)
    network = NetworkModel(loss_rate=0.05,
                           rng=random.Random(MEMBERSHIP_GOLDEN_SEED + 1))
    sim = create_simulation("serial", network=network,
                            seed=MEMBERSHIP_GOLDEN_SEED)
    sim.add_nodes(nodes)

    def hook(round_no, s):
        if round_no <= MEMBERSHIP_GOLDEN_PUBLISHES:
            s.nodes[nodes[round_no].pid].lpb_cast(f"evt-{round_no}",
                                                 float(round_no))
        for pid in MEMBERSHIP_GOLDEN_LEAVERS.get(round_no, ()):
            assert s.nodes[pid].try_unsubscribe(float(round_no))

    sim.add_round_hook(hook)
    sim.run(MEMBERSHIP_GOLDEN_ROUNDS)
    return sim


def membership_state(sim):
    """Per-node membership state in a canonical, order-preserving form."""
    state = []
    for pid in sorted(sim.nodes):
        layer = sim.nodes[pid].membership
        state.append((
            pid,
            tuple(layer.view),
            tuple(layer.subs),
            tuple(sorted(layer.unsubs.snapshot())),
            layer.view_evictions,
            layer.view._rng.getstate(),
        ))
    return state


def membership_sha256(sim):
    return hashlib.sha256(repr(membership_state(sim)).encode()).hexdigest()


class TestMembershipStateGolden:
    def test_serial_run_reproduces_the_membership_golden(self):
        sim = membership_golden_run()
        assert membership_sha256(sim) == MEMBERSHIP_GOLDEN_SHA256
        # Non-vacuity: the run evicted from views and buffered leaves.
        layers = [node.membership for node in sim.nodes.values()]
        assert sum(layer.view_evictions for layer in layers) > 0
        assert sum(len(layer.unsubs) for layer in layers) > 0

    def test_weighted_run_reproduces_its_membership_golden(self):
        sim = membership_golden_run(weighted=True)
        assert membership_sha256(sim) == WEIGHTED_MEMBERSHIP_GOLDEN_SHA256
