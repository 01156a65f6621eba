"""Tests for the fluid network: flow lifecycle, integration, incremental rates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MBIT
from repro.errors import FlowError
from repro.simnet.bandwidth import max_min_fair_rates
from repro.simnet.engine import Engine
from repro.simnet.flow import FlowState
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_bottleneck, build_lan, uniform_bandwidths


def make_network(clients=3, bandwidth=2 * MBIT):
    topology, hosts, thinner = build_lan(uniform_bandwidths(clients, bandwidth))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    return engine, network, hosts, thinner


def test_bounded_flow_completes_at_the_expected_time():
    engine, network, hosts, thinner = make_network()
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now))
    engine.run(until=10)
    # 1 MByte at 2 Mbit/s is exactly 4 seconds.
    assert done == [pytest.approx(4.0)]
    assert network.completed_flows == 1


def test_unbounded_flow_accumulates_bytes_until_stopped():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, label="stream")
    engine.run(until=8)
    assert network.delivered_bytes(flow) == pytest.approx(2 * MBIT * 8 / 8)
    delivered = network.stop_flow(flow)
    assert delivered == pytest.approx(2_000_000)
    assert flow.state == FlowState.STOPPED


def test_two_flows_from_same_host_share_its_uplink():
    engine, network, hosts, thinner = make_network()
    first = network.send(hosts[0], thinner)
    second = network.send(hosts[0], thinner)
    engine.run(until=4)
    assert network.delivered_bytes(first) == pytest.approx(network.delivered_bytes(second))
    total = network.delivered_bytes(first) + network.delivered_bytes(second)
    assert total == pytest.approx(2 * MBIT * 4 / 8)


def test_stopping_one_flow_speeds_up_the_other():
    engine, network, hosts, thinner = make_network()
    first = network.send(hosts[0], thinner)
    second = network.send(hosts[0], thinner)
    engine.run(until=2)
    network.stop_flow(first)
    engine.run(until=4)
    # Second flow: 1 Mbit/s for 2 s then 2 Mbit/s for 2 s = 0.75 MB.
    assert network.delivered_bytes(second) == pytest.approx(750_000)


def test_completion_time_adapts_when_competition_leaves():
    engine, network, hosts, thinner = make_network()
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now))
    blocker = network.send(hosts[0], thinner)
    engine.run(until=2)      # bounded flow has 0.25 MB so far
    network.stop_flow(blocker)
    engine.run(until=10)
    # Remaining 0.75 MB at full 2 Mbit/s takes 3 more seconds.
    assert done == [pytest.approx(5.0)]


def test_rate_cap_is_respected_and_can_be_lifted():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, rate_cap_bps=0.5 * MBIT)
    engine.run(until=2)
    assert network.delivered_bytes(flow) == pytest.approx(0.5 * MBIT * 2 / 8)
    network.set_rate_cap(flow, None)
    engine.run(until=4)
    assert network.delivered_bytes(flow) == pytest.approx(0.125e6 + 2 * MBIT * 2 / 8 / 1e0)


def test_flow_cannot_start_twice():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner)
    with pytest.raises(FlowError):
        network.start_flow(flow)


def test_stopping_finished_flow_is_a_noop():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner, size_bytes=1000)
    engine.run(until=1)
    assert flow.state == FlowState.COMPLETED
    assert network.stop_flow(flow) == pytest.approx(1000)


def test_shared_bottleneck_constrains_aggregate():
    topology, behind, direct, thinner, cable = build_bottleneck(
        bottlenecked_bandwidths_bps=uniform_bandwidths(4, 2 * MBIT),
        direct_bandwidths_bps=uniform_bandwidths(1, 2 * MBIT),
        bottleneck_bandwidth_bps=4 * MBIT,
    )
    engine = Engine()
    network = FluidNetwork(engine, topology)
    flows = [network.send(host, thinner) for host in behind]
    direct_flow = network.send(direct[0], thinner)
    engine.run(until=4)
    behind_total = sum(network.delivered_bytes(flow) for flow in flows)
    # The four clients could send 8 Mbit/s but the cable passes only 4 Mbit/s.
    assert behind_total == pytest.approx(4 * MBIT * 4 / 8, rel=1e-6)
    assert network.delivered_bytes(direct_flow) == pytest.approx(2 * MBIT * 4 / 8)


def test_link_load_and_utilisation_queries():
    engine, network, hosts, thinner = make_network()
    flow = network.send(hosts[0], thinner)
    engine.run(until=1)
    uplink = hosts[0].uplink
    assert network.link_load_bps(uplink) == pytest.approx(2 * MBIT)
    assert network.link_utilisation(uplink) == pytest.approx(1.0)
    assert network.flows_on(uplink) == [flow]
    assert network.aggregate_rate_bps() == pytest.approx(2 * MBIT)


def test_total_delivered_bytes_accumulates():
    engine, network, hosts, thinner = make_network()
    network.send(hosts[0], thinner, size_bytes=1000)
    network.send(hosts[1], thinner, size_bytes=2000)
    engine.run(until=2)
    assert network.total_delivered_bytes == pytest.approx(3000)


# ---------------------------------------------------------------------------
# Property: the incremental allocator always matches the global reference
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # which client host
            st.integers(min_value=0, max_value=2),      # 0: start, 1: stop oldest, 2: advance time
        ),
        min_size=1,
        max_size=25,
    )
)
def test_incremental_rates_match_global_recomputation(operations):
    """Property: after any sequence of flow starts/stops, the incremental
    component-based allocation equals the brute-force global max-min rates.

    ``sync()`` settles the deferred dirty-set recomputation before the rates
    are compared (exactly what the engine does before firing each event)."""
    topology, hosts, thinner = build_lan(uniform_bandwidths(4, 2 * MBIT))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    live = []
    clock = 0.0
    for host_index, action in operations:
        if action == 0:
            live.append(network.send(hosts[host_index], thinner))
        elif action == 1 and live:
            network.stop_flow(live.pop(0))
        else:
            clock += 0.05
            engine.run(until=clock)

    network.sync()
    active = network.active_flows
    expected = max_min_fair_rates(active)
    for flow in active:
        assert flow.rate_bps == pytest.approx(expected[flow], rel=1e-6, abs=1e-3)


def _assert_matches_global(network):
    network.sync()
    active = network.active_flows
    expected = max_min_fair_rates(active)
    for flow in active:
        assert flow.rate_bps == pytest.approx(expected[flow], rel=1e-6, abs=1e-3)


@pytest.mark.parametrize("seed", [7, 19, 42])
def test_incremental_matches_global_on_200_flow_topologies(seed):
    """Property at scale: the dirty-component waterfill path (batched
    recomputation, entry-grouped potential load, signature cache) agrees
    with the global reference on randomized ~200-flow topologies, through
    cap changes, detaches, and time advances.

    The shared cable is deliberately oversubscribed so components span many
    hosts and exceed the rate cache's minimum size — this exercises the
    cached path, not just tiny per-uplink waterfills.
    """
    rng = random.Random(seed)
    tier_mbit = (0.5, 1.0, 2.0, 5.0)
    topology, behind, direct, thinner, _cable = build_bottleneck(
        bottlenecked_bandwidths_bps=[rng.choice(tier_mbit) * MBIT for _ in range(30)],
        direct_bandwidths_bps=[rng.choice(tier_mbit) * MBIT for _ in range(30)],
        bottleneck_bandwidth_bps=20 * MBIT,
    )
    hosts = list(behind) + list(direct)
    engine = Engine()
    network = FluidNetwork(engine, topology)

    caps = (None, 0.25 * MBIT, 0.75 * MBIT, 3 * MBIT)
    flows = [
        network.send(rng.choice(hosts), thinner, rate_cap_bps=rng.choice(caps))
        for _ in range(200)
    ]
    assert network.active_flow_count() == 200

    clock = 0.0
    for step in range(150):
        op = rng.random()
        if op < 0.25 and flows:
            network.stop_flow(flows.pop(rng.randrange(len(flows))))
        elif op < 0.55 and flows:
            network.set_rate_cap(rng.choice(flows), rng.choice(caps))
        elif op < 0.75:
            flows.append(
                network.send(rng.choice(hosts), thinner, rate_cap_bps=rng.choice(caps))
            )
        else:
            clock += 0.01
            engine.run(until=clock)
        if step % 25 == 24:
            _assert_matches_global(network)

    _assert_matches_global(network)
    # The oversubscribed cable must have produced components wide enough to
    # engage the signature cache at least once.
    counters = network.counters
    assert counters.cache_hits + counters.cache_misses > 0
    assert counters.flows_touched > 0


# ---------------------------------------------------------------------------
# The completion calendar
# ---------------------------------------------------------------------------


def _network_events(engine, network):
    """Live engine events that belong to ``network``'s calendar."""
    return [
        event
        for _time, _seq, event in engine._queue
        if not event.cancelled and event.callback == network._fire_head
    ]


def test_bit_equal_etas_complete_in_reschedule_order():
    engine, network, hosts, thinner = make_network()
    done = []

    def finished(name):
        return lambda flow: done.append((name, engine.now))

    first = network.send(
        hosts[0], thinner, size_bytes=750_000, rate_cap_bps=1 * MBIT,
        on_complete=finished("first"),
    )
    engine.run(until=1.0)
    # 750 kB at the full 2 Mbit/s: due at 1 + 3 = 4.0 exactly.
    network.send(hosts[1], thinner, size_bytes=750_000, on_complete=finished("second"))
    engine.run(until=2.0)
    # 500 kB left at 2 Mbit/s: re-armed at 2 + 2 = 4.0, after "second".
    network.set_rate_cap(first, None)
    engine.run(until=2.5)
    # A short flow takes the head, so its completion leaves the tie at 4.0
    # to a scan of the whole calendar.
    network.send(hosts[2], thinner, size_bytes=100_000, on_complete=finished("short"))
    engine.run(until=10.0)
    assert done == [("short", pytest.approx(2.9)), ("second", 4.0), ("first", 4.0)]


@pytest.mark.parametrize("armed_first", [False, True])
def test_completion_and_unrelated_event_at_one_instant_keep_scheduling_order(armed_first):
    engine, network, hosts, thinner = make_network()
    fired = []
    network.send(
        hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: fired.append("flow")
    )
    if armed_first:
        # The flush that gives the flow its rate (and its calendar key)
        # runs before the unrelated event is scheduled.
        network.sync()
    engine.schedule_at(4.0, fired.append, "other")
    engine.run(until=10.0)
    assert fired == (["flow", "other"] if armed_first else ["other", "flow"])


def test_stopping_the_head_flow_rearms_at_the_next_entry():
    engine, network, hosts, thinner = make_network()
    done = []
    head = network.send(hosts[0], thinner, size_bytes=1_000_000)
    later = network.send(
        hosts[1], thinner, size_bytes=1_500_000, on_complete=lambda f: done.append(engine.now)
    )
    network.sync()
    (armed,) = _network_events(engine, network)
    assert armed.time == 4.0
    engine.run(until=1.0)
    network.stop_flow(head)
    network.sync()
    (armed,) = _network_events(engine, network)
    soa = network.soa
    assert (armed.time, armed.seq) == (soa.fm_eta[later._fid], soa.fm_eseq[later._fid])
    engine.run(until=10.0)
    assert done == [6.0]
    assert _network_events(engine, network) == []


@pytest.mark.parametrize("vectorized", [False, True])
def test_flush_that_skips_the_head_can_still_take_it_over(vectorized):
    topology, hosts, thinner = build_lan(uniform_bandwidths(2, 2 * MBIT))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    # At 2 the two-flow uplink below takes the array path; at infinity no
    # component does.
    network.VEC_MIN_COMPONENT = 2 if vectorized else math.inf
    done = []
    network.send(hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append("head"))
    network.sync()  # armed alone: the head, due at 4.0
    network.send(hosts[1], thinner, size_bytes=10_000_000)
    engine.run(until=1.0)
    # Shares host 1's uplink with the 10 MB flow: 1 kB at 1 Mbit/s.
    network.send(hosts[1], thinner, size_bytes=1_000, on_complete=lambda f: done.append(engine.now))
    engine.run(until=10.0)
    assert done == [pytest.approx(1.008), "head"]


def test_completion_that_bails_is_not_rearmed_by_an_unchanged_rate():
    engine, network, hosts, thinner = make_network()
    done = []
    flow = network.send(
        hosts[0], thinner, size_bytes=1_000_000, on_complete=lambda f: done.append(engine.now)
    )
    other = network.send(
        hosts[1], thinner, size_bytes=1_500_000, on_complete=lambda f: done.append(engine.now)
    )
    network.sync()
    # Lose one byte, as float residue would: the ETA (4.0) fires with a byte
    # still to go, and the completion bails.  The calendar moves on to the
    # other flow, due at 6.0, without waiting for a flush.
    network.soa.fm_delivered[flow._fid] -= 1.0
    engine.run(until=7.0)
    assert engine.events_processed == 2
    assert done == [6.0] and other.state == FlowState.COMPLETED
    assert flow.state == FlowState.ACTIVE
    # A flush that recomputes the flow at the same rate leaves it unarmed.
    network.set_rate_cap(flow, 10 * MBIT)
    engine.run(until=8.0)
    assert flow.rate_bps == 2 * MBIT
    assert _network_events(engine, network) == []
    assert done == [6.0]
    # A rate change re-arms it: the last byte takes 8 us at 1 Mbit/s.
    network.set_rate_cap(flow, 1 * MBIT)
    engine.run(until=9.0)
    assert done == [6.0, pytest.approx(8.0 + 8e-6)]
    assert flow.state == FlowState.COMPLETED


def test_rerated_owned_flows_reach_rate_listeners_once_per_flush():
    engine, network, hosts, thinner = make_network()
    batches = []
    network.add_rate_listener(lambda flows: batches.append([f.label for f in flows]))
    owned = [network.send(hosts[0], thinner, label=f"owned{i}") for i in range(2)]
    for flow in owned:
        flow.owner = object()
    network.send(hosts[0], thinner, label="anonymous")
    network.sync()
    assert batches == [["owned0", "owned1"]]
    network.stop_flow(owned[0])
    network.sync()
    assert batches == [["owned0", "owned1"], ["owned1"]]
    network.sync()  # nothing dirty: no flush, no call
    assert len(batches) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # start / stop / cap / advance
            st.integers(min_value=0, max_value=3),  # which host (or flow)
            st.integers(min_value=0, max_value=4),  # size or cap choice
        ),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from([math.inf, 2]),
    st.sampled_from([3 * MBIT, 100 * MBIT]),
)
def test_armed_key_is_the_minimum_calendar_entry(operations, vec_min, thinner_bps):
    """Property: after any start/stop/cap/advance sequence, the network's one
    engine event sits at the minimum ``(eta, seq)`` over the active bounded
    flows' calendar entries, and the engine never holds two of them.

    A 3 Mbit/s thinner link ties every flow into one component; at 100
    Mbit/s each client uplink is its own component, so most flushes leave
    the head's entry alone."""
    topology, hosts, thinner = build_lan(
        [0.5 * MBIT, 1 * MBIT, 2 * MBIT, 2 * MBIT], thinner_bandwidth_bps=thinner_bps
    )
    engine = Engine()
    network = FluidNetwork(engine, topology)
    network.VEC_MIN_COMPONENT = vec_min  # at 2, tiny components take the array path
    sizes = (None, 1_000, 50_000, 250_000, 1_000_000)
    caps = (None, 0.1 * MBIT, 0.7 * MBIT, 1.5 * MBIT, 5 * MBIT)
    flows = []
    clock = 0.0
    for action, which, choice in operations:
        live = [flow for flow in flows if flow.is_active]
        if action == 0:
            flows.append(network.send(hosts[which], thinner, size_bytes=sizes[choice]))
        elif action == 1 and live:
            network.stop_flow(live[which % len(live)])
        elif action == 2 and live:
            network.set_rate_cap(live[which % len(live)], caps[choice])
        else:
            clock += 0.1 * (choice + 1)
            engine.run(until=clock)
        network.sync()
        soa = network.soa
        entries = [
            (soa.fm_eta[flow._fid], soa.fm_eseq[flow._fid])
            for flow in network.active_flows
            if flow.is_bounded and soa.fm_eta[flow._fid] != float("inf")
        ]
        armed = _network_events(engine, network)
        assert len(armed) <= 1
        if entries:
            assert [(armed[0].time, armed[0].seq)] == [min(entries)]
        else:
            assert armed == []
