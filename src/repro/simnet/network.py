"""The fluid network: flow lifecycle, rate allocation, byte integration.

:class:`FluidNetwork` owns the set of active flows.  Whenever that set (or a
flow's private rate cap) changes, bandwidth must be re-shared and the
completion times of the flows whose rates changed must be recomputed.
Delivered bytes are integrated lazily, per flow, under piecewise-constant
rates (which makes the integration exact).

Rate recomputation is **deferred and batched** (the dirty-set scheme).  A
flow attach/detach/cap change only does O(path) bookkeeping: it records the
affected links in a dirty set (remembering which of them were already
potentially saturated before the change) and arms the engine's flush hook.
The actual recomputation runs at most once per batch of changes — immediately
before the engine fires the next event, before an idle clock fast-forwards,
or when a caller reads rates (:meth:`FluidNetwork.sync`,
:meth:`aggregate_rate_bps`, ...).  Deferral is exact because the simulated
clock cannot advance past the change instant before the flush runs: the old
rates remain valid for the zero simulated seconds they are still in effect.
Batching collapses the common same-instant chains (a flow start immediately
followed by its slow-start cap, an auction teardown cascade) into a single
recomputation and a single update of the completion calendar.

Completions live in a **calendar**, not in the engine queue.  A bounded
flow's completion key — its ETA and an engine sequence number reserved
(:meth:`~repro.simnet.engine.Engine.reserve_seqs`) exactly when a per-flow
completion event would have been scheduled — sits in two store columns, and
the network holds **one** engine event, at the earliest key
(:meth:`~repro.simnet.engine.Engine.schedule_at_seq`).  A re-rate rewrites
the flow's column entry; at the end of the flush the network moves its event
only if the earliest key moved.  Every entry keeps the exact ``(time, seq)``
its own event would have had, so events fire in the same order, the engine
processes the same number of them, and results are unchanged — while a
flush that re-rates a whole shared component moves one engine event at
most, instead of cancelling one and pushing one per flow.  A completion
that fires but finds bytes left (float residue) keeps its sequence number,
so only a rate change re-arms it.

Re-rates reach the layers above once per flush as well: the flows with an
``owner`` whose rate changed are handed, as one list, to every callback
registered with :meth:`FluidNetwork.add_rate_listener` (each thinner marks
the matching contenders dirty in its bid index).

Recomputation is also *component-restricted*: most changes (a payment POST
finishing on one client's uplink, say) can only affect the rates of flows
that share a potentially-saturated link with the changed flow, directly or
transitively.  Each link maintains its "potential load" — an upper bound on
the aggregate rate its flows could jointly push through it, with flows
grouped by their entry link so a well-provisioned core link is not falsely
flagged (see :mod:`repro.simnet.link`).  A link whose capacity covers its
potential load can never saturate and never constrains anyone, so the search
for affected flows only crosses links whose potential load exceeds capacity.
Rates for the affected component are then recomputed with progressive
filling; everything outside the component keeps its previous, still-valid
rate.  A single walk over the component's flows and their path links both
grows the component and extracts what the scalar waterfill needs (the
constraint links in first-crossing order, each flow's ceiling and crossed
links); a component wide enough for the array path skips the extraction.
The brute-force global computation
(:func:`repro.simnet.bandwidth.max_min_fair_rates`) remains available both
as a reference for the property-based tests and as an ``incremental=False``
escape hatch.

Steady-state traffic recomputes the *same* component shapes over and over
(one more identical payment POST on an otherwise unchanged uplink), so the
network keeps an LRU cache keyed by the component's structural signature —
which constraint links it spans and, per flow, which of them it crosses and
its rate ceiling.  Flows with identical structure provably receive identical
max-min rates, so cached rate vectors can be re-applied positionally to a
sorted view of the component without re-running the waterfill.

Since the struct-of-arrays refactor the hot numeric state (flow rates, caps
and paths; link capacities and potential loads; payment counters) lives in a
:class:`~repro.simnet.soa.SoAStore` owned by the network, with the
``Flow``/``Link`` objects as thin views.  The flush then has two
bit-identical implementations: the historical per-object loops (always used
below :attr:`FluidNetwork.VEC_MIN_COMPONENT` flows, or everywhere when
``vectorized=False``), and an array path that recomputes a large component
with numpy segment operations (:meth:`_flush_component_vec`).  Both produce
the same rates, the same event stream and the same counters; the split
exists purely because numpy's per-call overhead loses to plain Python on
the small components that dominate steady state.

Propagation delays are *not* folded into byte accounting — they are exposed
via :meth:`FluidNetwork.rtt` and the higher layers (thinner, clients, HTTP
download model) account for them explicitly where the paper's evaluation
does (encouragement latency, quiescent periods, auction responses).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FlowError
from repro.perf.counters import SimCounters
from repro.simnet.bandwidth import RATE_EPSILON, max_min_fair_rates, waterfill_lists
from repro.simnet.engine import Engine, Event
from repro.simnet.flow import Flow, FlowState
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.soa import SoAStore, waterfill_arrays
from repro.simnet.topology import Topology
from repro.simnet.trace import Tracer

#: Completion is declared when fewer than this many bytes remain; guards
#: against floating-point residue keeping a flow alive forever.
BYTES_EPSILON = 1e-6

#: Slack used when comparing a link's potential load against its capacity.
#: A link is "constraining" only when its potential load *strictly* exceeds
#: capacity by more than this: flows that can jointly fill a link exactly are
#: each already limited to their static bounds by something else, so the link
#: cannot force anyone below their bound.
_CAPACITY_SLACK = 1e-6

_INF = float("inf")


class FluidNetwork:
    """Fluid-flow network simulator bound to an :class:`Engine` and a topology."""

    #: Entries kept in the component-signature → rate-vector LRU cache.
    RATE_CACHE_SIZE = 256

    #: Components smaller than this skip the cache entirely: building and
    #: hashing the structural signature costs more than just waterfilling a
    #: handful of flows.  The cache pays off where waterfill's cost curve
    #: bends — wide components recomputed repeatedly in steady state.
    RATE_CACHE_MIN_FLOWS = 16

    #: Components at least this wide take the vectorized recompute path
    #: (when ``vectorized=True``); below it, numpy call overhead loses to
    #: the plain loops.  Both paths are bit-identical, so this is purely a
    #: performance knob.
    VEC_MIN_COMPONENT = 64

    #: :meth:`sync` integrates the whole active set in one array pass at or
    #: above this many flows.
    VEC_MIN_SYNC = 512

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        incremental: bool = True,
        vectorized: bool = True,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        #: When False, every change triggers a global recomputation (slower,
        #: used as a cross-check in tests).
        self.incremental = incremental
        #: When False, the array-based recompute paths are disabled and the
        #: historical per-object loops run everywhere (the "object path" the
        #: equivalence tests drive); results are bit-identical either way.
        self.vectorized = vectorized

        #: The struct-of-arrays store backing flows, links and channels.
        self.soa = SoAStore()

        self._active: Dict[Flow, None] = {}
        #: Hot-path instrumentation (see :mod:`repro.perf.counters`).
        self.counters = SimCounters()
        #: Optional zero-arg factory the thinner layer calls for its price
        #: book (a plain attribute, no import: simnet must not know about
        #: the layers above it).  ``None`` keeps the exact
        #: :class:`~repro.core.pricing.PriceBook`; the deployment sets a
        #: bounded factory in rollup telemetry mode.
        self.price_book_factory = None

        # Dirty-set state for the deferred, batched rate recomputation.
        # Seeds are keyed by the links' dense store ids.
        self._dirty = False
        self._dirty_seeds: Dict[int, Link] = {}
        self._dirty_pre: Set[int] = set()
        self._dirty_flows: Dict[Flow, None] = {}
        self._rate_cache: "OrderedDict[tuple, object]" = OrderedDict()
        #: Called once per flush with the owned flows it re-rated.
        self._rate_listeners: List[Callable[[List[Flow]], None]] = []

        # Completion calendar (see the module docstring): the earliest
        # entry's key and store row, whether an entry change may have moved
        # it later (forcing a scan), and the engine event armed at it.
        self._head_eta = _INF
        self._head_seq = -1
        self._head_fid = -1
        self._head_stale = False
        self._armed: Optional[Event] = None

        self.total_delivered_bytes = 0.0
        self.completed_flows = 0
        self.stopped_flows = 0

        engine.add_flush_callback(self._flush_rates)
        self._reset_link_state()

    def _reset_link_state(self) -> None:
        """Clear allocator bookkeeping on every link and register it with
        this network's store.

        A topology handed to a fresh network may have been driven by a
        previous one; registration assigns new dense ids in the new store.
        """
        soa = self.soa
        for host in self.topology.hosts:
            access = host.access
            access.up._reset_runtime()
            soa.register_link(access.up)
            access.down._reset_runtime()
            soa.register_link(access.down)
        for cable in self.topology.shared_links:
            cable.up._reset_runtime()
            soa.register_link(cable.up)
            cable.down._reset_runtime()
            soa.register_link(cable.down)

    # -- queries ---------------------------------------------------------------

    @property
    def active_flows(self) -> List[Flow]:
        """Flows currently being allocated bandwidth (a copy)."""
        return list(self._active)

    def active_flow_count(self) -> int:
        """Number of currently active flows."""
        return len(self._active)

    def rtt(self, a: Host, b: Host) -> float:
        """Round-trip propagation delay between two hosts."""
        return self.topology.rtt(a, b)

    def add_rate_listener(self, callback: Callable[[List[Flow]], None]) -> None:
        """Call ``callback(flows)`` after each flush that changes the rate of
        a flow with an ``owner``; ``flows`` lists them in allocation order."""
        self._rate_listeners.append(callback)

    # -- flow construction -------------------------------------------------------

    def create_flow(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[float] = None,
        rate_cap_bps: Optional[float] = None,
        label: str = "flow",
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Build (but do not start) a flow routed by the topology."""
        path = self.topology.path(src, dst)
        return Flow(
            src,
            dst,
            path,
            size_bytes=size_bytes,
            rate_cap_bps=rate_cap_bps,
            label=label,
            on_complete=on_complete,
        )

    # -- flow lifecycle ------------------------------------------------------------

    def start_flow(self, flow: Flow) -> Flow:
        """Activate ``flow``; its rate materialises at the next flush."""
        if flow.state == FlowState.ACTIVE:
            raise FlowError(f"flow {flow.flow_id} is already active")
        if flow.state in (FlowState.COMPLETED, FlowState.STOPPED):
            raise FlowError(f"flow {flow.flow_id} has already finished ({flow.state.value})")
        flow.state = FlowState.ACTIVE
        flow.started_at = self.engine.now
        flow._slast = self.engine.now

        lids = self._ensure_path_lids(flow)
        self._note_change(flow.path, lids, flow)
        self._attach(flow, lids)
        if self.tracer is not None:
            self.tracer.record(
                "flow_start",
                time=self.engine.now,
                flow_id=flow.flow_id,
                label=flow.label,
                src=flow.src.name,
                dst=flow.dst.name,
                size=flow.size_bytes,
            )
        return flow

    def send(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[float] = None,
        rate_cap_bps: Optional[float] = None,
        label: str = "flow",
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Create and immediately start a flow."""
        flow = self.create_flow(
            src,
            dst,
            size_bytes=size_bytes,
            rate_cap_bps=rate_cap_bps,
            label=label,
            on_complete=on_complete,
        )
        return self.start_flow(flow)

    def stop_flow(self, flow: Flow) -> float:
        """Deactivate ``flow`` (e.g. the auction winner's payment channel).

        Returns the bytes it delivered.  Stopping an already-finished flow is
        a no-op so callers do not need to worry about races with completion.
        """
        if flow.state != FlowState.ACTIVE:
            return flow.delivered_bytes
        self._integrate(flow)
        self._note_change(flow.path, flow._path_lids)
        self._detach(flow, FlowState.STOPPED)
        self.stopped_flows += 1
        if self.tracer is not None:
            self.tracer.record(
                "flow_stop",
                time=self.engine.now,
                flow_id=flow.flow_id,
                label=flow.label,
                delivered=flow.delivered_bytes,
            )
        return flow.delivered_bytes

    def set_rate_cap(self, flow: Flow, rate_cap_bps: Optional[float]) -> None:
        """Change a flow's private rate ceiling (slow-start ramp) and mark it dirty."""
        if rate_cap_bps is not None and rate_cap_bps <= 0:
            raise FlowError(f"rate cap must be positive or None, got {rate_cap_bps}")
        fid = flow._fid
        if fid < 0:
            # Detached (not yet started, or already finished): the scalar
            # slot is authoritative and no load bookkeeping exists to shift.
            if flow._scap != rate_cap_bps:
                flow._scap = rate_cap_bps
            return
        soa = self.soa
        encoded = _INF if rate_cap_bps is None else rate_cap_bps
        if soa.fm_cap[fid] == encoded:
            return
        soa.fm_cap[fid] = encoded
        path = flow.path
        lids = flow._path_lids
        self._note_change(path, lids, flow)
        old_bound = soa.fm_bound[fid]
        new_bound = flow._path_min_cap
        if rate_cap_bps is not None and rate_cap_bps < new_bound:
            new_bound = rate_cap_bps
        if new_bound != old_bound:
            soa.fm_bound[fid] = new_bound
            delta = new_bound - old_bound
            entry = path[0]
            soa.lm_pot[lids[0]] += delta
            for i in range(1, len(path)):
                path[i]._add_entry_load(entry, delta)

    def set_link_capacity(self, link: Link, capacity_bps: float) -> None:
        """Change a link's capacity mid-run and re-derive every affected bound.

        The mechanics mirror :meth:`set_rate_cap`, but one link touches many
        flows: every flow crossing ``link`` is marked dirty (so the flush
        component covers capacity *increases*, where nothing need be
        saturated afterwards), the capacity moves in both the scalar
        attribute and the SoA ``l_cap`` mirror (each waterfill path reads
        its own), entry-group caps where ``link`` is the entry are
        re-clamped, and each crossing flow's static path bound is recomputed
        with the same potential-load delta walk ``set_rate_cap`` uses.  The
        rate caches need no invalidation: their keys embed the constraint
        capacities on both paths.
        """
        if capacity_bps <= 0:
            raise FlowError(
                f"link capacity must be positive, got {capacity_bps} for {link.name!r}"
            )
        old_cap = link.capacity_bps
        if capacity_bps == old_cap:
            return
        soa = self.soa
        if link._soa is not soa:
            soa.register_link(link)
        flows = list(link._flows)
        for flow in flows:
            self._note_change(flow.path, flow._path_lids, flow)
        link.capacity_bps = capacity_bps
        soa.l_cap[link._lid] = capacity_bps
        # Entry-group re-clamp: groups entering the network at ``link`` are
        # capped at its capacity on every downstream link; shift each
        # downstream potential by the change in min(cap, group_sum).  Must
        # happen before the per-flow bound deltas below, which already use
        # the new capacity inside _add_entry_load.
        entry_key = id(link)
        seen: set = set()
        for flow in flows:
            path = flow.path
            if path[0] is not link:
                continue
            for i in range(1, len(path)):
                downstream = path[i]
                mark = id(downstream)
                if mark in seen:
                    continue
                seen.add(mark)
                group_sum = downstream._entry_sums.get(entry_key)
                if group_sum is None:
                    continue
                old_capped = old_cap if group_sum > old_cap else group_sum
                new_capped = capacity_bps if group_sum > capacity_bps else group_sum
                if new_capped != old_capped:
                    dsoa = downstream._soa
                    if dsoa is not None:
                        dsoa.lm_pot[downstream._lid] += new_capped - old_capped
                    else:
                        downstream._spot += new_capped - old_capped
        f_cap = soa.fm_cap
        f_bound = soa.fm_bound
        pot = soa.lm_pot
        for flow in flows:
            path = flow.path
            new_min = path[0].capacity_bps
            for crossed in path:
                if crossed.capacity_bps < new_min:
                    new_min = crossed.capacity_bps
            flow._path_min_cap = new_min
            fid = flow._fid
            new_bound = new_min
            rate_cap = f_cap[fid]
            if rate_cap < new_bound:
                new_bound = rate_cap
            old_bound = f_bound[fid]
            if new_bound != old_bound:
                f_bound[fid] = new_bound
                delta = new_bound - old_bound
                entry = path[0]
                lids = flow._path_lids
                pot[lids[0]] += delta
                for i in range(1, len(path)):
                    path[i]._add_entry_load(entry, delta)

    def sync(self) -> None:
        """Flush pending rate updates, then bring every active flow's
        ``delivered_bytes`` up to the current time."""
        self._flush_rates()
        active = self._active
        if self.vectorized and len(active) >= self.VEC_MIN_SYNC:
            self._integrate_all_vec()
        else:
            for flow in active:
                self._integrate(flow)

    def delivered_bytes(self, flow: Flow) -> float:
        """Delivered bytes of ``flow`` as of now (integrating if still active).

        Exact even while a rate recomputation is pending: pending changes
        were made at the *current* instant, so the pre-change rate still
        covers the whole integration interval.
        """
        if flow.state == FlowState.ACTIVE:
            self._integrate(flow)
        return flow.delivered_bytes

    # -- bookkeeping internals ------------------------------------------------------

    def _ensure_path_lids(self, flow: Flow) -> tuple:
        """Register any unregistered path links and cache the dense ids."""
        soa = self.soa
        lids: List[int] = []
        for link in flow.path:
            if link._soa is not soa:
                soa.register_link(link)
            lids.append(link._lid)
        out = tuple(lids)
        flow._path_lids = out
        return out

    def _note_change(self, path: List[Link], lids: tuple, flow: Optional[Flow] = None) -> None:
        """Record a flow-set change: O(path), no recomputation.

        Must run *before* the change mutates the load bookkeeping — the
        flush seeds the affected component from links that were potentially
        saturated either before any change in the batch or after all of
        them.
        """
        self.counters.reallocations += 1
        seeds = self._dirty_seeds
        pre = self._dirty_pre
        slack = _CAPACITY_SLACK
        pot = self.soa.lm_pot
        for lid, link in zip(lids, path):
            if lid not in seeds:
                seeds[lid] = link
            if pot[lid] > link.capacity_bps + slack:
                pre.add(lid)
        if flow is not None:
            self._dirty_flows[flow] = None
        if not self._dirty:
            self._dirty = True
            self.engine.request_flush()

    def _attach(self, flow: Flow, lids: tuple) -> None:
        self._active[flow] = None
        path = flow.path
        bound = flow._path_min_cap
        cap = flow._scap
        if cap is not None and cap < bound:
            bound = cap
        flow._sbound = bound
        soa = self.soa
        soa.acquire_flow(flow, lids)
        flow._soa = soa
        pot = soa.lm_pot
        entry = path[0]
        entry._flows[flow] = None
        entry._flow_count += 1
        pot[lids[0]] += bound
        for i in range(1, len(path)):
            link = path[i]
            link._flows[flow] = None
            link._flow_count += 1
            link._add_entry_load(entry, bound)

    def _detach(self, flow: Flow, final_state: FlowState) -> None:
        self._active.pop(flow, None)
        soa = self.soa
        fid = flow._fid
        path = flow.path
        lids = flow._path_lids
        pot = soa.lm_pot
        bound = soa.fm_bound[fid]
        soa.fm_bound[fid] = 0.0
        entry = path[0]
        entry._flows.pop(flow, None)
        entry._flow_count -= 1
        pot[lids[0]] -= bound
        if not entry._flows:
            pot[lids[0]] = 0.0
            entry._entry_sums.clear()
        for i in range(1, len(path)):
            link = path[i]
            link._flows.pop(flow, None)
            link._flow_count -= 1
            link._add_entry_load(entry, -bound)
            if not link._flows:
                pot[lids[i]] = 0.0
                link._entry_sums.clear()
        flow.state = final_state
        flow.finished_at = self.engine.now
        soa.fm_rate[fid] = 0.0
        if fid == self._head_fid:
            self._head_stale = True
        soa.release_flow(flow)

    def _integrate(self, flow: Flow) -> None:
        now = self.engine.now
        soa = self.soa
        fid = flow._fid
        f_last = soa.fm_last
        dt = now - f_last[fid]
        if dt > 0:
            rate = soa.fm_rate[fid]
            if rate > 0:
                delivered = rate * dt / 8.0
                size = flow.size_bytes
                if size is not None:
                    remaining = size - soa.fm_delivered[fid]
                    if delivered > remaining:
                        delivered = remaining
                soa.fm_delivered[fid] += delivered
                self.total_delivered_bytes += delivered
        f_last[fid] = now

    def _integrate_all_vec(self) -> None:
        """One array pass over every active flow (same math as ``_integrate``)."""
        active = self._active
        n = len(active)
        if not n:
            return
        soa = self.soa
        now = self.engine.now
        fids = np.fromiter((f._fid for f in active), dtype=np.int64, count=n)
        last = soa.f_last[fids]
        rate = soa.f_rate[fids]
        dt = now - last
        live = (dt > 0) & (rate > 0)
        delivered = np.where(live, rate * dt / 8.0, 0.0)
        done = soa.f_delivered[fids]
        remaining = soa.f_size[fids] - done
        delivered = np.where(delivered > remaining, remaining, delivered)
        soa.f_delivered[fids] = done + delivered
        # Accumulate sequentially, in active-set order, to match the scalar
        # loop bit for bit (adding 0.0 for idle flows is an exact identity).
        total = self.total_delivered_bytes
        for value in delivered.tolist():
            total += value
        self.total_delivered_bytes = total
        soa.f_last[fids] = now

    def _is_constraining(self, link: Link) -> bool:
        return link._potential > link.capacity_bps + _CAPACITY_SLACK

    # -- deferred rate recomputation ---------------------------------------------------

    def _flush_rates(self) -> None:
        """Recompute rates for everything touched since the last flush, then
        re-arm the completion calendar.

        Registered as the engine's flush callback; also invoked directly by
        the rate-reading queries.  No-op when nothing is dirty.
        """
        if not self._dirty:
            return
        self._dirty = False
        counters = self.counters
        counters.flushes += 1
        live = self.engine.pending_events
        if live > counters.peak_live_events:
            counters.peak_live_events = live
        seeds = self._dirty_seeds
        pre = self._dirty_pre
        dirty_flows = self._dirty_flows
        self._dirty_seeds = {}
        self._dirty_pre = set()
        self._dirty_flows = {}
        self._reallocate(seeds, pre, dirty_flows)
        self._rearm()

    def _reallocate(
        self, seeds: Dict[int, Link], pre: Set[int], dirty_flows: Dict[Flow, None]
    ) -> None:
        """Recompute the rates of every flow a batch of changes can affect."""
        counters = self.counters
        if not self.incremental:
            flows = list(self._active)
            counters.waterfill_calls += 1
            counters.flows_touched += len(flows)
            rates_map = max_min_fair_rates(flows)
            self._apply_rates(flows, [rates_map.get(flow, 0.0) for flow in flows])
            return

        slack = _CAPACITY_SLACK
        soa = self.soa
        pot = soa.lm_pot
        f_cap = soa.fm_cap

        # One walk over the component's flows and their path links.  It
        # grows the component breadth-first from the seed links across
        # constraining links only, and, as each flow joins, numbers the
        # constraining links it crosses in first-crossing order (the order
        # the waterfill's tie-breaks depend on) and folds every other path
        # capacity into the flow's ceiling.  Once the component is wide
        # enough for the array path, which derives all of that from the
        # store itself, the walk stops extracting and only grows it.
        visited: Set[int] = set()
        frontier: List[Link] = []
        for lid, link in seeds.items():
            if lid in pre or pot[lid] > link.capacity_bps + slack:
                visited.add(lid)
                frontier.append(link)
        vec_min = self.VEC_MIN_COMPONENT if self.vectorized else _INF
        component: Dict[Flow, None] = {}
        constraint_links: List[Link] = []
        link_pos: Dict[int, int] = {}
        unfrozen_on: List[int] = []
        caps: List[float] = []
        flow_links: List[List[int]] = []
        get_pos = link_pos.get
        extract = True
        while frontier:
            next_frontier: List[Link] = []
            for link in frontier:
                for flow in link._flows:
                    if flow in component:
                        continue
                    component[flow] = None
                    if not extract:
                        for lid, other in zip(flow._path_lids, flow.path):
                            if lid not in visited and pot[lid] > other.capacity_bps + slack:
                                visited.add(lid)
                                next_frontier.append(other)
                        continue
                    cap = f_cap[flow._fid]
                    indices: List[int] = []
                    for lid, other in zip(flow._path_lids, flow.path):
                        pos = get_pos(lid)
                        if pos is None:
                            capacity = other.capacity_bps
                            if pot[lid] <= capacity + slack:
                                if capacity < cap:
                                    cap = capacity
                                continue
                            pos = link_pos[lid] = len(constraint_links)
                            constraint_links.append(other)
                            unfrozen_on.append(0)
                            if lid not in visited:
                                visited.add(lid)
                                next_frontier.append(other)
                        indices.append(pos)
                        unfrozen_on[pos] += 1
                    caps.append(cap)
                    flow_links.append(indices)
                    if len(caps) >= vec_min:
                        extract = False
            frontier = next_frontier
        # Changed flows the walk did not reach: every link they cross is
        # unconstrained (a constraining one would have been a seed, and the
        # walk would have reached them through it).
        for flow in dirty_flows:
            if flow.state is FlowState.ACTIVE and flow not in component:
                component[flow] = None
                if extract:
                    cap = f_cap[flow._fid]
                    for link in flow.path:
                        if link.capacity_bps < cap:
                            cap = link.capacity_bps
                    caps.append(cap)
                    flow_links.append([])
        if not component:
            return
        flows = list(component)
        n = len(flows)

        if n >= vec_min:
            self._flush_component_vec(flows)
            return

        if n < self.RATE_CACHE_MIN_FLOWS:
            # Below the cache threshold: cache_hits/misses deliberately not
            # touched, so those counters measure cache traffic alone.
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = [link.capacity_bps for link in constraint_links]
            rates = waterfill_lists(caps, flow_links, remaining, unfrozen_on)
            self._apply_rates(flows, rates)
            return

        # The structural signature: which constraint links each flow crosses
        # (sorted ids) and its ceiling, in a canonical flow order.
        con_lids = [link._lid for link in constraint_links]
        structs = []
        for indices, cap in zip(flow_links, caps):
            if len(indices) == 1:
                crossed = (con_lids[indices[0]],)
            else:
                crossed = tuple(sorted([con_lids[pos] for pos in indices]))
            structs.append((crossed, cap))
        order = sorted(range(n), key=structs.__getitem__)
        key = (
            tuple(sorted((link._lid, link.capacity_bps) for link in constraint_links)),
            tuple(structs[index] for index in order),
        )
        cache = self._rate_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            counters.cache_hits += 1
            rates = [0.0] * n
            for position, index in enumerate(order):
                rates[index] = cached[position]
        else:
            counters.cache_misses += 1
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = [link.capacity_bps for link in constraint_links]
            rates = waterfill_lists(caps, flow_links, remaining, unfrozen_on)
            cache[key] = tuple(rates[index] for index in order)
            if len(cache) > self.RATE_CACHE_SIZE:
                cache.popitem(last=False)
        self._apply_rates(flows, rates)

    def _flush_component_vec(self, flows: List[Flow]) -> None:
        """Array-path recompute of one (wide) component.

        Mirrors the scalar flush stage by stage: constraint discovery in
        first-occurrence order (so the waterfill's tie-breaks match the
        scalar link ordering), effective caps as exact ``min`` folds, the
        LRU signature canonicalised by sorting (its own key namespace — a
        component's size determines its path, so scalar and vector keys
        never mix for the same structure), and the vectorized waterfill of
        :func:`repro.simnet.soa.waterfill_arrays`.
        """
        counters = self.counters
        soa = self.soa
        n = len(flows)
        fids = np.fromiter((flow._fid for flow in flows), dtype=np.int64, count=n)
        nlinks = len(soa.l_views)
        width = int(soa.f_plen[fids].max())
        paths = soa.f_path[fids, :width]
        valid = paths >= 0
        padded = np.where(valid, paths, nlinks)
        cap_ext = np.empty(nlinks + 1)
        cap_ext[:nlinks] = soa.l_cap[:nlinks]
        cap_ext[nlinks] = np.inf
        pot_ext = np.zeros(nlinks + 1)
        pot_ext[:nlinks] = soa.l_pot[:nlinks]
        # Constraining occurrences (the sentinel column is never constraining).
        crossing_con = pot_ext[padded] > cap_ext[padded] + _CAPACITY_SLACK
        crossing_con &= valid
        flat = padded[crossing_con]  # row-major == the scalar discovery scan
        if flat.size:
            uniq, first = np.unique(flat, return_index=True)
            con_lids = uniq[np.argsort(first)]
        else:
            con_lids = flat
        m = con_lids.shape[0]

        # Effective caps: own cap folded with non-constraint path capacities.
        caps = np.where(valid & ~crossing_con, cap_ext[padded], np.inf)
        eff = np.minimum(soa.f_cap[fids], caps.min(axis=1)) if width else soa.f_cap[fids]

        # CSR of crossed constraint links, local indices in discovery order.
        lut = np.full(nlinks + 1, -1, dtype=np.int64)
        lut[con_lids] = np.arange(m, dtype=np.int64)
        row_counts = crossing_con.sum(axis=1)
        csr_idx = lut[padded[crossing_con]]

        # Structural signature (always ≥ RATE_CACHE_MIN_FLOWS here): rows of
        # (sorted crossed lids, padded) + effective cap, lexicographically
        # ordered; constraint part sorted by lid.  Equal structures yield
        # equal bytes, so hit/miss behaviour matches the scalar criterion.
        crossed = np.where(crossing_con, padded, nlinks + 1)
        crossed.sort(axis=1)
        sort_keys = [eff]
        for column in range(width - 1, -1, -1):
            sort_keys.append(crossed[:, column])
        order = np.lexsort(sort_keys)
        con_order = np.argsort(con_lids)
        key = (
            con_lids[con_order].tobytes(),
            cap_ext[con_lids][con_order].tobytes(),
            crossed[order].tobytes(),
            eff[order].tobytes(),
        )
        cache = self._rate_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            counters.cache_hits += 1
            rates = np.empty(n)
            rates[order] = cached
        else:
            counters.cache_misses += 1
            counters.waterfill_calls += 1
            counters.flows_touched += n
            remaining = cap_ext[con_lids].copy()
            unfrozen_on = (
                np.bincount(csr_idx, minlength=m)
                if csr_idx.size
                else np.zeros(m, dtype=np.int64)
            )
            rates = waterfill_arrays(eff, remaining, unfrozen_on, csr_idx, row_counts)
            cache[key] = rates[order].copy()
            if len(cache) > self.RATE_CACHE_SIZE:
                cache.popitem(last=False)
        self._apply_rates_vec(flows, fids, rates)

    def _apply_rates(self, flows: List[Flow], rates: List[float]) -> None:
        """Store a component's new rates and update its calendar entries.

        A flow whose rate changed is first integrated at its old rate, then
        gets a fresh calendar entry; so does a bounded flow never armed
        since its last rate change.  Every other flow keeps its entry: at a
        constant rate the absolute completion time is unchanged.
        """
        soa = self.soa
        f_rate = soa.fm_rate
        f_last = soa.fm_last
        f_delivered = soa.fm_delivered
        f_eta = soa.fm_eta
        f_eseq = soa.fm_eseq
        engine = self.engine
        now = engine.now
        epsilon = RATE_EPSILON
        head_fid = self._head_fid
        best_eta = self._head_eta
        best_seq = self._head_seq
        best_fid = head_fid
        rerated: List[Flow] = []
        for i, flow in enumerate(flows):
            new_rate = rates[i]
            fid = flow._fid
            rate = f_rate[fid]
            if new_rate - rate > epsilon or rate - new_rate > epsilon:
                # Settle what was delivered at the old rate before switching
                # (``_integrate``, inlined — this is the hottest loop).
                dt = now - f_last[fid]
                if dt > 0 and rate > 0:
                    delivered = rate * dt / 8.0
                    size = flow.size_bytes
                    if size is not None:
                        remaining = size - f_delivered[fid]
                        if delivered > remaining:
                            delivered = remaining
                    f_delivered[fid] += delivered
                    self.total_delivered_bytes += delivered
                f_last[fid] = now
                f_rate[fid] = rate = new_rate
                if flow.owner is not None:
                    rerated.append(flow)
            elif f_eseq[fid] >= 0:
                continue
            size = flow.size_bytes
            if size is None:
                continue
            if fid == head_fid:
                self._head_stale = True
            remaining = size - f_delivered[fid]
            if remaining <= BYTES_EPSILON:
                # Done at this very instant: complete from an event at
                # ``now``, after the caller of the triggering operation.
                eta = now
            elif rate > epsilon:
                eta = now + remaining * 8.0 / rate
            else:
                f_eta[fid] = _INF
                f_eseq[fid] = -1
                continue
            seq = engine.reserve_seqs()
            f_eta[fid] = eta
            f_eseq[fid] = seq
            if eta < best_eta:
                best_eta = eta
                best_seq = seq
                best_fid = fid
        self._head_eta = best_eta
        self._head_seq = best_seq
        self._head_fid = best_fid
        if rerated:
            for listener in self._rate_listeners:
                listener(rerated)

    def _apply_rates_vec(self, flows: List[Flow], fids: np.ndarray, new_rates: np.ndarray) -> None:
        """Array twin of :meth:`_apply_rates` (same effects, same order).

        Integrations land in flow order, exactly as the scalar loop
        interleaves them (nothing between two flows' integrations observes
        intermediate state), and calendar sequence numbers are reserved as
        one block handed out in flow order.
        """
        soa = self.soa
        old = soa.f_rate[fids]
        changed = np.abs(new_rates - old) > RATE_EPSILON
        now = self.engine.now
        touched = np.flatnonzero(changed)
        if touched.size:
            cf = fids[touched]
            dt = now - soa.f_last[cf]
            rate = old[touched]
            live = (dt > 0) & (rate > 0)
            delivered = np.where(live, rate * dt / 8.0, 0.0)
            done = soa.f_delivered[cf]
            remaining = soa.f_size[cf] - done
            delivered = np.where(delivered > remaining, remaining, delivered)
            soa.f_delivered[cf] = done + delivered
            total = self.total_delivered_bytes
            for value in delivered.tolist():
                total += value
            self.total_delivered_bytes = total
            soa.f_last[cf] = now
            soa.f_rate[cf] = new_rates[touched]
        size = soa.f_size[fids]
        bounded = size != np.inf
        acted = np.flatnonzero(bounded & (changed | (soa.f_eseq[fids] < 0)))
        if acted.size:
            af = fids[acted]
            if (af == self._head_fid).any():
                self._head_stale = True
            remaining = size[acted] - soa.f_delivered[af]
            rate = soa.f_rate[af]
            finished = remaining <= BYTES_EPSILON
            moving = ~finished & (rate > RATE_EPSILON)
            eta = np.full(acted.size, np.inf)
            eta[finished] = now
            eta[moving] = now + remaining[moving] * 8.0 / rate[moving]
            armed = finished | moving
            count = int(armed.sum())
            seqs = np.full(acted.size, -1, dtype=np.int64)
            if count:
                first = self.engine.reserve_seqs(count)
                seqs[armed] = np.arange(first, first + count, dtype=np.int64)
            soa.f_eta[af] = eta
            soa.f_eseq[af] = seqs
            if count:
                # First occurrence of the minimum ETA: the smallest seq.
                best = int(eta.argmin())
                best_eta = eta[best].item()
                if best_eta < self._head_eta:
                    self._head_eta = best_eta
                    self._head_seq = int(seqs[best])
                    self._head_fid = int(af[best])
        if touched.size and self._rate_listeners:
            rerated = [flows[i] for i in touched.tolist() if flows[i].owner is not None]
            if rerated:
                for listener in self._rate_listeners:
                    listener(rerated)

    # -- completion calendar ------------------------------------------------------------

    def _rearm(self) -> None:
        """Keep the network's one engine event at the earliest calendar key."""
        if self._head_stale:
            self._head_stale = False
            self._head_eta, self._head_seq, self._head_fid = self.soa.calendar_head()
        eta = self._head_eta
        armed = self._armed
        if armed is not None:
            if armed.time == eta and armed.seq == self._head_seq:
                return
            armed.cancel()
            self._armed = None
        if eta != _INF:
            self._armed = self.engine.schedule_at_seq(eta, self._head_seq, self._fire_head)

    def _fire_head(self) -> None:
        """The calendar's engine event: complete the flow at its head."""
        self._armed = None
        soa = self.soa
        fid = self._head_fid
        flow = soa.f_views[fid]
        # Consume the entry but keep its sequence number: if the completion
        # bails below, only a rate change re-arms it.
        soa.fm_eta[fid] = _INF
        self._head_stale = True
        self._complete(flow)
        if not self._dirty:
            # Nothing pending to flush (the completion bailed, or a rate
            # query inside ``on_complete`` already flushed): re-arm now.
            self._rearm()

    def _complete(self, flow: Flow) -> None:
        self._integrate(flow)
        remaining = flow.size_bytes - flow.delivered_bytes
        if remaining > BYTES_EPSILON:
            # Float residue: integrating up to the ETA left more than
            # BYTES_EPSILON to go.  The flow's next rate change re-arms it.
            return
        flow.delivered_bytes = float(flow.size_bytes)
        self._note_change(flow.path, flow._path_lids)
        self._detach(flow, FlowState.COMPLETED)
        self.completed_flows += 1
        if self.tracer is not None:
            self.tracer.record(
                "flow_complete",
                time=self.engine.now,
                flow_id=flow.flow_id,
                label=flow.label,
                delivered=flow.delivered_bytes,
            )
        if flow.on_complete is not None:
            flow.on_complete(flow)

    # -- aggregate statistics ----------------------------------------------------------

    def aggregate_rate_bps(self, predicate: Optional[Callable[[Flow], bool]] = None) -> float:
        """Sum of current rates over active flows matching ``predicate``."""
        self._flush_rates()
        active = self._active
        total = 0.0
        if not active:
            return total
        n = len(active)
        fids = np.fromiter((flow._fid for flow in active), dtype=np.int64, count=n)
        rates = self.soa.f_rate[fids].tolist()
        if predicate is None:
            for rate in rates:
                total += rate
        else:
            for flow, rate in zip(active, rates):
                if predicate(flow):
                    total += rate
        return total

    def flows_on(self, link: Link) -> List[Flow]:
        """Active flows whose path crosses ``link``."""
        return list(link._flows)

    def link_load_bps(self, link: Link) -> float:
        """Aggregate rate currently crossing ``link``."""
        self._flush_rates()
        return sum(flow.rate_bps for flow in link._flows)

    def link_utilisation(self, link: Link) -> float:
        """Fraction of ``link``'s capacity in use right now."""
        return self.link_load_bps(link) / link.capacity_bps
