"""The kinetic bid index: sub-linear winner selection for virtual auctions.

Every thinner variant repeatedly needs the contender with the extreme
``(bid, tie-break)`` key — the §3.3 auction admits the *highest* bidder each
time the server frees a slot, and descriptor-pressure eviction (§6) drops
the *lowest*.  A linear scan recomputes every contender's bid per decision,
which makes a busy thinner O(n) per admission and O(n²) per run; at the
"millions of users" scale the ROADMAP targets, admission itself becomes the
bottleneck.

The index exploits the structure of a bid: under the fluid model a payment
channel's balance is *piecewise linear in time*,

    ``bid(t) = base + slope * (t - t_refresh)``

where ``slope`` is the in-flight POST's current rate in bytes/second and
``base`` is the balance when the trajectory last changed.  Trajectories only
change at discrete, observable moments — the allocator re-rates the flow, a
POST completes or the quiescent gap ends, a quantum win consumes the
balance, a channel opens or closes.  All of those moments already notify the
owning thinner (see :class:`~repro.core.payment.PaymentChannel.on_bid_change`,
and the rate listener through which the fluid network hands over, once per
flush, every payment flow it re-rated), so the index is *push-refreshed*:
rate changes push fresh keys in, queries never pull n bids.

Between refreshes, comparisons are kinetic certificates: two bids with the
*same* slope never cross, so their order is fixed by the time-independent
intercept ``base - slope * t_refresh``; bids with *different* slopes can
cross, but there are only as many distinct slopes as the allocator produces
distinct rates — O(1)-ish in steady state (fair shares repeat across
same-bandwidth clients, slow-start caps take log-many values).  The index
therefore buckets entries into per-slope groups:

* within a group, a heap ordered by ``(intercept, tie-break)`` is valid for
  all time — no certificate ever expires;
* across groups, only each group's top is a candidate, and those few
  candidates are compared by their *exact* current key.

A query touches one candidate per non-empty group (plus amortised pops of
lazily-invalidated entries), so steady-state cost is O(groups + log n)
instead of O(n).

Refreshes are themselves *deferred and batched*, mirroring the fluid
network's dirty-set allocator: a trajectory-change notification only marks
the contender dirty (an O(1) dict store), and the actual re-keying runs at
the next query, once per dirty contender.  The allocator often re-rates the
same payment flow many times between two auctions (slow-start doublings, a
churning component); deferral collapses those into a single re-key, and it
is exact for the same reason the allocator's deferral is — nothing reads
the index between the change and the query.

Exactness contract: the winner returned is the contender that maximises
exactly ``(peek_bid(now), -arrived_at, -seq)`` — the same float produced by
:meth:`~repro.core.thinner.Contender.peek_bid` and the same tie-breaks as
the historical linear scans (earlier arrival wins ties; among identical
keys, earlier insertion wins).  Cross-group comparison always re-evaluates
``peek_bid(now)`` itself, so the selected key is bit-identical to what a
scan would have computed; the per-slope intercepts only order trajectories
that, within one group, differ by a *constant* gap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

#: Unique per-push discriminator so heap tuples never fall through to
#: comparing :class:`_Entry` objects (a refresh re-pushes the same
#: ``(intercept, arrived_at, seq)``).  It sits *after* ``seq``, so it never
#: influences which contender a query returns.
_push_ids = itertools.count()

#: Rebuild a group's heaps once dead entries outnumber live ones (and the
#: heap is big enough for the heapify to be worth it) — same lazy-deletion
#: policy as the engine's event queue.
COMPACT_MIN_HEAP = 64


class _Entry:
    """One contender's current linear bid trajectory inside the index."""

    __slots__ = ("contender", "intercept", "arrived_at", "seq", "alive", "group")

    def __init__(self, contender, intercept: float, arrived_at: float, seq: int):
        self.contender = contender
        self.intercept = intercept
        self.arrived_at = arrived_at
        self.seq = seq
        self.alive = True
        self.group: Optional["_SlopeGroup"] = None


class _SlopeGroup:
    """All live entries sharing one bid slope (bytes/second).

    ``best`` orders by ``(intercept desc, arrived_at asc, seq asc)`` and
    ``worst`` by ``(intercept asc, arrived_at desc, seq asc)`` — matching
    the historical ``max(..., (bid, -arrived_at))`` / ``min(..., (bid,
    -arrived_at))`` scans, including their first-wins behaviour on fully
    equal keys (insertion order == ``seq`` order).
    """

    __slots__ = ("slope", "_best", "_worst", "live", "dead")

    def __init__(self, slope: float, track_worst: bool = False):
        self.slope = slope
        self._best: List[Tuple[float, float, int, int, _Entry]] = []
        #: The eviction-side heap is only maintained once the index has seen
        #: a ``worst`` query (i.e. ``max_contenders`` is in play): most
        #: deployments never evict, and skipping the second heap halves the
        #: push cost of the add/re-key hot path.  ``None`` = not tracked.
        self._worst: Optional[List[Tuple[float, float, int, int, _Entry]]] = (
            [] if track_worst else None
        )
        self.live = 0
        self.dead = 0

    def add(self, entry: _Entry) -> None:
        push_id = next(_push_ids)
        heapq.heappush(
            self._best, (-entry.intercept, entry.arrived_at, entry.seq, push_id, entry)
        )
        if self._worst is not None:
            heapq.heappush(
                self._worst,
                (entry.intercept, -entry.arrived_at, entry.seq, push_id, entry),
            )
        self.live += 1

    def enable_worst(self) -> None:
        """Start (and backfill) the eviction-side heap."""
        if self._worst is not None:
            return
        self._worst = [
            (entry.intercept, -entry.arrived_at, entry.seq, push_id, entry)
            for (neg, _arr, _seq, push_id, entry) in self._best
            if entry.alive
        ]
        heapq.heapify(self._worst)

    def _top(self, heap: List[tuple]) -> Tuple[Optional[_Entry], int]:
        """The live top of ``heap`` (popping dead entries) and the pop count."""
        pops = 0
        while heap:
            entry = heap[0][4]
            if entry.alive:
                return entry, pops
            heapq.heappop(heap)
            pops += 1
        return None, pops

    def top_best(self) -> Tuple[Optional[_Entry], int]:
        return self._top(self._best)

    def top_worst(self, exempt: Optional[int]) -> Tuple[Optional[_Entry], int]:
        """Live minimum, skipping (but keeping) the ``exempt`` request."""
        entry, pops = self._top(self._worst)
        if (
            entry is None
            or exempt is None
            or entry.contender.request.request_id != exempt
        ):
            return entry, pops
        skipped = heapq.heappop(self._worst)
        entry, extra = self._top(self._worst)
        heapq.heappush(self._worst, skipped)
        return entry, pops + extra

    def note_dead(self) -> None:
        self.live -= 1
        self.dead += 1
        if self.dead > self.live and self.dead + self.live >= COMPACT_MIN_HEAP:
            self._compact()

    def _compact(self) -> None:
        self._best = [item for item in self._best if item[4].alive]
        heapq.heapify(self._best)
        if self._worst is not None:
            self._worst = [item for item in self._worst if item[4].alive]
            heapq.heapify(self._worst)
        self.dead = 0


class KineticBidIndex:
    """Push-refreshed index over a thinner's contenders, bucketed by slope.

    The owning thinner is responsible for calling :meth:`add` /
    :meth:`remove` as contenders enter and leave, and :meth:`refresh`
    whenever a contender's trajectory changes (the payment channel's
    ``on_bid_change`` wiring in :class:`~repro.core.thinner.ThinnerBase`
    does this).  ``counters`` is the deployment-wide
    :class:`~repro.perf.counters.SimCounters`.
    """

    #: Dirty batches at least this large are re-keyed through the store's
    #: vectorized trajectory kernel; smaller ones go contender by contender
    #: (numpy per-call overhead loses on tiny batches).  Both paths compute
    #: bit-identical keys, so this is purely a performance knob.
    VEC_MIN_DIRTY = 8

    def __init__(self, counters, store=None) -> None:
        self.counters = counters
        #: Optional :class:`~repro.simnet.soa.SoAStore` for vectorized batch
        #: re-keys; ``None`` falls back to per-contender ``peek_balance``.
        self._store = store
        self._groups: Dict[float, _SlopeGroup] = {}
        self._entries: Dict[int, _Entry] = {}
        #: Contenders whose trajectory changed since the last query,
        #: keyed by request id; re-keyed lazily (see the module docstring).
        self._dirty: Dict[int, object] = {}
        #: Becomes True at the first ``worst`` query (see ``enable_worst``).
        self._worst_tracked = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def group_count(self) -> int:
        """Number of distinct bid slopes currently indexed."""
        return len(self._groups)

    # -- trajectory bookkeeping ------------------------------------------------

    @staticmethod
    def _trajectory(contender, now: float) -> Tuple[float, float]:
        """The contender's current ``(base, slope)`` in bytes / bytes-per-s."""
        channel = contender.channel
        if channel is None:
            return 0.0, 0.0
        return channel.peek_balance(now), channel.payment_rate_bps() / 8.0

    def add(self, contender, now: float) -> None:
        """Index ``contender`` (keyed by its request id) at its current bid."""
        base, slope = self._trajectory(contender, now)
        # ``base - slope * now`` is time-independent; with slope 0 (no open
        # channel, quiescent gap, not-yet-rated POST) it is exactly ``base``,
        # which keeps the common all-zero-bid ties exact.
        self._insert(contender, base - slope * now, slope)

    def _insert(self, contender, intercept: float, slope: float) -> None:
        """Insert at a precomputed ``(intercept, slope)`` key."""
        entry = _Entry(contender, intercept, contender.arrived_at, contender.seq)
        request_id = contender.request.request_id
        previous = self._entries.get(request_id)
        if previous is not None:  # pragma: no cover - defensive
            self._kill(previous)
        self._entries[request_id] = entry
        group = self._groups.get(slope)
        if group is None:
            group = self._groups[slope] = _SlopeGroup(slope, self._worst_tracked)
        entry.group = group
        group.add(entry)

    def remove(self, request_id: int) -> None:
        """Drop the contender with ``request_id`` from the index (if present)."""
        self._dirty.pop(request_id, None)
        entry = self._entries.pop(request_id, None)
        if entry is not None:
            self._kill(entry)

    def refresh(self, contender) -> None:
        """Note that ``contender``'s bid trajectory changed (O(1), deferred).

        The re-key itself runs at the next query, against the query's own
        clock; repeated trajectory changes between queries collapse into
        one re-key.
        """
        self._dirty[contender.request.request_id] = contender

    def _flush_dirty(self, now: float) -> None:
        # Detach the dirty set first: ``add`` clears stale dirty marks.
        dirty, self._dirty = self._dirty, {}
        counters = self.counters
        entries = self._entries
        store = self._store
        if store is not None and len(dirty) >= self.VEC_MIN_DIRTY:
            # One gather over the store's channel/flow arrays computes every
            # trajectory in the batch; the per-entry kill/insert below runs
            # in the same dirty-insertion order as the scalar loop.
            contenders = list(dirty.values())
            cids = [
                -1 if contender.channel is None else contender.channel._cid
                for contender in contenders
            ]
            intercepts, slopes = store.bid_trajectories(cids, now)
            for request_id, contender, intercept, slope in zip(
                dirty, contenders, intercepts, slopes
            ):
                entry = entries.pop(request_id, None)
                if entry is None:
                    continue
                counters.bid_index_refreshes += 1
                self._kill(entry)
                self._insert(contender, intercept, slope)
            return
        for request_id, contender in dirty.items():
            entry = entries.pop(request_id, None)
            if entry is None:
                continue
            counters.bid_index_refreshes += 1
            self._kill(entry)
            self.add(contender, now)

    def _kill(self, entry: _Entry) -> None:
        entry.alive = False
        entry.group.note_dead()

    # -- queries --------------------------------------------------------------

    def best(self, now: float):
        """The contender maximising ``(peek_bid(now), -arrived_at, -seq)``."""
        if self._dirty:
            self._flush_dirty(now)
        scanned = 0
        best = None
        best_key = None
        empty: List[float] = []
        for slope, group in self._groups.items():
            entry, pops = group.top_best()
            scanned += pops
            if entry is None:
                if not group.live:
                    empty.append(slope)
                continue
            scanned += 1
            contender = entry.contender
            key = (contender.peek_bid(now), -entry.arrived_at, -entry.seq)
            if best_key is None or key > best_key:
                best = contender
                best_key = key
        for slope in empty:
            del self._groups[slope]
        self.counters.contenders_scanned += scanned
        return best

    def worst(self, now: float, exempt: Optional[int] = None):
        """The contender minimising ``(peek_bid(now), -arrived_at, seq)``.

        ``exempt`` (a request id) is skipped — eviction never drops the
        arrival that triggered it.
        """
        if not self._worst_tracked:
            self._worst_tracked = True
            for group in self._groups.values():
                group.enable_worst()
        if self._dirty:
            self._flush_dirty(now)
        scanned = 0
        worst = None
        worst_key = None
        empty: List[float] = []
        for slope, group in self._groups.items():
            entry, pops = group.top_worst(exempt)
            scanned += pops
            if entry is None:
                if not group.live:
                    empty.append(slope)
                continue
            scanned += 1
            contender = entry.contender
            key = (contender.peek_bid(now), -entry.arrived_at, entry.seq)
            if worst_key is None or key < worst_key:
                worst = contender
                worst_key = key
        for slope in empty:
            del self._groups[slope]
        self.counters.contenders_scanned += scanned
        return worst
