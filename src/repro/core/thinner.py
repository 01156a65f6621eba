"""Thinner base machinery shared by every front-end variant.

A thinner sits between clients and the protected server (Figure 1(b) of the
paper).  Concrete subclasses differ in how they *encourage* clients and how
they pick the next request when the server frees up:

* :class:`repro.core.auction.VirtualAuctionThinner` — explicit payment
  channel + highest-bid auction (§3.3, the implemented/evaluated variant);
* :class:`repro.core.retry.RandomDropThinner` — in-band aggressive retries
  with proportional (lottery) admission (§3.2);
* :class:`repro.core.quantum.QuantumAuctionThinner` — per-quantum auctions
  for heterogeneous requests (§5);
* :class:`repro.core.admission.NoDefenseThinner` — the undefended baseline.

Clients interact with a thinner through a small protocol:

* the client delivers a request by calling :meth:`ThinnerBase.receive_request`
  (the request bytes themselves travel as a flow; the client invokes this
  from that flow's completion callback);
* the thinner calls ``client.on_encouraged(request)`` when the client should
  start paying; the client opens a :class:`~repro.core.payment.PaymentChannel`
  and registers it with :meth:`ThinnerBase.register_payment`;
* the thinner calls ``client.on_response(request, response)`` when the
  server has finished the request, and ``client.on_dropped(request, reason)``
  if the request is abandoned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol

from repro.constants import PAYMENT_CHANNEL_TIMEOUT
from repro.errors import ThinnerError
from repro.core.bidindex import KineticBidIndex
from repro.core.payment import PaymentChannel
from repro.core.pricing import PriceBook
from repro.httpd.messages import Request, RequestState, Response
from repro.httpd.server import EmulatedServer
from repro.simnet.engine import Engine
from repro.simnet.host import Host
from repro.simnet.network import FluidNetwork


class ClientProtocol(Protocol):
    """What a thinner needs from a client object."""

    host: Host

    def on_encouraged(self, request: Request) -> None:
        """The thinner wants payment for ``request``."""

    def on_response(self, request: Request, response: Response) -> None:
        """The server finished ``request``."""

    def on_dropped(self, request: Request, reason: str) -> None:
        """The thinner or server abandoned ``request``."""


@dataclass
class Contender:
    """A request currently contending for the server at the thinner."""

    request: Request
    client: ClientProtocol
    channel: Optional[PaymentChannel] = None
    encouraged: bool = False
    arrived_at: float = 0.0
    #: Thinner-local insertion sequence; the last tie-break of the selection
    #: contract (see :meth:`ThinnerBase._best_contender`).
    seq: int = 0
    lottery_baseline: float = 0.0  # used by the retry variant

    def bid(self, sync: bool = False) -> float:
        """The contender's current bid in bytes."""
        if self.channel is None:
            return 0.0
        return self.channel.balance(sync=sync)

    def peek_bid(self, now: float) -> float:
        """The contender's current bid, computed without touching flow state."""
        if self.channel is None:
            return 0.0
        return self.channel.peek_balance(now)

    def total_paid(self, sync: bool = False) -> float:
        """Everything this contender has paid so far, in bytes."""
        if self.channel is None:
            return 0.0
        return self.channel.total_paid(sync=sync)


@dataclass
class ThinnerStats:
    """Counters every thinner variant keeps."""

    requests_received: int = 0
    requests_admitted: int = 0
    requests_served: int = 0
    requests_dropped: int = 0
    free_admissions: int = 0
    auctions_held: int = 0
    payment_bytes_sunk: float = 0.0
    received_by_class: Dict[str, int] = field(default_factory=dict)
    served_by_class: Dict[str, int] = field(default_factory=dict)

    def record_received(self, request: Request) -> None:
        self.requests_received += 1
        self.received_by_class[request.client_class] = (
            self.received_by_class.get(request.client_class, 0) + 1
        )

    def record_served(self, request: Request) -> None:
        self.requests_served += 1
        self.served_by_class[request.client_class] = (
            self.served_by_class.get(request.client_class, 0) + 1
        )


class ThinnerBase:
    """Request bookkeeping, response delivery and drop handling."""

    def __init__(
        self,
        engine: Engine,
        network: FluidNetwork,
        server: EmulatedServer,
        host: Host,
        encouragement_delay: float = 0.0,
        payment_timeout: float = PAYMENT_CHANNEL_TIMEOUT,
        max_contenders: Optional[int] = None,
    ) -> None:
        if encouragement_delay < 0:
            raise ThinnerError("encouragement_delay must be non-negative")
        if max_contenders is not None and max_contenders <= 0:
            raise ThinnerError("max_contenders must be positive or None")
        self.engine = engine
        self.network = network
        self.server = server
        self.host = host
        #: Extra processing/backlog delay before the encouragement reaches the
        #: client, on top of propagation (the paper measured ~0.35 s of this
        #: under heavy load, §7.3).
        self.encouragement_delay = encouragement_delay
        self.payment_timeout = payment_timeout
        self.max_contenders = max_contenders

        # The deployment can install a bounded price-book factory on the
        # network (rollup telemetry); None keeps the exact PriceBook.
        price_book_factory = getattr(network, "price_book_factory", None)
        self.prices = PriceBook() if price_book_factory is None else price_book_factory()
        self.stats = ThinnerStats()
        #: Shared hot-path instrumentation (same object the bench snapshots).
        self.counters = network.counters
        self._contenders: Dict[int, Contender] = {}
        self._owners: Dict[int, ClientProtocol] = {}
        #: Kinetic index over the contenders' bid trajectories; kept in sync
        #: by the ``_add_contender``/``_remove_contender`` pair and refreshed
        #: by payment-channel ``on_bid_change`` notifications and, once per
        #: rate flush, by the network's list of re-rated payment flows.
        self._bid_index = KineticBidIndex(
            self.counters,
            store=network.soa if getattr(network, "vectorized", False) else None,
        )
        network.add_rate_listener(self._payments_rerated)
        self._next_seq = 0
        self._server_idle = True
        #: Gray-failure admission stall (the ``stall`` fault): a stalled
        #: thinner keeps receiving requests and sinking payment bytes but
        #: declines every server-ready offer, so nothing is admitted.
        self.stalled = False

        server.on_request_done = self._request_done
        server.on_ready = self._on_server_ready

    # -- public API used by clients ------------------------------------------------

    def receive_request(self, request: Request, client: ClientProtocol) -> None:
        """A request has fully arrived at the thinner."""
        request.arrived_at = self.engine.now
        request.state = RequestState.CONTENDING
        self.stats.record_received(request)
        self._owners[request.request_id] = client
        self._handle_arrival(request, client)

    def register_payment(self, request: Request, channel: PaymentChannel) -> None:
        """The client opened a payment channel for ``request``."""
        contender = self._contenders.get(request.request_id)
        if contender is None:
            # The request won an auction (or was dropped) while the
            # registration was in flight; stop the channel immediately.
            channel.close()
            return
        contender.channel = channel
        # From here on the fluid allocator pushes every trajectory change
        # (rate re-shares, POST completions, quantum consumption) into the
        # bid index instead of auctions pulling n bids.
        channel.on_bid_change = self._channel_bid_changed
        self._bid_index.refresh(contender)

    @property
    def contending_count(self) -> int:
        """Number of requests currently contending."""
        return len(self._contenders)

    def contenders(self) -> list[Contender]:
        """The current contenders (a copy, in arrival order)."""
        return list(self._contenders.values())

    # -- hooks for subclasses ---------------------------------------------------------

    def _handle_arrival(self, request: Request, client: ClientProtocol) -> None:
        raise NotImplementedError

    def _server_ready(self) -> None:
        raise NotImplementedError

    # -- admission stall (gray failure) -------------------------------------------------

    def _on_server_ready(self) -> None:
        """Server-ready gate: a stalled thinner declines the offer.

        Crucially the stalled branch does *not* set ``_server_idle`` — the
        variants' free-admission fast path stays disabled, so arrivals keep
        contending (and paying) without anything being admitted.  In pooled
        mode the shared slot's round-robin simply moves on to the next
        shard, exactly as it does for a shard with nothing to offer.
        """
        if self.stalled:
            return
        self._server_ready()

    def set_stalled(self, stalled: bool) -> None:
        """Start or stop the ``stall`` gray failure."""
        if stalled == self.stalled:
            return
        self.stalled = stalled
        if stalled:
            # Close the free-admission window: the next arrival must contend.
            self._server_idle = False
        elif not self.server.busy:
            # Resume: take the offer we declined while stalled (if the slot
            # is still free; in pooled mode another shard may hold it).
            self._server_ready()

    # -- shared helpers -----------------------------------------------------------------

    def _add_contender(self, request: Request, client: ClientProtocol) -> Contender:
        contender = Contender(
            request=request, client=client, arrived_at=self.engine.now,
            seq=self._next_seq,
        )
        self._next_seq += 1
        self._contenders[request.request_id] = contender
        self._bid_index.add(contender, self.engine.now)
        if self.max_contenders is not None and len(self._contenders) > self.max_contenders:
            self._evict_one(exempt=request.request_id)
        return contender

    def _remove_contender(self, request_id: int) -> Optional[Contender]:
        """Take a contender out of both the contender map and the bid index."""
        contender = self._contenders.pop(request_id, None)
        if contender is not None:
            self._bid_index.remove(request_id)
        return contender

    def _reinsert_contender(self, contender: Contender) -> None:
        """Put a previously-removed contender back (quantum suspension).

        Note: re-insertion lands at the *end* of the contender map, so a
        variant that reinserts must not also rely on
        :meth:`_oldest_contender`'s insertion-order == arrival-order
        invariant (the quantum thinner never does).
        """
        self._contenders[contender.request.request_id] = contender
        self._bid_index.add(contender, self.engine.now)

    def _count_auction(self) -> None:
        """Record one winner-selection decision in both counter surfaces."""
        self.stats.auctions_held += 1
        self.counters.auctions_held += 1

    def _channel_bid_changed(self, channel: PaymentChannel) -> None:
        """A payment channel's bid trajectory changed: push a fresh index key."""
        contender = self._contenders.get(channel.request_id)
        if contender is not None and contender.channel is channel:
            self._bid_index.refresh(contender)

    def _payments_rerated(self, flows: list) -> None:
        """Rate listener: a flush re-rated these owned flows.

        Every flow's owner is a payment channel (the only owner the network
        ever sees); the ones registered here mark their contender dirty.
        """
        contenders = self._contenders
        refresh = self._bid_index.refresh
        for flow in flows:
            channel = flow.owner
            contender = contenders.get(channel.request_id)
            if contender is not None and contender.channel is channel:
                refresh(contender)

    # -- the selection contract ---------------------------------------------------------
    #
    # Every winner/eviction decision in the thinner family reduces to one of
    # these three queries.  The shared contract (unit-tested in
    # tests/test_bidindex.py):
    #
    # * ``_best_contender``  maximises ``(peek_bid(now), -arrived_at)`` — the
    #   highest bidder wins, earlier arrival wins ties, and among fully equal
    #   keys the earlier-inserted contender wins (matching the first-wins
    #   behaviour of the historical linear scans, whose ``best_key = (-1.0,
    #   0.0)`` sentinel is gone with them);
    # * ``_worst_contender`` minimises ``(bid, -arrived_at)`` — the eviction
    #   victim is the lowest payer, with the *latest* arrival evicted on ties;
    # * ``_oldest_contender`` is the FIFO head (arrival order == insertion
    #   order, so this is O(1) on the contender map).

    def _best_contender(self) -> Optional[Contender]:
        """The contender that has paid the most (ties broken by arrival order)."""
        return self._bid_index.best(self.engine.now)

    def _worst_contender(self, exempt: Optional[int] = None) -> Optional[Contender]:
        """The lowest-bidding contender, skipping request ``exempt``."""
        return self._bid_index.worst(self.engine.now, exempt)

    def _oldest_contender(self) -> Optional[Contender]:
        """The earliest-arrived contender still contending."""
        if not self._contenders:
            return None
        return next(iter(self._contenders.values()))

    def _evict_one(self, exempt: Optional[int] = None) -> None:
        """Drop the lowest-paying contender (connection-descriptor pressure, §6)."""
        victim = self._worst_contender(exempt)
        if victim is None:
            return
        self._drop(victim.request, "evicted")

    def _encourage(self, contender: Contender) -> None:
        """Tell the client to start paying (after propagation plus backlog delay)."""
        delay = (
            self.network.topology.one_way_delay(self.host, contender.client.host)
            + self.encouragement_delay
        )
        self.engine.schedule_after(delay, self._deliver_encouragement, contender)

    def _deliver_encouragement(self, contender: Contender) -> None:
        if contender.request.request_id not in self._contenders:
            return
        contender.encouraged = True
        contender.request.encouraged_at = self.engine.now
        contender.client.on_encouraged(contender.request)

    def _admit(self, contender: Contender, price_bytes: float, close_channel: bool = True) -> None:
        """Hand a contender's request to the server and charge it ``price_bytes``."""
        request = contender.request
        if close_channel and contender.channel is not None:
            total = contender.channel.close()
            request.bytes_paid = total
            self.stats.payment_bytes_sunk += total
        elif contender.channel is not None:
            request.bytes_paid = contender.channel.total_paid()
        request.price_paid = price_bytes
        self.prices.record(self.engine.now, price_bytes, request.client_class, request.request_id)
        if price_bytes == 0.0:
            self.stats.free_admissions += 1
        self._remove_contender(request.request_id)
        self.stats.requests_admitted += 1
        self._server_idle = False
        self.server.submit(request)

    def _pop_owner(self, request_id: int) -> Optional[ClientProtocol]:
        """Detach and return the client that owns ``request_id`` (if any).

        Part of the failover protocol: the fault injector uses it to notify
        the owner of an aborted in-slot request.  Proxy thinners (the
        adaptive engagement controller) override it to search their sides.
        """
        return self._owners.pop(request_id, None)

    def _drop(self, request: Request, reason: str) -> None:
        """Abandon a contending request and notify its client."""
        contender = self._remove_contender(request.request_id)
        if contender is not None and contender.channel is not None:
            paid = contender.channel.close()
            request.bytes_paid = paid
            self.stats.payment_bytes_sunk += paid
        request.state = RequestState.DROPPED
        request.drop_reason = reason
        self.stats.requests_dropped += 1
        client = self._owners.pop(request.request_id, None)
        if client is not None:
            delay = self.network.topology.one_way_delay(self.host, client.host)
            self.engine.schedule_after(delay, client.on_dropped, request, reason)

    def _request_done(self, request: Request) -> None:
        """The server finished a request: return the response to its owner."""
        self.stats.record_served(request)
        client = self._owners.pop(request.request_id, None)
        if client is None:  # pragma: no cover - defensive
            return
        response = Response(request=request, produced_at=self.engine.now)
        delay = self.network.topology.one_way_delay(self.host, client.host)
        self.engine.schedule_after(delay, client.on_response, request, response)
