"""Payment channels: congestion-controlled streams of dummy bytes.

§3.3/§6: when the server is overloaded the thinner makes the client open a
separate payment channel on which it sends a series of large HTTP POSTs
(1 MByte each in the prototype).  The thinner tracks how many bytes each
contending client has delivered; the auction compares those counters.

Two transport artefacts matter to the evaluation and are modelled here:

* each POST begins in TCP slow start (delegated to
  :class:`repro.simnet.tcp.SlowStartRamp`), and
* between consecutive POSTs the channel is quiescent for two RTTs while the
  browser learns it must keep paying (§3.4).

A channel's numeric state (committed and consumed bytes, plus the id of the
in-flight POST's flow) lives in the network's struct-of-arrays store — see
:class:`repro.simnet.soa.SoAStore` — so the kinetic bid index can recompute
a whole batch of dirty bid trajectories in one vectorized pass.  The
``_committed_bytes``/``_consumed_bytes`` attributes remain available as
properties over the channel's row.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.constants import DEFAULT_POST_BYTES, POST_QUIESCENT_RTTS
from repro.errors import PaymentError
from repro.simnet.engine import Event
from repro.simnet.flow import Flow
from repro.simnet.host import Host
from repro.simnet.network import FluidNetwork
from repro.simnet.tcp import SlowStartRamp


class PaymentChannelState(enum.Enum):
    """Lifecycle of a payment channel."""

    CREATED = "created"
    PAYING = "paying"
    CLOSED = "closed"


class PaymentChannel:
    """A stream of dummy-byte POSTs from one client for one request.

    The channel exposes two views of its payment:

    * :meth:`total_paid` — everything ever delivered (used for byte-cost
      metrics, Figure 5);
    * :meth:`balance` — delivered minus consumed (used by the quantum
      auction of §5, which zeroes a request's balance whenever it wins a
      quantum).

    For the flat auction of §3.3 the two coincide because nothing is ever
    consumed before the channel is closed.
    """

    __slots__ = (
        "network",
        "engine",
        "client_host",
        "thinner_host",
        "request_id",
        "post_bytes",
        "slow_start",
        "quiescent_rtts",
        "on_post_complete",
        "state",
        "posts_completed",
        "opened_at",
        "closed_at",
        "on_bid_change",
        "_flow",
        "_gap_event",
        "_rtt",
        "_cid",
        "_soa",
    )

    def __init__(
        self,
        network: FluidNetwork,
        client_host: Host,
        thinner_host: Host,
        request_id: int,
        post_bytes: float = DEFAULT_POST_BYTES,
        slow_start: Optional[SlowStartRamp] = None,
        quiescent_rtts: float = POST_QUIESCENT_RTTS,
        on_post_complete: Optional[Callable[["PaymentChannel", int], None]] = None,
    ) -> None:
        if post_bytes <= 0:
            raise PaymentError(f"post_bytes must be positive, got {post_bytes}")
        if quiescent_rtts < 0:
            raise PaymentError("quiescent_rtts must be non-negative")
        self.network = network
        self.engine = network.engine
        self.client_host = client_host
        self.thinner_host = thinner_host
        self.request_id = request_id
        self.post_bytes = post_bytes
        self.slow_start = slow_start
        self.quiescent_rtts = quiescent_rtts
        self.on_post_complete = on_post_complete

        self.state = PaymentChannelState.CREATED
        self.posts_completed = 0
        self.opened_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        #: Fired whenever the channel changes its own bid *trajectory* — a
        #: POST completes (slope drops to zero for the quiescent gap), a
        #: quantum win consumes the balance, or the channel closes.  The
        #: thinner wires this to its kinetic bid index (push-refresh), so
        #: auctions never have to pull every contender's bid.  Re-rates of
        #: the in-flight POST (whose ``owner`` is this channel) reach the
        #: thinner in bulk, through the network's rate listeners.
        self.on_bid_change: Optional[Callable[["PaymentChannel"], None]] = None

        self._soa = network.soa
        self._cid = self._soa.register_channel()
        self._flow: Optional[Flow] = None
        self._gap_event: Optional[Event] = None
        self._rtt = network.rtt(client_host, thinner_host)

    # -- array-backed state -------------------------------------------------------

    @property
    def _committed_bytes(self) -> float:
        return self._soa.cm_committed[self._cid]

    @_committed_bytes.setter
    def _committed_bytes(self, value: float) -> None:
        self._soa.cm_committed[self._cid] = value

    @property
    def _consumed_bytes(self) -> float:
        return self._soa.cm_consumed[self._cid]

    @_consumed_bytes.setter
    def _consumed_bytes(self, value: float) -> None:
        self._soa.cm_consumed[self._cid] = value

    # -- lifecycle ---------------------------------------------------------------

    def open(self) -> None:
        """Start paying (first POST begins immediately)."""
        if self.state != PaymentChannelState.CREATED:
            raise PaymentError(f"channel for request {self.request_id} already {self.state.value}")
        self.state = PaymentChannelState.PAYING
        self.opened_at = self.engine.now
        self._start_post()

    def close(self) -> float:
        """Stop paying (e.g. the request won the auction).  Returns total bytes paid."""
        if self.state == PaymentChannelState.CLOSED:
            return self.total_paid()
        if self._gap_event is not None:
            self._gap_event.cancel()
            self._gap_event = None
        if self._flow is not None:
            delivered = self.network.stop_flow(self._flow)
            soa = self._soa
            soa.cm_committed[self._cid] += delivered
            soa.cm_flow[self._cid] = -1
            self._flow = None
        self.state = PaymentChannelState.CLOSED
        self.closed_at = self.engine.now
        self._notify_bid_change()
        return self.total_paid()

    @property
    def is_open(self) -> bool:
        """True while the channel may still deliver bytes."""
        return self.state == PaymentChannelState.PAYING

    # -- payment accounting -------------------------------------------------------

    def total_paid(self, sync: bool = True) -> float:
        """Every byte this channel has delivered to the thinner so far."""
        in_flight = 0.0
        if self._flow is not None:
            if sync:
                in_flight = self.network.delivered_bytes(self._flow)
            else:
                in_flight = self._flow.delivered_bytes
        return self._committed_bytes + in_flight

    def balance(self, sync: bool = True) -> float:
        """Delivered bytes not yet consumed by a won quantum (the current bid)."""
        return self.total_paid(sync=sync) - self._consumed_bytes

    def peek_balance(self, now: float) -> float:
        """The current bid, computed read-only (no flow-state mutation).

        Exact under the piecewise-constant rate model; used on the auction
        hot path where thousands of contenders are compared per second.
        """
        soa = self._soa
        cid = self._cid
        in_flight = 0.0
        fid = soa.cm_flow[cid]
        if fid >= 0:
            delivered = soa.fm_delivered[fid]
            in_flight = delivered
            rate = soa.fm_rate[fid]
            dt = now - soa.fm_last[fid]
            if dt > 0 and rate > 0:
                extra = rate * dt / 8.0
                # f_size encodes "unbounded" as inf, so min() is always safe.
                extra = min(extra, soa.fm_size[fid] - delivered)
                in_flight += extra
        return soa.cm_committed[cid] + in_flight - soa.cm_consumed[cid]

    def consume(self) -> float:
        """Zero the current bid (quantum auction, §5) and return what it was."""
        amount = self.balance()
        self._soa.cm_consumed[self._cid] += amount
        self._notify_bid_change()
        return amount

    def payment_rate_bps(self) -> float:
        """Instantaneous delivery rate of the in-flight POST (0 when quiescent)."""
        if self._flow is None:
            return 0.0
        return self._flow.rate_bps

    # -- POST machinery ---------------------------------------------------------------

    def _notify_bid_change(self) -> None:
        if self.on_bid_change is not None:
            self.on_bid_change(self)

    def _start_post(self) -> None:
        if self.state != PaymentChannelState.PAYING:
            return
        self._gap_event = None
        flow = self.network.send(
            self.client_host,
            self.thinner_host,
            size_bytes=self.post_bytes,
            label=f"payment:{self.request_id}",
            on_complete=self._post_done,
        )
        flow.owner = self
        self._flow = flow
        self._soa.cm_flow[self._cid] = flow._fid
        if self.slow_start is not None:
            self.slow_start.attach(flow, self._rtt)
        # No bid-change notification here: the new POST starts at rate zero
        # until the deferred flush assigns it a share, so the trajectory
        # (value and zero slope) is unchanged until that flush re-rates it.

    def _post_done(self, flow: Flow) -> None:
        if flow is not self._flow:  # pragma: no cover - defensive
            return
        soa = self._soa
        soa.cm_committed[self._cid] += flow.delivered_bytes
        soa.cm_flow[self._cid] = -1
        self._flow = None
        self.posts_completed += 1
        self._notify_bid_change()
        if self.on_post_complete is not None:
            self.on_post_complete(self, self.posts_completed)
        if self.state != PaymentChannelState.PAYING:
            return
        gap = self.quiescent_rtts * self._rtt
        if gap > 0:
            self._gap_event = self.engine.schedule_after(gap, self._start_post)
        else:
            self._start_post()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaymentChannel(request={self.request_id} {self.state.value} "
            f"paid={self.total_paid(sync=False):.0f}B posts={self.posts_completed})"
        )
