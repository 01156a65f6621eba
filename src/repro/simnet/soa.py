"""Struct-of-arrays state store backing the fluid core.

The per-object Python cost of the simulator's hot loops — one ``Flow``,
``Link`` and ``PaymentChannel`` touched one attribute at a time — is what is
left between the dirty-set allocator (PR 2) and the ROADMAP's 100k+ events/s
target.  This module moves the hot *state* out of the objects and into
preallocated, growable numpy arrays indexed by dense integer ids:

* **flows** — rate, delivered bytes, last integration time, static bound,
  rate cap (``inf`` encodes "uncapped"), size (``inf`` encodes unbounded),
  the completion-calendar entry (ETA and engine sequence number, see
  :class:`~repro.simnet.network.FluidNetwork`), the path as a padded row of
  link ids, and the ``Flow`` object itself;
* **links** — capacity and potential load (entry-group sums stay in a small
  per-link dict keyed by the entry's dense id: they are sparse per
  *(link, entry)* pair and never read by a vectorized pass, only the
  potential they roll up into is);
* **payment channels** — committed and consumed bytes plus the id of the
  in-flight POST's flow, which is what lets the kinetic bid index re-key a
  whole batch of dirty channels in one vectorized pass
  (:meth:`SoAStore.bid_trajectories`).

The objects stay the public API: ``Flow``/``Link``/``PaymentChannel`` become
thin views whose properties read and write the arrays (falling back to
scalar slots while detached, and freezing the final values back into those
slots when their row is released, so completed flows stay readable forever).

Coherence rules (documented once, relied on everywhere):

* a row is live between ``acquire``/``register`` and ``release``; vectorized
  passes only ever gather rows reachable from live objects, so released rows
  may hold stale garbage;
* arrays grow by doubling and are **rebound** (``self.f_rate = bigger``), so
  hot loops must re-fetch array attributes after any call that can acquire a
  row, and views must always index through the store attribute rather than
  caching the ndarray;
* every scalar handed back to Python code is boxed with ``.item()`` /
  ``.tolist()`` so ``numpy.float64`` never leaks into JSON-serialised
  results or event payloads.

Bit-exactness: all element-wise kernels here mirror the scalar code
operation for operation (same order of multiplies, divides and ``min``),
which keeps the vectorized paths bit-identical to the object paths — the
regression gate for this refactor.  The only reductions used are exact ones:
``np.subtract.at`` (repeated subtraction of one scalar, order-free),
first-occurrence ``argmin`` (identical to a strict ``<`` scan), and
``bincount`` of 0/1 weights (exact small-integer sums).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simnet.bandwidth import RATE_EPSILON

_INF = float("inf")

#: Initial row capacities; doubled on demand.
_FLOW_SEED = 1024
_LINK_SEED = 256
_CHANNEL_SEED = 1024
#: Initial padded path width (links per flow); grown if a longer path shows up.
_PATH_SEED = 4


class SoAStore:
    """Dense-id arrays for flows, links and payment channels.

    One store per :class:`~repro.simnet.network.FluidNetwork`; links are
    (re-)registered when a network takes over a topology, flows acquire and
    release rows as they attach and detach, channels register once and keep
    their row for the run (their state is three scalars — recycling would
    buy nothing and cost a freeze-back on every close).
    """

    __slots__ = (
        "f_rate",
        "f_delivered",
        "f_last",
        "f_bound",
        "f_cap",
        "f_size",
        "f_eta",
        "f_eseq",
        "f_path",
        "f_plen",
        "f_views",
        "_flow_cap",
        "_flow_top",
        "_flow_free",
        "_path_width",
        "l_cap",
        "l_pot",
        "l_views",
        "c_committed",
        "c_consumed",
        "c_flow",
        "_chan_top",
        "_chan_cap",
        "fm_rate",
        "fm_delivered",
        "fm_last",
        "fm_bound",
        "fm_cap",
        "fm_size",
        "fm_eta",
        "fm_eseq",
        "lm_pot",
        "cm_committed",
        "cm_consumed",
        "cm_flow",
    )

    def __init__(self) -> None:
        self._flow_cap = _FLOW_SEED
        self._flow_top = 0
        self._flow_free: List[int] = []
        self._path_width = _PATH_SEED
        self.f_rate = np.zeros(_FLOW_SEED)
        self.f_delivered = np.zeros(_FLOW_SEED)
        self.f_last = np.zeros(_FLOW_SEED)
        self.f_bound = np.zeros(_FLOW_SEED)
        self.f_cap = np.zeros(_FLOW_SEED)
        self.f_size = np.zeros(_FLOW_SEED)
        #: Completion calendar: a flow's ETA (``inf`` = no entry) and the
        #: engine sequence number reserved for it (``-1`` = never armed since
        #: the flow's rate last changed; an entry that fired keeps its number).
        self.f_eta = np.full(_FLOW_SEED, _INF)
        self.f_eseq = np.full(_FLOW_SEED, -1, dtype=np.int64)
        self.f_path = np.full((_FLOW_SEED, _PATH_SEED), -1, dtype=np.int64)
        self.f_plen = np.zeros(_FLOW_SEED, dtype=np.int64)
        #: The ``Flow`` holding each live row (``None`` once released).
        self.f_views: List[object] = [None] * _FLOW_SEED

        self.l_cap = np.zeros(_LINK_SEED)
        self.l_pot = np.zeros(_LINK_SEED)
        self.l_views: List[object] = []

        self._chan_cap = _CHANNEL_SEED
        self._chan_top = 0
        self.c_committed = np.zeros(_CHANNEL_SEED)
        self.c_consumed = np.zeros(_CHANNEL_SEED)
        self.c_flow = np.full(_CHANNEL_SEED, -1, dtype=np.int64)
        self._refresh_views()

    def _refresh_views(self) -> None:
        """Rebuild the scalar-access memoryviews after any array rebind.

        Single-element reads through a memoryview return plain Python
        scalars roughly twice as fast as ``ndarray.item()``, and writes are
        in-place on the same buffer — so the object views and the scalar
        hot paths go through these, while vectorized kernels use the
        ndarrays directly.  Anyone holding one of these across a call that
        can grow the store must re-fetch it (same rule as the ndarrays).
        """
        self.fm_rate = memoryview(self.f_rate)
        self.fm_delivered = memoryview(self.f_delivered)
        self.fm_last = memoryview(self.f_last)
        self.fm_bound = memoryview(self.f_bound)
        self.fm_cap = memoryview(self.f_cap)
        self.fm_size = memoryview(self.f_size)
        self.fm_eta = memoryview(self.f_eta)
        self.fm_eseq = memoryview(self.f_eseq)
        self.lm_pot = memoryview(self.l_pot)
        self.cm_committed = memoryview(self.c_committed)
        self.cm_consumed = memoryview(self.c_consumed)
        self.cm_flow = memoryview(self.c_flow)

    # -- links -----------------------------------------------------------------

    @property
    def link_count(self) -> int:
        return len(self.l_views)

    def register_link(self, link) -> int:
        """Assign ``link`` a dense id, mirror its capacity, zero its load."""
        lid = len(self.l_views)
        if lid >= self.l_cap.shape[0]:
            self.l_cap = np.concatenate([self.l_cap, np.zeros(self.l_cap.shape[0])])
            self.l_pot = np.concatenate([self.l_pot, np.zeros(self.l_pot.shape[0])])
            self._refresh_views()
        self.l_views.append(link)
        self.l_cap[lid] = link.capacity_bps
        self.l_pot[lid] = 0.0
        link._lid = lid
        link._soa = self
        return lid

    # -- flows -----------------------------------------------------------------

    def _grow_flows(self) -> None:
        old = self._flow_cap
        new = old * 2
        self.f_rate = np.concatenate([self.f_rate, np.zeros(old)])
        self.f_delivered = np.concatenate([self.f_delivered, np.zeros(old)])
        self.f_last = np.concatenate([self.f_last, np.zeros(old)])
        self.f_bound = np.concatenate([self.f_bound, np.zeros(old)])
        self.f_cap = np.concatenate([self.f_cap, np.zeros(old)])
        self.f_size = np.concatenate([self.f_size, np.zeros(old)])
        self.f_eta = np.concatenate([self.f_eta, np.full(old, _INF)])
        self.f_eseq = np.concatenate([self.f_eseq, np.full(old, -1, dtype=np.int64)])
        self.f_path = np.concatenate(
            [self.f_path, np.full((old, self._path_width), -1, dtype=np.int64)]
        )
        self.f_plen = np.concatenate([self.f_plen, np.zeros(old, dtype=np.int64)])
        self.f_views.extend([None] * old)
        self._flow_cap = new
        self._refresh_views()

    def _grow_path_width(self, width: int) -> None:
        new_width = max(width, self._path_width * 2)
        wider = np.full((self._flow_cap, new_width), -1, dtype=np.int64)
        wider[:, : self._path_width] = self.f_path
        self.f_path = wider
        self._path_width = new_width

    def acquire_flow(self, flow, lids: Sequence[int]) -> int:
        """Give ``flow`` a live row initialised from its scalar slots."""
        free = self._flow_free
        if free:
            fid = free.pop()
        else:
            fid = self._flow_top
            if fid >= self._flow_cap:
                self._grow_flows()
            self._flow_top = fid + 1
        n = len(lids)
        if n > self._path_width:
            self._grow_path_width(n)
        self.fm_rate[fid] = flow._srate
        self.fm_delivered[fid] = flow._sdelivered
        self.fm_last[fid] = flow._slast
        self.fm_bound[fid] = flow._sbound
        cap = flow._scap
        self.fm_cap[fid] = _INF if cap is None else cap
        size = flow.size_bytes
        self.fm_size[fid] = _INF if size is None else size
        row = self.f_path[fid]
        row[:n] = lids
        row[n:] = -1
        self.f_plen[fid] = n
        self.f_views[fid] = flow
        flow._fid = fid
        return fid

    def release_flow(self, flow) -> None:
        """Freeze the row's final values back into ``flow`` and free the row."""
        fid = flow._fid
        flow._srate = self.fm_rate[fid]
        flow._sdelivered = self.fm_delivered[fid]
        flow._slast = self.fm_last[fid]
        flow._sbound = self.fm_bound[fid]
        cap = self.fm_cap[fid]
        flow._scap = None if cap == _INF else cap
        flow._fid = -1
        # A free row holds no calendar entry, so a scan over every row below
        # the high-water mark sees only live entries.
        self.fm_eta[fid] = _INF
        self.fm_eseq[fid] = -1
        self.f_views[fid] = None
        self._flow_free.append(fid)

    def calendar_head(self) -> Tuple[float, int, int]:
        """The earliest completion-calendar entry as ``(eta, seq, fid)``.

        Entries compare by ``(eta, seq)``, like engine events; an empty
        calendar gives ``(inf, -1, -1)``.
        """
        etas = self.f_eta[: self._flow_top]
        if etas.size:
            fid = int(etas.argmin())
            eta = etas[fid].item()
            if eta != _INF:
                ties = np.flatnonzero(etas == eta)
                if ties.size > 1:
                    fid = int(ties[self.f_eseq[ties].argmin()])
                return eta, self.fm_eseq[fid], fid
        return _INF, -1, -1

    # -- payment channels -------------------------------------------------------

    def register_channel(self) -> int:
        cid = self._chan_top
        if cid >= self._chan_cap:
            old = self._chan_cap
            self.c_committed = np.concatenate([self.c_committed, np.zeros(old)])
            self.c_consumed = np.concatenate([self.c_consumed, np.zeros(old)])
            self.c_flow = np.concatenate([self.c_flow, np.full(old, -1, dtype=np.int64)])
            self._chan_cap = old * 2
            self._refresh_views()
        self._chan_top = cid + 1
        return cid

    def bid_trajectories(
        self, cids: Sequence[int], now: float
    ) -> Tuple[List[float], List[float]]:
        """Vectorized ``(intercept, slope)`` for a batch of channel ids.

        ``-1`` entries (contenders with no channel) yield ``(0.0, 0.0)``.
        Mirrors :meth:`PaymentChannel.peek_balance` +
        ``payment_rate_bps()/8`` + the index's ``base - slope*now`` keying,
        operation for operation, so each element is bit-identical to the
        scalar computation.  Returns plain Python floats.
        """
        carr = np.asarray(cids, dtype=np.int64)
        has_chan = carr >= 0
        cs = np.where(has_chan, carr, 0)
        fids = self.c_flow[cs]
        has_flow = has_chan & (fids >= 0)
        fs = np.where(has_flow, fids, 0)
        rate = self.f_rate[fs]
        dt = now - self.f_last[fs]
        delivered = self.f_delivered[fs]
        live = has_flow & (dt > 0) & (rate > 0)
        extra = np.where(live, rate * dt / 8.0, 0.0)
        clipped = np.minimum(extra, self.f_size[fs] - delivered)
        extra = np.where(live, clipped, 0.0)
        in_flight = np.where(has_flow, delivered + extra, 0.0)
        base = (self.c_committed[cs] + in_flight) - self.c_consumed[cs]
        base = np.where(has_chan, base, 0.0)
        slope = np.where(has_flow, rate, 0.0) / 8.0
        intercepts = base - slope * now
        return intercepts.tolist(), slope.tolist()


def waterfill_arrays(
    caps: np.ndarray,
    remaining: np.ndarray,
    unfrozen_on: np.ndarray,
    csr_idx: np.ndarray,
    row_counts: np.ndarray,
) -> np.ndarray:
    """Vectorized progressive filling — bit-identical to ``waterfill_lists``.

    ``caps`` is the per-flow effective ceiling, ``remaining`` the per-link
    capacities (consumed in place), ``unfrozen_on`` the per-link unfrozen
    crossing counts (consumed in place), and ``csr_idx``/``row_counts`` the
    flows' crossed-link lists in CSR form (indices local to ``remaining``).

    Each round mirrors the scalar loop exactly: first-occurrence ``argmin``
    matches the strict ``<`` scans, per-crossing ``np.subtract.at`` matches
    the per-flow repeated subtraction of one increment, and the freeze tests
    use the same epsilon comparisons in the same order.
    """
    n = caps.shape[0]
    rates = np.zeros(n)
    frozen = np.zeros(n, dtype=bool)
    row_ids = np.repeat(np.arange(n), row_counts)
    unfrozen_count = n
    current_level = 0.0
    while unfrozen_count > 0:
        if remaining.shape[0]:
            active = unfrozen_on > 0
            levels = np.where(
                active,
                current_level + remaining / np.where(active, unfrozen_on, 1),
                np.inf,
            )
            binding_link = int(np.argmin(levels))
            link_level = float(levels[binding_link])
            if link_level == _INF:
                binding_link = None
        else:
            binding_link = None
            link_level = _INF
        flow_caps = np.where(frozen, np.inf, caps)
        binding_flow = int(np.argmin(flow_caps))
        cap_level = float(flow_caps[binding_flow])

        if cap_level < link_level:
            best_level = cap_level
            binding_link = None
        else:
            best_level = link_level
            binding_flow = None

        if best_level == _INF:
            unf = ~frozen
            rates[unf] = caps[unf]
            break

        increment = best_level - current_level
        if increment < 0.0:
            increment = 0.0
        if increment > 0:
            unf = ~frozen
            rates[unf] += increment
            sel = unf[row_ids]
            np.subtract.at(remaining, csr_idx[sel], increment)
        current_level = best_level

        unf = ~frozen
        cap_hit = unf & (rates >= caps - RATE_EPSILON)
        saturated = remaining <= RATE_EPSILON
        if saturated.any():
            crossing_sat = (
                np.bincount(row_ids, weights=saturated[csr_idx], minlength=n) > 0
            )
            newly = cap_hit | (unf & crossing_sat)
        else:
            newly = cap_hit
        if not newly.any():
            # Same float-residue fallback as the scalar loop: freeze exactly
            # what the binding constraint limits.
            if binding_flow is not None:
                newly = np.zeros(n, dtype=bool)
                newly[binding_flow] = True
            elif binding_link is not None:
                crossing = (
                    np.bincount(
                        row_ids, weights=(csr_idx == binding_link), minlength=n
                    )
                    > 0
                )
                newly = unf & crossing
            else:  # pragma: no cover - defensive termination
                newly = unf
        frozen |= newly
        unfrozen_count -= int(newly.sum())
        dropped = newly[row_ids]
        np.subtract.at(unfrozen_on, csr_idx[dropped], 1)

    rates[rates < RATE_EPSILON] = 0.0
    return rates
