"""Outside-in per-layer tracing for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :meth:`LayerTracer.install`
replaces each layer's entry points — methods on the classes, or a function
name in the module where the caller looks it up — with a timing wrapper,
*before* the scenario is built, so every bound method captured during the
build (flow callbacks, server hooks, flush callbacks) is already the wrapped
one.  Engine-fired events are attributed by wrapping ``Engine.schedule_at``
and ``Engine.schedule_after``: the scheduled callback is routed through a
per-layer dispatcher chosen from the module of the object that owns the
callback.

Spans nest on one stack.  A span's *self time* is its duration minus the
time its child spans cover, so the self times of every span opened inside
the root interval sum to the root's duration minus the root's own self time
(the share of the run no span covers, reported as
``trace.unattributed_share``).  Spans are aggregated per layer as they close
— keeping millions of individual spans would cost more memory than the
simulation itself.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Tuple

#: Layer names in report order.  ``run`` is the root interval the benchmark
#: opens itself (``Deployment.run``, or ``SweepRunner.run`` on paper-fig2);
#: its self time is the unattributed remainder.
LAYERS = (
    "run",
    "scenarios.build",
    "engine",
    "network.flush",
    "network.waterfill",
    "network.flow_api",
    "network.events",
    "admission.bidindex",
    "admission.thinner",
    "admission.payment",
    "clients.start",
    "clients.handler",
    "server.handler",
    "collector.record",
    "collector.results",
    "gc",
)

#: Owner module prefix -> layer of an engine-fired event, most specific
#: first; the first match wins.  Events owned by anything else (fault
#: injectors) stay in the engine's self time.
EVENT_LAYERS = (
    ("repro.simnet.engine", "engine"),
    ("repro.simnet", "network.events"),
    ("repro.core.payment", "admission.payment"),
    ("repro.core", "admission.thinner"),
    ("repro.defenses", "admission.thinner"),
    ("repro.clients", "clients.handler"),
    ("repro.httpd", "server.handler"),
    ("repro.telemetry", "collector.record"),
    ("repro.metrics", "collector.record"),
)


def _call(callback, *args, **kwargs):
    return callback(*args, **kwargs)


class LayerTracer:
    """Per-layer self time and call counts, fed by wrapped entry points."""

    def __init__(self) -> None:
        #: layer -> [self seconds, calls]
        self.totals: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
        #: Child-time accumulators of the open spans, innermost last; the
        #: bottom slot collects time spent by top-level spans.
        self._stack: List[float] = [0.0]
        self.waterfill_flows = 0
        self._gc_start = 0.0
        self._patches: List[Tuple[object, str, object]] = []
        #: Owner type (or a plain function's module) -> event dispatcher.
        self._event_layer_by_type: Dict[object, Callable] = {}
        self._dispatchers = {
            layer: self.wrap(layer, _call) for layer in set(dict(EVENT_LAYERS).values())
        }

    # -- spans --------------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        stack = self._stack
        totals = self.totals[layer]
        clock = time.perf_counter

        # No container is allocated between reading the clock and pushing
        # the child accumulator, or between popping it and reading the
        # clock again, so a garbage collection (timed by ``_gc_phase``)
        # always falls inside exactly one span.
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                child = stack.pop()
                elapsed = clock() - start
                totals[0] += elapsed - child
                totals[1] += 1
                stack[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _gc_phase(self, phase: str, info) -> None:
        """``gc.callbacks`` hook: each collection is a span of layer ``gc``."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_start
        totals = self.totals["gc"]
        totals[0] += elapsed
        totals[1] += 1
        self._stack[-1] += elapsed

    def reset(self) -> None:
        """Zero every layer (spans outside the traced interval are dropped)."""
        for totals in self.totals.values():
            totals[0] = 0.0
            totals[1] = 0
        self.waterfill_flows = 0

    def snapshot(self) -> Dict[str, List[float]]:
        """A copy of the per-layer ``[self seconds, calls]`` totals, plus the
        flows handed to waterfill as ``network.waterfill_flows``."""
        totals = {layer: list(totals) for layer, totals in self.totals.items()}
        totals["network.waterfill_flows"] = [self.waterfill_flows, 0]
        return totals

    # -- installation ---------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap_methods(self, cls, layer: str, names) -> None:
        """Wrap ``names`` on ``cls`` and on every subclass that overrides them."""
        classes = [cls]
        index = 0
        while index < len(classes):
            classes.extend(classes[index].__subclasses__())
            index += 1
        for klass in classes:
            for name in names:
                if name in klass.__dict__:
                    self._patch(klass, name, self.wrap(layer, klass.__dict__[name]))

    def _event_dispatcher(self, callback):
        owner = getattr(callback, "__self__", None)
        module = type(owner).__module__ if owner is not None else getattr(
            callback, "__module__", ""
        ) or ""
        for prefix, layer in EVENT_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return self._dispatchers[layer]
        return None

    def install(self) -> None:
        """Wrap every layer's entry points (call before building the scenario)."""
        # Imported here so that importing this module does not import the
        # simulator (the harness checks the checkout before it does).
        import repro.defenses  # noqa: F401  (registers every thinner subclass)
        import repro.simnet.network as network_module
        from repro.clients.base import BaseClient
        from repro.core.bidindex import KineticBidIndex
        from repro.core.payment import PaymentChannel
        from repro.core.thinner import ThinnerBase
        from repro.httpd.server import EmulatedServer
        from repro.simnet.engine import Engine
        from repro.simnet.network import FluidNetwork
        from repro.telemetry.collector import TelemetryCollector

        gc.callbacks.append(self._gc_phase)
        self._patch(Engine, "run", self.wrap("engine", Engine.run))

        by_type = self._event_layer_by_type
        dispatcher_for = self._event_dispatcher

        def route(callback):
            owner = getattr(callback, "__self__", None)
            key = type(owner) if owner is not None else getattr(callback, "__module__", None)
            try:
                return by_type[key]
            except KeyError:
                by_type[key] = dispatcher = dispatcher_for(callback)
                return dispatcher

        schedule_at = Engine.schedule_at
        schedule_after = Engine.schedule_after

        def traced_schedule_at(engine, time_s, callback, *args, **kwargs):
            dispatcher = route(callback)
            if dispatcher is None:
                return schedule_at(engine, time_s, callback, *args, **kwargs)
            return schedule_at(engine, time_s, dispatcher, callback, *args, **kwargs)

        def traced_schedule_after(engine, delay, callback, *args, **kwargs):
            dispatcher = route(callback)
            if dispatcher is None:
                return schedule_after(engine, delay, callback, *args, **kwargs)
            return schedule_after(engine, delay, dispatcher, callback, *args, **kwargs)

        self._patch(Engine, "schedule_at", traced_schedule_at)
        self._patch(Engine, "schedule_after", traced_schedule_after)

        add_flush_callback = Engine.add_flush_callback

        def traced_add_flush_callback(engine, callback):
            return add_flush_callback(engine, self.wrap("network.flush", callback))

        self._patch(Engine, "add_flush_callback", traced_add_flush_callback)

        def counting(fn):
            traced = self.wrap("network.waterfill", fn)

            def waterfill(caps, *args, **kwargs):
                self.waterfill_flows += len(caps)
                return traced(caps, *args, **kwargs)

            return waterfill

        # The network module imported both kernels by name; wrap them where
        # the allocator looks them up.
        self._patch(network_module, "waterfill_lists", counting(network_module.waterfill_lists))
        self._patch(network_module, "waterfill_arrays", counting(network_module.waterfill_arrays))

        self._wrap_methods(
            FluidNetwork, "network.flow_api", ("start_flow", "stop_flow", "set_rate_cap", "send")
        )
        self._wrap_methods(
            KineticBidIndex, "admission.bidindex", ("add", "remove", "refresh", "best", "worst")
        )
        self._wrap_methods(
            ThinnerBase,
            "admission.thinner",
            (
                "receive_request",
                "register_payment",
                "set_stalled",
                "_on_server_ready",
                "_request_done",
            ),
        )
        self._wrap_methods(
            PaymentChannel,
            "admission.payment",
            ("open", "close", "consume", "total_paid", "balance", "_rate_changed", "_post_done"),
        )
        self._wrap_methods(BaseClient, "clients.start", ("start",))
        self._wrap_methods(
            BaseClient,
            "clients.handler",
            ("on_encouraged", "on_response", "on_dropped", "_request_delivered"),
        )
        self._wrap_methods(
            EmulatedServer, "server.handler", ("submit", "resume", "suspend", "abort")
        )
        self._wrap_methods(TelemetryCollector, "collector.record", ("record_served",))

    def install_scenario_layers(self, deployments: List) -> None:
        """Wrap the build and results entry points, which run inside the
        traced interval on paper-fig2, appending each built deployment to
        ``deployments`` so its engine and network counters can be read."""
        from repro.core.frontend import Deployment
        from repro.scenarios.spec import ScenarioSpec

        traced_build = self.wrap("scenarios.build", ScenarioSpec.build)

        def build(spec):
            deployment = traced_build(spec)
            deployments.append(deployment)
            return deployment

        self._patch(ScenarioSpec, "build", build)
        self._wrap_methods(Deployment, "collector.results", ("results",))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        if self._gc_phase in gc.callbacks:
            gc.callbacks.remove(self._gc_phase)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def root(self, fn: Callable) -> Callable:
        """``fn`` as the root span whose self time is the unattributed remainder."""
        return self.wrap("run", fn)
