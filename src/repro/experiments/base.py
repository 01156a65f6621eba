"""Shared experiment machinery: scaling, scenario construction, running.

The paper's experiments run 50 clients for 600 seconds on Emulab.  A pure
Python simulation reproduces the same *proportions* at smaller scale, so the
harness is parameterised by an :class:`ExperimentScale`:

* ``ExperimentScale.test()`` — a few clients, a few seconds; used by tests;
* ``ExperimentScale.default()`` — half the paper's client count, 60 seconds;
  used by the benchmark harness (override with the ``REPRO_BENCH_DURATION``
  and ``REPRO_BENCH_CLIENT_SCALE`` environment variables);
* ``ExperimentScale.paper()`` — the full 50 clients / 600 seconds.

Client counts and the server capacity are scaled together, which keeps every
ratio the paper cares about (demand vs. capacity, G vs. B) unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.constants import (
    BAD_CLIENT_RATE,
    BAD_CLIENT_WINDOW,
    DEFAULT_CLIENT_BANDWIDTH,
    GOOD_CLIENT_RATE,
    GOOD_CLIENT_WINDOW,
    PAPER_EXPERIMENT_DURATION,
)
from repro.errors import ExperimentError
from repro.metrics.collector import RunResult
from repro.scenarios.spec import GroupSpec, ScenarioSpec, TopologySpec, freeze_overrides
from repro.scenarios.runner import Sweep, SweepRunner

#: Environment variables the benchmark harness reads.
ENV_DURATION = "REPRO_BENCH_DURATION"
ENV_CLIENT_SCALE = "REPRO_BENCH_CLIENT_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """How big a run to perform relative to the paper's setup."""

    duration: float = 60.0
    client_scale: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("duration", "client_scale"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ExperimentError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def test(cls, seed: int = 0) -> "ExperimentScale":
        """Tiny runs for the unit/integration test suite."""
        return cls(duration=12.0, client_scale=0.2, seed=seed)

    @classmethod
    def default(cls, seed: int = 0) -> "ExperimentScale":
        """The benchmark default (overridable through the environment)."""
        duration = float(os.environ.get(ENV_DURATION, 60.0))
        client_scale = float(os.environ.get(ENV_CLIENT_SCALE, 0.5))
        return cls(duration=duration, client_scale=client_scale, seed=seed)

    @classmethod
    def paper(cls, seed: int = 0) -> "ExperimentScale":
        """The paper's full scale: 50 clients, 600 seconds."""
        return cls(duration=PAPER_EXPERIMENT_DURATION, client_scale=1.0, seed=seed)

    def clients(self, paper_count: int) -> int:
        """Scale a client count from the paper's setup (at least 1 if nonzero)."""
        if paper_count == 0:
            return 0
        return max(1, round(paper_count * self.client_scale))

    def capacity(self, paper_capacity: float, paper_clients: int, scaled_clients: int) -> float:
        """Scale the server capacity to keep load/capacity ratios unchanged."""
        if paper_clients == 0:
            return paper_capacity
        return paper_capacity * scaled_clients / paper_clients

    def with_seed(self, seed: int) -> "ExperimentScale":
        """The same scale with a different seed."""
        return replace(self, seed=seed)


@dataclass
class LanScenario:
    """A §7.2-style scenario: all clients on a LAN with the thinner.

    This is a convenience facade over :class:`~repro.scenarios.spec.ScenarioSpec`
    (see :meth:`to_spec`) kept for the common good-vs-bad LAN case.
    """

    good_clients: int
    bad_clients: int
    capacity_rps: float
    defense: str = "speakup"
    client_bandwidth_bps: float = DEFAULT_CLIENT_BANDWIDTH
    good_rate: float = GOOD_CLIENT_RATE
    good_window: int = GOOD_CLIENT_WINDOW
    bad_rate: float = BAD_CLIENT_RATE
    bad_window: int = BAD_CLIENT_WINDOW
    duration: float = 60.0
    seed: int = 0
    encouragement_delay: float = 0.0
    extra_config: Dict = field(default_factory=dict)

    def total_clients(self) -> int:
        return self.good_clients + self.bad_clients

    def validate(self) -> None:
        if self.total_clients() <= 0:
            raise ExperimentError("scenario needs at least one client")
        if self.duration <= 0:
            raise ExperimentError("duration must be positive")
        if self.capacity_rps <= 0:
            raise ExperimentError("capacity must be positive")

    def to_spec(self) -> ScenarioSpec:
        """The equivalent declarative scenario."""
        self.validate()
        groups = ()
        if self.good_clients:
            groups += (
                GroupSpec(
                    count=self.good_clients,
                    client_class="good",
                    bandwidth_bps=self.client_bandwidth_bps,
                    rate_rps=self.good_rate,
                    window=self.good_window,
                ),
            )
        if self.bad_clients:
            groups += (
                GroupSpec(
                    count=self.bad_clients,
                    client_class="bad",
                    bandwidth_bps=self.client_bandwidth_bps,
                    rate_rps=self.bad_rate,
                    window=self.bad_window,
                ),
            )
        return ScenarioSpec(
            name="lan",
            topology=TopologySpec(kind="lan"),
            groups=groups,
            capacity_rps=self.capacity_rps,
            defense=self.defense,
            duration=self.duration,
            seed=self.seed,
            encouragement_delay=self.encouragement_delay,
            config_overrides=freeze_overrides(self.extra_config),
        )


def run_lan_scenario(scenario: LanScenario) -> RunResult:
    """Build, run, and collect one LAN scenario."""
    return scenario.to_spec().run()


def sweep_seeds(
    scenario: LanScenario,
    seeds: Sequence[int],
    runner: Optional[SweepRunner] = None,
) -> List[RunResult]:
    """Run the same scenario under several seeds (for variance estimates)."""
    runner = runner or SweepRunner()
    records = runner.run(Sweep(scenario.to_spec(), seeds=seeds))
    return [record.result for record in records]


def replace_scenario_seed(scenario: LanScenario, seed: int) -> LanScenario:
    """A copy of ``scenario`` with a different seed."""
    copy = LanScenario(**{**scenario.__dict__})
    copy.seed = seed
    return copy
