"""Testbench workloads for the heating-control plant.

The sensor loop samples on a fixed period; setpoint requests follow the
``"diurnal"`` arrival process of :func:`repro.runtime.events.arrival_times`
— people adjust thermostats when they wake up and when they come home,
so the request rate swings sinusoidally over the day
(``arrival="exponential"`` restores memoryless requests for comparison
runs).

:func:`make_fleet_testbench` scales the testbench to a building fleet
with per-instance derived seeds, for
:class:`~repro.runtime.fleet.FleetSimulator` and ``repro-qss serve
--family heating``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ...runtime.events import (
    ChoiceSampler,
    Event,
    EventStreams,
    StreamCollector,
    arrival_times,
    periodic_times,
)
from .model import (
    SAMPLE_CHOICES,
    SAMPLE_SOURCE,
    SETPOINT_CHOICES,
    SETPOINT_SOURCE,
    default_choice_probabilities,
)


@dataclass
class HeatingWorkload:
    """A reproducible heating-plant testbench.

    Attributes
    ----------
    samples:
        Number of periodic temperature samples.
    sample_period:
        Period of the sensor loop.
    setpoint_mean_interval:
        Long-run mean inter-arrival time of setpoint requests.
    arrival:
        Arrival process of the setpoint requests (``"diurnal"`` by
        default, or any of
        :data:`repro.runtime.events.ARRIVAL_PROCESSES`).
    seed:
        Seed for both the arrival process and the choice resolutions.
    probabilities:
        Branch probabilities per choice place; defaults to
        :func:`default_choice_probabilities`.
    """

    samples: int = 50
    sample_period: float = 1.0
    setpoint_mean_interval: float = 6.0
    arrival: str = "diurnal"
    seed: int = 2026
    probabilities: Optional[Mapping[str, Mapping[str, float]]] = None

    def draw(self, collector: StreamCollector) -> None:
        """Append the merged, time-ordered stream to ``collector``."""
        probabilities = self.probabilities or default_choice_probabilities()
        sampler = ChoiceSampler(
            probabilities,
            seed=self.seed,
            per_source={
                SAMPLE_SOURCE: list(SAMPLE_CHOICES),
                SETPOINT_SOURCE: list(SETPOINT_CHOICES),
            },
        )
        samples = periodic_times(self.sample_period, self.samples)
        # setpoint requests arrive over the sampling horizon
        horizon = samples[-1] if samples else 0.0
        requests = arrival_times(
            self.arrival,
            mean_interval=self.setpoint_mean_interval,
            count=max(1, int(horizon / self.setpoint_mean_interval) + 1),
            seed=self.seed,
        )
        collector.add(((SAMPLE_SOURCE, samples), (SETPOINT_SOURCE, requests)), sampler)

    def events(self) -> List[Event]:
        """Generate the merged, time-ordered event stream."""
        collector = StreamCollector()
        self.draw(collector)
        return collector.finish()[0]

    def summary(self) -> Dict[str, int]:
        events = self.events()
        return {
            "events": len(events),
            "samples": sum(1 for e in events if e.source == SAMPLE_SOURCE),
            "setpoints": sum(1 for e in events if e.source == SETPOINT_SOURCE),
        }


def make_testbench(
    samples: int = 50, seed: int = 2026, arrival: str = "diurnal"
) -> List[Event]:
    """``samples`` sensor readings plus the concurrent setpoint requests."""
    return HeatingWorkload(samples=samples, seed=seed, arrival=arrival).events()


def make_fleet_testbench(
    instances: int, samples: int = 50, seed: int = 2026, arrival: str = "diurnal"
) -> EventStreams:
    """Per-instance testbenches for an ``instances``-zone heating fleet.

    Instance ``i`` derives the reproducible, distinct seed
    ``seed * 1_000_003 + i``, exactly like the ATM fleet.
    """
    collector = StreamCollector()
    for i in range(instances):
        HeatingWorkload(
            samples=samples, seed=seed * 1_000_003 + i, arrival=arrival
        ).draw(collector)
    return collector.finish()
