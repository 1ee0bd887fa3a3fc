"""Testbench workloads for the packet-router line card.

Router traffic is the canonical *bursty* arrival process: frames arrive
in trains separated by idle gaps, which is exactly what the ``"bursty"``
process of :func:`repro.runtime.events.arrival_times` models — so the default
packet stream here is bursty (``arrival="exponential"`` restores
memoryless arrivals for comparison runs).  The transmit-slot SchedTick
is periodic, like the ATM cell-slot clock.

:func:`make_fleet_testbench` scales the testbench to a line-card fleet
with per-instance derived seeds, for
:class:`~repro.runtime.fleet.FleetSimulator` and ``repro-qss serve
--family router``.
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
    PACKET_CHOICES,
    PACKET_SOURCE,
    SCHED_CHOICES,
    SCHED_SOURCE,
    default_choice_probabilities,
)


@dataclass
class RouterWorkload:
    """A reproducible line-card testbench.

    Attributes
    ----------
    packets:
        Number of ingress frame arrivals.
    packet_mean_interval:
        Long-run mean inter-arrival time of frames.
    slot_period:
        Period of the transmit-slot SchedTick.
    arrival:
        Arrival process of the frames (``"bursty"`` by default — packet
        trains — or any of
        :data:`repro.runtime.events.ARRIVAL_PROCESSES`).
    seed:
        Seed for both the arrival process and the choice resolutions.
    probabilities:
        Branch probabilities per choice place; defaults to
        :func:`default_choice_probabilities`.
    """

    packets: int = 50
    packet_mean_interval: float = 1.5
    slot_period: float = 2.0
    arrival: str = "bursty"
    seed: int = 2026
    probabilities: Optional[Mapping[str, Mapping[str, float]]] = None

    def draw(self, collector: StreamCollector) -> None:
        """Append the merged, time-ordered stream to ``collector``."""
        probabilities = self.probabilities or default_choice_probabilities()
        sampler = ChoiceSampler(
            probabilities,
            seed=self.seed,
            per_source={
                PACKET_SOURCE: list(PACKET_CHOICES),
                SCHED_SOURCE: list(SCHED_CHOICES),
            },
        )
        packets = arrival_times(
            self.arrival,
            mean_interval=self.packet_mean_interval,
            count=self.packets,
            seed=self.seed,
        )
        # transmit slots run for as long as frames keep arriving (plus
        # one trailing slot to drain the queues)
        horizon = packets[-1] if packets else 0.0
        slots = periodic_times(self.slot_period, int(horizon / self.slot_period) + 2)
        collector.add(((PACKET_SOURCE, packets), (SCHED_SOURCE, slots)), sampler)

    def events(self) -> List[Event]:
        """Generate the merged, time-ordered event stream."""
        collector = StreamCollector()
        self.draw(collector)
        return collector.finish()[0]

    def summary(self) -> Dict[str, int]:
        events = self.events()
        return {
            "events": len(events),
            "packets": sum(1 for e in events if e.source == PACKET_SOURCE),
            "slots": sum(1 for e in events if e.source == SCHED_SOURCE),
        }


def make_testbench(
    packets: int = 50, seed: int = 2026, arrival: str = "bursty"
) -> List[Event]:
    """``packets`` ingress frames plus the concurrent transmit slots."""
    return RouterWorkload(packets=packets, seed=seed, arrival=arrival).events()


def make_fleet_testbench(
    instances: int, packets: int = 50, seed: int = 2026, arrival: str = "bursty"
) -> EventStreams:
    """Per-instance testbenches for an ``instances``-strong line-card fleet.

    Instance ``i`` derives the reproducible, distinct seed
    ``seed * 1_000_003 + i``, exactly like the ATM fleet.
    """
    collector = StreamCollector()
    for i in range(instances):
        RouterWorkload(
            packets=packets, seed=seed * 1_000_003 + i, arrival=arrival
        ).draw(collector)
    return collector.finish()
