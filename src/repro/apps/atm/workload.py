"""Testbench workloads for the ATM server experiments.

The paper's Table I uses "a testbench of 50 ATM cells".  The workload
here reproduces that setup: a configurable number of *Cell* events with
irregular (exponential) inter-arrival times, interleaved with the
periodic *Tick* events that occur while the cells are being served, each
event carrying the data-dependent choice resolutions drawn from the
probabilities in :func:`repro.apps.atm.model.default_choice_probabilities`.

:func:`make_fleet_testbench` scales the testbench to a *server fleet*:
N independent ATM server instances, each driven by its own reproducible
stream (per-instance derived seeds for both the arrival process and the
choice sampler), for :class:`~repro.runtime.fleet.FleetSimulator` and
the ``repro-qss serve`` subcommand.
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
    CELL_CHOICES,
    CELL_SOURCE,
    TICK_CHOICES,
    TICK_SOURCE,
    default_choice_probabilities,
)


@dataclass
class AtmWorkload:
    """A reproducible ATM testbench.

    Attributes
    ----------
    cells:
        Number of ATM cell arrivals (the paper uses 50).
    cell_mean_interval:
        Mean inter-arrival time of cells, in abstract time units.
    tick_period:
        Period of the cell-slot Tick.
    arrival:
        Arrival process of the cells (``"exponential"`` by default — the
        paper's memoryless testbench — or any of
        :data:`repro.runtime.events.ARRIVAL_PROCESSES`).
    seed:
        Seed for both the arrival process and the choice resolutions.
    probabilities:
        Branch probabilities per choice place; defaults to
        :func:`default_choice_probabilities`.
    """

    cells: int = 50
    cell_mean_interval: float = 2.5
    tick_period: float = 2.0
    arrival: str = "exponential"
    seed: int = 2026
    probabilities: Optional[Mapping[str, Mapping[str, float]]] = None

    def draw(self, collector: StreamCollector) -> None:
        """Append the merged, time-ordered stream to ``collector``."""
        probabilities = self.probabilities or default_choice_probabilities()
        sampler = ChoiceSampler(
            probabilities,
            seed=self.seed,
            per_source={
                CELL_SOURCE: list(CELL_CHOICES),
                TICK_SOURCE: list(TICK_CHOICES),
            },
        )
        cells = arrival_times(
            self.arrival,
            mean_interval=self.cell_mean_interval,
            count=self.cells,
            seed=self.seed,
        )
        # Ticks run for as long as cells keep arriving (plus one trailing
        # slot to drain), which is how a cell-slot clock behaves.
        horizon = cells[-1] if cells else 0.0
        ticks = periodic_times(self.tick_period, int(horizon / self.tick_period) + 2)
        collector.add(((CELL_SOURCE, cells), (TICK_SOURCE, ticks)), sampler)

    def events(self) -> List[Event]:
        """Generate the merged, time-ordered event stream."""
        collector = StreamCollector()
        self.draw(collector)
        return collector.finish()[0]

    def summary(self) -> Dict[str, int]:
        events = self.events()
        return {
            "events": len(events),
            "cells": sum(1 for e in events if e.source == CELL_SOURCE),
            "ticks": sum(1 for e in events if e.source == TICK_SOURCE),
        }


def make_testbench(
    cells: int = 50, seed: int = 2026, arrival: str = "exponential"
) -> List[Event]:
    """The Table I testbench: ``cells`` ATM cells plus the concurrent Ticks."""
    return AtmWorkload(cells=cells, seed=seed, arrival=arrival).events()


def make_fleet_testbench(
    instances: int, cells: int = 50, seed: int = 2026, arrival: str = "exponential"
) -> EventStreams:
    """Per-instance testbenches for an ``instances``-strong ATM server fleet.

    Instance ``i`` derives the reproducible, distinct seed
    ``seed * 1_000_003 + i`` for its own arrival process and choice
    sampler.
    """
    collector = StreamCollector()
    for i in range(instances):
        AtmWorkload(
            cells=cells, seed=seed * 1_000_003 + i, arrival=arrival
        ).draw(collector)
    return collector.finish()
