"""Environment event streams for the simulated target.

The embedded system reacts to external events — in the ATM server, the
irregular *Cell* interrupt and the periodic *Tick*.  This module models
events, periodic and irregular (seeded pseudo-random) arrival times, and
their interleaving into a single time-ordered testbench.

Each event carries the resolutions of the data-dependent choices that the
processing of that event will encounter, because in the real system those
decisions depend on the data carried by the event (cell contents, buffer
occupancy); the workload generators in :mod:`repro.apps.atm.workload`
draw them from configurable probabilities.

A fleet's streams travel packed: :class:`EventColumns` holds one row per
event — ``time``, ``instance``, ``source`` and ``signature`` columns —
with name tables for the source transitions and the raw insertion-order
choice resolutions.  :class:`StreamCollector` draws a fleet's streams
straight into columns (no :class:`Event` per event), and
:class:`EventStreams` is the per-instance ``Sequence`` view over them:
``streams[i]`` is instance ``i``'s list of :class:`Event`, and a slice
is again :class:`EventStreams`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

#: Raw choice resolutions: ``choices.items()`` in insertion order.
RawChoices = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Event:
    """One environment event.

    Attributes
    ----------
    time:
        Arrival time (abstract time units; only the ordering matters to
        the RTOS simulator).
    source:
        Name of the source transition the event triggers (e.g. ``t_cell``).
    choices:
        Resolutions of the data-dependent choices for the processing of
        this event: ``{choice place: chosen transition}``.
    payload:
        Optional free-form data (used by application-level examples).
    """

    time: float
    source: str
    choices: Mapping[str, str] = field(default_factory=dict)
    payload: Optional[object] = None


# ----------------------------------------------------------------------
# Arrival processes: one draw loop each, returning arrival times
# ----------------------------------------------------------------------
def periodic_times(period: float, count: int, start: float = 0.0) -> List[float]:
    """``count`` arrival times spaced ``period`` apart."""
    if period <= 0:
        raise ValueError("period must be positive")
    return [start + i * period for i in range(count)]


def _exponential_times(
    mean_interval: float, count: int, seed: int, start: float
) -> List[float]:
    """Exponentially distributed inter-arrival times: inputs that occur
    "at irregular times", like the non-empty cell arrivals of the ATM
    server."""
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    rng = random.Random(seed)
    times = []
    time = start
    for _ in range(count):
        time += rng.expovariate(1.0 / mean_interval)
        times.append(time)
    return times


def _bursty_times(
    mean_interval: float,
    count: int,
    seed: int,
    start: float,
    burst_mean: float = 4.0,
    burst_spread: float = 0.1,
    idle_factor: float = 5.0,
) -> List[float]:
    """Arrivals in bursts separated by long idle gaps.

    Models on/off traffic (a line card receiving packet trains, a
    sensor delivering readings in flurries): burst sizes are geometric
    with mean ``burst_mean``, arrivals inside a burst are
    ``burst_spread * mean_interval`` apart on average, and the idle gap
    between bursts averages ``idle_factor * mean_interval``.  The
    defaults keep the *long-run* mean inter-arrival time in the same
    ballpark as the exponential process while concentrating the
    arrivals, which is what stresses run-to-completion serving.
    """
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    if burst_mean < 1:
        raise ValueError("burst_mean must be at least 1")
    rng = random.Random(seed)
    times: List[float] = []
    time = start
    p_stop = 1.0 / burst_mean
    while len(times) < count:
        # idle gap before the burst
        time += rng.expovariate(1.0 / (idle_factor * mean_interval))
        # geometric burst size (at least one event)
        while len(times) < count:
            times.append(time)
            if rng.random() < p_stop:
                break
            time += rng.expovariate(1.0 / (burst_spread * mean_interval))
    return times


def _diurnal_times(
    mean_interval: float,
    count: int,
    seed: int,
    start: float,
    amplitude: float = 0.8,
    period: float = 24.0,
) -> List[float]:
    """Arrivals whose rate swings sinusoidally over a day.

    A non-homogeneous arrival process: the instantaneous rate is
    ``(1 + amplitude * sin(2*pi*t / period)) / mean_interval``, so
    traffic peaks once per ``period`` (the diurnal cycle of user-facing
    services) and ebbs ``amplitude`` below the mean in the trough.
    Inter-arrival gaps are exponential at the rate in force at the
    previous arrival.
    """
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period <= 0:
        raise ValueError("period must be positive")
    rng = random.Random(seed)
    times: List[float] = []
    time = start
    two_pi = 2.0 * math.pi
    for _ in range(count):
        rate = (1.0 + amplitude * math.sin(two_pi * time / period)) / mean_interval
        time += rng.expovariate(rate)
        times.append(time)
    return times


#: Arrival-process kinds accepted by :func:`arrival_times` (and the
#: ``arrival=`` argument of :func:`repro.runtime.fleet.synthetic_streams`
#: / the ``--arrival`` flag of ``repro-qss serve``).
ARRIVAL_PROCESSES = ("exponential", "bursty", "diurnal")

_ARRIVAL_TIMES = {
    "exponential": _exponential_times,
    "bursty": _bursty_times,
    "diurnal": _diurnal_times,
}


def validate_arrival(arrival: str) -> str:
    """Validate an ``arrival=`` kind argument, returning it unchanged."""
    if arrival not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {arrival!r}; expected one of "
            f"{', '.join(ARRIVAL_PROCESSES)}"
        )
    return arrival


def arrival_times(
    arrival: str,
    mean_interval: float,
    count: int,
    seed: int = 0,
    start: float = 0.0,
) -> List[float]:
    """``count`` arrival times of the named process, fully determined by
    ``seed``.

    ``"exponential"`` draws memoryless Poisson arrivals (the historical
    default), ``"bursty"`` on/off trains, ``"diurnal"`` a sinusoidally
    swinging rate; all have comparable long-run mean rates.
    """
    draw = _ARRIVAL_TIMES[validate_arrival(arrival)]
    return draw(mean_interval, count, seed, start)


class ChoiceSampler:
    """Draws choice resolutions from per-place branch probabilities.

    Parameters
    ----------
    probabilities:
        ``{choice place: {successor transition: probability}}``; the
        probabilities of each place are normalized automatically.
    seed:
        Seed of the private random stream.
    per_source:
        Optional restriction ``{source: [choice places]}``: when given,
        an event from ``source`` only receives resolutions for its own
        places (the other tasks' choices are irrelevant to it).
    """

    def __init__(
        self,
        probabilities: Mapping[str, Mapping[str, float]],
        seed: int = 0,
        per_source: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        self._probabilities = {
            place: dict(branches) for place, branches in probabilities.items()
        }
        self._rng = random.Random(seed)
        self._per_source = (
            {source: list(places) for source, places in per_source.items()}
            if per_source
            else None
        )
        # per source: one (branches, total) table per relevant place,
        # each branch a ((place, transition), cumulative weight) pair
        self._tables: Dict[Optional[str], list] = {}

    def _tables_of(self, source: Optional[str]) -> list:
        tables = self._tables.get(source)
        if tables is None:
            if self._per_source is not None and source is not None:
                places = self._per_source.get(source, [])
            else:
                places = list(self._probabilities)
            tables = []
            for place in places:
                branches = self._probabilities[place]
                cumulative = 0.0
                pairs = []
                for transition, weight in branches.items():
                    cumulative += weight
                    pairs.append(((place, transition), cumulative))
                tables.append((pairs, sum(branches.values())))
            self._tables[source] = tables
        return tables

    def sample_items(self, source: Optional[str] = None) -> RawChoices:
        """Draw one resolution for every relevant choice place, as
        insertion-order ``(place, transition)`` pairs."""
        random_draw = self._rng.random
        items = []
        for pairs, total in self._tables_of(source):
            draw = random_draw() * total
            for pair, cumulative in pairs:
                if draw <= cumulative:
                    break
            else:
                pair = pairs[0][0]
            items.append(pair)
        return tuple(items)

    def sample(self, source: Optional[str] = None) -> Dict[str, str]:
        """Draw one resolution for every relevant choice place."""
        return dict(self.sample_items(source))


# ----------------------------------------------------------------------
# Columnar streams
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class EventColumns:
    """Packed events, one row per event.

    ``time`` is float64; ``instance``, ``source`` and ``signature`` are
    int64.  ``source`` indexes the :attr:`sources` name table and
    ``signature`` the :attr:`choices` table of raw insertion-order
    ``choices.items()`` tuples, whose id 0 is ``()`` (no choices).  The
    names stay strings here: a kernel maps each table entry to its own
    ids once and gathers (:meth:`repro.runtime.fleet.SignatureTable.gather`).
    """

    time: np.ndarray
    instance: np.ndarray
    source: np.ndarray
    signature: np.ndarray
    sources: Tuple[str, ...]
    choices: Tuple[RawChoices, ...]

    def __len__(self) -> int:
        return len(self.time)

    def take(self, index: Union[np.ndarray, slice]) -> "EventColumns":
        """The rows ``index`` selects (an index array or a slice), in its
        order, over the same name tables."""
        return EventColumns(
            time=self.time[index],
            instance=self.instance[index],
            source=self.source[index],
            signature=self.signature[index],
            sources=self.sources,
            choices=self.choices,
        )

    @classmethod
    def pack(cls, rows: Iterable[Tuple[int, Any]]) -> "EventColumns":
        """Columns of ``(instance key, event)`` pairs, in their order.

        An event is anything with ``time``, ``source`` and ``choices``
        (:class:`Event`, the service's ``InjectEvent``).  This is the one
        loop that reads event strings: each row costs two name-table
        lookups.
        """
        times: List[float] = []
        instances: List[int] = []
        source_ids: List[int] = []
        signature_ids: List[int] = []
        sources: Dict[str, int] = {}
        choices: Dict[RawChoices, int] = {(): 0}
        for key, event in rows:
            instances.append(key)
            times.append(event.time)
            source_id = sources.get(event.source)
            if source_id is None:
                source_id = sources[event.source] = len(sources)
            source_ids.append(source_id)
            resolved = event.choices
            if resolved:
                raw = tuple(resolved.items())
                signature_id = choices.get(raw)
                if signature_id is None:
                    signature_id = choices[raw] = len(choices)
                signature_ids.append(signature_id)
            else:
                signature_ids.append(0)
        return cls(
            time=np.array(times, dtype=np.float64),
            instance=np.array(instances, dtype=np.int64),
            source=np.array(source_ids, dtype=np.int64),
            signature=np.array(signature_ids, dtype=np.int64),
            sources=tuple(sources),
            choices=tuple(choices),
        )


def as_columns(streams: Sequence[Sequence[Any]]) -> EventColumns:
    """The columns of per-instance streams; instance ``i`` is row key ``i``.

    :class:`EventStreams` already are columns; any other sequence of
    event sequences is packed once (:meth:`EventColumns.pack`).
    """
    if isinstance(streams, EventStreams):
        return streams.columns
    return EventColumns.pack(
        (instance, event)
        for instance, stream in enumerate(streams)
        for event in stream
    )


class EventStreams(SequenceABC):
    """Per-instance event streams backed by one :class:`EventColumns`.

    The rows are grouped by instance, ``0..len-1`` ascending, each
    instance's rows in stream order.  ``streams[i]`` builds instance
    ``i``'s ``List[Event]``; ``streams[a:b]`` (any slice) is again
    :class:`EventStreams`, its instances renumbered from 0.  Equality
    and ``repr`` go by content, so a generated fleet compares equal to
    the same streams as lists.
    """

    def __init__(self, columns: EventColumns, count: int) -> None:
        self.columns = columns
        self._count = count
        self._offsets = np.searchsorted(
            columns.instance, np.arange(count + 1, dtype=np.int64)
        )
        # each event gets its own copy of its signature's dict
        self._choice_dicts = [dict(raw) for raw in columns.choices]

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return self._take(np.arange(self._count, dtype=np.int64)[index])
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("stream index out of range")
        return self._events(self._offsets[index], self._offsets[index + 1])

    def __iter__(self) -> Iterator[List[Event]]:
        bounds = self._offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield self._events(lo, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(other) == len(self) and all(
            mine == list(theirs) for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventStreams({list(self)!r})"

    def _events(self, lo: int, hi: int) -> List[Event]:
        columns = self.columns
        names = columns.sources
        choices = self._choice_dicts
        return [
            Event(time=t, source=names[s], choices=dict(choices[g]))
            for t, s, g in zip(
                columns.time[lo:hi].tolist(),
                columns.source[lo:hi].tolist(),
                columns.signature[lo:hi].tolist(),
            )
        ]

    def _take(self, picks: np.ndarray) -> "EventStreams":
        """The streams of instances ``picks``, renumbered in pick order."""
        starts = self._offsets[picks]
        lengths = self._offsets[picks + 1] - starts
        ends = np.cumsum(lengths)
        rows = np.arange(ends[-1] if len(ends) else 0, dtype=np.int64) + np.repeat(
            starts - (ends - lengths), lengths
        )
        columns = self.columns
        taken = EventColumns(
            time=columns.time[rows],
            instance=np.repeat(np.arange(len(picks), dtype=np.int64), lengths),
            source=columns.source[rows],
            signature=columns.signature[rows],
            sources=columns.sources,
            choices=columns.choices,
        )
        return EventStreams(taken, len(picks))


class StreamCollector:
    """Draws a fleet's streams straight into :class:`EventColumns`.

    Each :meth:`add` appends one instance; :meth:`finish` returns the
    :class:`EventStreams`.  No :class:`Event` is made on the way.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._sources: List[int] = []
        self._signatures: List[int] = []
        self._lengths: List[int] = []
        self._source_index: Dict[str, int] = {}
        self._choice_index: Dict[RawChoices, int] = {(): 0}

    def add(
        self,
        parts: Sequence[Tuple[str, Sequence[float]]],
        sampler: ChoiceSampler,
        limit: Optional[int] = None,
    ) -> None:
        """Append one instance's stream.

        ``parts`` are ``(source, arrival times)`` pairs, merged in time
        order (stable: on a tie the earlier part goes first) and cut to
        the first ``limit`` events.  Each event then draws its choices
        from ``sampler``, one draw per event in stream order.
        """
        names: List[str] = []
        ids: List[int] = []
        times: List[float] = []
        owners: List[int] = []
        for source, part in parts:
            owners.extend([len(names)] * len(part))
            names.append(source)
            ids.append(self._source_index.setdefault(source, len(self._source_index)))
            times.extend(part)
        order = sorted(range(len(times)), key=times.__getitem__)[:limit]
        choice_index = self._choice_index
        sample = sampler.sample_items
        signatures = self._signatures
        for k in order:
            raw = sample(names[owners[k]])
            signature_id = choice_index.get(raw)
            if signature_id is None:
                signature_id = choice_index[raw] = len(choice_index)
            signatures.append(signature_id)
        self._times.extend([times[k] for k in order])
        self._sources.extend([ids[owners[k]] for k in order])
        self._lengths.append(len(order))

    def finish(self) -> EventStreams:
        lengths = np.array(self._lengths, dtype=np.int64)
        columns = EventColumns(
            time=np.array(self._times, dtype=np.float64),
            instance=np.repeat(np.arange(len(lengths), dtype=np.int64), lengths),
            source=np.array(self._sources, dtype=np.int64),
            signature=np.array(self._signatures, dtype=np.int64),
            sources=tuple(self._source_index),
            choices=tuple(self._choice_index),
        )
        return EventStreams(columns, len(lengths))
