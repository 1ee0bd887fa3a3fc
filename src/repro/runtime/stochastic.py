"""Timed firing delays for the runtime.

The paper's target systems are *timed*: firing a transition models a
computation that takes real time.  :class:`TimingModel` adds that
dimension to the reactive/fleet runtime while keeping every execution
path bit-reproducible: it charges an **integer tick** delay per
transition firing.  Ticks are integers on purpose — the fleet kernel
charges one ``fired @ ticks`` product per cascade row where the legacy
engine adds a delay per firing, and integer arithmetic makes the two
orders byte-identical, which the differential suites pin.  Use
:meth:`TimingModel.sampled` for a seeded random assignment or
:meth:`TimingModel.constant` for a uniform one.

Sampled models are seeded through :class:`random.Random` with a *string*
seed over *sorted* transition names, so they are identical across
processes regardless of ``PYTHONHASHSEED``
(`tests/test_stochastic_determinism.py` pins this).  Weighted choice
odds live with the event streams: :class:`~repro.runtime.events.ChoiceSampler`
draws each event's resolutions, so the engines never see randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Union

import numpy as np

from ..petrinet import PetriNet
from ..petrinet.compiled import CompiledNet

#: Timing specs accepted by :func:`parse_timing` (and the ``--timing``
#: flag of ``repro-qss serve``): ``none``, ``fixed:N``,
#: ``uniform:LOW-HIGH``.
TIMING_SPECS = ("none", "fixed:N", "uniform:LOW-HIGH")


def _transition_names(net: Union[PetriNet, CompiledNet]) -> List[str]:
    if isinstance(net, CompiledNet):
        return list(net.transitions)
    return list(net.transition_names)


@dataclass(frozen=True)
class TimingModel:
    """Integer tick delay charged per transition firing.

    Attributes
    ----------
    transition_ticks:
        ``{transition name: ticks per firing}``; transitions absent from
        the mapping charge :attr:`default_ticks`.
    default_ticks:
        Delay of unlisted transitions (0 keeps them free).
    """

    transition_ticks: Mapping[str, int] = field(default_factory=dict)
    default_ticks: int = 0

    def __post_init__(self) -> None:
        for name, ticks in self.transition_ticks.items():
            if int(ticks) != ticks or ticks < 0:
                raise ValueError(
                    f"tick delay of transition {name!r} must be a "
                    f"non-negative integer, got {ticks!r}"
                )
        if int(self.default_ticks) != self.default_ticks or self.default_ticks < 0:
            raise ValueError(
                f"default_ticks must be a non-negative integer, got "
                f"{self.default_ticks!r}"
            )

    def ticks_of(self, transition: str) -> int:
        return int(self.transition_ticks.get(transition, self.default_ticks))

    def tick_vector(self, cnet: CompiledNet) -> np.ndarray:
        """Per-transition-id tick column for the fleet kernel."""
        return np.array(
            [self.ticks_of(name) for name in cnet.transitions], dtype=np.int64
        )

    @classmethod
    def constant(cls, ticks: int) -> "TimingModel":
        """Every firing takes ``ticks``."""
        return cls(transition_ticks={}, default_ticks=ticks)

    @classmethod
    def sampled(
        cls,
        net: Union[PetriNet, CompiledNet],
        seed: int = 0,
        low: int = 1,
        high: int = 8,
    ) -> "TimingModel":
        """Seeded random integer delay in ``[low, high]`` per transition.

        The draw iterates transitions in *sorted name order* with a
        string-seeded :class:`random.Random`, so the model is identical
        across processes and ``PYTHONHASHSEED`` values.
        """
        if low < 0 or high < low:
            raise ValueError(
                f"need 0 <= low <= high, got low={low!r} high={high!r}"
            )
        rng = random.Random(f"timing:{seed}")
        ticks = {
            name: rng.randint(low, high)
            for name in sorted(_transition_names(net))
        }
        return cls(transition_ticks=ticks, default_ticks=0)


def parse_timing(
    spec: str, net: Union[PetriNet, CompiledNet], seed: int = 0
) -> Optional[TimingModel]:
    """Parse a ``--timing`` spec string into a :class:`TimingModel`.

    ``"none"`` means untimed (returns ``None``), ``"fixed:N"`` charges
    ``N`` ticks per firing, ``"uniform:LOW-HIGH"`` draws a seeded random
    delay in ``[LOW, HIGH]`` per transition.
    """
    if spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    if kind == "fixed" and rest:
        try:
            return TimingModel.constant(int(rest))
        except ValueError:
            pass
    elif kind == "uniform" and rest:
        low_s, sep, high_s = rest.partition("-")
        if sep:
            try:
                return TimingModel.sampled(
                    net, seed=seed, low=int(low_s), high=int(high_s)
                )
            except ValueError:
                pass
    raise ValueError(
        f"bad timing spec {spec!r}; expected one of {', '.join(TIMING_SPECS)} "
        f"(e.g. 'fixed:3' or 'uniform:1-8')"
    )
