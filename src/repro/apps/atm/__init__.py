"""ATM server for Virtual Private Networks (the Section 5 case study)."""

from .model import (
    ATM_CHOICE_PLACES,
    CELL_CHOICES,
    CELL_SOURCE,
    MODULE_PARTITION,
    TICK_CHOICES,
    TICK_SOURCE,
    build_atm_server_net,
    default_choice_probabilities,
)
from .workload import (
    AtmWorkload,
    make_fleet_testbench,
    make_testbench,
)

__all__ = [
    "build_atm_server_net",
    "MODULE_PARTITION",
    "CELL_SOURCE",
    "TICK_SOURCE",
    "CELL_CHOICES",
    "TICK_CHOICES",
    "ATM_CHOICE_PLACES",
    "default_choice_probabilities",
    "AtmWorkload",
    "make_testbench",
    "make_fleet_testbench",
]
