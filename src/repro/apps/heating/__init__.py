"""Heating-control plant (diurnal embedded-control case study)."""

from .model import (
    HEATING_CHOICE_PLACES,
    MODULE_PARTITION,
    SAMPLE_CHOICES,
    SAMPLE_SOURCE,
    SETPOINT_CHOICES,
    SETPOINT_SOURCE,
    build_heating_net,
    default_choice_probabilities,
)
from .workload import (
    HeatingWorkload,
    make_fleet_testbench,
    make_testbench,
)

__all__ = [
    "build_heating_net",
    "MODULE_PARTITION",
    "SAMPLE_SOURCE",
    "SETPOINT_SOURCE",
    "SAMPLE_CHOICES",
    "SETPOINT_CHOICES",
    "HEATING_CHOICE_PLACES",
    "default_choice_probabilities",
    "HeatingWorkload",
    "make_testbench",
    "make_fleet_testbench",
]
