"""Packet-router line card (bursty embedded-networking case study)."""

from .model import (
    MODULE_PARTITION,
    PACKET_CHOICES,
    PACKET_SOURCE,
    ROUTER_CHOICE_PLACES,
    SCHED_CHOICES,
    SCHED_SOURCE,
    build_router_net,
    default_choice_probabilities,
)
from .workload import (
    RouterWorkload,
    make_fleet_testbench,
    make_testbench,
)

__all__ = [
    "build_router_net",
    "MODULE_PARTITION",
    "PACKET_SOURCE",
    "SCHED_SOURCE",
    "PACKET_CHOICES",
    "SCHED_CHOICES",
    "ROUTER_CHOICE_PLACES",
    "default_choice_probabilities",
    "RouterWorkload",
    "make_testbench",
    "make_fleet_testbench",
]
