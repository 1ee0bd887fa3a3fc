"""Seed-stability pins for the stochastic workload layer.

The new arrival processes (`bursty`, `diurnal`) and the sampled timing
model must be pure functions of their seed: byte-identical across
interpreter processes under varied ``PYTHONHASHSEED`` (the classic way
hidden ``hash()`` dependence leaks in), identical on repeated
in-process calls, and different for different seeds (a constant stream
would also pass the stability check).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.runtime import (
    ARRIVAL_PROCESSES,
    TimingModel,
    synthetic_streams,
    validate_arrival,
)
from repro.runtime.events import _diurnal_times, arrival_times

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

#: Digest every stochastic surface in one child process: all arrival
#: processes through ``synthetic_streams``, the app fleet testbenches,
#: and the sampled timing model.
_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.apps import heating, router
from repro.runtime import ARRIVAL_PROCESSES, TimingModel, synthetic_streams

net = router.build_router_net()
parts = []
for arrival in ARRIVAL_PROCESSES:
    streams = synthetic_streams(net, 5, 9, seed=42, arrival=arrival)
    parts.append(
        (
            arrival,
            [
                [(e.time, e.source, sorted(e.choices.items())) for e in s]
                for s in streams
            ],
        )
    )
parts.append(("router_fleet", repr(router.make_fleet_testbench(3, 8, seed=7))))
parts.append(("heating_fleet", repr(heating.make_fleet_testbench(3, 8, seed=7))))
parts.append(
    ("timing", sorted(TimingModel.sampled(net, seed=7).transition_ticks.items()))
)
print(hashlib.sha256(repr(parts).encode()).hexdigest())
"""


class TestCrossProcessStability:
    def test_digests_identical_under_varied_hash_seeds(self):
        script = _DIGEST_SCRIPT.format(src=SRC)
        digests = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, (
            "stochastic workload generation depends on PYTHONHASHSEED: "
            f"{digests}"
        )


class TestArrivalProcesses:
    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_same_seed_identical(self, arrival):
        a = arrival_times(arrival, mean_interval=1.5, count=40, seed=9)
        b = arrival_times(arrival, mean_interval=1.5, count=40, seed=9)
        assert repr(a) == repr(b)

    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_different_seeds_differ(self, arrival):
        a = arrival_times(arrival, mean_interval=1.5, count=40, seed=9)
        b = arrival_times(arrival, mean_interval=1.5, count=40, seed=10)
        assert repr(a) != repr(b)

    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_streams_are_time_ordered_with_exact_count(self, arrival):
        times = arrival_times(arrival, mean_interval=2.0, count=64, seed=3)
        assert len(times) == 64
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_bursty_and_diurnal_are_distinct_processes(self):
        kwargs = dict(mean_interval=1.5, count=50, seed=11)
        reprs = {
            arrival: repr(arrival_times(arrival, **kwargs))
            for arrival in ARRIVAL_PROCESSES
        }
        assert len(set(reprs.values())) == len(ARRIVAL_PROCESSES)

    def test_bursty_times_cluster(self):
        times = arrival_times("bursty", mean_interval=1.0, count=200, seed=4)
        gaps = [b - a for a, b in zip(times, times[1:])]
        short = sum(1 for g in gaps if g < 0.5)
        long = sum(1 for g in gaps if g > 2.0)
        # trains of near-back-to-back arrivals separated by long idles
        assert short > len(gaps) // 2
        assert long > 0

    def test_diurnal_times_modulate_rate(self):
        times = _diurnal_times(
            mean_interval=1.0, count=400, seed=4, start=0.0, amplitude=0.9
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        # high-rate phases produce much denser arrivals than the trough
        assert max(gaps) > 4 * (sum(gaps) / len(gaps))

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="bursty"):
            validate_arrival("fractal")
        with pytest.raises(ValueError):
            arrival_times("fractal", mean_interval=1.0, count=5)


class TestSampledModels:
    def test_synthetic_streams_default_path_unchanged(self):
        from repro.petrinet.corpus import CORPUS_FAMILIES

        family = CORPUS_FAMILIES["pipeline"]
        net = family.build(3, family.spec(3).param_dict)
        default = synthetic_streams(net, 4, 6, seed=42)
        explicit = synthetic_streams(net, 4, 6, seed=42, arrival="exponential")
        assert repr(default) == repr(explicit)

    def test_timing_model_seed_determinism(self):
        from repro.apps import router

        net = router.build_router_net()
        a = TimingModel.sampled(net, seed=5)
        b = TimingModel.sampled(net, seed=5)
        c = TimingModel.sampled(net, seed=6)
        assert a.transition_ticks == b.transition_ticks
        assert a.transition_ticks != c.transition_ticks
        assert all(1 <= t <= 8 for t in a.transition_ticks.values())
