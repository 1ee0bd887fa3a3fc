"""Differential suite for columnar event streams.

The fleet generators return :class:`EventStreams` over packed
:class:`EventColumns`, and ``FleetSimulator.run`` gathers kernel ids
from the columns' name tables instead of interning every ``Event``.
These tests pin that path to the ones it replaced: a run over the
generated columns equals, byte for byte, the run over the same streams
as plain ``List[List[Event]]``, the ``memo=False`` kernel and the
legacy engine.  They also pin slicing, empty instances, out-of-order
and tied times, the errors (unknown source, source not enabled, NaN
time) and the service's wire and pack boundary over columns.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import numpy as np
import pytest

from repro.apps import atm, heating, router
from repro.petrinet import PetriNet
from repro.petrinet.exceptions import NotEnabledError
from repro.petrinet.generators import unbalanced_choice_net
from repro.runtime import (
    ARRIVAL_PROCESSES,
    Event,
    EventColumns,
    EventStreams,
    FleetEngine,
    FleetSimulator,
    ModuleAssignment,
    SignatureTable,
    as_columns,
    parse_timing,
    synthetic_streams,
)
from repro.service import (
    FleetSupervisor,
    InjectEvent,
    InjectView,
    encode_message,
    events_to_injects,
    inject_columns,
)

APPS = {
    "atm": (atm.build_atm_server_net, atm.MODULE_PARTITION, atm.make_fleet_testbench),
    "router": (
        router.build_router_net,
        router.MODULE_PARTITION,
        router.make_fleet_testbench,
    ),
    "heating": (
        heating.build_heating_net,
        heating.MODULE_PARTITION,
        heating.make_fleet_testbench,
    ),
}


def app_case(name, instances=10, events=6, seed=11):
    build, partition, bench = APPS[name]
    net = build()
    streams = bench(instances, events, seed=seed)
    return net, ModuleAssignment.from_groups(partition), streams


def synthetic_case(arrival, instances=10, events=8, seed=5):
    net = router.build_router_net()
    streams = synthetic_streams(net, instances, events, seed=seed, arrival=arrival)
    return net, ModuleAssignment.single_task(net), streams


CASES = {f"app_{name}": (app_case, name) for name in APPS}
CASES.update(
    {f"synthetic_{arrival}": (synthetic_case, arrival) for arrival in ARRIVAL_PROCESSES}
)


def build_case(key):
    make, arg = CASES[key]
    return make(arg)


def assert_identical(expected, actual):
    """Stats, per-instance cycles, events and ticks, byte for byte."""
    assert asdict(expected.stats) == asdict(actual.stats)
    assert np.array_equal(expected.instance_cycles, actual.instance_cycles)
    assert np.array_equal(expected.instance_events, actual.instance_events)
    if expected.instance_ticks is None:
        assert actual.instance_ticks is None
    else:
        assert np.array_equal(expected.instance_ticks, actual.instance_ticks)


def run_all_ways(net, assignment, streams, timing=None):
    """The columns run and the four runs it must equal."""
    options = dict(timing=timing)
    columns = FleetSimulator(net, assignment, **options).run(streams)
    lists = FleetSimulator(net, assignment, **options).run(
        [list(stream) for stream in streams]
    )
    direct = FleetSimulator(net, assignment, **options)
    direct.kernel = FleetEngine(net, assignment, memo=False, **options)
    direct_result = direct.run(streams)
    legacy = FleetSimulator(net, assignment, engine="legacy", **options).run(streams)
    # the service's order: every instance's events interleaved by time,
    # grouped by the kernel's own round split
    arrival = inject_columns(events_to_injects(streams))
    kernel = FleetEngine(net, assignment, instances=len(streams), **options)
    kernel.dispatch_rounds(arrival.instance, *kernel.prepare_events(arrival))
    return columns, (lists, direct_result, legacy, kernel.result())


def drain_net():
    """An order-sensitive net: a ``t_b`` event drains, one firing per
    token, what earlier ``t_a`` events left in ``p_acc``."""
    net = PetriNet("drain")
    for place in ("p_acc", "p_flag"):
        net.add_place(place)
    for transition in ("t_a", "t_b", "t_drain", "t_done"):
        net.add_transition(transition)
    for source, target in (
        ("t_a", "p_acc"),
        ("t_b", "p_flag"),
        ("p_flag", "t_drain"),
        ("p_acc", "t_drain"),
        ("t_drain", "p_flag"),
        ("p_flag", "t_done"),
    ):
        net.add_arc(source, target)
    return net


def as_streams(lists):
    """Hand-built lists as column-backed streams."""
    return EventStreams(as_columns(lists), len(lists))


class TestGeneratedColumns:
    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_columns_run_equals_lists_direct_and_legacy(self, key, timed):
        net, assignment, streams = build_case(key)
        assert isinstance(streams, EventStreams)
        timing = parse_timing("uniform:1-8", net, seed=5) if timed else None
        columns, others = run_all_ways(net, assignment, streams, timing)
        assert columns.stats.events_processed == sum(len(s) for s in streams) > 0
        for other in others:
            assert_identical(columns, other)

    def test_merge_fleet_equals_on_the_state_dependent_kernel(self):
        net = unbalanced_choice_net(5, branches=3, max_weight=4, merge=True)
        streams = synthetic_streams(net, 40, 12, seed=7)
        columns, others = run_all_ways(net, ModuleAssignment.single_task(net), streams)
        for other in others:
            assert_identical(columns, other)

    @pytest.mark.parametrize("key", sorted(CASES))
    def test_items_are_event_lists_and_repr_shows_them(self, key):
        _, _, streams = build_case(key)
        lists = [list(stream) for stream in streams]
        assert all(isinstance(e, Event) for stream in lists for e in stream)
        assert streams[0] == lists[0] and streams[-1] == lists[-1]
        assert streams == lists and lists == streams
        assert repr(streams) == f"EventStreams({lists!r})"
        for stream in lists:
            times = [event.time for event in stream]
            assert times == sorted(times)
            assert all(type(t) is float for t in times)


class TestSlicesAndEmptyInstances:
    @pytest.mark.parametrize(
        "cut",
        [
            slice(2, 7),
            slice(4),
            slice(None, None, 3),
            slice(None, None, -2),
            slice(6, 2),
        ],
        ids=["middle", "head", "step", "reversed", "empty"],
    )
    def test_slices_keep_the_type_and_the_run(self, cut):
        net, assignment, streams = app_case("atm")
        lists = [list(stream) for stream in streams]
        part = streams[cut]
        assert isinstance(part, EventStreams)
        assert part == lists[cut]
        assert len(part) == len(lists[cut])
        columns, others = run_all_ways(net, assignment, part)
        for other in others:
            assert_identical(columns, other)

    def test_a_slice_of_a_slice(self):
        _, _, streams = app_case("router")
        lists = [list(stream) for stream in streams]
        assert streams[1:9][::2][1:] == lists[1:9][::2][1:]

    def test_index_out_of_range(self):
        _, _, streams = app_case("heating", instances=3)
        assert streams[-3] == list(streams)[0]
        with pytest.raises(IndexError):
            streams[3]
        with pytest.raises(IndexError):
            streams[-4]

    def test_empty_instances_anywhere(self):
        net, assignment, streams = app_case("atm", instances=4)
        lists = [[], list(streams[0]), [], [], list(streams[1]), []]
        packed = as_streams(lists)
        assert len(packed) == 6 and packed == lists
        columns, others = run_all_ways(net, assignment, packed)
        for other in others:
            assert_identical(columns, other)
        served = [len(events) for events in lists]
        assert columns.instance_events.tolist() == served

    def test_all_instances_empty(self):
        net, assignment, _ = app_case("atm")
        result = FleetSimulator(net, assignment).run(as_streams([[], []]))
        assert result.instances == 2 and result.stats.events_processed == 0


class TestHandBuiltStreams:
    def test_out_of_order_times_and_ties(self):
        net = drain_net()
        assignment = ModuleAssignment.single_task(net)
        rng = random.Random(5)
        lists = [
            [
                Event(time=float(rng.randrange(6)), source=rng.choice(("t_a", "t_b")))
                for _ in range(10)
            ]
            for _ in range(8)
        ]
        for form in (lists, as_streams(lists)):
            columns, others = run_all_ways(net, assignment, form)
            for other in others:
                assert_identical(columns, other)
        # the order matters on this net: serving the events as listed
        # gives another result than serving them in time order
        as_listed = [
            [Event(time=float(k), source=e.source) for k, e in enumerate(stream)]
            for stream in lists
        ]
        listed = FleetSimulator(net, assignment).run(as_listed)
        assert asdict(listed.stats) != asdict(columns.stats)

        # the time sort is skipped only for columns already in (instance,
        # time) order: streams in time order but for one inversion, in
        # instance 3's last two events, are still sorted; a fleet whose
        # time falls at every instance boundary is in order
        in_order = [
            [Event(time=float(k), source=e.source) for k, e in enumerate(stream)]
            for stream in lists
        ]
        inverted = [list(stream) for stream in in_order]
        inverted[3][-2:] = [
            Event(time=9.0, source="t_a"),
            Event(time=8.0, source="t_b"),
        ]
        falling = [
            [Event(time=100.0 - 10 * i + e.time, source=e.source) for e in stream]
            for i, stream in enumerate(in_order)
        ]
        for built in (inverted, falling):
            for form in (built, as_streams(built)):
                columns, others = run_all_ways(net, assignment, form)
                for other in others:
                    assert_identical(columns, other)
        # the inversion matters: serving those two events as listed
        # gives instance 3 other cycles
        as_listed = [list(stream) for stream in in_order]
        as_listed[3][-2:] = [
            Event(time=8.0, source="t_a"),
            Event(time=9.0, source="t_b"),
        ]
        served = FleetSimulator(net, assignment).run(inverted)
        listed = FleetSimulator(net, assignment).run(as_listed)
        assert served.instance_cycles[3] != listed.instance_cycles[3]

    def test_ties_keep_the_input_order(self):
        net = drain_net()
        assignment = ModuleAssignment.single_task(net)
        sources = ["t_a", "t_a", "t_b", "t_a", "t_b", "t_b", "t_a"]
        tied = [Event(time=1.0, source=source) for source in sources]
        spread = [Event(time=float(k), source=s) for k, s in enumerate(sources)]
        result = FleetSimulator(net, assignment).run(as_streams([tied]))
        assert_identical(FleetSimulator(net, assignment).run([spread]), result)
        backwards = [
            Event(time=float(k), source=s) for k, s in enumerate(sources[::-1])
        ]
        reversed_order = FleetSimulator(net, assignment).run([backwards])
        assert asdict(reversed_order.stats) != asdict(result.stats)

    def test_unknown_source_is_named_before_any_round(self):
        net, assignment, streams = app_case("atm", instances=5)
        lists = [list(stream) for stream in streams]
        lists[2].insert(3, Event(time=lists[2][3].time, source="no_such_source"))
        for form in (lists, as_streams(lists)):
            simulator = FleetSimulator(net, assignment)
            with pytest.raises(
                NotEnabledError, match="unknown source transition 'no_such_source'"
            ):
                simulator.run(form)
            assert simulator.kernel.events_total == 0

    def test_unused_unknown_name_in_a_sliced_table_is_harmless(self):
        net, assignment, streams = app_case("atm", instances=5)
        lists = [list(stream) for stream in streams]
        lists[4].append(Event(time=1e9, source="no_such_source"))
        packed = as_streams(lists)
        assert "no_such_source" in packed[:4].columns.sources
        assert_identical(
            FleetSimulator(net, assignment).run(lists[:4]),
            FleetSimulator(net, assignment).run(packed[:4]),
        )

    @pytest.mark.parametrize("memo", [True, False])
    def test_source_not_enabled_names_the_instance_row(self, memo):
        net, assignment, streams = app_case("atm", instances=5)
        lists = [list(stream) for stream in streams]
        lists[3][1] = Event(time=lists[3][1].time, source="t_parse_header")
        simulator = FleetSimulator(net, assignment)
        simulator.kernel = FleetEngine(net, assignment, memo=memo)
        with pytest.raises(NotEnabledError) as caught:
            simulator.run(as_streams(lists))
        assert str(caught.value) == (
            "transition 't_parse_header' is not enabled in instance 3"
        )
        assert caught.value.instance == 3

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_nan_time_is_refused(self, engine):
        net, assignment, streams = app_case("atm", instances=3)
        lists = [list(stream) for stream in streams]
        lists[1][2] = Event(time=float("nan"), source=lists[1][2].source)
        for form in (lists, as_streams(lists)):
            with pytest.raises(ValueError, match="NaN"):
                FleetSimulator(net, assignment, engine=engine).run(form)


def parent_events_to_injects(streams):
    """The per-Event loop that ``events_to_injects`` replaced."""
    flat = []
    for instance, stream in enumerate(streams):
        for event in stream:
            flat.append(
                (
                    event.time,
                    instance,
                    InjectEvent(
                        instance=instance,
                        source=event.source,
                        time=event.time,
                        choices=dict(event.choices),
                    ),
                )
            )
    flat.sort(key=lambda item: item[0])
    return [inject for _, _, inject in flat]


class TestWireBoundary:
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_injects_from_columns_match_the_per_event_loop(self, key):
        _, _, streams = build_case(key)
        expected = parent_events_to_injects([list(s) for s in streams])
        actual = events_to_injects(streams)
        assert actual == expected
        # the view builds its items on demand: hold them all, so no
        # dropped item's id() is reused, and check every inject owns its
        # choices dict
        items = list(actual)
        assert len({id(inject.choices) for inject in items}) == len(items)
        for inject in items:
            assert type(inject.instance) is int
            assert type(inject.time) is float
            assert type(inject.source) is str
            assert type(inject.choices) is dict
        assert [encode_message(i) for i in items] == [
            encode_message(i) for i in expected
        ]

    def test_pack_matches_per_event_intern_raw(self):
        net = atm.build_atm_server_net()
        supervisor = FleetSupervisor(
            net, ModuleAssignment.from_groups(atm.MODULE_PARTITION)
        )
        a = {"p_timer_state": "t_slot_even", "p_queue_status": "t_queues_empty"}
        reordered = dict(reversed(list(a.items())))
        batch = [
            InjectEvent(instance=7, source="t_tick", choices=a),
            InjectEvent(instance=-3, source="t_cell"),
            InjectEvent(instance=7, source="t_tick", choices=dict(a)),
            InjectEvent(instance=2**40, source="t_tick", choices=reordered),
            InjectEvent(instance=0, source="t_cell", choices={}),
            InjectEvent(instance=7, source="t_tick", choices=reordered),
        ]
        packed = supervisor.pack(inject_columns(batch))
        reference = SignatureTable(supervisor.compiled)
        index = supervisor.compiled.transition_index
        assert packed.instances.dtype == np.int64
        assert packed.instances.tolist() == [e.instance for e in batch]
        assert packed.sources.tolist() == [index[e.source] for e in batch]
        assert packed.signatures.tolist() == [
            reference.intern_raw(tuple(e.choices.items())) for e in batch
        ]
        # reordered resolutions share their canonical id
        assert packed.signatures[0] == packed.signatures[3] != 0
        assert packed.signatures[1] == packed.signatures[4] == 0

    def test_pack_refuses_an_unknown_source_naming_it(self):
        net = atm.build_atm_server_net()
        supervisor = FleetSupervisor(net, ModuleAssignment.single_task(net))
        with pytest.raises(NotEnabledError, match="'nope'"):
            supervisor.pack(
                inject_columns(
                    [
                        InjectEvent(instance=0, source="t_tick"),
                        InjectEvent(instance=1, source="nope"),
                    ]
                )
            )


def atm_view(instances=6, cells=5, seed=3):
    streams = atm.make_fleet_testbench(instances, cells=cells, seed=seed)
    return events_to_injects(streams)


class TestInjectView:
    """``events_to_injects`` returns a ``Sequence[InjectEvent]`` view over
    one time-ordered ``EventColumns``: these pin it to the list it
    stands for."""

    def test_is_a_view_over_time_ordered_columns(self):
        streams = atm.make_fleet_testbench(6, cells=5, seed=3)
        view = events_to_injects(streams)
        assert isinstance(view, InjectView)
        assert inject_columns(view) is view.columns
        assert view.columns.sources is streams.columns.sources
        assert view.columns.choices is streams.columns.choices
        assert np.all(np.diff(view.columns.time) >= 0)

    def test_len_and_indices(self):
        view = atm_view()
        items = list(view)
        assert len(view) == len(items) > 0
        for index in (0, 1, len(items) // 2, len(items) - 1, -1, -len(items)):
            assert view[index] == items[index]
        assert view[np.int64(2)] == items[2]
        for index in (len(items), -len(items) - 1, 10**6):
            with pytest.raises(IndexError):
                view[index]
        with pytest.raises(TypeError):
            view[1.0]

    def test_every_item_gets_its_own_choices_dict(self):
        view = atm_view()
        index = next(i for i, inject in enumerate(view) if inject.choices)
        first, second = view[index], view[index]
        assert first == second and first.choices is not second.choices
        first.choices.clear()
        assert view[index].choices == second.choices != {}

    @pytest.mark.parametrize(
        "cut",
        [
            slice(None),
            slice(3, 17),
            slice(None, None, 3),
            slice(5, None, 4),
            slice(None, None, -1),
            slice(-3, 2, -2),
            slice(10, 10),
            slice(9, 2),
            slice(-1000, 1000),
        ],
        ids=[
            "all",
            "range",
            "step",
            "offset_step",
            "reversed",
            "negative_step",
            "empty",
            "empty_backward",
            "beyond_both_ends",
        ],
    )
    def test_slices_are_views_equal_to_the_list_slice(self, cut):
        view = atm_view()
        part = view[cut]
        assert isinstance(part, InjectView)
        assert part.columns.sources is view.columns.sources
        assert part.columns.choices is view.columns.choices
        assert list(part) == list(view)[cut]
        assert len(part) == len(list(view)[cut])

    def test_nested_slices(self):
        view = atm_view()
        items = list(view)
        assert list(view[2:60][3:40:2]) == items[2:60][3:40:2]
        assert list(view[::-1][::3][1:]) == items[::-1][::3][1:]
        assert list(view[5:][-4:][::-1]) == items[5:][-4:][::-1]

    def test_iteration_crosses_its_batches(self, monkeypatch):
        import repro.service.messages as messages

        view = atm_view()
        expected = [view[i] for i in range(len(view))]
        monkeypatch.setattr(messages, "_VIEW_BATCH", 7)
        assert list(view) == expected

    def test_equality_goes_by_content(self):
        view = atm_view()
        items = list(view)
        assert view == items and items == view
        assert view == tuple(items) and view == events_to_injects(
            [list(s) for s in atm.make_fleet_testbench(6, cells=5, seed=3)]
        )
        assert view != items[:-1]
        changed = list(items)
        changed[3] = InjectEvent(
            instance=changed[3].instance + 1,
            source=changed[3].source,
            time=changed[3].time,
            choices=changed[3].choices,
        )
        assert view != changed
        assert view != 5 and view != "not injects"
        assert view[:0] == [] and view[:0] != [items[0]]
        with pytest.raises(TypeError):
            hash(view)


class TestColumnsPack:
    def test_name_tables_and_id_zero(self):
        events = [
            Event(time=2, source="b", choices={"p": "x", "q": "y"}),
            Event(time=1.5, source="a"),
            Event(time=0.5, source="b", choices={"q": "y", "p": "x"}),
            Event(time=3.0, source="b", choices={"p": "x", "q": "y"}),
        ]
        columns = EventColumns.pack((9, event) for event in events)
        assert len(columns) == 4
        assert columns.sources == ("b", "a")
        assert columns.choices == (
            (),
            (("p", "x"), ("q", "y")),
            (("q", "y"), ("p", "x")),
        )
        assert columns.source.tolist() == [0, 1, 0, 0]
        assert columns.signature.tolist() == [1, 0, 2, 1]
        assert columns.instance.tolist() == [9, 9, 9, 9]
        assert columns.time.dtype == np.float64
        assert columns.time.tolist() == [2.0, 1.5, 0.5, 3.0]
