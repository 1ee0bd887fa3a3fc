#!/usr/bin/env python
"""Quickstart: quasi-static scheduling and C synthesis in a few lines.

This walks the complete flow of the paper on the Figure 4 net (the one
whose generated C listing appears in Section 4):

1. build a Free-Choice Petri Net model of the specification,
2. check quasi-static schedulability and compute a valid schedule,
3. partition the schedule into tasks (one per independent input),
4. generate the C implementation,
5. execute the generated code on the simulated target for a few input
   events and print the cycle counts.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.codegen import EmitOptions, ProgramExecutor, emit_c, synthesize
from repro.petrinet import NetBuilder, is_free_choice
from repro.qss import analyse, compute_valid_schedule, partition_tasks


def build_model():
    """The Figure 4 net: a source, a data-dependent choice, weighted arcs."""
    return (
        NetBuilder("quickstart")
        .source("t1", label="read input sample")
        .arc("t1", "p1")
        .arc("p1", "t2")                 # branch A of the if-then-else
        .arc("t2", "p2")
        .arc("p2", "t4", weight=2)       # t4 needs two results of t2
        .arc("p1", "t3")                 # branch B
        .arc("t3", "p3", weight=2)       # t3 produces two items at once
        .arc("p3", "t5")
        .build()
    )


def main() -> None:
    net = build_model()
    print(net.summary())
    print("free choice:", is_free_choice(net))

    # -- schedulability analysis -------------------------------------------
    report = analyse(net)
    print()
    print(report.explain())
    schedule = compute_valid_schedule(net)
    print(schedule.describe())

    # -- task partitioning and code generation --------------------------------
    partition = partition_tasks(schedule)
    print()
    print(partition.describe())
    program = synthesize(schedule)
    emission = emit_c(program, EmitOptions(standalone_loop=True))
    print()
    print("---- generated C " + "-" * 40)
    print(emission.source)
    print(f"generated lines of C code: {emission.lines_of_code}")

    # -- execute the generated code on the simulated target -----------------
    executor = ProgramExecutor(program)
    print("---- simulated execution " + "-" * 32)
    for outcome in ["t2", "t2", "t3", "t2", "t3"]:
        result = executor.activate_source("t1", {"p1": outcome})
        print(
            f"input event (choice {outcome}): fired {result.fired}, "
            f"{result.cycles} cycles"
        )


if __name__ == "__main__":
    main()
