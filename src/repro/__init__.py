"""repro — Quasi-Static Scheduling and software synthesis from Free-Choice Petri Nets.

A from-scratch Python reproduction of

    M. Sgroi, L. Lavagno, Y. Watanabe, A. Sangiovanni-Vincentelli,
    "Synthesis of Embedded Software Using Free-Choice Petri Nets",
    Design Automation Conference (DAC), 1999.

Subpackages
-----------
``repro.petrinet``
    Petri net data model, structure theory, T-invariants, reachability,
    boundedness and liveness analysis.
``repro.sdf``
    Synchronous dataflow graphs, balance equations and fully static
    scheduling (the special case QSS generalizes).
``repro.qss``
    The paper's contribution: T-allocations, T-reductions, quasi-static
    schedulability, valid schedules and task partitioning.
``repro.codegen``
    Software synthesis: structured task IR, C emission and a cycle-level
    interpreter for the simulated target.
``repro.runtime``
    RTOS model, cycle cost model, event streams and reactive execution.
``repro.baselines``
    Comparison implementations (functional task partitioning, fully
    dynamic scheduling, safe-net single-task synthesis).
``repro.apps``
    Case studies, most importantly the ATM server of Section 5.
``repro.gallery``
    The nets of the paper's figures.
``repro.analysis``
    Table builders, code/buffer metrics and trade-off exploration.

Quickstart
----------
>>> from repro.gallery import figure3a_schedulable
>>> from repro.qss import compute_valid_schedule
>>> from repro.codegen import synthesize, emit_c
>>> schedule = compute_valid_schedule(figure3a_schedulable())
>>> program = synthesize(schedule)
>>> print(emit_c(program).source)      # doctest: +SKIP
"""

__version__ = "1.0.0"

__all__ = [
    "petrinet",
    "sdf",
    "qss",
    "codegen",
    "runtime",
    "baselines",
    "apps",
    "gallery",
    "analysis",
]
