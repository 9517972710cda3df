"""Experiment runners: one per table and figure of the paper.

Each module exposes ``run(context=None, ...) -> ExperimentResult``; the
registry in :data:`EXPERIMENTS` maps the paper's table/figure IDs to
those runners so the CLI and the benchmarks can drive them uniformly.
The runner (:mod:`repro.experiments.runner`) schedules each entry as
one task.  An entry that declares ``NEEDS_CONTEXT = False`` (today
``ext-fleet``) is called as ``run(seed=...)`` and never waits for the
shared trace.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext

from types import SimpleNamespace

from repro.experiments import (
    ext_analysis,
    ext_control,
    ext_fleet,
    ext_streaming,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    robustness,
    table1,
    table2,
)

#: Registry: experiment id -> runner (each entry exposes ``run``).
#: ``table*``/``fig*`` reproduce the paper; ``ext-*`` are extensions.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "ext-control": ext_control,
    "ext-occupancy": SimpleNamespace(run=ext_analysis.run_occupancy),
    "ext-order": SimpleNamespace(run=ext_analysis.run_order_sweep),
    "ext-stability": SimpleNamespace(run=ext_analysis.run_stability),
    "ext-fleet": ext_fleet,
    "ext-streaming": ext_streaming,
    "robustness": robustness,
    "robustness-count": SimpleNamespace(run=robustness.run_count_sweep),
}

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "EXPERIMENTS",
]
