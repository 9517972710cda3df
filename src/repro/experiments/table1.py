"""Table I: RMS of prediction error at the 90th percentile.

Occupied and unoccupied modes, first- and second-order models, trained
and validated on the half/half day split.  Paper values (°C):
occupied 0.68 / 0.48, unoccupied 0.37 / 0.25.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.data.modes import OCCUPIED, UNOCCUPIED
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext, resolve_context
from repro.sysid.evaluation import EvaluationOptions, fit_and_evaluate

__all__ = [
    "CELLS",
    "run",
]

PAPER_VALUES = {
    ("occupied", 1): 0.68,
    ("occupied", 2): 0.48,
    ("unoccupied", 1): 0.37,
    ("unoccupied", 2): 0.25,
}

#: The occupied window (06:00–21:00) supports the paper's 13.5 h
#: horizon; the unoccupied window (21:00–06:00) is 9 h long, so its
#: free run uses a 7.5 h horizon.
OCCUPIED_EVAL = EvaluationOptions(start_offset_hours=1.5, horizon_hours=13.5)
UNOCCUPIED_EVAL = EvaluationOptions(start_offset_hours=0.5, horizon_hours=7.5)

#: The identification cells, in the row order of the rendered table.
CELLS = (
    (OCCUPIED.name, 1),
    (OCCUPIED.name, 2),
    (UNOCCUPIED.name, 1),
    (UNOCCUPIED.name, 2),
)


def _cell_inputs(ctx: ExperimentContext, mode_name: str):
    """``(mode, train, valid, eval_options)`` for one cell's mode."""
    if mode_name == OCCUPIED.name:
        return OCCUPIED, ctx.train_occupied, ctx.valid_occupied, OCCUPIED_EVAL
    return UNOCCUPIED, ctx.train_unoccupied, ctx.valid_unoccupied, UNOCCUPIED_EVAL


def _cell_row(
    ctx: ExperimentContext, mode_name: str, order: int, ridge: float = 0.0
) -> List[Any]:
    """Fit/free-run one (mode, order) cell and return its table row."""
    mode, train, valid, eval_options = _cell_inputs(ctx, mode_name)
    _, evaluation = fit_and_evaluate(
        train, valid, order=order, mode=mode, ridge=ridge, evaluation=eval_options
    )
    measured = evaluation.overall_percentile(90.0)
    return [
        mode.name,
        order,
        round(measured, 3),
        PAPER_VALUES[(mode.name, order)],
        evaluation.n_days,
    ]


def run(context: Optional[ExperimentContext] = None, ridge: float = 0.0) -> ExperimentResult:
    """Reproduce Table I."""
    ctx = resolve_context(context)
    return ExperimentResult(
        experiment_id="table1",
        title="RMS of prediction error at 90th percentile (degC)",
        headers=["mode", "order", "measured", "paper", "days"],
        rows=[_cell_row(ctx, mode_name, order, ridge) for mode_name, order in CELLS],
        notes=[
            "shape targets: second-order < first-order in both modes; "
            "occupied error > unoccupied error",
            f"occupied horizon {OCCUPIED_EVAL.horizon_hours} h, "
            f"unoccupied horizon {UNOCCUPIED_EVAL.horizon_hours} h "
            "(the overnight window is only 9 h long)",
        ],
    )
