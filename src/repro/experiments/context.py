"""Shared experiment context: the dataset and the standard splits.

All experiments share the paper's protocol: a semester-length synthetic
trace, pre-processed to the 25-sensor + 2-thermostat analysis set,
usable days split half/half into training and validation per HVAC mode.
The context is cached per (days, seed) so running every experiment (or
benchmark) generates the trace once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import rng as rng_mod
from repro.data.dataset import AuditoriumDataset
from repro.data.modes import OCCUPIED, UNOCCUPIED
from repro.data.synth import SynthOutput, default_output
from repro.geometry.layout import THERMOSTAT_IDS

__all__ = [
    "ExperimentContext",
    "get_context",
    "resolve_context",
]

#: Trace length used by default for experiments; the paper's is 98 days.
DEFAULT_DAYS = 98.0


@dataclass
class ExperimentContext:
    """The dataset views every experiment works from."""

    output: SynthOutput
    #: The pre-processed 25-sensor + 2-thermostat dataset.
    analysis: AuditoriumDataset
    #: Analysis dataset without the thermostats (clustering operates on
    #: the wireless network only, as in the paper's Figs. 6–8).
    wireless: AuditoriumDataset
    #: Occupied-mode half/half splits.
    train_occupied: AuditoriumDataset
    valid_occupied: AuditoriumDataset
    train_occupied_wireless: AuditoriumDataset
    valid_occupied_wireless: AuditoriumDataset
    #: Unoccupied-mode half/half splits.
    train_unoccupied: AuditoriumDataset
    valid_unoccupied: AuditoriumDataset
    days: float
    seed: int

    @staticmethod
    def create(days: float = DEFAULT_DAYS, seed: int = rng_mod.DEFAULT_SEED) -> "ExperimentContext":
        output = default_output(days=days, seed=seed)
        analysis = output.analysis_dataset
        wireless_ids = [s for s in analysis.sensor_ids if s not in THERMOSTAT_IDS]
        wireless = analysis.select_sensors(wireless_ids)
        train_occ, valid_occ = analysis.split_half_days(OCCUPIED)
        train_occ_w, valid_occ_w = wireless.split_half_days(OCCUPIED)
        train_unocc, valid_unocc = analysis.split_half_days(UNOCCUPIED)
        return ExperimentContext(
            output=output,
            analysis=analysis,
            wireless=wireless,
            train_occupied=train_occ,
            valid_occupied=valid_occ,
            train_occupied_wireless=train_occ_w,
            valid_occupied_wireless=valid_occ_w,
            train_unoccupied=train_unocc,
            valid_unoccupied=valid_unocc,
            days=days,
            seed=seed,
        )


_CONTEXTS: Dict[Tuple[float, int], ExperimentContext] = {}


def get_context(
    days: float = DEFAULT_DAYS, seed: int = rng_mod.DEFAULT_SEED
) -> ExperimentContext:
    """Cached context for (days, seed)."""
    key = (float(days), int(seed))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext.create(*key)
    return _CONTEXTS[key]


def resolve_context(context: Optional[ExperimentContext]) -> ExperimentContext:
    """Default to the paper-scale cached context."""
    return context if context is not None else get_context()
