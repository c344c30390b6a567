"""Sweep engine, figure presets, the fig-defaults fixture and the CLI."""

from .config import load_fig_defaults
from .presets import PRESET_NAMES, preset
from .sweep import (
    AXIS_NAMES,
    SweepResult,
    SweepSpec,
    csv_bytes,
    emit_csv,
    load_sweep_spec,
    run_sweep,
)

__all__ = [
    "AXIS_NAMES",
    "PRESET_NAMES",
    "SweepResult",
    "SweepSpec",
    "csv_bytes",
    "emit_csv",
    "load_fig_defaults",
    "load_sweep_spec",
    "preset",
    "run_sweep",
]
