"""Sweep engine, figure presets, the fig-defaults fixture and the CLI.

Import each name from the module that defines it:

- config: the `key = value` grammar, the parameter parsers, PRESET_NAMES
  and load_fig_defaults;
- rows: the result (SweepResult, SweepRows), its columns and the CSV
  writer (csv_bytes, emit_csv);
- sweep: SweepSpec, AXIS_NAMES, load_sweep_spec and run_sweep;
- presets: preset, the figure presets' specs;
- cli: the ntnsim command.
"""
