"""Sweep engine, figure presets, the fig-defaults fixture and the CLI.

Each name of __all__ is imported from its home module when first read
(PEP 562), so importing one module of the package, such as the CLI for
link or chain, does not import the sweep engine.
"""

_HOMES = {
    **dict.fromkeys(("PRESET_NAMES", "load_fig_defaults"), "config"),
    "preset": "presets",
    **dict.fromkeys(("SweepResult", "csv_bytes", "emit_csv"), "rows"),
    **dict.fromkeys(("AXIS_NAMES", "SweepSpec", "load_sweep_spec", "run_sweep"), "sweep"),
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
