"""Built-in figure presets: fig2, fig3 and fig4 sweep grids.

Each preset combines defining constants (the scenario each figure
studies) with radio values from the packaged fig-defaults calibration
fixture. Fixture values are implementer calibration, tuned once so the
case-study trends hold; they are not authoritative inputs, and every
fixed value's origin is recorded in the CSV provenance header.
"""

from ..errors import PresetError
from ..geometry import echo
from .config import PRESET_NAMES, load_fig_defaults
from .sweep import SweepSpec

_ELEVATIONS = tuple(float(a) for a in range(10, 91, 10))


def preset(name: str) -> SweepSpec:
    """Sweep spec for one of the built-in figure presets."""
    if name not in PRESET_NAMES:
        raise PresetError(
            f"unknown preset {echo(name)}; valid names: {', '.join(PRESET_NAMES)}"
        )
    fx = load_fig_defaults()
    fixture = {"tx_power_dbm": fx["tx_power_dbm"], "g_tx_dbi": fx["g_tx_dbi"]}

    if name == "fig2":
        axes = (
            ("altitude_km", (300.0, 600.0, 1200.0, 35786.0)),
            ("fc_ghz", (2.0, 6.0, 20.0, 30.0, 50.0, 70.0, 90.0)),
            ("g_rx_dbi", (30.0, 40.0, 50.0, 60.0)),
        )
        fixed: dict[str, object] = {"elevation_deg": 10.0, "scenario": "dense_urban"}
        fixture["noise_temperature_k"] = fx["noise_temperature_k"]  # the g_rx_dbi form
    elif name == "fig3":
        axes = (
            ("elevation_deg", _ELEVATIONS),
            ("scenario", ("dense_urban", "rural")),
        )
        fixed = {"altitude_km": 300.0, "g_over_t_dbi_per_k": 15.9, "fc_ghz": 20.0}
    else:
        axes = (
            ("elevation_deg", _ELEVATIONS),
            ("altitude_km", (300.0, 600.0, 1200.0)),
            ("mode", ("direct", "relay")),
        )
        fixed = {
            "fc_ghz": 20.0,
            "scenario": "dense_urban",
            "hap_altitude_km": 20.0,
            "relay_mode": "af",
            "g_over_t_dbi_per_k": 15.9,
        }
    fixed.update(fixture)

    provenance = [f"preset: {name}"]
    for key in sorted(fixed):
        if key in fixture:
            source = "calibration fixture fig-defaults"
        elif name == "fig3" and key == "fc_ghz":
            source = "implementer choice (carrier not part of the preset definition)"
        else:
            source = "preset constant"
        provenance.append(f"fixed {key} = {fixed[key]} ({source})")
    return SweepSpec(axes=axes, fixed=fixed, provenance=tuple(provenance))
