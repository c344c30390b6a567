"""Cartesian parameter sweeps with deterministic CSV emission.

Row order is the product of the axes in declaration order (first axis
slowest). A grid
point that fails to evaluate produces a row whose metric columns are
empty and whose `error` column carries the reason; the sweep continues.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

from ..channel import AtmosphereTable, Scenario, ScenarioTable, load_scenario_table
from ..errors import NtnSimError, SpecError
from ..geometry import LinkGeometry, classify_station
from ..linkbudget import LinkResult, RadioConfig, evaluate_link
from ..relay import RelayChain, RelayHop, RelayMode, evaluate_chain
from .config import parse_float, parse_sections

AXIS_NAMES = ("altitude_km", "fc_ghz", "elevation_deg", "g_rx_dbi", "scenario", "mode")

_RADIO_KEYS = (
    "fc_ghz",
    "tx_power_dbm",
    "g_tx_dbi",
    "g_rx_dbi",
    "g_over_t_dbi_per_k",
    "noise_temperature_k",
    "bandwidth_hz",
)
FIXED_KEYS = (
    set(AXIS_NAMES)
    | set(_RADIO_KEYS)
    | {"excess_mode", "hap_altitude_km", "relay_mode"}
)

METRIC_COLUMNS = (
    "fspl_db",
    "gas_db",
    "scintillation_db",
    "excess_db",
    "total_db",
    "snr_db",
    "capacity_bps",
)
# Columns a schema may request beyond axes and metrics.
EXTRA_COLUMNS = ("slant_range_km", "bandwidth_hz", "label", "error")

MODE_DIRECT = "direct"
MODE_RELAY = "relay"


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid: swept axes, fixed parameters, output schema."""

    axes: tuple[tuple[str, tuple], ...]
    fixed: dict[str, object]
    output_schema: tuple[str, ...] = ()
    seed: int | None = None
    provenance: tuple[str, ...] = ()

    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def schema(self) -> tuple[str, ...]:
        if self.output_schema:
            return self.output_schema
        return self.axis_names() + METRIC_COLUMNS + ("error",)

    def grid_size(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n


def _validate_spec(spec: SweepSpec) -> None:
    seen: set[str] = set()
    for name, values in spec.axes:
        if name not in AXIS_NAMES:
            raise SpecError(f"unknown axis {name!r}; axes may be {AXIS_NAMES}")
        if name in seen:
            raise SpecError(f"axis {name!r} declared twice")
        seen.add(name)
        if len(values) == 0:
            raise SpecError(f"axis {name!r} is empty")
        if name in spec.fixed:
            raise SpecError(f"{name!r} appears in both axes and fixed")
    for key in spec.fixed:
        if key not in FIXED_KEYS:
            raise SpecError(f"unknown fixed parameter {key!r}")

    def provided(key: str) -> bool:
        return key in seen or key in spec.fixed

    for required in ("altitude_km", "fc_ghz", "elevation_deg", "scenario"):
        if not provided(required):
            raise SpecError(f"parameter {required!r} missing from axes and fixed")
    if "tx_power_dbm" not in spec.fixed:
        raise SpecError("fixed parameter 'tx_power_dbm' is required")

    has_grx = provided("g_rx_dbi")
    has_got = "g_over_t_dbi_per_k" in spec.fixed
    if has_grx == has_got:
        raise SpecError(
            "exactly one receiver form is required: g_rx_dbi (axis or fixed) "
            "or fixed g_over_t_dbi_per_k"
        )
    if has_grx and "noise_temperature_k" not in spec.fixed:
        raise SpecError("noise_temperature_k is required with the g_rx_dbi form")

    modes = dict(spec.axes).get("mode", (spec.fixed.get("mode", MODE_DIRECT),))
    bad = [m for m in modes if m not in (MODE_DIRECT, MODE_RELAY)]
    if bad:
        raise SpecError(f"mode values must be 'direct' or 'relay', got {bad}")
    if MODE_RELAY in modes and "hap_altitude_km" not in spec.fixed:
        raise SpecError("relay mode requires fixed parameter 'hap_altitude_km'")

    relay_mode = spec.fixed.get("relay_mode", RelayMode.AMPLIFY_FORWARD.value)
    if relay_mode not in (m.value for m in RelayMode):
        raise SpecError(f"relay_mode must be 'af' or 'df', got {relay_mode!r}")

    excess_mode = spec.fixed.get("excess_mode", "expected")
    if excess_mode not in ("expected", "sampled"):
        raise SpecError(f"excess_mode must be 'expected' or 'sampled', got {excess_mode!r}")
    if excess_mode == "sampled" and spec.seed is None:
        raise SpecError("sampled excess mode requires a seed")

    known_metrics = set(METRIC_COLUMNS) | set(EXTRA_COLUMNS) | set(AXIS_NAMES)
    for col in spec.schema():
        if col not in known_metrics:
            raise SpecError(f"unknown output column {col!r}")


@dataclass(frozen=True)
class SweepResult:
    schema: tuple[str, ...]
    rows: tuple[dict[str, object], ...]
    provenance: tuple[str, ...] = ()

    def error_rows(self) -> tuple[dict[str, object], ...]:
        return tuple(r for r in self.rows if r.get("error"))


def _build_radio(params: dict[str, object]) -> RadioConfig:
    # Keys absent from the spec fall back to the RadioConfig defaults.
    return RadioConfig(**{
        key: float(value)
        for key in _RADIO_KEYS
        if (value := params.get(key)) is not None
    })


def _evaluate_point(
    params: dict[str, object],
    table: AtmosphereTable,
    scenario_table: ScenarioTable,
    sampled_seed: int | None,
) -> LinkResult:
    altitude = float(params["altitude_km"])
    elevation = float(params["elevation_deg"])
    classify_station(altitude)  # reject gap altitudes before any geometry
    scenario = params["scenario"]
    if not isinstance(scenario, Scenario):
        scenario = Scenario.from_name(str(scenario))
    radio = _build_radio(params)
    mode = params.get("mode", MODE_DIRECT)
    if mode == MODE_DIRECT:
        geometry = LinkGeometry.from_endpoints(0.0, altitude, elevation)
        return evaluate_link(
            geometry,
            radio,
            scenario,
            table,
            scenario_table=scenario_table,
            sampled_seed=sampled_seed,
        )
    hap_km = float(params["hap_altitude_km"])
    chain = RelayChain(
        hops=(
            RelayHop(LinkGeometry.from_endpoints(hap_km, altitude, elevation), radio),
            RelayHop(LinkGeometry.from_endpoints(0.0, hap_km, elevation), radio),
        ),
        mode=RelayMode(str(params.get("relay_mode", RelayMode.AMPLIFY_FORWARD.value))),
        scenario=scenario,
    )
    return evaluate_chain(
        chain, table, scenario_table, sampled_seed=sampled_seed
    )


def result_row(result: LinkResult) -> dict[str, object]:
    """Metric and extra columns of one evaluated link or chain."""
    slant = (
        sum(h.geometry.slant_range_km for h in result.hops)
        if result.hops
        else result.geometry.slant_range_km
    )
    return {
        "slant_range_km": slant,
        "fspl_db": result.breakdown.fspl_db,
        "gas_db": result.breakdown.gas_db,
        "scintillation_db": result.breakdown.scintillation_db,
        "excess_db": result.breakdown.excess_db,
        "total_db": result.breakdown.total_db,
        "snr_db": result.snr_db,
        "capacity_bps": result.capacity_bps,
        "bandwidth_hz": result.bandwidth_hz,
        "label": result.label,
        "error": "",
    }


# Metric and extra columns of a row whose point failed to evaluate.
_FAILED_ROW = {
    **dict.fromkeys(METRIC_COLUMNS + ("slant_range_km", "bandwidth_hz")),
    "label": "",
}


def run_sweep(
    spec: SweepSpec,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
) -> SweepResult:
    """Evaluate every grid point of a sweep spec, in the spec's row order."""
    _validate_spec(spec)
    if scenario_table is None:
        scenario_table = load_scenario_table()
    sampled = spec.fixed.get("excess_mode", "expected") == "sampled"
    axis_names = spec.axis_names()

    def evaluate(index: int, combo: tuple) -> dict[str, object]:
        params = dict(spec.fixed)
        params.update(zip(axis_names, combo))
        seed = (spec.seed ^ index) if sampled else None
        row: dict[str, object] = dict(zip(axis_names, combo))
        try:
            row.update(result_row(
                _evaluate_point(params, table, scenario_table, seed)
            ))
        except NtnSimError as exc:
            row.update(_FAILED_ROW)
            row["error"] = str(exc)
        return row

    points = itertools.product(*(values for _, values in spec.axes))
    rows = tuple(evaluate(index, combo) for index, combo in enumerate(points))

    provenance = spec.provenance + (
        f"atmosphere table version: {table.version}",
        f"scenario table version: {scenario_table.version}",
    )
    if sampled:
        provenance += (f"sampled excess mode, seed {spec.seed}",)
    return SweepResult(schema=spec.schema(), rows=rows, provenance=provenance)


def format_value(value: object) -> str:
    """Fixed CSV cell formatting: floats at 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, Scenario):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(result: SweepResult, destination) -> None:
    """Write a sweep result as CSV: provenance comments, header, rows.

    destination is a path or a text file object. Output is UTF-8 with
    LF line endings and is byte-identical for identical results.
    """
    if hasattr(destination, "write"):
        _write_csv(result, destination)
        return
    path = Path(destination)
    with path.open("w", encoding="utf-8", newline="") as handle:
        _write_csv(result, handle)


def _write_csv(result: SweepResult, handle) -> None:
    for line in result.provenance:
        handle.write(f"# {line}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(result.schema)
    for row in result.rows:
        writer.writerow([format_value(row.get(col)) for col in result.schema])


def csv_bytes(result: SweepResult) -> bytes:
    buffer = io.StringIO()
    _write_csv(result, buffer)
    return buffer.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Sweep spec files
# ---------------------------------------------------------------------------

_AXIS_STRING_VALUES = {"scenario", "mode"}
_FIXED_STRING_KEYS = {"scenario", "mode", "relay_mode", "excess_mode"}


def _spec_float(value: str, key: str, name: str, lineno: int) -> float:
    try:
        return parse_float(value, key, name, lineno)
    except NtnSimError as exc:
        raise SpecError(str(exc)) from None


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Read a sweep spec file ([axes] and [fixed] sections, optional seed)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read sweep spec {p}: {exc}") from exc
    sections = parse_sections(text, p.name, SpecError)
    known = {"", "axes", "fixed", "output"}
    unknown = set(sections) - known
    if unknown:
        raise SpecError(f"{p.name}: unknown sections {sorted(unknown)}")

    axes: list[tuple[str, tuple]] = []
    for key, (value, lineno) in sections.get("axes", {}).items():
        parts = [v.strip() for v in value.split(",") if v.strip()]
        if key in _AXIS_STRING_VALUES:
            axes.append((key, tuple(parts)))
        else:
            axes.append(
                (key, tuple(_spec_float(v, key, p.name, lineno) for v in parts))
            )

    fixed: dict[str, object] = {}
    for key, (value, lineno) in sections.get("fixed", {}).items():
        if key in _FIXED_STRING_KEYS:
            fixed[key] = value
        elif key == "bandwidth_hz" and value.lower() == "auto":
            fixed[key] = None
        else:
            fixed[key] = _spec_float(value, key, p.name, lineno)
    if "bandwidth_hz" in fixed and fixed["bandwidth_hz"] is None:
        del fixed["bandwidth_hz"]  # Auto is the default; keep fixed minimal

    seed = None
    schema: tuple[str, ...] = ()
    top = dict(sections.get("", {}))
    if "seed" in top:
        value, lineno = top.pop("seed")
        try:
            seed = int(value)
        except ValueError:
            raise SpecError(f"{p.name}:{lineno}: seed must be an integer") from None
    if top:
        raise SpecError(f"{p.name}: unexpected top-level keys {sorted(top)}")
    if "columns" in sections.get("output", {}):
        value, _ = sections["output"]["columns"]
        schema = tuple(v.strip() for v in value.split(",") if v.strip())

    spec = SweepSpec(
        axes=tuple(axes),
        fixed=fixed,
        output_schema=schema,
        seed=seed,
        provenance=(f"sweep spec: {p.name}",),
    )
    _validate_spec(spec)
    return spec
