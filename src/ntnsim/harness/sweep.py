"""Cartesian parameter sweeps with deterministic CSV emission.

Row order is the product of the axes in declaration order (first axis
slowest). A grid
point that fails to evaluate produces a row whose metric columns are
empty and whose `error` column carries the reason; the sweep continues.

One run_sweep call evaluates every point through one LinkEvaluator, so
each stage runs once per distinct input: each altitude is classified
once, each radio built and resolved once, each hop geometry built once
per (low, high, elevation), gas and scintillation computed once per
(carrier, elevation, atmosphere fraction) and expected-mode clutter
once per (scenario, carrier, elevation), and the scenario cell that
sampled clutter draws from once per (scenario, elevation). FSPL, the
loss breakdown, SNR, capacity, the relay fold and the sampled clutter
draw run for every point.
The evaluator is dropped when the call returns, and a stage that raises
stores nothing, so rows equal those of evaluate_link or evaluate_chain
called per point, error messages included.

Sampled clutter gives every point its own stream: the point at row
index i of a sweep with seed s draws from blake2b(b"<s>:<i>") (see
channel.ScenarioRow.sampled_db). Streams of distinct seeds and of
distinct points are unrelated, and a single link or chain with
sampled_seed s draws the stream of row 0.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
from dataclasses import dataclass, fields, replace
from pathlib import Path

from ..channel import (
    SAMPLED_STREAMS,
    AtmosphereTable,
    ScenarioTable,
    load_scenario_table,
)
from ..errors import NtnSimError, SpecError
from ..linkbudget import LinkEvaluator, LinkResult, RadioConfig
from ..relay import RelayChain, RelayHop, fold_chain
from .config import DEFAULT_EXCESS_MODE, PARAMETERS, parse_sections, parse_value

AXIS_NAMES = ("altitude_km", "fc_ghz", "elevation_deg", "g_rx_dbi", "scenario", "mode")

_RADIO_FIELDS = tuple(f.name for f in fields(RadioConfig))

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
# Fixed parameters a spec may leave out, as spec text.
_DEFAULTS = {"mode": MODE_DIRECT, "relay_mode": "af", "excess_mode": DEFAULT_EXCESS_MODE}


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


def _validate_spec(spec: SweepSpec) -> SweepSpec:
    """Check a spec; return it with its values typed through PARAMETERS.

    The fixed parameters of the typed spec include the defaults.
    """
    seen: set[str] = set()
    axes = []
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
        axes.append((name, tuple(parse_value(name, v, SpecError) for v in values)))
    for key in spec.fixed:
        if key not in PARAMETERS or key == "seed":
            raise SpecError(f"unknown fixed parameter {key!r}")
    fixed = {
        key: parse_value(key, value, SpecError)
        for key, value in {**_DEFAULTS, **spec.fixed}.items()
    }
    seed = None if spec.seed is None else parse_value("seed", spec.seed, SpecError)

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

    modes = dict(axes).get("mode", (fixed["mode"],))
    if MODE_RELAY in modes and "hap_altitude_km" not in spec.fixed:
        raise SpecError("relay mode requires fixed parameter 'hap_altitude_km'")
    if fixed["excess_mode"] == "sampled" and seed is None:
        raise SpecError("sampled excess mode requires a seed")

    known_metrics = set(METRIC_COLUMNS) | set(EXTRA_COLUMNS) | set(AXIS_NAMES)
    for col in spec.schema():
        if col not in known_metrics:
            raise SpecError(f"unknown output column {col!r}")
    return replace(spec, axes=tuple(axes), fixed=fixed, seed=seed)


@dataclass(frozen=True)
class SweepResult:
    schema: tuple[str, ...]
    rows: tuple[dict[str, object], ...]
    provenance: tuple[str, ...] = ()

    def error_rows(self) -> tuple[dict[str, object], ...]:
        return tuple(r for r in self.rows if r.get("error"))


def _evaluate_point(
    params: dict[str, object],
    links: LinkEvaluator,
    sampled_seed: int | None,
    index: int,
) -> LinkResult:
    """Evaluate the point at row index from typed params (see _validate_spec)."""
    altitude = params["altitude_km"]
    elevation = params["elevation_deg"]
    links.check_station(altitude)  # reject gap altitudes before any geometry
    # Radio keys absent from the spec fall back to the RadioConfig defaults.
    radio = links.radio(**{
        key: value for key in _RADIO_FIELDS if (value := params.get(key)) is not None
    })
    if params["mode"] == MODE_DIRECT:
        return links.link(
            links.geometry(0.0, altitude, elevation),
            radio,
            params["scenario"],
            sampled_seed=sampled_seed,
            sampled_index=index,
        )
    hap_km = params["hap_altitude_km"]
    links.check_station(hap_km)
    chain = RelayChain(
        hops=(
            RelayHop(links.geometry(hap_km, altitude, elevation), radio),
            RelayHop(links.geometry(0.0, hap_km, elevation), radio),
        ),
        mode=params["relay_mode"],
        scenario=params["scenario"],
    )
    return fold_chain(chain, links, sampled_seed, index)


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
    typed = _validate_spec(spec)
    if scenario_table is None:
        scenario_table = load_scenario_table()
    sampled = typed.fixed["excess_mode"] == "sampled"
    seed = typed.seed if sampled else None
    axis_names = spec.axis_names()
    links = LinkEvaluator(table, scenario_table)

    def evaluate(index: int, combo: tuple, typed_combo: tuple) -> dict[str, object]:
        params = dict(typed.fixed)
        params.update(zip(axis_names, typed_combo))
        # Rows keep the axis values as the spec gave them.
        row: dict[str, object] = dict(zip(axis_names, combo))
        try:
            row.update(result_row(_evaluate_point(params, links, seed, index)))
        except NtnSimError as exc:
            row.update(_FAILED_ROW)
            row["error"] = str(exc)
        return row

    points = zip(
        itertools.product(*(values for _, values in spec.axes)),
        itertools.product(*(values for _, values in typed.axes)),
    )
    rows = tuple(evaluate(index, *point) for index, point in enumerate(points))

    provenance = spec.provenance + (
        f"atmosphere table version: {table.version}",
        f"scenario table version: {scenario_table.version}",
    )
    if sampled:
        provenance += (
            f"sampled excess mode, seed {seed}, per-point streams {SAMPLED_STREAMS}",
        )
    return SweepResult(schema=spec.schema(), rows=rows, provenance=provenance)


def format_value(value: object) -> str:
    """Fixed CSV cell formatting: floats at 6 significant digits."""
    if type(value) is float:  # most cells: tested first
        return f"{value:.6g}"
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
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
    schema = result.schema
    writer.writerows(
        [format_value(row.get(col)) for col in schema] for row in result.rows
    )


def csv_bytes(result: SweepResult) -> bytes:
    buffer = io.StringIO()
    _write_csv(result, buffer)
    return buffer.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Sweep spec files
# ---------------------------------------------------------------------------

def load_sweep_spec(path: str | Path, seed: int | None = None) -> SweepSpec:
    """Read a sweep spec file ([axes] and [fixed] sections, optional seed).

    A seed given here supplies the spec's seed, or replaces the one the
    file sets (ntnsim sweep --seed), before the spec is checked.
    """
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

    def value_of(key: str, text: str, lineno: int) -> object:
        # Checked here to name the line; numbers are kept parsed and
        # words as written. Unknown keys are left to _validate_spec.
        if key not in PARAMETERS:
            return text
        value = parse_value(key, text, SpecError, f"{p.name}:{lineno}: ")
        return value if isinstance(value, (float, int)) else text

    axes = tuple(
        (key, tuple(value_of(key, v, lineno) for v in map(str.strip, value.split(",")) if v))
        for key, (value, lineno) in sections.get("axes", {}).items()
    )
    fixed = {
        key: value_of(key, value, lineno)
        for key, (value, lineno) in sections.get("fixed", {}).items()
    }

    schema: tuple[str, ...] = ()
    top = dict(sections.get("", {}))
    if "seed" in top:
        file_seed = value_of("seed", *top.pop("seed"))  # checked even when replaced
        seed = file_seed if seed is None else seed
    if top:
        raise SpecError(f"{p.name}: unexpected top-level keys {sorted(top)}")
    if "columns" in sections.get("output", {}):
        value, _ = sections["output"]["columns"]
        schema = tuple(v.strip() for v in value.split(",") if v.strip())

    spec = SweepSpec(
        axes=axes,
        fixed=fixed,
        output_schema=schema,
        seed=seed,
        provenance=(f"sweep spec: {p.name}",),
    )
    _validate_spec(spec)
    return spec
