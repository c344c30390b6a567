"""The benchmark's three workloads: inputs made from the seed, timed loops, checks.

Load is one closed loop in one process: each sweep pass or CLI
invocation finishes before the next one starts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from oracle import CHECKED, CSV_TOL, REL_TOL, body_lines, csv_columns, mismatched, parse_csv
from timing import Calibration, low
from tracer import Tracer

FC_GHZ = (2.0, 6.0, 20.0, 30.0, 50.0, 70.0, 90.0)
ELEVATIONS_DEG = tuple(float(e) for e in range(10, 91))
SCENARIO = "dense_urban"
RADIO = {"g_over_t_dbi_per_k": 15.9, "tx_power_dbm": 18.0}  # g_tx default, Auto bandwidth
HAP_KM = 20.0
GAP_KM = (25.0, 200.0)  # no station class between HAP and LEO
CLI_PER_PASS = 16  # cold single-slice `ntnsim sweep` runs after each in-process pass


@dataclass(frozen=True)
class Grid:
    """One sweep grid; axis values are in the seeded order the spec lists them."""

    name: str
    altitudes: tuple[float, ...]
    relay: bool
    fcs: tuple[float, ...] = FC_GHZ
    elevations: tuple[float, ...] = ELEVATIONS_DEG
    seed: int | None = None  # sampled clutter when set

    @property
    def size(self) -> int:
        return len(self.altitudes) * len(self.fcs) * len(self.elevations)

    def spec_text(self) -> str:
        def values(axis):
            return ", ".join(repr(v) for v in axis)

        lines = [] if self.seed is None else [f"seed = {self.seed}"]
        lines += [
            "[axes]",
            f"altitude_km = {values(self.altitudes)}",
            f"fc_ghz = {values(self.fcs)}",
            f"elevation_deg = {values(self.elevations)}",
            "[fixed]",
            f"scenario = {SCENARIO}",
            f"g_over_t_dbi_per_k = {RADIO['g_over_t_dbi_per_k']}",
            f"tx_power_dbm = {RADIO['tx_power_dbm']}",
            "bandwidth_hz = auto",
            f"excess_mode = {'expected' if self.seed is None else 'sampled'}",
        ]
        if self.relay:
            lines += ["mode = relay", f"hap_altitude_km = {HAP_KM}", "relay_mode = af"]
        return "\n".join(lines) + "\n"

    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Altitude, carrier and elevation of every row, first axis slowest."""
        mesh = np.meshgrid(self.altitudes, self.fcs, self.elevations, indexing="ij")
        return tuple(m.ravel() for m in mesh)


def make_grid(workload: str, seed: int) -> Grid:
    """The workload's grid; the seed orders every axis and picks the clutter seed."""
    rng = random.Random(seed)
    if workload == "grid_direct":
        altitudes, relay = [300.0 + 10 * i for i in range(100)], False
    else:
        altitudes, relay = [100.0 + 40 * i for i in range(30)], True
    fcs, elevations = list(FC_GHZ), list(ELEVATIONS_DEG)
    for axis in (altitudes, fcs, elevations):
        rng.shuffle(axis)
    return Grid(
        name=workload,
        altitudes=tuple(altitudes),
        relay=relay,
        fcs=tuple(fcs),
        elevations=tuple(elevations),
        seed=rng.randrange(1, 2**31) if relay else None,
    )


class Tally:
    """Checks attempted and failed, with a message for each of the first 20 failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += int(failed)
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {int(failed)} of {attempted} failed")

    def compare(self, lines: list[str], reference: list[str], what: str) -> None:
        """Every header and data line must repeat the oracle-checked reference."""
        bad = sum(a != b for a, b in zip(lines, reference)) + abs(len(lines) - len(reference))
        self.add(len(reference), min(bad, len(reference)), what)


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------

def _expected(grid: Grid, oracle, alt, fc, elev, excess):
    if grid.relay:
        return oracle.relay_af(alt, elev, fc, RADIO, SCENARIO, HAP_KM, excess)
    return oracle.direct(alt, elev, fc, RADIO, SCENARIO, excess)


def _gap_message_ok(message: str) -> bool:
    return "gap" in message and "HAP" in message and "LEO" in message


def check_reference(grid: Grid, result, text: str, oracle, tally: Tally) -> list[str]:
    """Check one sweep's rows (1e-9) and CSV (6 digits); return its CSV body lines.

    Error rows are expected exactly at the gap altitudes, with a message
    naming the gap; they are not failures.
    """
    alt, fc, elev = grid.points()
    gap = (alt > GAP_KM[0]) & (alt < GAP_KM[1])
    rows = result.rows
    if len(rows) != grid.size:
        tally.add(grid.size, grid.size, f"{grid.name}: {len(rows)} rows")
        return body_lines(text)

    def column(name):
        return np.array([np.nan if r[name] is None else r[name] for r in rows], dtype=float)

    bad = (column("altitude_km") != alt) | (column("fc_ghz") != fc) | (column("elevation_deg") != elev)
    errors = [r["error"] for r in rows]
    bad |= np.array([bool(e) for e in errors]) != gap
    bad |= gap & ~np.array([_gap_message_ok(e) for e in errors])
    got = {name: column(name) for name in CHECKED}
    excess = got["excess_db"] if grid.seed is not None else None
    want = _expected(grid, oracle, alt, fc, elev, excess)
    for name in CHECKED:
        bad |= ~gap & mismatched(got[name], want[name], REL_TOL, 1.0)
    if excess is not None:
        bad |= ~gap & ~(excess >= 0)
    tally.add(grid.size, bad.sum(), f"{grid.name}: rows vs closed-form oracle")

    header, body = parse_csv(text)
    if len(body) != grid.size:
        tally.add(grid.size, grid.size, f"{grid.name}: CSV has {len(body)} rows")
        return body_lines(text)
    numeric = [c for c in CHECKED if c in header]
    cells = csv_columns(header, body, ("altitude_km", "fc_ghz", "elevation_deg", *numeric))
    bad = (cells["altitude_km"] != alt) | (cells["fc_ghz"] != fc) | (cells["elevation_deg"] != elev)
    csv_errors = [r[header.index("error")] for r in body]
    bad |= np.array(csv_errors) != np.array(errors)
    for name in numeric:
        bad |= ~gap & mismatched(cells[name], want[name], CSV_TOL, 0.0)
        bad |= gap & ~np.isnan(cells[name])
    tally.add(grid.size, bad.sum(), f"{grid.name}: CSV vs closed-form oracle")
    return body_lines(text)


def _check_seeds_differ(grid: Grid, checkout, modules, tables, tally: Tally) -> None:
    """Sampled clutter must change with the seed (a digest would not survive reseeding)."""
    sub = replace(grid, altitudes=tuple(a for a in grid.altitudes if a >= GAP_KM[1])[:3])
    excess = []
    for seed in (grid.seed, grid.seed + 1):
        spec = modules.sweep.load_sweep_spec(checkout.write(f"{grid.name}_seed.cfg", replace(sub, seed=seed).spec_text()))
        excess.append(np.array([r["excess_db"] for r in modules.sweep.run_sweep(spec, *tables).rows]))
    changed = float(np.mean(excess[0] != excess[1]))
    tally.add(1, changed < 0.5, f"{grid.name}: only {changed:.0%} of sampled rows change with the seed")


def _check_child(child, reference: list[str], tally: Tally, what: str) -> None:
    if child.returncode:
        tally.add(len(reference), len(reference), f"{what} exited {child.returncode}: {child.stderr}")
    else:
        tally.compare(body_lines(child.stdout), reference, what)


def run_grid(grid: Grid, checkout, modules, oracle, seconds: float, traced: bool, tally: Tally):
    """Measure one grid workload; returns (metrics, report notes, tracer or None).

    The whole grid runs once in-process and is checked against the
    oracle; untraced, it also runs once as a cold `ntnsim sweep`, whose
    peak RSS is peak_rss_mb. Timing then uses one slice per elevation
    (every altitude and carrier at that elevation), so that each sample
    is short: a pass sweeps every slice once, in-process, and is
    followed by cold `ntnsim sweep` runs of single slices (cli_s), or,
    traced, by a traced pass.
    """
    sweep = modules.sweep
    tables = (modules.channel.load_atmosphere_table(), modules.channel.load_scenario_table())
    full_path = checkout.write(f"{grid.name}.cfg", grid.spec_text())
    result = sweep.run_sweep(sweep.load_sweep_spec(full_path), *tables)
    errors = sum(1 for row in result.rows if row["error"])
    reference = check_reference(grid, result, sweep.csv_bytes(result).decode("utf-8"), oracle, tally)
    del result
    if grid.seed is not None:
        _check_seeds_differ(grid, checkout, modules, tables, tally)
    if not traced:
        child = checkout.cli(["sweep", "--spec", str(full_path)])
        _check_child(child, reference, tally, f"{grid.name}: cold ntnsim sweep of the whole grid")
        rss = child.maxrss_mb

    kernel, start = Calibration.kernel(), Calibration.start()
    slices = [replace(grid, elevations=(e,)) for e in grid.elevations]
    paths = [checkout.write(f"{grid.name}_{i}.cfg", s.spec_text()) for i, s in enumerate(slices)]
    specs = [sweep.load_sweep_spec(p) for p in paths]
    slice_reference: list[list[str] | None] = [None] * len(slices)

    def sweep_pass(samples: list[float]) -> None:
        gc.collect()
        for i, (piece, spec) in enumerate(zip(slices, specs)):
            t0 = time.perf_counter()
            result = sweep.run_sweep(spec, *tables)
            text = sweep.csv_bytes(result).decode("utf-8")
            samples.append(time.perf_counter() - t0)
            kernel.sample()
            if slice_reference[i] is None:
                slice_reference[i] = check_reference(piece, result, text, oracle, tally)
            else:
                tally.compare(body_lines(text), slice_reference[i], f"{grid.name}: slice {i}")

    tracer = Tracer() if traced else None
    plain: list[float] = []
    other: list[float] = []  # traced slices, or cold single-slice CLI sweeps
    deadline = time.perf_counter() + seconds
    while not other or time.perf_counter() < deadline:
        sweep_pass(plain)
        if traced:
            with tracer:
                sweep_pass(other)
            continue
        for _ in range(CLI_PER_PASS):
            if other and time.perf_counter() >= deadline:
                break
            i = len(other) % len(slices)
            child = checkout.cli(["sweep", "--spec", str(paths[i])], start)
            other.append(child.wall_s)
            _check_child(child, slice_reference[i], tally, f"{grid.name}: cold ntnsim sweep of slice {i}")

    points = slices[0].size
    notes = [
        f"error rows: {errors} of {grid.size} (the gap altitudes; expected, not failures)",
        f"slices: {len(plain)} in-process sweeps of {points} points, median {statistics.median(plain) * 1e3:.2f} ms",
    ]
    if traced:
        notes.append(f"traced slices: {len(other)}, median {statistics.median(other) * 1e3:.2f} ms")
        return {"trace.overhead_ratio": low(other) / low(plain)}, notes, tracer
    notes.append(f"cold single-slice `ntnsim sweep` runs: {len(other)}, median {statistics.median(other):.4f} s")
    notes += [
        f"points_per_s: raw {points / low(plain):.6g} 1/s, {kernel}",
        f"cli_s: raw {low(other):.6g} s, {start}",
    ]
    metrics = {
        "points_per_s": points / low(plain) * kernel.slowdown(),
        "cli_s": low(other) / start.slowdown(),
        "peak_rss_mb": rss,
    }
    return metrics, notes, None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

FIG_DEFAULTS = {"tx_power_dbm": 18.0, "g_tx_dbi": 39.7}  # packaged fig_defaults.cfg
_LINK = ["--alt", "600", "--elev", "30", "--fc", "20"]
CLI_COMMANDS = {
    "preset_fig2": ["preset", "--name", "fig2"],
    "preset_fig3": ["preset", "--name", "fig3"],
    "preset_fig4": ["preset", "--name", "fig4"],
    "link_got": ["link", *_LINK, "--scenario", "dense_urban", "--got", "15.9", "--txpow", "18"],
    "link_grx": ["link", *_LINK, "--grx", "50", "--temp", "290", "--bandwidth", "400e6"],
    "chain_af": [
        "chain", "--hop", "1200:10", "--hop", "20:10", "--mode", "af",
        "--fc", "20", "--scenario", "dense_urban", "--got", "15.9",
    ],
}
# sha256 of each preset's CSV header and rows joined by "\n" (provenance
# comments excluded); the rows were checked against the oracle.
PRESET_DIGESTS = {
    "preset_fig2": "3e16d3ad741c50e97026e5956838a232dbf2ca7eaacb550f38641f4d428d3f0f",
    "preset_fig3": "8a7467b40b3bf41eef63ca76de52dfdf5e926eb705602748f0e4585738a35c9d",
    "preset_fig4": "e8c08a21bd744bbf4de65b2e5d6cd2927776dc3e600e70db772e5813df5803a4",
}


def _cli_expected(name: str, oracle) -> dict[str, np.ndarray]:
    if name == "link_got":
        return oracle.direct(600.0, 30.0, 20.0, {**FIG_DEFAULTS, **RADIO}, SCENARIO)
    if name == "link_grx":
        radio = {**FIG_DEFAULTS, "g_rx_dbi": 50.0, "noise_temperature_k": 290.0, "bandwidth_hz": 400e6}
        return oracle.direct(600.0, 30.0, 20.0, radio, SCENARIO)
    return oracle.relay_af(1200.0, 10.0, 20.0, {**FIG_DEFAULTS, **RADIO}, SCENARIO, HAP_KM)


def check_cli_output(name: str, text: str, oracle) -> tuple[int, str]:
    """(rows emitted, problem or ""); presets by digest, single links by oracle."""
    lines = body_lines(text)
    if name in PRESET_DIGESTS:
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        return len(lines) - 1, "" if digest == PRESET_DIGESTS[name] else "CSV body digest changed"
    header, body = parse_csv(text)
    if len(body) != 1:
        return len(body), f"{len(body)} rows, expected 1"
    missing = [c for c in CHECKED if c not in header]
    if missing:
        return 1, f"columns {missing} missing"
    want = _cli_expected(name, oracle)
    cells = csv_columns(header, body, CHECKED)
    wrong = [c for c in CHECKED if mismatched(cells[c], want[c], CSV_TOL, 0.0).any()]
    return 1, f"columns {wrong} disagree with the oracle" if wrong else ""


def _in_process(modules, argv) -> tuple[int, str, float]:
    buffer = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = modules.cli.main(argv)
    return code, buffer.getvalue(), time.perf_counter() - t0


def run_cli(seed: int, checkout, modules, oracle, seconds: float, traced: bool, tally: Tally):
    """Rounds of every CLI command in a seeded order: cold processes, or in-process when traced."""
    rng = random.Random(seed)
    tracer = Tracer() if traced else None
    start = Calibration.start()
    walls: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}
    rows: dict[str, int] = {}
    rss: list[float] = []
    rounds = {False: [], True: []}  # busy seconds of each round, keyed by traced
    deadline = time.perf_counter() + seconds
    while not rounds[traced] or not rounds[False] or time.perf_counter() < deadline:
        with_trace = traced and len(rounds[True]) < len(rounds[False])
        busy = 0.0
        with tracer if with_trace else contextlib.nullcontext():
            for name in rng.sample(sorted(CLI_COMMANDS), len(CLI_COMMANDS)):
                if traced:
                    code, out, wall = _in_process(modules, CLI_COMMANDS[name])
                    err = ""
                else:
                    child = checkout.cli(CLI_COMMANDS[name], start)
                    code, out, wall, err = child.returncode, child.stdout, child.wall_s, child.stderr
                    walls[name].append(wall)
                    rss.append(child.maxrss_mb)
                rows[name], problem = check_cli_output(name, out, oracle) if code == 0 else (0, f"exit {code}: {err}")
                tally.add(1, bool(problem), f"cli {name}: {problem}")
                busy += wall
        rounds[with_trace].append(busy)

    notes = [f"rounds of {len(CLI_COMMANDS)} commands: {len(rounds[False])}"]
    if traced:
        notes.append(f"traced rounds: {len(rounds[True])} (both in-process)")
        return {"trace.overhead_ratio": low(rounds[True]) / low(rounds[False])}, notes, tracer
    # Each command's own 10th percentile: rounds mix six commands of different cost.
    fastest = {name: low(w) for name, w in walls.items()}
    slowdown = start.slowdown()
    notes += [f"{name}: {len(walls[name])} cold runs, 10th percentile {fastest[name]:.4f} s, "
              f"median {statistics.median(walls[name]):.4f} s" for name in sorted(walls)]
    notes.append(f"cli_s, points_per_s: {start}")
    round_s = sum(fastest.values())
    metrics = {
        "points_per_s": sum(rows.values()) / round_s * slowdown,
        "cli_s": round_s / len(fastest) / slowdown,
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, notes, None
