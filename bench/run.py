"""ntnsim benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload grid_direct --seed 1 --seconds 20 --trace 0

Workloads: grid_direct, grid_relay_sampled, cli_cold (see bench/README.md).
The program is imported from this checkout's src/ and nowhere else. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from timing import Calibration, low

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid_direct", "grid_relay_sampled", "cli_cold")
PROBES = 25  # fresh interpreters per probe metric
REPEATS = 30  # in-process calls per standalone layer timing


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


class Checkout:
    """The checkout under test: its src/, a scratch directory, child processes."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = BENCH / ".work"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}

    def write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def run(self, argv: list[str], calibration: Calibration | None = None) -> Child:
        """Run one process to completion; wall time and peak RSS from wait4.

        A calibration given is sampled right after the process, so that
        it sees the same host conditions.
        """
        with open(self.work / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=self.root, env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()[-500:]
        if calibration is not None:
            calibration.sample()
        return Child(proc.returncode, out.decode("utf-8", "replace"), message, wall, usage.ru_maxrss / 1024)

    def cli(self, args: list[str], calibration: Calibration | None = None) -> Child:
        return self.run([sys.executable, "-m", "ntnsim.harness.cli", *args], calibration)

    def probe(self, mode: str, calibration: Calibration | None = None) -> list[float]:
        """Seconds measured inside PROBES fresh interpreters."""
        out = []
        for _ in range(PROBES):
            child = self.run([sys.executable, str(BENCH / "probe.py"), mode], calibration)
            if child.returncode:
                raise RuntimeError(f"probe {mode} failed: {child.stderr}")
            result = json.loads(child.stdout)
            self.require_local(result["file"])
            out.append(result["seconds"])
        return out

    def require_local(self, module_file: str) -> None:
        if not Path(module_file).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"imported ntnsim from {module_file}, not from {self.src}")


def environment(checkout: Checkout, ntnsim_file: str) -> dict[str, object]:
    commit = None
    if (checkout.root / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.root, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((checkout.src / "ntnsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(checkout.src)).encode() + b"\0" + path.read_bytes())
    return {
        "ntnsim": ntnsim_file,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _time_calls(fn) -> list[float]:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def standalone_layers(checkout: Checkout, modules) -> dict[str, float]:
    """Set-up layers, timed on their own: table parsing, fig-defaults, presets, CLI import."""
    data = checkout.src / "ntnsim" / "data"
    atm, scen = (data / n for n in ("atmosphere.tsv", "scenario.tsv"))
    atm_text, scen_text = atm.read_text(encoding="utf-8"), scen.read_text(encoding="utf-8")

    def parse_tables():  # uncached, checksum verified
        modules.channel.parse_atmosphere_table(atm_text, atm.name)
        modules.channel.parse_scenario_table(scen_text, scen.name)

    def build_presets():
        for name in ("fig2", "fig3", "fig4"):
            modules.presets.preset(name)

    return {
        "channel.table_parse_s": low(_time_calls(parse_tables)),
        "harness.config.load_fig_defaults_s": low(_time_calls(modules.config.load_fig_defaults)),
        "harness.presets.preset_s": low(_time_calls(build_presets)),
        "harness.cli.import_s": low(checkout.probe("import_cli")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(ROOT)
    if not (checkout.src / "ntnsim" / "__init__.py").is_file():
        print(f"bench: no ntnsim sources under {checkout.src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout.src))
    import ntnsim
    from ntnsim import channel
    from ntnsim.harness import cli, config, presets, sweep

    checkout.require_local(ntnsim.__file__)
    modules = SimpleNamespace(channel=channel, cli=cli, config=config, presets=presets, sweep=sweep)
    from oracle import Oracle
    from workloads import Tally, make_grid, run_cli, run_grid

    shutil.rmtree(checkout.work, ignore_errors=True)
    checkout.work.mkdir()
    env = environment(checkout, ntnsim.__file__)
    print(f"ntnsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    oracle = Oracle(checkout.src / "ntnsim" / "data")
    tally = Tally()
    traced = bool(args.trace)
    lines: list[str] = []
    if traced:
        metrics = standalone_layers(checkout, modules)
    else:
        calibration = Calibration.start()
        setup = low(checkout.probe("setup", calibration))
        metrics = {"setup_s": setup / calibration.slowdown()}
        lines.append(f"setup_s: raw {setup:.6g} s, {calibration}")
    if args.workload == "cli_cold":
        found, notes, tracer = run_cli(args.seed, checkout, modules, oracle, args.seconds, traced, tally)
    else:
        grid = make_grid(args.workload, args.seed)
        found, notes, tracer = run_grid(grid, checkout, modules, oracle, args.seconds, traced, tally)
    metrics.update(found)
    lines += notes
    if tracer is not None:
        per_pass = tracer.per_pass_metrics()
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        tracer.save(checkout.work / f"spans_{args.workload}.npz")
        lines.append(f"spans: {len(tracer.start)} in {len(per_pass)} traced passes, "
                     f"written to bench/.work/spans_{args.workload}.npz")
        if tracer.missing:
            lines.append(f"not traced (not found): {', '.join(tracer.missing)}")

    unit = units()
    print("\n".join(lines))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {unit[key]}")
    fail_rate = tally.failed / tally.attempted
    print(f"fail_rate = {fail_rate:.6g} ({tally.failed} of {tally.attempted} checks failed)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
