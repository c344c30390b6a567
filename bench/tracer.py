"""Span tracer that wraps ntnsim's public functions from outside the package.

Each wrapped call records one span: name, start, end and the index of
the enclosing span (-1 at the root). A wrapper replaces the function in
every ntnsim module that holds a reference to it (for example
``linkbudget.total_path_loss``, ``relay.evaluate_link`` and
``sweep.evaluate_link``), so calls made inside the package are traced
too. Spans stay in compact in-memory arrays until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# "module:attribute" under the ntnsim package; the span is named module.attribute.
TARGETS = (
    "geometry:classify_station",
    "geometry:slant_range_km",
    "geometry:LinkGeometry.from_endpoints",
    "channel:fspl_db",
    "channel:gas_attenuation_db",
    "channel:scintillation_db",
    "channel:excess_loss_db",
    "channel:total_path_loss",
    "linkbudget:RadioConfig.resolve_bandwidth",
    "linkbudget:snr_db",
    "linkbudget:shannon_capacity_bps",
    "linkbudget:evaluate_link",
    "relay:evaluate_chain",
    "harness.sweep:run_sweep",
    "harness.sweep:csv_bytes",
    "harness.sweep:emit_csv",
    "harness.config:load_fig_defaults",
    "harness.presets:preset",
    "harness.cli:main",
)

_GEOMETRY = (
    "geometry.classify_station",
    "geometry.slant_range_km",
    "geometry.LinkGeometry.from_endpoints",
)
# Per-layer metric -> spans whose self time it sums. format_value runs
# only inside csv_bytes / emit_csv, so the csv layer carries it without
# a span of its own (one span per CSV cell would dwarf the work).
SELF_METRICS = {
    "geometry.self_s": _GEOMETRY,
    "channel.fspl_db.self_s": ("channel.fspl_db",),
    "channel.gas_attenuation_db.self_s": ("channel.gas_attenuation_db",),
    "channel.scintillation_db.self_s": ("channel.scintillation_db",),
    "channel.excess_loss_db.self_s": ("channel.excess_loss_db",),
    "channel.total_path_loss.self_s": ("channel.total_path_loss",),
    "linkbudget.resolve_bandwidth.self_s": ("linkbudget.RadioConfig.resolve_bandwidth",),
    "linkbudget.snr_db.self_s": ("linkbudget.snr_db",),
    "linkbudget.shannon_capacity_bps.self_s": ("linkbudget.shannon_capacity_bps",),
    "linkbudget.evaluate_link.self_s": ("linkbudget.evaluate_link",),
    "relay.evaluate_chain.self_s": ("relay.evaluate_chain",),
    "harness.sweep.run_sweep.self_s": ("harness.sweep.run_sweep",),
    "harness.sweep.csv.self_s": ("harness.sweep.csv_bytes", "harness.sweep.emit_csv"),
    "harness.cli.main_s": ("harness.cli.main",),
}
CALL_METRICS = {
    "geometry.calls": _GEOMETRY,
    "channel.excess_loss_db.calls": ("channel.excess_loss_db",),
    "linkbudget.evaluate_link.calls": ("linkbudget.evaluate_link",),
    "relay.evaluate_chain.calls": ("relay.evaluate_chain",),
}


class Tracer:
    """Installs span-recording wrappers; use as a context manager per traced pass."""

    def __init__(self):
        self.names = [target.replace(":", ".") for target in TARGETS]
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.passes: list[tuple[int, int]] = []
        self.rows_ok = self.rows_error = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._pass_rows: list[tuple[int, int]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self._pass_start = len(self.start)
        self.rows_ok = self.rows_error = 0
        self.missing = []
        for nid, target in enumerate(TARGETS):
            self._install(nid, target)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.passes.append((self._pass_start, len(self.start)))
        self._pass_rows.append((self.rows_ok, self.rows_error))
        return False

    def _install(self, nid: int, target: str) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(f"ntnsim.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:  # a method or classmethod on a class
            owner = getattr(module, owner_name, None)
            descriptor = owner.__dict__.get(attr) if owner is not None else None
            if descriptor is None:
                self.missing.append(target)
                return
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(self._wrap(nid, descriptor.__func__))
            else:
                wrapped = self._wrap(nid, descriptor)
            self._restore.append((owner, attr, descriptor))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(target)
            return
        wrapper = self._wrap(nid, original)
        for name, mod in list(sys.modules.items()):
            if name != "ntnsim" and not name.startswith("ntnsim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap(self, nid: int, fn):
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        count_rows = self.names[nid] == "harness.sweep.run_sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count_rows:
                errors = sum(1 for row in result.rows if row["error"])
                self.rows_error += errors
                self.rows_ok += len(result.rows) - errors
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def per_pass_metrics(self) -> list[dict[str, float]]:
        """Self seconds, call counts and row counts of every traced pass."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child
        index = {name: i for i, name in enumerate(self.names)}
        out = []
        for (a, b), (ok, err) in zip(self.passes, self._pass_rows):
            self_by = np.bincount(names[a:b], weights=self_time[a:b], minlength=len(index))
            calls_by = np.bincount(names[a:b], minlength=len(index))
            m = {key: float(sum(self_by[index[s]] for s in spans)) for key, spans in SELF_METRICS.items()}
            m.update({key: float(sum(calls_by[index[s]] for s in spans)) for key, spans in CALL_METRICS.items()})
            m["harness.sweep.rows_ok"] = float(ok)
            m["harness.sweep.rows_error"] = float(err)
            m["harness.sweep.ok_ratio"] = ok / (ok + err) if ok + err else 0.0
            out.append(m)
        return out

    def save(self, path) -> None:
        """Write every span of the run (names, parent index, start, end) as .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            passes=np.array(self.passes, dtype=np.int64).reshape(-1, 2),
        )
