"""The mutation record: one-place edits of src/ntnsim that named tests must kill.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant replaces an exact `old` text, which must occur once in its
file, with a `new` one. The runner copies src/ into a temporary directory,
first checks that the named tests pass on the unchanged copy, then applies
one mutant at a time to a fresh copy and runs `pytest -q -x` on that
mutant's test ids, with PYTHONPATH set to the copy. A mutant is killed
when pytest reports a failed test. The runner exits 1 if a mutant
survives, if its `old` text no longer occurs exactly once (a stale
mutant: update it, or retire it with a line in CHANGES.md), or if its
tests do not run. Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # under src/ntnsim
    old: str
    new: str
    tests: tuple[str, ...]  # test ids expected to fail


SWEEP, REUSE = "harness/sweep.py", "tests/test_sweep_reuse.py"
COLUMNS = f"{REUSE}::test_columns_along_every_inner_axis_equal_the_scalar_rows"
AF_OVERFLOW = f"{REUSE}::test_af_product_overflow_row_equals_the_scalar_row"
BESIDE_A_BAD_CARRIER = f"{REUSE}::test_gap_prefixes_beside_a_failing_carrier_equal_the_scalar_rows"
CSV = "tests/test_csv_fast_path.py"
QUOTING = f"{CSV}::test_every_special_character_is_quoted_in_header_axes_and_errors"
STAGE_TEXTS = f"{CSV}::test_ok_records_carry_the_six_digit_text_of_their_stages"
PARAMS = "tests/test_params.py"
TABLES = "tests/test_channel.py::test_table_rules_raise_their_message"
GRAMMAR = "tests/test_cli.py::TestSweepCommand::test_grammar_rules_name_their_line"
WHOLE_SPEC = "tests/test_harness.py::TestSweepValidation::test_whole_spec_rules_raise_their_message"
LONG = f"{PARAMS}::test_a_long_value_is_echoed_in_a_bounded_message"
ORACLE = "tests/test_acceptance.py::test_criterion_7_oracle_equivalence"

MUTANTS = (
    # Each sweep stage names its axes once.
    Mutant("hop-stage-without-station-check", SWEEP,
           "            stations(high)  # raises for an upper station outside every band\n", "",
           ("tests/test_harness.py::TestRunSweep::test_relay_hap_altitude_in_gap_is_error_row",
            "tests/test_cli.py::test_sweep_rows_carry_the_errors_link_and_chain_print")),
    Mutant("memo-key-without-stage-index", SWEEP,
           "key = (j, values)", "key = values",
           (COLUMNS, f"{REUSE}::test_sweep_rows_equal_per_point_evaluation")),
    Mutant("hap-ground-stage-bound-to-the-station", SWEEP,
           '(partial(ground_hops, hap), ("elevation_deg",))',
           '(ground_hops, ("altitude_km", "elevation_deg"))',
           (COLUMNS, "tests/test_golden_csv.py")),
    # The gap fill and the scalar fallback.
    Mutant("gap-fill-one-copy-short", SWEEP,
           "records += [_FAILED + (error,)] * n", "records += [_FAILED + (error,)] * (n - 1)",
           (f"{REUSE}::test_gap_altitude_prefixes_equal_the_scalar_rows", BESIDE_A_BAD_CARRIER)),
    Mutant("gap-fill-ignores-the-radio-stage", SWEEP,
           "error = j > 0 and inner", "error = inner",
           (f"{REUSE}::test_gap_hap_fails_after_the_radio_check_point_by_point",
            BESIDE_A_BAD_CARRIER,
            "tests/test_cli.py::test_sweep_rows_carry_the_errors_link_and_chain_print")),
    Mutant("gap-fill-on-an-altitude-inner-axis", SWEEP,
           'and inner != "altitude_km" and gap_error(', "and gap_error(",
           (f"{REUSE}::test_altitude_as_the_inner_axis_is_never_filled",)),
    Mutant("gap-fill-checks-the-hap-alone", SWEEP,
           "for high in highs(altitude, mode):\n", "for high in highs(altitude, mode)[-1:]:\n",
           (f"{REUSE}::test_gap_altitude_prefixes_equal_the_scalar_rows",)),
    Mutant("fallback-draws-the-next-index", SWEEP,
           "sampled_seed=seed, sampled_index=index))", "sampled_seed=seed, sampled_index=index + 1))",
           (AF_OVERFLOW,)),
    Mutant("fallback-texts-out-of-order", SWEEP,
           '"%.6g" % record[i] for i in text_at)', '"%.6g" % record[i] for i in text_at[::-1])',
           (STAGE_TEXTS,)),
    Mutant("fallback-always-df", SWEEP,
           "_build_chain(stations, radio, relay_mode, scenario)",
           "_build_chain(stations, radio, RelayMode.DECODE_FORWARD, scenario)", (AF_OVERFLOW,)),
    # The stages' CSV text.
    Mutant("stage-text-five-digits", SWEEP,
           '(gas, scint, "%.6g" % gas, "%.6g" % scint)',
           '(gas, scint, "%.5g" % gas, "%.5g" % scint)', (STAGE_TEXTS,)),
    # The fused points' guards.
    Mutant("df-tie-to-hop-1", SWEEP,
           "(snr1, capacity1) if capacity1 < capacity0", "(snr1, capacity1) if capacity1 <= capacity0",
           ("tests/test_relay.py::TestDfCapacity::test_tie_takes_first_hop_in_chain_and_sweep",)),
    Mutant("af-gamma-guard-removed", SWEEP,
           "if not (product < inf and gamma >= float_info.min):", "if not product < inf:",
           (AF_OVERFLOW,)),
    Mutant("af-product-guard-removed", SWEEP,
           "if not (product < inf and gamma >= float_info.min):", "if not gamma >= float_info.min:",
           (AF_OVERFLOW,)),
    Mutant("no-bandwidth-bound", SWEEP,
           "_BANDWIDTH_BOUND = 2.0 ** 1013", "_BANDWIDTH_BOUND = inf",
           (f"{REUSE}::test_capacity_overflow_rows_equal_the_scalar_rows",)),
    # The typed boundaries.
    Mutant("finite-number-accepts-nan", "geometry.py",
           "    if not math.isfinite(number):\n", "    if math.isinf(number):\n",
           ("tests/test_channel.py::TestTableParsing::test_non_finite_cell_rejected",
            "tests/test_channel.py::TestTablesBuiltInPython")),
    Mutant("spec-seed-rule-deleted", SWEEP,
           '    if seed is not None and excess_mode != "sampled":\n'
           '        raise ConfigError("--seed applies only to a spec with excess_mode = sampled")\n',
           "",
           ("tests/test_cli.py::TestSweepCommand::test_seed_without_sampled_mode_is_usage_error",
            "tests/test_harness.py::TestSweepSpecFiles::test_seed_applies_only_to_sampled_spec")),
    Mutant("temp-dropped-with-got", "harness/cli.py",
           'del radio["noise_temperature_k"]',
           'del radio["noise_temperature_k"]; args.noise_temperature_k = None',
           ("tests/test_cli.py::TestFlagValidation::test_temp_with_got_exits_1",)),
    # The scalar stages.
    Mutant("stage-total-right-to-left", "channel.py",
           "    return fspl + gas + scint + excess\n", "    return excess + scint + gas + fspl\n",
           ("tests/test_channel.py::TestLossBreakdown::test_additivity_over_random_inputs",
            "tests/test_relay.py::TestEvaluateChain::test_aggregate_breakdown_sums_hops")),
    # The CSV quoting rule.
    Mutant("quote-test-without-cr", "harness/rows.py",
           r' or "\n" in text or "\r" in text:', r' or "\n" in text:',
           (f"{CSV}::test_a_carriage_return_in_a_word_axis_stays_in_its_row", QUOTING)),
    Mutant("quote-without-doubling", "harness/rows.py",
           """'"%s"' % text.replace('"', '""')""", """'"%s"' % text""", (QUOTING,)),
    # One home per harness name.
    Mutant("sweep-drops-the-benchmark-names", SWEEP,
           "from .rows import csv_bytes, emit_csv\n", "",
           ("tests/test_bench_targets.py::test_every_tracer_target_resolves",)),
    Mutant("harness-re-exports-a-name", "harness/__init__.py",
           '- cli: the ntnsim command.\n"""\n',
           '- cli: the ntnsim command.\n"""\n\nfrom .sweep import run_sweep\n',
           ("tests/test_cli.py::test_setup_path_and_harness_names_import_only_their_homes",)),
    # No OpenSSL at start-up.
    Mutant("channel-loads-openssl", "channel.py",
           "try:  # CPython's own hash modules, as random.py imports sha512: hashlib loads OpenSSL\n"
           "    from _blake2 import blake2b\n"
           "    if sys.version_info >= (3, 12):\n"
           "        from _sha2 import sha256\n"
           "    else:\n"
           "        from _sha256 import sha256\n"
           "except ImportError:\n"
           "    from hashlib import blake2b, sha256\n",
           "from hashlib import blake2b, sha256\n",
           ("tests/test_cli.py::test_cli_imports_no_numpy_or_dataclasses",
            "tests/test_cli.py::test_setup_path_and_harness_names_import_only_their_homes")),
    # Every check has a test that fails without it.
    Mutant("integer-echoes-a-long-value", "harness/config.py",
           "if type(value) is int or 0 < limit < len(str(value)):",
           "if False:",
           (f"{PARAMS}::test_word_and_integer_rules_raise_their_message[seed]",)),
    Mutant("p-los-range-unchecked", "channel.py",
           "                if not (0.0 <= r.p_los <= 1.0):\n"
           '                    raise TableFormatError(f"p_los out of [0, 1]: {r.p_los}")\n',
           "", (f"{TABLES}[p_los-out-of-range]",)),
    Mutant("elevation-grid-cover-unchecked", "channel.py",
           "        if grid[0] > MIN_ELEVATION_DEG or grid[-1] < MAX_ELEVATION_DEG:\n"
           '            raise TableFormatError(f"elevation grid must cover {_ELEVATION_RANGE}")\n',
           "", (f"{TABLES}[elevation-grid-short]",)),
    Mutant("tx-power-not-required", SWEEP,
           '    if "tx_power_dbm" not in spec.fixed:\n'
           "        raise SpecError(\"fixed parameter 'tx_power_dbm' is required\")\n",
           "", (f"{WHOLE_SPEC}[tx-power-missing]",)),
    Mutant("unknown-output-column-accepted", SWEEP,
           "        if col not in known_metrics:\n"
           '            raise SpecError(f"unknown output column {echo(col)}")\n',
           "", (f"{WHOLE_SPEC}[unknown-column]",)),
    Mutant("version-header-unchecked", "channel.py",
           """        raise TableFormatError(f"{name}: missing '# version:' header")\n""",
           "        pass\n", (f"{TABLES}[version-missing]",)),
    Mutant("duplicate-table-row-accepted", "channel.py",
           "            raise TableFormatError(\n"
           '                f"{name}: duplicate row for {scenario.value} at {elev:g} deg"\n'
           "            )\n",
           "            pass\n", (f"{TABLES}[duplicate-row]",)),
    Mutant("top-level-keys-ignored", SWEEP,
           """        raise SpecError(f"{p.name}: unexpected top-level keys {echo(sorted(top))}")\n""",
           "        pass\n",
           ("tests/test_cli.py::TestSweepCommand::test_unexpected_top_level_key_is_spec_error",)),
    Mutant("empty-section-header-accepted", "harness/config.py",
           """                raise error_cls(f"{name}:{lineno}: empty section header")\n""",
           "                pass\n", (f"{GRAMMAR}[empty-section-header]",)),
    Mutant("empty-key-or-value-accepted", "harness/config.py",
           """            raise error_cls(f"{name}:{lineno}: empty key or value in {echo(raw)}")\n""",
           "            pass\n", (f"{GRAMMAR}[empty-key]",)),
    Mutant("checksum-label-unchecked", "channel.py",
           "if checksum != expected:", "if checksum[7:] != expected[7:]:",
           (f"{TABLES}[checksum-label-upper-case]",)),
    Mutant("delay-altitude-unchecked", "geometry.py",
           """        raise DomainError(f"altitude must be > 0 km, got {altitude_km}")\n""",
           "        pass\n",
           ("tests/test_geometry.py::TestDifferentialDelay::test_rules_raise_their_message",)),
    # No input fills an error message.
    Mutant("finite-number-echoes-a-long-value", "geometry.py",
           'got {echo(value)}"', 'got {value!r}"',
           (f"{LONG}[txpow]", f"{LONG}[spec-file]")),
    Mutant("integer-echoes-a-long-word", "harness/config.py",
           'f"expected an integer, got {echo(value)}"', 'f"expected an integer, got {value!r}"',
           (f"{LONG}[seed]",)),
    Mutant("echo-of-an-unprintable-integer", "geometry.py",
           "    try:\n        text = repr(value)\n    except ValueError:",
           "    text = repr(value)\n    if False:",
           (f"{PARAMS}::test_an_integer_too_long_to_print_raises_the_typed_error",)),
    Mutant("parse-sections-echoes-a-long-line", "harness/config.py",
           'got {echo(raw)}"', 'got {raw!r}"', (f"{LONG}[spec-line]",)),
    Mutant("unknown-axis-echoes-a-long-name", SWEEP,
           "unknown axis {echo(name)}", "unknown axis {name!r}", (f"{LONG}[unknown-axis]",)),
    # Faults common to the package's two copies of a formula: the independent oracle kills them.
    Mutant("boltzmann-constant-off-by-0.1-db", "linkbudget.py",
           "BOLTZMANN_DBM_PER_K_HZ = -198.6", "BOLTZMANN_DBM_PER_K_HZ = -198.5", (ORACLE,)),
    Mutant("hap-atmosphere-fraction-off", "channel.py",
           "        return 0.1\n", "        return 0.11\n", (ORACLE,)),
    Mutant("af-fold-plus-two", "relay.py",
           "return product / (snr_linear_1 + snr_linear_2 + 1.0)",
           "return product / (snr_linear_1 + snr_linear_2 + 2.0)",
           ("tests/test_relay.py::TestAfSnr::test_symmetric_unit",)),
    Mutant("df-takes-the-strongest-hop", "relay.py",
           "return min(c1_bps, c2_bps)", "return max(c1_bps, c2_bps)",
           tuple(f"tests/test_relay.py::TestDfCapacity::test_{name}" for name in (
               "absorbing_zero", "min", "bottleneck_is_first_hop_with_least_capacity"))),
)


def pytest(src: Path, tests) -> int:
    """pytest -q -x on tests, with the package imported from src; its exit code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def copy_src(work: Path, name: str) -> Path:
    src = work / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        clean = copy_src(work, "clean")
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if pytest(clean, tests) != 0:
            print("the named tests fail without a mutant", file=sys.stderr)
            return 1
        for m in MUTANTS:
            src = copy_src(work, m.id)
            path = src / "ntnsim" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                verdict = f"stale: its old text occurs {text.count(m.old)} times in {m.file}"
            else:
                path.write_text(text.replace(m.old, m.new), encoding="utf-8")
                code = pytest(src, m.tests)
                verdict = {0: "survived", 1: "killed"}.get(code, f"tests did not run (exit {code})")
            print(f"{m.id}: {verdict}", flush=True)
            if verdict != "killed":
                problems.append(m.id)
            shutil.rmtree(src.parent)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
