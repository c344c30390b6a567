"""Parser fuzz and the spec round trip.

Any text given to a parser either parses or raises an NtnSimError,
never another exception. Texts are drawn from the grammar's own pieces
(section headers, known keys, values at and past every boundary) mixed
with arbitrary lines; two table headers in five carry the body's valid
checksum, and three key = value texts in four are a text its reader
accepts with lines inserted, so that the checks behind the grammar run too.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from ntnsim import NtnSimError
from ntnsim.channel import _data_text, parse_atmosphere_table, parse_scenario_table
from ntnsim.harness import config
from ntnsim.harness.config import load_fig_defaults, parse_sections
from ntnsim.harness.sweep import load_sweep_spec, run_sweep
from strategies import (
    FIG_DEFAULTS, SAMPLED_SPEC, SPEC, any_text, config_texts, round_trip_specs, spec_text)

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def table_texts(filename):
    """Lines of the shipped table, perturbed, under a header whose checksum may match."""
    data = [line for line in _data_text(filename).splitlines() if line and not line.startswith("#")]
    fields = st.sampled_from([
        "0.3", "1", "-1", "60", "100", "120", "10", "90", "nan", "1e999", "x", "rural",
        "urban", "dense_urban", "suburban", "0.5", "2",
    ])
    made = st.lists(fields, max_size=7).map(" ".join)

    @st.composite
    def text(draw):
        body = draw(st.lists(st.one_of(st.sampled_from(data), made, any_text), max_size=12))
        if draw(st.booleans()):  # a whole shipped table, then edits
            body = data + body
            for _ in range(draw(st.integers(0, 3))):
                body.pop(draw(st.integers(0, len(body) - 1)))
        candidate = "\n".join(body)
        digest = hashlib.sha256(
            "\n".join(
                l.rstrip() for l in candidate.splitlines()
                if l.rstrip() and not l.rstrip().startswith("#")
            ).encode("utf-8")
        ).hexdigest()
        header = draw(st.sampled_from([  # the valid header twice: two draws in five
            f"# version: 9\n# checksum: sha256={digest}\n",
            f"# version: 9\n# checksum: sha256={digest}\n",
            "# version: 9\n# checksum: sha256=00\n",
            "# checksum: sha256=00\n",
            "# version: 9\n# checksum: md5=00\n",
        ]))
        return header + candidate

    return text()


def parses_or_ntnsim_error(parse, *args):
    try:
        parse(*args)
    except NtnSimError:
        pass


@FUZZ
@given(config_texts(SPEC, SAMPLED_SPEC, FIG_DEFAULTS))
def test_parse_sections_fuzz(text):
    parses_or_ntnsim_error(parse_sections, text, "fuzz")


@FUZZ
@given(text=config_texts(SPEC, SAMPLED_SPEC), seed=st.one_of(st.none(), st.integers(-2**70, 2**70)))
def test_load_sweep_spec_fuzz(tmp_path, atm_table, scen_table, text, seed):
    # What loads also runs: run_sweep checks the spec as a whole.
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    parses_or_ntnsim_error(
        lambda: run_sweep(load_sweep_spec(path, seed), atm_table, scen_table))


@FUZZ
@given(config_texts(FIG_DEFAULTS))
def test_load_fig_defaults_fuzz(monkeypatch, text):
    monkeypatch.setattr(config, "_data_text", lambda name: text)
    parses_or_ntnsim_error(load_fig_defaults)


@FUZZ
@given(table_texts("atmosphere.tsv"))
def test_parse_atmosphere_table_fuzz(text):
    parses_or_ntnsim_error(parse_atmosphere_table, text)


@FUZZ
@given(table_texts("scenario.tsv"))
def test_parse_scenario_table_fuzz(text):
    parses_or_ntnsim_error(parse_scenario_table, text)


# ---------------------------------------------------------------------------
# A spec written back from a parsed SweepSpec reads as the same spec.
# ---------------------------------------------------------------------------

@FUZZ
@given(round_trip_specs())
def test_spec_written_back_round_trips(tmp_path, spec):
    path = tmp_path / "spec.cfg"
    path.write_text(spec_text(spec), encoding="utf-8")
    parsed = load_sweep_spec(path)
    assert parsed == spec._replace(provenance=("sweep spec: spec.cfg",))
    path.write_text(spec_text(parsed), encoding="utf-8")
    assert load_sweep_spec(path) == parsed
