"""Parser fuzz and the spec round trip.

Any text given to a parser either parses or raises an NtnSimError,
never another exception. Texts are drawn from the grammar's own pieces
(section headers, known keys, values at and past every boundary) mixed
with arbitrary lines; two table headers in five carry the body's valid
checksum, so that the column and value checks behind it run too.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from ntnsim import NtnSimError, Scenario
from ntnsim.channel import _data_text, parse_atmosphere_table, parse_scenario_table
from ntnsim.harness import SweepSpec, load_config, load_sweep_spec
from ntnsim.harness.config import PARAMETERS, parse_sections
from ntnsim.harness.sweep import AXIS_NAMES, EXTRA_COLUMNS, METRIC_COLUMNS

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
values = st.one_of(
    st.sampled_from([
        "", "0", "-0", "-1", "2.5", "1e999", "-1e999", "1e-400", "nan", "inf", "-inf",
        "auto", "Auto", "af", "DF", "relay", "direct", "sampled", "expected", "dense_urban",
        "Dense Urban", "x", "1,2", " , ", "3, nan", "10, 20, 30", "1_000", "0x10", "True",
        "None", "١٢", "9" * 400, "9" * 5000, "2.5, af", "20, 20",
    ]),
    any_text,
)
keys = st.sampled_from(sorted(PARAMETERS) + ["columns", "bogus", "Fc_ghz", "a b"])
lines = st.one_of(
    st.sampled_from([
        "[axes]", "[fixed]", "[output]", "[radio]", "[]", "[ ]", "[axes", "# note", "", "=",
        "a = b = c", "seed = 3",
    ]),
    st.builds("{}{}{}".format, keys, st.sampled_from([" = ", "=", " =", ": ", " "]), values),
    any_text,
)
config_texts = st.lists(lines, max_size=16).map("\n".join)


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
@given(config_texts)
def test_parse_sections_fuzz(text):
    parses_or_ntnsim_error(parse_sections, text, "fuzz")


@FUZZ
@given(text=config_texts, seed=st.one_of(st.none(), st.integers(-2**70, 2**70)))
def test_load_sweep_spec_fuzz(tmp_path, text, seed):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    parses_or_ntnsim_error(load_sweep_spec, path, seed)


@FUZZ
@given(config_texts)
def test_load_config_fuzz(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    parses_or_ntnsim_error(load_config, path)


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

numbers = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
words = {
    "scenario": st.sampled_from([s.value for s in Scenario] + ["Dense Urban", "RURAL"]),
    "mode": st.sampled_from(["direct", "Relay"]),
}


def axis_values(name):
    return st.lists(words.get(name, numbers), min_size=1, max_size=4)


@st.composite
def specs(draw):
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), unique=True))
    axes = tuple((name, tuple(draw(axis_values(name)))) for name in names)
    fixed = {name: draw(axis_values(name))[0] for name in AXIS_NAMES if name not in names}
    if "g_rx_dbi" in fixed and draw(st.booleans()):
        del fixed["g_rx_dbi"]  # the G/T form
    if "g_rx_dbi" in names or "g_rx_dbi" in fixed:
        fixed["noise_temperature_k"] = draw(positive)
    else:
        fixed["g_over_t_dbi_per_k"] = draw(numbers)
    fixed["tx_power_dbm"] = draw(numbers)
    fixed["hap_altitude_km"] = draw(numbers)
    fixed["relay_mode"] = draw(st.sampled_from(["af", "DF"]))
    fixed["bandwidth_hz"] = draw(st.one_of(st.just("auto"), positive))
    fixed["excess_mode"] = draw(st.sampled_from(["expected", "sampled"]))
    seed = draw(st.integers(-2**70, 2**70)) if fixed["excess_mode"] == "sampled" else None
    columns = AXIS_NAMES + METRIC_COLUMNS + EXTRA_COLUMNS
    schema = tuple(draw(st.lists(st.sampled_from(columns), max_size=6)))
    return SweepSpec(axes=axes, fixed=fixed, output_schema=schema, seed=seed)


def spec_text(spec):
    """The spec file of a SweepSpec whose values are numbers and spec words."""

    def text(value):
        return repr(value) if isinstance(value, float) else str(value)

    lines = [] if spec.seed is None else [f"seed = {spec.seed}"]
    lines.append("[axes]")
    lines += [f"{name} = {', '.join(map(text, values))}" for name, values in spec.axes]
    lines.append("[fixed]")
    lines += [f"{key} = {text(value)}" for key, value in spec.fixed.items()]
    if spec.output_schema:
        lines += ["[output]", f"columns = {', '.join(spec.output_schema)}"]
    return "\n".join(lines) + "\n"


@FUZZ
@given(specs())
def test_spec_written_back_round_trips(tmp_path, spec):
    path = tmp_path / "spec.cfg"
    path.write_text(spec_text(spec), encoding="utf-8")
    parsed = load_sweep_spec(path)
    assert parsed == spec._replace(provenance=("sweep spec: spec.cfg",))
    path.write_text(spec_text(parsed), encoding="utf-8")
    assert load_sweep_spec(path) == parsed
