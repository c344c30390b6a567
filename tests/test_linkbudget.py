"""Link-budget tests: bandwidth rule, SNR arithmetic, Shannon capacity."""

import math
import random

import numpy as np
import pytest

import oracle
from ntnsim import (
    ConfigError,
    DomainError,
    LinkGeometry,
    LossBreakdown,
    RadioConfig,
    Scenario,
    default_bandwidth,
    evaluate_link,
    shannon_capacity_bps,
    snr_db,
)
from ntnsim.relay import af_chain_snr_db


class TestDefaultBandwidth:
    @pytest.mark.parametrize(
        "fc,expected",
        [
            (0.5, 20e6),
            (2, 20e6),
            (6, 20e6),  # boundary stays in the sub-6 rule
            (6.0001, 800e6),
            (20, 800e6),
            (60, 800e6),  # boundary stays in the mid rule
            (60.0001, 2e9),
            (70, 2e9),
            (100, 2e9),
        ],
    )
    def test_rule(self, fc, expected):
        assert default_bandwidth(fc) == expected

    def test_total_and_piecewise_constant(self):
        rng = random.Random(2)
        for _ in range(500):
            fc = rng.uniform(0.01, 150)
            assert default_bandwidth(fc) in (20e6, 800e6, 2e9)

    def test_domain(self):
        with pytest.raises(DomainError):
            default_bandwidth(0)


class TestRadioConfig:
    def test_exactly_one_rx_form(self):
        with pytest.raises(ConfigError):
            RadioConfig(fc_ghz=20, tx_power_dbm=18)
        with pytest.raises(ConfigError):
            RadioConfig(
                fc_ghz=20,
                tx_power_dbm=18,
                g_rx_dbi=40,
                g_over_t_dbi_per_k=15.9,
                noise_temperature_k=290,
            )

    def test_grx_form_needs_temperature(self):
        with pytest.raises(ConfigError):
            RadioConfig(fc_ghz=20, tx_power_dbm=18, g_rx_dbi=40)
        ok = RadioConfig(fc_ghz=20, tx_power_dbm=18, g_rx_dbi=40, noise_temperature_k=290)
        assert ok.g_over_t() == pytest.approx(40 - 10 * math.log10(290), rel=1e-12)

    def test_got_form_rejects_temperature(self):
        with pytest.raises(ConfigError):
            RadioConfig(
                fc_ghz=20,
                tx_power_dbm=18,
                g_over_t_dbi_per_k=15.9,
                noise_temperature_k=290,
            )

    @pytest.mark.parametrize(
        "field",
        ["fc_ghz", "tx_power_dbm", "g_tx_dbi", "g_rx_dbi", "g_over_t_dbi_per_k",
         "noise_temperature_k", "bandwidth_hz"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x"])
    def test_non_finite_field_rejected(self, field, value):
        if field in ("g_rx_dbi", "noise_temperature_k"):
            kwargs = dict(g_rx_dbi=40.0, noise_temperature_k=290.0)
        else:
            kwargs = dict(g_over_t_dbi_per_k=15.9)
        kwargs = dict(fc_ghz=20.0, tx_power_dbm=18.0, **kwargs)
        kwargs[field] = value
        with pytest.raises(ConfigError) as err:
            RadioConfig(**kwargs)
        assert str(err.value) == f"{field}: expected a finite number, got {value!r}"

    @pytest.mark.parametrize("field", ["fc_ghz", "tx_power_dbm", "g_tx_dbi"])
    def test_required_field_may_not_be_none(self, field):
        kwargs = dict(fc_ghz=20.0, tx_power_dbm=18.0, g_over_t_dbi_per_k=15.9)
        kwargs[field] = None
        with pytest.raises(ConfigError) as err:
            RadioConfig(**kwargs)
        assert str(err.value) == f"{field}: expected a finite number, got None"

    def test_fields_of_any_real_type_become_floats(self):
        radio = RadioConfig(np.float32(20.0), "18", True, g_over_t_dbi_per_k=np.int64(15),
                            bandwidth_hz=np.float64(4e8))
        assert radio == RadioConfig(20.0, 18.0, 1.0, g_over_t_dbi_per_k=15.0, bandwidth_hz=4e8)
        assert all(type(v) is float for v in radio._values() if v is not None)

    def test_auto_bandwidth_resolution(self):
        r = RadioConfig(fc_ghz=20, tx_power_dbm=18, g_over_t_dbi_per_k=15.9)
        assert r.bandwidth_hz is None
        assert r.resolve_bandwidth().bandwidth_hz == 800e6
        explicit = RadioConfig(
            fc_ghz=20, tx_power_dbm=18, g_over_t_dbi_per_k=15.9, bandwidth_hz=400e6
        )
        assert explicit.resolve_bandwidth().bandwidth_hz == 400e6


@pytest.mark.parametrize("cls, values, other", [
    (LossBreakdown, (100.0, 1.5, 0.25, 2.0), (100.0, 1.5, 0.25, 3.0)),
    (
        RadioConfig,
        (20.0, 18.0, 39.7, 40.0, None, 290.0, None),
        (20.0, 18.0, 39.7, None, 15.9, None, 800e6),
    ),
])
def test_equality_hash_and_repr_follow_the_fields(cls, values, other):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == cls.__name__ + repr(values)
    assert a != cls(*other) and hash(a) != hash(cls(*other))
    assert a != values and values != a  # never equal to its own values as a tuple
    assert a != 1 and {a: 1}[b] == 1


class TestSnr:
    BREAKDOWN = LossBreakdown(180.0, 0.0, 0.0, 0.0)

    def test_reference_budget(self):
        # 30 + 39.7 + 15.9 - 180 + 198.6 - 10log10(800e6)
        radio = RadioConfig(
            fc_ghz=20, tx_power_dbm=30, g_over_t_dbi_per_k=15.9, bandwidth_hz=800e6
        )
        assert snr_db(radio, self.BREAKDOWN) == pytest.approx(
            15.169100130080565, rel=1e-12
        )

    def test_db_linear_in_rx_gain(self):
        base = RadioConfig(
            fc_ghz=20,
            tx_power_dbm=18,
            g_rx_dbi=40,
            noise_temperature_k=290,
            bandwidth_hz=800e6,
        )
        boosted = RadioConfig(
            fc_ghz=20,
            tx_power_dbm=18,
            g_rx_dbi=50,
            noise_temperature_k=290,
            bandwidth_hz=800e6,
        )
        delta = snr_db(boosted, self.BREAKDOWN) - snr_db(base, self.BREAKDOWN)
        assert delta == pytest.approx(10.0, abs=1e-12)

    def test_rx_forms_equivalent(self):
        # G_rx = 25.9 dBi at T = 10 K is G/T = 15.9 dBi/K; the decimal
        # literal and the computed difference disagree by ~2e-15 dB in
        # binary floats, so compare at tight tolerance rather than bitwise
        grx_form = RadioConfig(
            fc_ghz=20,
            tx_power_dbm=18,
            g_rx_dbi=25.9,
            noise_temperature_k=10,
            bandwidth_hz=800e6,
        )
        got_form = RadioConfig(
            fc_ghz=20, tx_power_dbm=18, g_over_t_dbi_per_k=15.9, bandwidth_hz=800e6
        )
        assert snr_db(grx_form, self.BREAKDOWN) == pytest.approx(
            snr_db(got_form, self.BREAKDOWN), abs=1e-12
        )

    def test_rx_forms_equivalent_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            g_rx = rng.uniform(0, 70)
            temp = rng.uniform(20, 1000)
            got = g_rx - 10 * math.log10(temp)
            a = RadioConfig(
                fc_ghz=20,
                tx_power_dbm=18,
                g_rx_dbi=g_rx,
                noise_temperature_k=temp,
                bandwidth_hz=800e6,
            )
            b = RadioConfig(
                fc_ghz=20, tx_power_dbm=18, g_over_t_dbi_per_k=got, bandwidth_hz=800e6
            )
            assert snr_db(a, self.BREAKDOWN) == snr_db(b, self.BREAKDOWN)

    def test_unresolved_bandwidth_rejected(self):
        radio = RadioConfig(fc_ghz=20, tx_power_dbm=18, g_over_t_dbi_per_k=15.9)
        with pytest.raises(ConfigError):
            snr_db(radio, self.BREAKDOWN)


class TestShannonCapacity:
    def test_zero_db_doubles(self):
        assert shannon_capacity_bps(20e6, 0.0) == pytest.approx(20e6, rel=1e-12)

    def test_reference_value(self):
        assert shannon_capacity_bps(800e6, 10.0) == pytest.approx(
            2767545294.9098377, rel=1e-12
        )

    def test_vanishes_at_low_snr(self):
        assert shannon_capacity_bps(1e9, -300) < 1e-18
        assert shannon_capacity_bps(1e9, -300) > 0

    def test_low_snr_precision(self):
        # log1p path: C ~ W * snr / ln2 for tiny snr
        snr = -120.0
        lin = 10 ** (snr / 10)
        expected = 1e9 * lin / math.log(2)
        assert shannon_capacity_bps(1e9, snr) == pytest.approx(expected, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            shannon_capacity_bps(0, 10)

    def test_overflowing_snr_is_domain_error(self):
        # 10^(SNR/10) overflows a float above about 3083 dB.
        assert shannon_capacity_bps(1e9, 3000.0) > 0
        with pytest.raises(DomainError, match="SNR 4000.0 dB is too large"):
            shannon_capacity_bps(1e9, 4000.0)

    @pytest.mark.parametrize("snr", [math.inf, -math.inf, math.nan])
    def test_non_finite_snr_is_domain_error(self, snr):
        # A budget whose terms overflow a float sums to inf, -inf or nan dB;
        # capacity and the AF fold both reach it through snr_linear.
        with pytest.raises(DomainError, match=f"SNR {snr} dB is not finite"):
            shannon_capacity_bps(1e9, snr)
        with pytest.raises(DomainError, match=f"SNR {snr} dB is not finite"):
            af_chain_snr_db((10.0, snr))


class TestEvaluateLink:
    @pytest.mark.parametrize("radio", [
        {"fc_ghz": 20.0, "tx_power_dbm": 18.0, "g_over_t_dbi_per_k": 15.9},
        (20.0, 18.0, 39.7, None, 15.9),
        None,
    ])
    def test_radio_must_be_a_radio_config(self, atm_table, radio):
        with pytest.raises(ConfigError) as err:
            evaluate_link(LinkGeometry(0.0, 600.0, 30.0), radio, None, atm_table)
        assert str(err.value) == f"radio must be a RadioConfig, not a {type(radio).__name__}"

    def test_purity(self, atm_table, scen_table, got_radio):
        g = LinkGeometry.from_endpoints(0, 600, 30)
        r = got_radio()
        a = evaluate_link(g, r, Scenario.DENSE_URBAN, atm_table, scenario_table=scen_table)
        b = evaluate_link(g, r, Scenario.DENSE_URBAN, atm_table, scenario_table=scen_table)
        assert a == b

    def test_capacity_snr_consistency(self, atm_table, scen_table, got_radio):
        g = LinkGeometry.from_endpoints(0, 1200, 45)
        res = evaluate_link(
            g, got_radio(fc_ghz=30), Scenario.SUBURBAN, atm_table, scenario_table=scen_table
        )
        identity = oracle.capacity_bps(res.bandwidth_hz, res.snr_db)
        assert res.capacity_bps == pytest.approx(identity, rel=1e-9)

    def test_sub6_point_stays_under_500mbps(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(0, 600, 10)
        radio = RadioConfig(
            fc_ghz=2,
            tx_power_dbm=18,
            g_rx_dbi=60,
            noise_temperature_k=290,
        )
        res = evaluate_link(g, radio, Scenario.DENSE_URBAN, atm_table, scenario_table=scen_table)
        assert res.capacity_bps < 500e6
        assert res.bandwidth_hz == 20e6

    def test_beyond_70ghz_decreases_capacity(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(0, 600, 10)
        def cap(fc):
            radio = RadioConfig(
                fc_ghz=fc, tx_power_dbm=18, g_rx_dbi=50, noise_temperature_k=290
            )
            return evaluate_link(
                g, radio, Scenario.DENSE_URBAN, atm_table, scenario_table=scen_table
            ).capacity_bps
        assert cap(90) < cap(70)

    def test_capacity_monotone_in_altitude(self, atm_table, scen_table, got_radio):
        caps = [
            evaluate_link(
                LinkGeometry.from_endpoints(0, h, 10),
                got_radio(),
                Scenario.DENSE_URBAN,
                atm_table,
                scenario_table=scen_table,
            ).capacity_bps
            for h in (300, 600, 1200, 35786)
        ]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_capacity_monotone_in_rx_gain(self, atm_table, scen_table):
        g = LinkGeometry.from_endpoints(0, 600, 10)
        caps = []
        for grx in (30, 40, 50, 60):
            radio = RadioConfig(
                fc_ghz=20, tx_power_dbm=18, g_rx_dbi=grx, noise_temperature_k=290
            )
            caps.append(
                evaluate_link(
                    g, radio, Scenario.DENSE_URBAN, atm_table, scenario_table=scen_table
                ).capacity_bps
            )
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_capacity_monotone_in_elevation(self, atm_table, scen_table, got_radio):
        for scenario in (Scenario.DENSE_URBAN, Scenario.RURAL):
            caps = [
                evaluate_link(
                    LinkGeometry.from_endpoints(0, 300, e),
                    got_radio(),
                    scenario,
                    atm_table,
                    scenario_table=scen_table,
                ).capacity_bps
                for e in range(10, 91, 10)
            ]
            assert all(a <= b for a, b in zip(caps, caps[1:]))

    def test_default_fraction_by_lower_endpoint(self, atm_table, scen_table, got_radio):
        ground = evaluate_link(
            LinkGeometry.from_endpoints(0, 300, 30),
            got_radio(),
            Scenario.RURAL,
            atm_table,
            scenario_table=scen_table,
        )
        from_hap = evaluate_link(
            LinkGeometry.from_endpoints(20, 320, 30),
            got_radio(),
            None,
            atm_table,
            scenario_table=scen_table,
        )
        from_leo = evaluate_link(
            LinkGeometry.from_endpoints(300, 620, 30),
            got_radio(),
            None,
            atm_table,
            scenario_table=scen_table,
        )
        full_gas = ground.breakdown.gas_db
        assert from_hap.breakdown.gas_db == pytest.approx(0.1 * full_gas, rel=1e-12)
        assert from_leo.breakdown.gas_db == 0.0
