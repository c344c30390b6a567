"""Relay composition tests: AF cascade, DF bottleneck, chain evaluation."""

import math
import random
from functools import reduce

import pytest

import oracle
from ntnsim import (
    ChainError,
    DomainError,
    LinkGeometry,
    RadioConfig,
    RelayChain,
    RelayHop,
    RelayMode,
    Scenario,
    af_end_to_end_snr,
    df_end_to_end_capacity,
    evaluate_chain,
    evaluate_link,
)
from ntnsim.harness.sweep import SweepSpec, run_sweep
from ntnsim.linkbudget import snr_linear
from ntnsim.relay import _af_fold_db, af_chain_snr_db, df_bottleneck


def leo_hap_ground_chain(radio, h_leo=1200.0, h_hap=20.0, elev=10.0,
                         mode=RelayMode.AMPLIFY_FORWARD,
                         scenario=Scenario.DENSE_URBAN):
    return RelayChain(
        hops=(
            RelayHop(LinkGeometry.from_endpoints(h_hap, h_leo, elev), radio),
            RelayHop(LinkGeometry.from_endpoints(0.0, h_hap, elev), radio),
        ),
        mode=mode,
        scenario=scenario,
    )


class TestAfSnr:
    def test_symmetric_unit(self):
        assert af_end_to_end_snr(1, 1) == pytest.approx(1 / 3, rel=1e-12)

    def test_bottleneck_limit(self):
        for g in [0.01, 1.0, 100.0]:
            assert af_end_to_end_snr(g, 1e12) == pytest.approx(g, rel=1e-6)

    def test_bounded_by_min(self):
        rng = random.Random(23)
        for _ in range(1000):
            g1 = 10 ** rng.uniform(-6, 6)
            g2 = 10 ** rng.uniform(-6, 6)
            e2e = af_end_to_end_snr(g1, g2)
            assert e2e <= min(g1, g2)
            assert e2e < min(g1, g2)  # strict for finite positive inputs

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            af_end_to_end_snr(-1, 1)

    @pytest.mark.parametrize("snr_db", [-1618.0, -1610.0])
    def test_subnormal_fold_is_done_in_db(self, snr_db):
        # The linear fold of two such hops is subnormal and keeps few bits.
        hops = (snr_db, snr_db)
        assert af_end_to_end_snr(*map(snr_linear, hops)) > 0.0
        assert af_chain_snr_db(hops) == reduce(_af_fold_db, hops)

    @pytest.mark.parametrize("hops", [(-1500.0, -1500.0), (-1500.0, 20.0), (20.0, -1500.0)])
    def test_normal_fold_keeps_the_linear_bits(self, hops):
        linear = af_end_to_end_snr(*map(snr_linear, hops))
        assert af_chain_snr_db(hops) == 10.0 * math.log10(linear)


class TestDfCapacity:
    def test_idempotent(self):
        assert df_end_to_end_capacity(100e6, 100e6) == 100e6

    def test_absorbing_zero(self):
        assert df_end_to_end_capacity(0, 5e9) == 0

    def test_min(self):
        assert df_end_to_end_capacity(2.0e9, 1.5e9) == 1.5e9

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            df_end_to_end_capacity(-1, 1)

    def test_bottleneck_is_first_hop_with_least_capacity(self):
        assert df_bottleneck((5.0, 5.0)) == 0
        assert df_bottleneck((6.0, 5.0, 5.0)) == 1
        assert df_bottleneck((6.0, 7.0, 5.0)) == 2

    def test_tie_takes_first_hop_in_chain_and_sweep(self, atm_table, scen_table):
        # At -5000 dBm every hop's linear SNR underflows to 0, so both hops
        # have capacity 0.0; their SNRs and bandwidths still differ.
        wide, narrow = (
            RadioConfig(fc_ghz=20.0, tx_power_dbm=-5000.0, g_over_t_dbi_per_k=15.9,
                        bandwidth_hz=bandwidth)
            for bandwidth in (800e6, 400e6)
        )
        chain = leo_hap_ground_chain(wide, mode=RelayMode.DECODE_FORWARD)
        chain = RelayChain(
            hops=(chain.hops[0], RelayHop(chain.hops[1].geometry, narrow)),
            mode=chain.mode,
            scenario=chain.scenario,
        )
        res = evaluate_chain(chain, atm_table, scen_table)
        assert [h.capacity_bps for h in res.hops] == [0.0, 0.0]
        assert res.hops[0].snr_db != res.hops[1].snr_db
        assert (res.snr_db, res.bandwidth_hz) == (res.hops[0].snr_db, 800e6)

        spec = SweepSpec(
            axes=(("elevation_deg", (10.0,)),),
            fixed={
                "altitude_km": 1200.0, "fc_ghz": 20.0, "scenario": "dense_urban",
                "tx_power_dbm": -5000.0, "g_over_t_dbi_per_k": 15.9,
                "mode": "relay", "hap_altitude_km": 20.0, "relay_mode": "df",
            },
        )
        (row,) = run_sweep(spec, atm_table, scen_table).rows
        same_radio = evaluate_chain(
            leo_hap_ground_chain(
                RadioConfig(fc_ghz=20.0, tx_power_dbm=-5000.0, g_over_t_dbi_per_k=15.9),
                mode=RelayMode.DECODE_FORWARD,
            ),
            atm_table,
            scen_table,
        )
        assert row["capacity_bps"] == 0.0
        assert row["snr_db"] == same_radio.hops[0].snr_db != same_radio.hops[1].snr_db


class TestChainValidation:
    def test_altitude_mismatch_names_hop(self, atm_table, got_radio):
        radio = got_radio()
        chain = RelayChain(
            hops=(
                RelayHop(LinkGeometry.from_endpoints(25, 1200, 10), radio),
                RelayHop(LinkGeometry.from_endpoints(0, 20, 10), radio),
            ),
        )
        with pytest.raises(ChainError) as err:
            evaluate_chain(chain, atm_table)
        assert "hop 0" in str(err.value)

    def test_chain_must_reach_ground(self, atm_table, got_radio):
        chain = RelayChain(
            hops=(RelayHop(LinkGeometry.from_endpoints(20, 1200, 10), got_radio()),),
        )
        with pytest.raises(ChainError):
            evaluate_chain(chain, atm_table)

    def test_hops_are_typed_before_the_chain_is_checked(self, atm_table, got_radio):
        radio = got_radio()

        def chain(upper, lower):
            return RelayChain(hops=(RelayHop(LinkGeometry(*upper), radio),
                                    RelayHop(LinkGeometry(*lower), radio)))

        with pytest.raises(ChainError) as err:  # "25" is typed, so the message formats it
            evaluate_chain(chain(("25", 1200.0, 10.0), (0.0, 20.0, 10.0)), atm_table)
        assert str(err.value) == "hop 0 ends at 25 km but hop 1 starts at 20 km"
        with pytest.raises(DomainError) as err:  # a bad hop comes before a broken chain
            evaluate_chain(chain((25.0, 1200.0, 10.0), (0.0, 20.0, 5.0)), atm_table)
        assert str(err.value) == "elevation must be in [10, 90] deg, got 5.0"

    def test_text_mode_is_rejected_before_any_hop_is_evaluated(self, atm_table, got_radio):
        # 120 GHz lies off the atmosphere table: evaluating a hop raises TableDomainError.
        chain = leo_hap_ground_chain(got_radio(fc_ghz=120.0), mode="af")
        with pytest.raises(ChainError) as err:
            evaluate_chain(chain, atm_table)
        assert str(err.value) == "relay mode must be a RelayMode, not 'af'"

    def test_empty_chain(self, atm_table):
        with pytest.raises(ChainError):
            evaluate_chain(RelayChain(hops=()), atm_table)


class TestEvaluateChain:
    def test_single_hop_reduces_to_link(self, atm_table, scen_table, got_radio):
        radio = got_radio()
        geometry = LinkGeometry.from_endpoints(0, 600, 30)
        chain = RelayChain(
            hops=(RelayHop(geometry, radio),), scenario=Scenario.URBAN
        )
        from_chain = evaluate_chain(chain, atm_table, scen_table)
        direct = evaluate_link(
            geometry, radio, Scenario.URBAN, atm_table, scenario_table=scen_table
        )
        assert from_chain == direct

    def test_label_and_hops(self, atm_table, scen_table, got_radio):
        res = evaluate_chain(
            leo_hap_ground_chain(got_radio()), atm_table, scen_table
        )
        assert res.label == "af:2hop"
        assert len(res.hops) == 2

    def test_upper_hop_has_no_clutter(self, atm_table, scen_table, got_radio):
        res = evaluate_chain(
            leo_hap_ground_chain(got_radio()), atm_table, scen_table
        )
        leo_hap, hap_ground = res.hops
        assert leo_hap.breakdown.excess_db == 0.0
        assert hap_ground.breakdown.excess_db > 0.0

    def test_aggregate_breakdown_sums_hops(self, atm_table, scen_table, got_radio):
        res = evaluate_chain(
            leo_hap_ground_chain(got_radio()), atm_table, scen_table
        )
        for field in ("fspl_db", "gas_db", "scintillation_db", "excess_db"):
            assert getattr(res.breakdown, field) == pytest.approx(
                sum(getattr(h.breakdown, field) for h in res.hops), rel=1e-12
            )
        b = res.breakdown
        assert b.total_db == b.fspl_db + b.gas_db + b.scintillation_db + b.excess_db

    def test_af_matches_formula(self, atm_table, scen_table, got_radio):
        res = evaluate_chain(
            leo_hap_ground_chain(got_radio()), atm_table, scen_table
        )
        g1 = 10 ** (res.hops[0].snr_db / 10)
        g2 = 10 ** (res.hops[1].snr_db / 10)
        assert 10 ** (res.snr_db / 10) == pytest.approx(
            af_end_to_end_snr(g1, g2), rel=1e-12
        )

    def test_af_capacity_below_min_hop(self, atm_table, scen_table):
        rng = random.Random(31)
        for _ in range(50):
            radio = RadioConfig(
                fc_ghz=rng.uniform(1, 90),
                tx_power_dbm=rng.uniform(0, 40),
                g_over_t_dbi_per_k=rng.uniform(-5, 30),
            )
            chain = leo_hap_ground_chain(
                radio,
                h_leo=rng.uniform(300, 2000),
                elev=rng.uniform(10, 90),
                scenario=rng.choice(list(Scenario)),
            )
            res = evaluate_chain(chain, atm_table, scen_table)
            assert res.capacity_bps <= min(h.capacity_bps for h in res.hops)

    def test_df_is_min_of_hop_capacities(self, atm_table, scen_table, got_radio):
        res = evaluate_chain(
            leo_hap_ground_chain(got_radio(), mode=RelayMode.DECODE_FORWARD),
            atm_table,
            scen_table,
        )
        assert res.label == "df:2hop"
        assert res.capacity_bps == min(h.capacity_bps for h in res.hops)

    def test_df_dominates_af_at_equal_bandwidth(self, atm_table, scen_table):
        rng = random.Random(47)
        for _ in range(30):
            radio = RadioConfig(
                fc_ghz=rng.uniform(1, 90),
                tx_power_dbm=rng.uniform(0, 40),
                g_over_t_dbi_per_k=rng.uniform(-5, 30),
            )
            af = evaluate_chain(
                leo_hap_ground_chain(radio, elev=rng.uniform(10, 90)),
                atm_table,
                scen_table,
            )
            df = evaluate_chain(
                leo_hap_ground_chain(
                    radio, elev=af.hops[0].geometry.elevation_deg,
                    mode=RelayMode.DECODE_FORWARD,
                ),
                atm_table,
                scen_table,
            )
            assert df.capacity_bps >= af.capacity_bps

    def test_relay_beats_direct_on_fig4_grid(self, atm_table, scen_table, got_radio):
        radio = got_radio()
        for h in (300.0, 600.0, 1200.0):
            for elev in range(10, 91, 10):
                direct = evaluate_link(
                    LinkGeometry.from_endpoints(0, h, elev),
                    radio,
                    Scenario.DENSE_URBAN,
                    atm_table,
                    scenario_table=scen_table,
                )
                relay = evaluate_chain(
                    leo_hap_ground_chain(radio, h_leo=h, elev=elev),
                    atm_table,
                    scen_table,
                )
                assert relay.capacity_bps >= direct.capacity_bps

    def test_capacity_snr_consistency(self, atm_table, scen_table, got_radio):
        for mode in RelayMode:
            res = evaluate_chain(
                leo_hap_ground_chain(got_radio(), mode=mode), atm_table, scen_table
            )
            identity = oracle.capacity_bps(res.bandwidth_hz, res.snr_db)
            assert res.capacity_bps == pytest.approx(identity, rel=1e-9)
