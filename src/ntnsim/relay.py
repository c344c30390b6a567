"""Multi-hop composition: amplify-and-forward and decode-and-forward.

A chain runs top-down towards the ground: hop i's lower endpoint is hop
i+1's upper endpoint and exactly the last hop reaches altitude zero.
The chain's scenario applies to that ground-terminated hop only; higher
hops see no ground clutter. The stage functions (af_end_to_end_snr,
df_end_to_end_capacity, ...) take finite floats and do not re-type them.
"""

import enum
import math
import sys
from functools import reduce
from typing import NamedTuple

from .channel import (
    AtmosphereTable,
    LossBreakdown,
    Scenario,
    ScenarioTable,
)
from .errors import ChainError, DomainError
from .geometry import LinkGeometry, classify_station, echo
from .linkbudget import LinkResult, RadioConfig, evaluate_link, shannon_capacity_bps, snr_linear


class RelayMode(enum.Enum):
    AMPLIFY_FORWARD = "af"
    DECODE_FORWARD = "df"


class RelayHop(NamedTuple):
    """One hop of a chain; its atmosphere fraction follows its geometry."""

    geometry: LinkGeometry
    radio: RadioConfig


class RelayChain(NamedTuple):
    hops: tuple[RelayHop, ...]
    mode: RelayMode = RelayMode.AMPLIFY_FORWARD
    scenario: Scenario = Scenario.DENSE_URBAN


def af_end_to_end_snr(snr_linear_1: float, snr_linear_2: float) -> float:
    """Cascade SNR of a transparent two-hop relay: g1*g2 / (g1 + g2 + 1)."""
    if snr_linear_1 < 0 or snr_linear_2 < 0:
        raise DomainError(
            f"linear SNRs must be >= 0, got ({snr_linear_1}, {snr_linear_2})"
        )
    product = snr_linear_1 * snr_linear_2
    if product == math.inf:  # the same ratio without the product: finite, <= min(g1, g2)
        low, high = sorted((snr_linear_1, snr_linear_2))
        return low / (1.0 + (low + 1.0) / high)
    return product / (snr_linear_1 + snr_linear_2 + 1.0)


def df_end_to_end_capacity(c1_bps: float, c2_bps: float) -> float:
    """Regenerative relay capacity: the weakest hop decides."""
    if c1_bps < 0 or c2_bps < 0:
        raise DomainError(f"capacities must be >= 0, got ({c1_bps}, {c2_bps})")
    return min(c1_bps, c2_bps)


def af_chain_snr_db(hop_snrs_db: tuple[float, ...]) -> float:
    """AF chain SNR in dB: hop SNRs folded pairwise in hop order, in dB if linear is subnormal."""
    gamma = snr_linear(hop_snrs_db[0])
    for snr in hop_snrs_db[1:]:
        gamma = af_end_to_end_snr(gamma, snr_linear(snr))
    if gamma >= sys.float_info.min:
        return 10.0 * math.log10(gamma)
    return reduce(_af_fold_db, hop_snrs_db)


def _af_fold_db(s: float, t: float) -> float:
    """af_end_to_end_snr in dB: s + t - 10 log10(1 + 10^(s/10) + 10^(t/10))."""
    return s + t - 10.0 * math.log10(1.0 + 10.0 ** (s / 10.0) + 10.0 ** (t / 10.0))


def df_bottleneck(hop_capacities_bps: tuple[float, ...]) -> int:
    """Index of the hop that decides a DF chain: the first with the least capacity."""
    return hop_capacities_bps.index(reduce(df_end_to_end_capacity, hop_capacities_bps))


def chain_label(mode: RelayMode, hop_count: int) -> str:
    """Label of a chain's result, such as "af:2hop"."""
    return f"{mode.value}:{hop_count}hop"


def _build_chain(stations, radio: RadioConfig, mode: RelayMode, scenario) -> RelayChain:
    """The chain down from stations, (altitude, elevation) pairs top-down, once
    classify_station passes each altitude: hop i rises from station i + 1 (the
    last from the ground) to station i, at station i's elevation. evaluate_chain
    types and checks the hops."""
    for altitude, _ in stations:
        classify_station(altitude)
    lows = [altitude for altitude, _ in stations[1:]] + [0.0]
    return RelayChain(tuple(
        RelayHop(LinkGeometry(low, high, elevation), radio)
        for (high, elevation), low in zip(stations, lows)), mode, scenario)


def _validate_chain(chain: RelayChain) -> None:
    if not isinstance(chain.mode, RelayMode):
        raise ChainError(f"relay mode must be a RelayMode, not {echo(chain.mode)}")
    if not chain.hops:
        raise ChainError("chain must contain at least one hop")
    for i in range(len(chain.hops) - 1):
        low_i = chain.hops[i].geometry.low_altitude_km
        high_next = chain.hops[i + 1].geometry.high_altitude_km
        if low_i != high_next:
            raise ChainError(
                f"hop {i} ends at {low_i:g} km but hop {i + 1} starts at "
                f"{high_next:g} km"
            )
    if chain.hops[-1].geometry.low_altitude_km != 0.0:
        raise ChainError(
            f"hop {len(chain.hops) - 1} must terminate at altitude 0, got "
            f"{chain.hops[-1].geometry.low_altitude_km:g} km"
        )


def _aggregate_breakdown(results: tuple[LinkResult, ...]) -> LossBreakdown:
    fspl = gas = scint = excess = 0.0
    for r in results:
        fspl += r.breakdown.fspl_db
        gas += r.breakdown.gas_db
        scint += r.breakdown.scintillation_db
        excess += r.breakdown.excess_db
    return LossBreakdown(fspl, gas, scint, excess)


def evaluate_chain(
    chain: RelayChain,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
    *,
    sampled_seed: int | None = None,
    sampled_index: int = 0,
) -> LinkResult:
    """Evaluate a relay chain; a single-hop chain reduces to evaluate_link.

    AF folds per-hop linear SNRs pairwise in hop order and uses the
    minimum hop bandwidth (a transparent repeater cannot widen the
    signal). DF reports the bottleneck hop's SNR, bandwidth and capacity.
    Each hop's atmosphere fraction follows its lower endpoint (see
    total_path_loss). The aggregated breakdown sums each stage over the
    hops. The ground hop's sampled clutter draws the stream of point
    sampled_index of a sweep with seed sampled_seed (see evaluate_link).
    Each hop's geometry is typed and checked by LinkGeometry.from_endpoints
    before the chain's mode (a RelayMode, else ChainError) and structure
    are, and those before any hop is evaluated.
    """
    chain = chain._replace(hops=tuple(
        RelayHop(LinkGeometry.from_endpoints(*geometry), radio) for geometry, radio in chain.hops))
    _validate_chain(chain)
    per_hop: list[LinkResult] = []
    for hop in chain.hops:
        on_ground = hop.geometry.low_altitude_km == 0.0
        per_hop.append(evaluate_link(
            hop.geometry, hop.radio, chain.scenario if on_ground else None, table, scenario_table,
            sampled_seed=sampled_seed if on_ground else None, sampled_index=sampled_index,
        ))
    if len(per_hop) == 1:
        return per_hop[0]

    hops = tuple(per_hop)
    if chain.mode is RelayMode.AMPLIFY_FORWARD:
        snr = af_chain_snr_db(tuple(r.snr_db for r in hops))
        bandwidth = min(r.bandwidth_hz for r in hops)
        capacity = shannon_capacity_bps(bandwidth, snr)
    else:
        bottleneck = hops[df_bottleneck(tuple(r.capacity_bps for r in hops))]
        snr = bottleneck.snr_db
        bandwidth = bottleneck.bandwidth_hz
        capacity = bottleneck.capacity_bps
    return LinkResult(
        breakdown=_aggregate_breakdown(hops),
        snr_db=snr,
        capacity_bps=capacity,
        bandwidth_hz=bandwidth,
        geometry=hops[-1].geometry,
        label=chain_label(chain.mode, len(hops)),
        hops=hops,
    )
