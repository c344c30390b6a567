"""SNR and Shannon capacity for one hop.

The budget closes in the dB domain:

    SNR = P_tx + G_tx + G/T - L_total + 198.6 - 10 log10(W)

where -198.6 dBm/K/Hz is Boltzmann's constant and G/T is either given
directly or derived as G_rx - 10 log10(T_sys). Evaluating both receiver
forms through the same expression keeps them exactly equal whenever
G_rx - 10 log10(T) == G/T. RadioConfig types its fields; the stage
functions (snr_db, shannon_capacity_bps, ...) take finite floats as given.
"""

import math
from typing import NamedTuple

from .channel import (
    AtmosphereTable,
    LossBreakdown,
    Scenario,
    ScenarioTable,
    _ByFields,
    total_path_loss,
)
from .errors import ConfigError, DomainError
from .geometry import LinkGeometry, finite_number

# Boltzmann's constant expressed in dBm/K/Hz: 10*log10(k_B * 1000 W/mW).
BOLTZMANN_DBM_PER_K_HZ = -198.6

_LN2 = math.log(2.0)
_INF = math.inf

# Transmit gain a RadioConfig leaves out (dBi).
DEFAULT_G_TX_DBI = 39.7


def default_bandwidth(fc_ghz: float) -> float:
    """Carrier-frequency-dependent system bandwidth in Hz.

    20 MHz up to 6 GHz inclusive, 800 MHz up to 60 GHz inclusive,
    2 GHz above that.
    """
    if fc_ghz <= 0:
        raise DomainError(f"carrier frequency must be > 0 GHz, got {fc_ghz}")
    if fc_ghz <= 6.0:
        return 20e6
    if fc_ghz <= 60.0:
        return 800e6
    return 2e9


class RadioConfig(_ByFields):
    """Radio parameters for one hop.

    Each field is typed by finite_number (else ConfigError); the four
    that default to None may be None. Exactly one receiver form must be
    given: g_rx_dbi together with noise_temperature_k, or
    g_over_t_dbi_per_k alone. bandwidth_hz None means Auto (resolved
    from fc_ghz by default_bandwidth before any SNR computation).
    """

    __slots__ = _fields = (
        "fc_ghz", "tx_power_dbm", "g_tx_dbi", "g_rx_dbi",
        "g_over_t_dbi_per_k", "noise_temperature_k", "bandwidth_hz",
    )

    def __init__(
        self, fc_ghz: float, tx_power_dbm: float, g_tx_dbi: float = DEFAULT_G_TX_DBI,
        g_rx_dbi: float | None = None, g_over_t_dbi_per_k: float | None = None,
        noise_temperature_k: float | None = None, bandwidth_hz: float | None = None,
    ) -> None:
        values = (fc_ghz, tx_power_dbm, g_tx_dbi, g_rx_dbi, g_over_t_dbi_per_k,
                  noise_temperature_k, bandwidth_hz)
        for i, (name, value) in enumerate(zip(self._fields, values)):  # the last four may be None
            if value is not None or i < 3:
                value = finite_number(value, name, ConfigError)
            setattr(self, name, value)
        if self.fc_ghz <= 0:
            raise ConfigError(f"fc_ghz must be > 0, got {self.fc_ghz}")
        has_grx = self.g_rx_dbi is not None
        has_got = self.g_over_t_dbi_per_k is not None
        if has_grx == has_got:
            raise ConfigError(
                "exactly one of g_rx_dbi or g_over_t_dbi_per_k must be set"
            )
        if has_grx:
            if self.noise_temperature_k is None:
                raise ConfigError("noise_temperature_k is required with g_rx_dbi")
            if self.noise_temperature_k <= 0:
                raise ConfigError(
                    f"noise_temperature_k must be > 0, got {self.noise_temperature_k}"
                )
        elif self.noise_temperature_k is not None:
            raise ConfigError(
                "noise_temperature_k only applies to the g_rx_dbi form"
            )
        if self.bandwidth_hz is not None and self.bandwidth_hz <= 0:
            raise ConfigError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")

    def g_over_t(self) -> float:
        """Receiver figure of merit in dBi/K, whichever form was given."""
        if self.g_over_t_dbi_per_k is not None:
            return self.g_over_t_dbi_per_k
        return self.g_rx_dbi - 10.0 * math.log10(self.noise_temperature_k)

    def resolve_bandwidth(self) -> "RadioConfig":
        """Replace an Auto bandwidth with the default for this carrier."""
        if self.bandwidth_hz is not None:
            return self
        return RadioConfig(*self._values()[:-1], default_bandwidth(self.fc_ghz))

    def budget_terms(self) -> tuple[float, float]:
        """The radio's share of the SNR sum: (P_tx + G_tx + G/T, 10 log10 W)."""
        if self.bandwidth_hz is None:
            raise ConfigError("bandwidth is Auto; call resolve_bandwidth() first")
        return (
            self.tx_power_dbm + self.g_tx_dbi + self.g_over_t(),
            10.0 * math.log10(self.bandwidth_hz),
        )


def snr_db(radio: RadioConfig, breakdown: LossBreakdown) -> float:
    """Received SNR in dB for a resolved radio config and a loss breakdown.

    gain - L_total + 198.6 - 10 log10(W), summed in that order, with the
    gain and 10 log10(W) from RadioConfig.budget_terms.
    """
    gain, bandwidth_db = radio.budget_terms()
    return gain - breakdown.total_db - BOLTZMANN_DBM_PER_K_HZ - bandwidth_db


def snr_linear(snr_db: float) -> float:
    """SNR as a power ratio; DomainError if not finite or above about 3083 dB (overflow)."""
    if not -_INF < snr_db < _INF:  # inf, -inf or nan: a budget term overflowed a float
        raise DomainError(f"SNR {snr_db} dB is not finite: the link budget overflows a float")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise DomainError(f"SNR {snr_db} dB is too large for a linear power ratio") from None


def shannon_capacity_bps(bandwidth_hz: float, snr_db: float) -> float:
    """W * log2(1 + SNR); log1p keeps precision at very low SNR.

    DomainError if the capacity is not finite (a bandwidth near 1e308).
    """
    if bandwidth_hz <= 0:
        raise DomainError(f"bandwidth must be > 0 Hz, got {bandwidth_hz}")
    capacity = bandwidth_hz * math.log1p(snr_linear(snr_db)) / _LN2
    if not capacity < _INF:
        raise DomainError(
            f"capacity at {bandwidth_hz} Hz and SNR {snr_db} dB overflows a float"
        )
    return capacity


class LinkResult(NamedTuple):
    """Outcome of evaluating one link or relay chain."""

    breakdown: LossBreakdown
    snr_db: float
    capacity_bps: float
    bandwidth_hz: float
    geometry: LinkGeometry
    label: str
    hops: tuple["LinkResult", ...] = ()


def evaluate_link(
    geometry: LinkGeometry,
    radio: RadioConfig,
    scenario: Scenario | None,
    table: AtmosphereTable,
    scenario_table: ScenarioTable | None = None,
    *,
    sampled_seed: int | None = None,
    sampled_index: int = 0,
) -> LinkResult:
    """Evaluate one hop end to end: losses, SNR, Shannon capacity.

    The hop's losses are total_path_loss's, so its atmosphere fraction
    follows its lower endpoint. Sampled clutter draws the stream of point
    sampled_index of a sweep with seed sampled_seed, so the default 0
    gives row 0's. The geometry is typed and checked first, by
    LinkGeometry.from_endpoints, then radio must be a RadioConfig (else
    ConfigError).
    """
    geometry = LinkGeometry.from_endpoints(*geometry)
    if not isinstance(radio, RadioConfig):
        raise ConfigError(f"radio must be a RadioConfig, not a {type(radio).__name__}")
    resolved = radio.resolve_bandwidth()
    breakdown = total_path_loss(
        geometry, resolved.fc_ghz, scenario, table, scenario_table,
        sampled_seed=sampled_seed, sampled_index=sampled_index,
    )
    snr = snr_db(resolved, breakdown)
    return LinkResult(
        breakdown=breakdown,
        snr_db=snr,
        capacity_bps=shannon_capacity_bps(resolved.bandwidth_hz, snr),
        bandwidth_hz=resolved.bandwidth_hz,
        geometry=geometry,
        label="direct",
    )
