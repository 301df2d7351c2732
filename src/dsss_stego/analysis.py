"""Closed-form performance model of the covert-load DSSS link.

Covers the covert alphabet size, the average-distance shift seen by a
plain receiver, bounded-distance coding-gain estimates, the standard
16-ary BER-vs-SNR curve for the 2450 MHz PHY, and the projection of a
covert-load BER increase onto an equivalent receiver-sensitivity loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .chipmap import BITS_PER_SYMBOL, CHIPS_PER_SYMBOL
from .stego import PATTERN_WEIGHT

# The 16-ary orthogonal BER curve below carries a symbol SNR of 20x the
# curve argument; splitting that symbol energy over the 4 data bits gives
# the per-bit SNR of the equivalent uncoded system.
SYMBOL_SNR_FACTOR = 20.0
UNCODED_BIT_SNR_FACTOR = SYMBOL_SNR_FACTOR / BITS_PER_SYMBOL

# Expected bit errors when a symbol decodes to a wrong code: of the 15
# wrong 4-bit values, 4 differ in one bit, 6 in two, 4 in three, 1 in
# four, for a mean of 32/15 bit errors per symbol error.
BIT_ERRORS_PER_SYMBOL_ERROR = 32.0 / 15.0

SENSITIVITY_BRACKET_DB = 30.0
_BISECTION_REL_TOL = 1e-9

PM_MODES = ("diff", "ratio")


@dataclass(frozen=True)
class StegoAlphabetReport:
    """How many covert symbols fit inside the correction radius."""

    d_min: int
    t: int
    total_patterns: int        # all flip patterns of weight 1..t
    fixed_weight_patterns: int  # patterns of weight exactly t
    bits_per_sequence: float
    degenerate: bool = False


def stego_alphabet_size(d_min: int) -> StegoAlphabetReport:
    """Count the correctable flip patterns available as covert symbols.

    Every layout of up to t = floor((d_min-1)/2) flipped chips is still
    decoded to the carrier code, so each such layout can act as one
    covert symbol.  Exact integer arithmetic throughout.
    """
    if not 1 <= d_min <= CHIPS_PER_SYMBOL:
        raise ValueError(f"d_min must be in [1, 32], got {d_min}")
    t = (d_min - 1) // 2
    if t == 0:
        return StegoAlphabetReport(d_min, 0, 0, 1, 0.0, degenerate=True)
    total = sum(math.comb(CHIPS_PER_SYMBOL, i) for i in range(1, t + 1))
    fixed = math.comb(CHIPS_PER_SYMBOL, t)
    return StegoAlphabetReport(d_min, t, total, fixed, math.log2(fixed))


def delta_avg_distance(t: int, d_mean: float) -> float:
    """Shift in the mean pairwise code distance when t of 32 chips flip."""
    if not 0 <= t <= CHIPS_PER_SYMBOL:
        raise ValueError(f"t must be in [0, 32], got {t}")
    if d_mean <= 0:
        raise ValueError(f"d_mean must be positive, got {d_mean}")
    return t * d_mean / CHIPS_PER_SYMBOL


def coded_bit_error_prob(
    p_b: float, n: int = CHIPS_PER_SYMBOL, t: int = PATTERN_WEIGHT
) -> float:
    """Bounded-distance post-decoding bit error probability.

    For a length-n code correcting up to t errors with raw bit error
    probability p_b:  (1/n) * sum_{i=t+1..n} i * C(n,i) * p^i * (1-p)^(n-i).
    Compensated summation; monotone nondecreasing in p_b.
    """
    if not 0.0 <= p_b <= 1.0:
        raise ValueError(f"p_b must be in [0, 1], got {p_b}")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    if p_b == 0.0:
        return 0.0
    if p_b == 1.0:
        return 1.0
    log_p = math.log(p_b)
    log_q = math.log1p(-p_b)
    terms = [
        i * math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                     + i * log_p + (n - i) * log_q)
        for i in range(t + 1, n + 1)
    ]
    return math.fsum(terms) / n


@dataclass(frozen=True)
class PerformanceModelParams:
    """Knobs of the covert-load BER model; the code is fixed at n = 32, t = 5."""

    embed_chips: int = PATTERN_WEIGHT  # chips flipped per embedded sequence
    embed_rate: float = 1.0            # fraction of data symbols carrying covert load
    pm_mode: str = "diff"              # "diff": P_C_steg - P_C; "ratio": P_C_steg / P_C

    def __post_init__(self):
        if not 0 <= self.embed_chips <= PATTERN_WEIGHT:
            raise ValueError(
                f"embed_chips must be in [0, t={PATTERN_WEIGHT}], got {self.embed_chips}"
            )
        if not 0.0 <= self.embed_rate <= 1.0:
            raise ValueError(f"embed_rate must be in [0, 1], got {self.embed_rate}")
        if self.pm_mode not in PM_MODES:
            raise ValueError(f"pm_mode must be one of {PM_MODES}, got {self.pm_mode!r}")


def misdecode_shift(p_b: float, params: PerformanceModelParams) -> float:
    """Change in the misdecode figure when embedding consumes margin.

    The embedded flips eat into the correction radius, so the covert-load
    side is the bounded-distance estimate at t_eff = t - embed_chips.
    "diff" mode returns the probability increment (used for BER curves);
    "ratio" mode returns the literal quotient of the two estimates.
    """
    if not 0.0 < p_b < 1.0:
        raise ValueError(f"p_b must be in (0, 1), got {p_b}")
    p_clean = coded_bit_error_prob(p_b)
    p_steg = coded_bit_error_prob(p_b, t=PATTERN_WEIGHT - params.embed_chips)
    if params.pm_mode == "ratio":
        if p_clean == 0.0:
            return 1.0 if p_steg == 0.0 else math.inf
        return p_steg / p_clean
    return p_steg - p_clean


def delta_ber(delta_pm: float) -> float:
    """BER increment from a misdecode-probability increment.

    Scales by the mean bit errors per symbol error (32/15) over the 4
    bits of a symbol, i.e. multiplies by 8/15.
    """
    if delta_pm < 0.0:
        raise ValueError(f"delta_pm must be >= 0, got {delta_pm}")
    return (BIT_ERRORS_PER_SYMBOL_ERROR / BITS_PER_SYMBOL) * delta_pm


def ber_ieee(snr_linear: float) -> float:
    """Standard BER-vs-SNR curve of the 2450 MHz PHY (16-ary orthogonal).

    (8/15) * (1/16) * sum_{k=2..16} (-1)^k C(16,k) exp(20*snr*(1/k - 1)),
    with snr linear.  Equals 0.5 at zero SNR (the alternating binomial
    sum collapses to 15) and decays to 0.  All 15 terms are summed with
    compensated summation; they decay too slowly to truncate.
    """
    if snr_linear < 0.0:
        raise ValueError(f"SNR must be >= 0, got {snr_linear}")
    terms = [
        ((-1) ** k) * math.comb(16, k) * math.exp(SYMBOL_SNR_FACTOR * snr_linear * (1.0 / k - 1.0))
        for k in range(2, 17)
    ]
    return (8.0 / 15.0) * (1.0 / 16.0) * math.fsum(terms)


def uncoded_bit_error_prob(snr_linear: float) -> float:
    """Bit error probability of the equivalent uncoded system.

    The 16-ary curve above spends a symbol SNR of 20x its argument on 4
    data bits; sending those bits uncoded with the same energy gives a
    per-bit SNR of 5x and coherent detection error erfc(sqrt(5*snr))/2.
    This is the raw input the bounded-distance coding-gain estimate
    expects.
    """
    if snr_linear <= 0.0:
        raise ValueError(f"SNR must be positive, got {snr_linear}")
    return 0.5 * math.erfc(math.sqrt(UNCODED_BIT_SNR_FACTOR * snr_linear))


def ber_with_stego(snr_db: float, params: PerformanceModelParams) -> float:
    """BER seen by a plain receiver when covert load is present.

    Clean-curve BER plus embed_rate times the misdecode-driven BER
    increment, clipped to [0, 0.5].
    """
    snr_linear = 10.0 ** (snr_db / 10.0)
    clean = ber_ieee(snr_linear)
    if params.embed_rate == 0.0 or params.embed_chips == 0:
        return clean
    p_b = uncoded_bit_error_prob(snr_linear)
    if p_b == 0.0:  # erfc underflow far above the operating range
        return clean
    shift = misdecode_shift(p_b, params)
    return min(0.5, clean + params.embed_rate * delta_ber(shift))


@dataclass(frozen=True)
class SensitivityPoint:
    """One row of the sensitivity-projection curve."""

    snr_db: float
    embed_rate: float
    ber_clean: float
    ber_steg: float
    sensitivity_shift_db: float
    pm_mode: str
    saturated: bool = False


def sensitivity_point(snr_db: float, params: PerformanceModelParams) -> SensitivityPoint:
    """Project the covert-load BER increase onto an equivalent SNR penalty.

    Finds, by bisection on the clean curve, the lower SNR at which a pure
    link already shows the covert-load BER; the gap is the apparent
    sensitivity loss.  A target at or above 0.5 is not invertible and is
    reported saturated with the shift capped at the bracket width.
    """
    snr_linear = 10.0 ** (snr_db / 10.0)
    clean = ber_ieee(snr_linear)
    target = ber_with_stego(snr_db, params)
    if target <= clean:
        return SensitivityPoint(snr_db, params.embed_rate, clean, target, 0.0, params.pm_mode)
    if target >= 0.5:
        return SensitivityPoint(
            snr_db, params.embed_rate, clean, target,
            SENSITIVITY_BRACKET_DB, params.pm_mode, saturated=True,
        )
    lo = snr_db - SENSITIVITY_BRACKET_DB  # clean BER high side
    hi = snr_db
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = ber_ieee(10.0 ** (mid / 10.0))
        if value > target:
            lo = mid
        else:
            hi = mid
        if value > 0.0 and abs(value - target) <= _BISECTION_REL_TOL * target:
            break
    shifted = 0.5 * (lo + hi)
    return SensitivityPoint(
        snr_db, params.embed_rate, clean, target, snr_db - shifted, params.pm_mode
    )


def sensitivity_shift(snr_db: float, params: PerformanceModelParams) -> float:
    """Receiver-sensitivity penalty in dB (0 exactly when nothing is embedded)."""
    return sensitivity_point(snr_db, params).sensitivity_shift_db


def sensitivity_curve(
    snr_db_list: list[float], embed_rate_list: list[float], params: PerformanceModelParams
) -> list[SensitivityPoint]:
    """Sensitivity points over a grid, sorted by (snr_db, embed_rate)."""
    points = [
        sensitivity_point(snr, replace(params, embed_rate=rate))
        for snr in snr_db_list
        for rate in embed_rate_list
    ]
    points.sort(key=lambda p: (p.snr_db, p.embed_rate))
    return points
