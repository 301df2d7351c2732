"""Closed-form performance model of the covert-load DSSS link.

Covers the covert alphabet size, the average-distance shift seen by a
plain receiver, bounded-distance coding-gain estimates, the standard
16-ary BER-vs-SNR curve for the 2450 MHz PHY, and the projection of a
covert-load BER increase onto an equivalent receiver-sensitivity loss.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .channel import snr_db_to_linear
from .chipmap import BITS_PER_SYMBOL, CHIPS_PER_SYMBOL, SYMBOL_VALUES
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

# Term k = 2..16 of the 16-ary curve (ber_ieee) as ((-1)^k C(16, k), 1/k - 1),
# and the factor (8/15) * (1/16) in front of their sum.
_BER_TERMS = tuple(
    ((-1) ** k * math.comb(SYMBOL_VALUES, k), 1.0 / k - 1.0) for k in range(2, SYMBOL_VALUES + 1)
)
_BER_SCALE = (BIT_ERRORS_PER_SYMBOL_ERROR / BITS_PER_SYMBOL) * (1.0 / SYMBOL_VALUES)

SENSITIVITY_BRACKET_DB = 30.0
_BISECTION_REL_TOL = 1e-9
_LN10_PER_DB = math.log(10.0) / 10.0  # d ln(snr_linear) / d snr_db

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
    if not 0 < d_mean:
        raise ValueError(f"d_mean must be positive, got {d_mean}")
    return t * d_mean / CHIPS_PER_SYMBOL


@functools.cache
def _log_binomials(n: int) -> tuple[float, ...]:
    """ln C(n, i) for i = 0..n, as lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1)."""
    return tuple(
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)
    )


def coded_bit_error_prob(p_b: float, n: int = CHIPS_PER_SYMBOL, t: int = PATTERN_WEIGHT) -> float:
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
    log_c = _log_binomials(n)
    terms = [i * math.exp(log_c[i] + i * log_p + (n - i) * log_q) for i in range(t + 1, n + 1)]
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
    if not 0.0 <= delta_pm:
        raise ValueError(f"delta_pm must be >= 0, got {delta_pm}")
    return (BIT_ERRORS_PER_SYMBOL_ERROR / BITS_PER_SYMBOL) * delta_pm


def ber_ieee(snr_linear: float) -> float:
    """Standard BER-vs-SNR curve of the 2450 MHz PHY (16-ary orthogonal).

    (8/15) * (1/16) * sum_{k=2..16} (-1)^k C(16,k) exp(20*snr*(1/k - 1)),
    with snr linear.  Equals 0.5 at zero SNR (the alternating binomial
    sum collapses to 15) and decays to 0.  All 15 terms are summed with
    compensated summation; they decay too slowly to truncate.
    """
    if not 0.0 <= snr_linear:
        raise ValueError(f"SNR must be >= 0, got {snr_linear}")
    x = SYMBOL_SNR_FACTOR * snr_linear
    return _BER_SCALE * math.fsum([c * math.exp(x * e) for c, e in _BER_TERMS])


def uncoded_bit_error_prob(snr_linear: float) -> float:
    """Bit error probability of the equivalent uncoded system.

    The 16-ary curve above spends a symbol SNR of 20x its argument on 4
    data bits; sending those bits uncoded with the same energy gives a
    per-bit SNR of 5x and coherent detection error erfc(sqrt(5*snr))/2.
    This is the raw input the bounded-distance coding-gain estimate
    expects.
    """
    if not 0.0 < snr_linear:
        raise ValueError(f"SNR must be positive, got {snr_linear}")
    return 0.5 * math.erfc(math.sqrt(UNCODED_BIT_SNR_FACTOR * snr_linear))


def _row_bers(snr_db: float, row: list[PerformanceModelParams]) -> tuple[float, list[float]]:
    """The clean BER and each params' ber_with_stego at snr_db; the params differ in
    embed_rate only, so the SNR terms and the misdecode shift are computed once."""
    snr_linear = snr_db_to_linear(snr_db)
    clean = ber_ieee(snr_linear)
    rates = [p.embed_rate for p in row]
    p_b = uncoded_bit_error_prob(snr_linear) if any(rates) and row[0].embed_chips else 0.0
    if p_b == 0.0:  # no covert load, or erfc underflow far above the operating range
        return clean, [clean] * len(row)
    increment = delta_ber(misdecode_shift(p_b, row[0]))
    return clean, [clean if rate == 0.0 else min(0.5, clean + rate * increment) for rate in rates]


def ber_with_stego(snr_db: float, params: PerformanceModelParams) -> float:
    """BER seen by a plain receiver when covert load is present.

    Clean-curve BER plus embed_rate times the misdecode-driven BER
    increment, clipped to [0, 0.5].
    """
    return _row_bers(snr_db, [params])[1][0]


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


def _checked_bracket(snr_db: float, target: float) -> tuple[float, float]:
    """[a, b], 4 tol f/|f'| either side of a Newton estimate (steps on ln f in dB) of
    where the clean curve f falls to target, once exact f(a) and f(b) lie 2 tol above
    and below it; (-inf, inf) if Newton or the check fails.  f is strictly decreasing
    and computed to about 1e-11, so at a bisection mid outside [a, b] f would give the
    same move and no stop.  Newton starts at snr_db, or lower where the k = 2 term meets
    target: f, an inclusion-exclusion sum, lies under it, and ln f is concave in dB."""
    whole = -math.inf, math.inf
    c, e = _BER_TERMS[0]  # the k = 2 term, _BER_SCALE * 120 = 4 > target at snr 0
    x = min(snr_db, 10.0 * math.log10(math.log(_BER_SCALE * c / target) / (SYMBOL_SNR_FACTOR * -e)))
    for _ in range(30):
        s = SYMBOL_SNR_FACTOR * snr_db_to_linear(x)
        weights = [c * math.exp(s * e) for c, e in _BER_TERMS]
        total = math.fsum(weights)
        slope = math.fsum([w * e for w, (_, e) in zip(weights, _BER_TERMS)]) * s * _LN10_PER_DB
        valid = _BER_SCALE * total > 0.0 and slope < 0.0
        step = math.log(_BER_SCALE * total / target) * total / slope if valid else -math.inf
        if step < -1e-10:  # f underflowed, the slope is not negative, or the step turned up
            return whole
        x -= step
        if step <= 1e-10:
            break
    half = 4 * _BISECTION_REL_TOL * total / -slope
    a, b = x - half, x + half
    f_a, f_b = ber_ieee(snr_db_to_linear(a)), ber_ieee(snr_db_to_linear(b))
    margin = 2 * _BISECTION_REL_TOL * target
    return (a, b) if f_a > target + margin and f_b < target - margin else whole


def _bisect_shift(snr_db: float, clean: float, target: float) -> tuple[float, bool]:
    """(shift in dB, saturated): how far below snr_db the clean curve f shows the
    target, by bisection on [snr_db - 30, snr_db]; a target f does not reach there
    saturates at the bracket width.  Only mids inside _checked_bracket evaluate f."""
    if target <= clean:
        return 0.0, False
    if target >= 0.5:
        return SENSITIVITY_BRACKET_DB, True
    lo, hi = snr_db - SENSITIVITY_BRACKET_DB, snr_db
    a, b = _checked_bracket(hi, target)
    # below the bracket; a checked a above lo already shows f(lo) > target
    if a <= lo and ber_ieee(snr_db_to_linear(lo)) <= target:
        return SENSITIVITY_BRACKET_DB, True
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # a mid outside [a, b] reads as above (inf) or below (0) the target
        value = math.inf if mid <= a else 0.0 if mid >= b else ber_ieee(snr_db_to_linear(mid))
        if value > target:
            lo = mid
        else:
            hi = mid
        if value > 0.0 and abs(value - target) <= _BISECTION_REL_TOL * target:
            break
    return snr_db - 0.5 * (lo + hi), False


def _sensitivity_row(snr_db: float, row: list[PerformanceModelParams]) -> list[SensitivityPoint]:
    """The sensitivity point of each params at snr_db; they differ in embed_rate only."""
    clean, targets = _row_bers(snr_db, row)
    return [
        SensitivityPoint(snr_db, p.embed_rate, clean, target, shift, p.pm_mode, saturated)
        for p, target in zip(row, targets)
        for shift, saturated in [_bisect_shift(snr_db, clean, target)]
    ]


def sensitivity_point(snr_db: float, params: PerformanceModelParams) -> SensitivityPoint:
    """Project the covert-load BER increase onto an equivalent SNR penalty (see _bisect_shift)."""
    return _sensitivity_row(snr_db, [params])[0]


def sensitivity_shift(snr_db: float, params: PerformanceModelParams) -> float:
    """Receiver-sensitivity penalty in dB (0 exactly when nothing is embedded)."""
    return sensitivity_point(snr_db, params).sensitivity_shift_db


def sensitivity_curve(
    snr_db_list: list[float], embed_rate_list: list[float], params: PerformanceModelParams
) -> list[SensitivityPoint]:
    """Sensitivity points over a grid, sorted by (snr_db, embed_rate)."""
    row = [replace(params, embed_rate=rate) for rate in embed_rate_list]
    points = [point for snr in snr_db_list for point in _sensitivity_row(snr, row)]
    points.sort(key=lambda p: (p.snr_db, p.embed_rate))
    return points
