import functools
import math
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsss_stego import analysis
from dsss_stego.analysis import (
    PerformanceModelParams,
    SensitivityPoint,
    ber_ieee,
    ber_with_stego,
    coded_bit_error_prob,
    delta_avg_distance,
    delta_ber,
    misdecode_shift,
    sensitivity_curve,
    sensitivity_point,
    sensitivity_shift,
    stego_alphabet_size,
    uncoded_bit_error_prob,
)
from dsss_stego.channel import snr_to_chip_error_prob

mp.mp.dps = 50


def pascal_row(n: int) -> list[int]:
    # binomial oracle built from additions only
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def ber_ieee_oracle(snr) -> float:
    total = mp.mpf(0)
    for k in range(2, 17):
        total += (-1) ** k * mp.binomial(16, k) * mp.exp(20 * mp.mpf(snr) * (mp.mpf(1) / k - 1))
    return float(mp.mpf(8) / 15 / 16 * total)


def coded_oracle(p, n, t) -> float:
    p = mp.mpf(p)
    total = mp.mpf(0)
    for i in range(t + 1, n + 1):
        total += i * mp.binomial(n, i) * p**i * (1 - p) ** (n - i)
    return float(total / n)


# -- covert alphabet ---------------------------------------------------------

def test_alphabet_fixed_weight_value():
    rep = stego_alphabet_size(12)
    assert rep.t == 5
    assert rep.fixed_weight_patterns == 201376
    assert rep.bits_per_sequence == pytest.approx(17.62, abs=0.01)


def test_alphabet_total_against_pascal_oracle():
    row = pascal_row(32)
    assert stego_alphabet_size(12).total_patterns == sum(row[1:6]) == 242824
    for d_min in range(3, 33):
        t = (d_min - 1) // 2
        assert stego_alphabet_size(d_min).total_patterns == sum(row[1 : t + 1])
        assert stego_alphabet_size(d_min).fixed_weight_patterns == row[t]


def test_alphabet_degenerate_inputs():
    for d_min in (1, 2):
        rep = stego_alphabet_size(d_min)
        assert rep.degenerate
        assert rep.total_patterns == 0
    for bad in (0, 33):
        with pytest.raises(ValueError):
            stego_alphabet_size(bad)


# -- distance shift ----------------------------------------------------------

def test_delta_avg_distance():
    assert delta_avg_distance(0, 17.1) == 0.0
    assert delta_avg_distance(5, 17.1) == pytest.approx(2.672, abs=0.001)
    assert delta_avg_distance(32, 17.1) == pytest.approx(17.1)
    with pytest.raises(ValueError):
        delta_avg_distance(33, 17.1)
    with pytest.raises(ValueError):
        delta_avg_distance(5, 0.0)


# -- bounded-distance coding estimate ----------------------------------------

def test_coded_bit_error_endpoints():
    assert coded_bit_error_prob(0.0, 32, 5) == 0.0
    assert coded_bit_error_prob(1.0, 32, 5) == 1.0


def test_coded_bit_error_reference_point():
    got = coded_bit_error_prob(0.01, 32, 5)
    assert got == pytest.approx(coded_oracle(0.01, 32, 5), rel=1e-10)
    assert got == pytest.approx(1.4e-7, rel=0.05)


@pytest.mark.parametrize("p_b", [1e-4, 1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("t", range(6))
def test_coded_bit_error_matches_oracle_to_10_digits(p_b, t):
    assert coded_bit_error_prob(p_b, 32, t) == pytest.approx(
        coded_oracle(p_b, 32, t), rel=5e-10
    )


def test_coded_bit_error_monotone():
    grid = [10 ** (e / 4) for e in range(-16, 0)]
    values = [coded_bit_error_prob(p, 32, 5) for p in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for p in (1e-3, 1e-2, 1e-1):
        by_t = [coded_bit_error_prob(p, 32, t) for t in range(6)]
        assert all(a >= b for a, b in zip(by_t, by_t[1:]))


# -- misdecode shift ---------------------------------------------------------

def test_misdecode_no_embedding_is_neutral():
    ratio = PerformanceModelParams(embed_chips=0, pm_mode="ratio")
    diff = PerformanceModelParams(embed_chips=0, pm_mode="diff")
    assert misdecode_shift(0.01, ratio) == pytest.approx(1.0)
    assert misdecode_shift(0.01, diff) == 0.0


def test_misdecode_full_embedding_consumes_radius():
    diff = PerformanceModelParams(embed_chips=5, pm_mode="diff")
    want = coded_bit_error_prob(0.01, 32, 0) - coded_bit_error_prob(0.01, 32, 5)
    assert misdecode_shift(0.01, diff) == pytest.approx(want, rel=1e-12)
    ratio = PerformanceModelParams(embed_chips=5, pm_mode="ratio")
    assert misdecode_shift(0.01, ratio) == pytest.approx(
        coded_bit_error_prob(0.01, 32, 0) / coded_bit_error_prob(0.01, 32, 5), rel=1e-12
    )


def test_misdecode_parameter_errors():
    with pytest.raises(ValueError):
        PerformanceModelParams(embed_chips=6)
    with pytest.raises(ValueError):
        misdecode_shift(0.0, PerformanceModelParams())
    with pytest.raises(ValueError):
        PerformanceModelParams(pm_mode="bogus")


# -- BER increment -----------------------------------------------------------

def test_delta_ber_values():
    assert delta_ber(0.0) == 0.0
    assert delta_ber(1.0) == pytest.approx(8 / 15)
    assert delta_ber(0.15) == pytest.approx(0.08)
    with pytest.raises(ValueError):
        delta_ber(-0.1)


# -- standard BER curve -------------------------------------------------------

def test_ber_ieee_zero_snr_limit():
    assert ber_ieee(0.0) == pytest.approx(0.5, abs=1e-9)


def test_ber_ieee_high_snr_tail():
    assert ber_ieee(10.0) < 1e-15


def test_ber_ieee_strictly_decreasing_on_db_grid():
    # 0.1 dB grid over [-10, 10] dB
    values = [ber_ieee(10 ** ((db / 10) / 10)) for db in range(-100, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 0.5 for v in values)


@pytest.mark.parametrize("snr", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_ber_ieee_matches_oracle_to_10_digits(snr):
    assert ber_ieee(snr) == pytest.approx(ber_ieee_oracle(snr), rel=5e-10)


def test_ber_ieee_domain_error():
    with pytest.raises(ValueError):
        ber_ieee(-0.1)


def test_uncoded_bit_error_prob():
    mp.mp.dps = 50
    assert uncoded_bit_error_prob(1.0) == pytest.approx(float(mp.erfc(mp.sqrt(5)) / 2), rel=1e-12)
    with pytest.raises(ValueError):
        uncoded_bit_error_prob(0.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda nan: delta_avg_distance(5, nan), "d_mean"),
        (delta_ber, "delta_pm"),
        (ber_ieee, "SNR"),
        (uncoded_bit_error_prob, "SNR"),
        (snr_to_chip_error_prob, "SNR"),
        # with no load the bisection ran 200 steps to a row of NaNs; with load the
        # error named a p_b the caller never passed
        (lambda nan: sensitivity_point(nan, PerformanceModelParams(embed_rate=0.0)), "SNR"),
        (lambda nan: sensitivity_point(nan, PerformanceModelParams(embed_rate=0.5)), "SNR"),
    ],
    ids=["d_mean", "delta_pm", "ber_ieee", "uncoded", "chip_error", "point-clean", "point-load"],
)
def test_range_checks_reject_nan(call, name):
    with pytest.raises(ValueError, match=f"^{name} must .*, got nan$"):
        call(math.nan)


# -- covert-load BER and sensitivity ------------------------------------------

def test_ber_with_stego_rate_zero_equals_clean():
    params = PerformanceModelParams(embed_rate=0.0)
    for db in (-6.0, 0.0, 4.0, 8.0):
        assert ber_with_stego(db, params) == ber_ieee(10 ** (db / 10))


def test_ber_with_stego_never_below_clean():
    params = PerformanceModelParams(embed_rate=1.0)
    for db in range(-10, 11):
        assert ber_with_stego(float(db), params) >= ber_ieee(10 ** (db / 10))


def test_relative_gap_grows_with_snr():
    params = PerformanceModelParams(embed_rate=1.0)
    ratios = [
        ber_with_stego(float(db), params) / ber_ieee(10 ** (db / 10))
        for db in (0.0, 2.0, 4.0, 6.0)
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_sensitivity_shift_zero_without_embedding():
    params = PerformanceModelParams(embed_rate=0.0)
    assert sensitivity_shift(4.0, params) == 0.0


def test_sensitivity_shift_matches_reported_loss():
    # 4 dB, all symbols embedded, 5 chips consumed: about a 1.8 dB penalty
    params = PerformanceModelParams(embed_chips=5, embed_rate=1.0, pm_mode="diff")
    shift = sensitivity_shift(4.0, params)
    assert abs(shift - 1.8) <= 0.9


def test_sensitivity_round_trip():
    params = PerformanceModelParams(embed_rate=1.0)
    point = sensitivity_point(4.0, params)
    back = ber_ieee(10 ** ((point.snr_db - point.sensitivity_shift_db) / 10))
    assert back == pytest.approx(point.ber_steg, rel=1e-8)


def test_sensitivity_monotone_in_rate():
    shifts = [
        sensitivity_shift(4.0, PerformanceModelParams(embed_rate=r))
        for r in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a <= b for a, b in zip(shifts, shifts[1:]))
    assert shifts[0] == 0.0


def test_sensitivity_bounded_on_grid():
    params = PerformanceModelParams(embed_rate=1.0)
    points = sensitivity_curve(
        [db / 2 for db in range(-20, 21)], [0.25, 0.5, 0.75, 1.0], params
    )
    assert all(p.sensitivity_shift_db < 15.0 for p in points)
    assert all(p.ber_steg >= p.ber_clean for p in points)
    assert all(p.sensitivity_shift_db >= 0.0 for p in points)


def test_ber_with_stego_survives_underflow_at_high_snr():
    params = PerformanceModelParams(embed_rate=1.0)
    assert ber_with_stego(30.0, params) == ber_ieee(10 ** 3.0)
    assert sensitivity_shift(30.0, params) == 0.0


def test_sensitivity_saturation_flag():
    # the literal-ratio mode explodes the BER target; shift caps at the bracket
    params = PerformanceModelParams(embed_rate=1.0, pm_mode="ratio")
    point = sensitivity_point(4.0, params)
    assert point.saturated
    assert point.sensitivity_shift_db == 30.0


def test_sensitivity_crossing_below_the_bracket_saturates():
    # the target lies under the clean curve 30 dB down: the whole bracket is above it
    params = PerformanceModelParams(embed_rate=0.25, pm_mode="ratio", embed_chips=1)
    point = sensitivity_point(-6.95, params)
    assert ber_ieee(10 ** ((-6.95 - 30.0) / 10)) <= point.ber_steg < 0.5
    assert point.saturated
    assert point.sensitivity_shift_db == 30.0


# -- the plain bisection as the oracle of the one that skips far-away steps ----

def plain_ber_with_stego(snr_db, params):
    snr_linear = 10.0 ** (snr_db / 10.0)
    clean = ber_ieee(snr_linear)
    if params.embed_rate == 0.0 or params.embed_chips == 0:
        return clean
    p_b = uncoded_bit_error_prob(snr_linear)
    if p_b == 0.0:
        return clean
    return min(0.5, clean + params.embed_rate * delta_ber(misdecode_shift(p_b, params)))


def plain_sensitivity_point(snr_db, params):
    clean = ber_ieee(10.0 ** (snr_db / 10.0))
    target = plain_ber_with_stego(snr_db, params)
    point = functools.partial(SensitivityPoint, snr_db, params.embed_rate, clean, target)
    if target <= clean:
        return point(0.0, params.pm_mode)
    if target >= 0.5:
        return point(30.0, params.pm_mode, saturated=True)
    lo = snr_db - 30.0
    hi = snr_db
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = ber_ieee(10.0 ** (mid / 10.0))
        if value > target:
            lo = mid
        else:
            hi = mid
        if value > 0.0 and abs(value - target) <= 1e-9 * target:
            break
    shifted = 0.5 * (lo + hi)
    return point(snr_db - shifted, params.pm_mode)


def test_sensitivity_curve_matches_plain_bisection():
    # near -40 dB the curve is too flat for a checked bracket; above about 20 dB
    # it underflows to 0 under a nonzero target; -8..-6 dB holds below-bracket rows
    snrs = [-40.0 + k for k in range(93)] + [-8.0 + 0.05 * k for k in range(41)]
    rates = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0]
    seen = {"below": 0, "saturated": 0, "underflow": 0, "shifted": 0}
    for pm_mode in ("diff", "ratio"):
        for chips in range(6):
            params = PerformanceModelParams(embed_chips=chips, pm_mode=pm_mode)
            got = sensitivity_curve(snrs, rates, params)
            want = sorted(
                (plain_sensitivity_point(s, PerformanceModelParams(chips, r, pm_mode))
                 for s in snrs for r in rates),
                key=lambda p: (p.snr_db, p.embed_rate),
            )
            for g, w in zip(got, want, strict=True):
                floor = ber_ieee(10.0 ** ((w.snr_db - 30.0) / 10.0))  # the bracket's low end
                if w.ber_clean < w.ber_steg < 0.5 and floor <= w.ber_steg:
                    seen["below"] += 1
                    assert g == replace(w, sensitivity_shift_db=30.0, saturated=True)
                    continue
                assert g == w
                seen["saturated"] += w.saturated
                seen["underflow"] += w.ber_clean == 0.0 < w.ber_steg
                seen["shifted"] += 0.0 < w.sensitivity_shift_db < 30.0
    assert all(seen.values()), seen


def test_sweep_grid_curve_evaluates_near_the_crossing_only(monkeypatch):
    # the 0:6:1 x (0, 0.5, 1) grid; the plain bisection made 532 curve calls and
    # 4 misdecode calls a row
    calls = {"ber_ieee": 0, "coded_bit_error_prob": 0}
    for name in calls:
        def counted(*args, _original=getattr(analysis, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    points = sensitivity_curve([float(s) for s in range(7)], [0.0, 0.5, 1.0],
                               PerformanceModelParams())
    assert len(points) == 21 and sum(p.sensitivity_shift_db > 0.0 for p in points) == 14
    assert calls["ber_ieee"] <= 150
    assert calls["coded_bit_error_prob"] == 2 * 7


def _count_bracket_calls(monkeypatch):
    calls = {"ber_ieee": 0, "whole_bracket": 0}

    def ber(snr_linear, _original=analysis.ber_ieee):
        calls["ber_ieee"] += 1
        return _original(snr_linear)

    def bracket(snr_db, target, _original=analysis._checked_bracket):
        a, b = _original(snr_db, target)
        calls["whole_bracket"] += (a, b) == (-math.inf, math.inf)
        return a, b

    monkeypatch.setattr(analysis, "ber_ieee", ber)
    monkeypatch.setattr(analysis, "_checked_bracket", bracket)
    return calls


def test_cli_default_grid_checks_every_bracket(monkeypatch):
    # -10:10:0.5 x 5 rates, 164 bisections: a fixed 1e-8 dB bracket failed its check
    # at 18 of them (SNR <= -8 dB), each then bisecting the whole 30 dB, 1603 calls in all
    calls = _count_bracket_calls(monkeypatch)
    points = sensitivity_curve([-10.0 + 0.5 * k for k in range(41)],
                               [0.0, 0.25, 0.5, 0.75, 1.0], PerformanceModelParams())
    assert sum(0.0 < p.sensitivity_shift_db for p in points) == 164
    assert calls["whole_bracket"] == 0
    assert calls["ber_ieee"] <= 800


def test_sweep_grid_newton_starts_at_the_dominant_term(monkeypatch):
    # Newton from the row's SNR and a fixed 1e-8 dB bracket made 109 curve calls here
    calls = _count_bracket_calls(monkeypatch)
    sensitivity_curve([float(s) for s in range(7)], [0.0, 0.5, 1.0], PerformanceModelParams())
    assert calls["whole_bracket"] == 0
    assert calls["ber_ieee"] <= 80


def direct_coded_bit_error_prob(p_b, n, t):
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


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=5))
def test_coded_bit_error_prob_matches_direct_formula(p_b, t):
    assert coded_bit_error_prob(p_b, 32, t) == direct_coded_bit_error_prob(p_b, 32, t)
