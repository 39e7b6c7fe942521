"""Quality pass: detectors vs naive oracles, repairs, fills, diagnose."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from forecastlab.preprocess import (
    DetectionPolicy,
    RepairPolicy,
    compute_stats,
    detect_outliers,
    detect_outliers_iqr,
    detect_outliers_percentile,
    detect_outliers_zscore,
    diagnose,
    fill_missing,
    repair_outliers,
)
from forecastlab.series import Series

# ---------------------------------------------------------------------------
# Naive oracles, written against the documented rules only (no numpy
# quantile/std shortcuts), used for exhaustive equivalence checks.
# ---------------------------------------------------------------------------


def oracle_quantile(data, q):
    """Type-7 quantile: linear interpolation on the order statistics."""
    s = sorted(data)
    if len(s) == 1:
        return s[0]
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def oracle_history(values, t, window):
    out = []
    for i in range(max(0, t - window + 1), t):
        if values[i] is not None:
            out.append(values[i])
    return out


def oracle_iqr(values, window, alpha):
    flags = []
    for t in range(window - 1, len(values)):
        x = values[t]
        if x is None:
            continue
        hist = oracle_history(values, t, window)
        if len(hist) < 2:
            continue
        q1 = oracle_quantile(hist, 0.25)
        q3 = oracle_quantile(hist, 0.75)
        iqr = q3 - q1
        if x < q1 - alpha * iqr or x > q3 + alpha * iqr:
            flags.append(t)
    return tuple(flags)


def oracle_zscore(values, window, alpha, robust):
    flags = []
    for t in range(window - 1, len(values)):
        x = values[t]
        if x is None:
            continue
        hist = oracle_history(values, t, window)
        if not hist:
            continue
        if robust:
            center = oracle_quantile(hist, 0.5)
            mad = oracle_quantile([abs(v - center) for v in hist], 0.5)
            scale = 1.4826 * mad
        else:
            center = sum(hist) / len(hist)
            scale = math.sqrt(sum((v - center) ** 2 for v in hist) / len(hist))
        if scale == 0.0:
            continue
        if abs(x - center) / scale > alpha:
            flags.append(t)
    return tuple(flags)


def oracle_percentile(values, lower_pct, upper_pct):
    ref = [v for v in values if v is not None]
    lo = oracle_quantile(ref, lower_pct / 100.0)
    hi = oracle_quantile(ref, upper_pct / 100.0)
    return tuple(i for i, v in enumerate(values) if v is not None and (v < lo or v > hi))


# ---------------------------------------------------------------------------
# Hand-built cases
# ---------------------------------------------------------------------------


def test_iqr_flags_spike_in_flat_base():
    base = [1.0, 2.0, 1.0, 2.0] * 8
    base[20] = 50.0
    flags = detect_outliers_iqr(Series(tuple(base)), window=8, alpha=1.5)
    assert 20 in flags
    # the spike is excluded from its own fence window, so later points stay clean
    assert all(f == 20 for f in flags)


def test_iqr_first_flaggable_index_is_window_minus_one():
    vals = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 99.0]
    flags = detect_outliers_iqr(Series(tuple(vals)), window=8, alpha=1.5)
    assert flags == (7,)
    # one index earlier there are only 6 history points but t < window-1
    vals2 = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 99.0, 1.0]
    assert detect_outliers_iqr(Series(tuple(vals2)), window=8, alpha=1.5) == ()


def test_iqr_requires_window_observations():
    with pytest.raises(ValueError):
        detect_outliers_iqr(Series((1.0, 2.0, 3.0)), window=4)
    with pytest.raises(ValueError):
        detect_outliers_iqr(Series((1.0, 2.0, 3.0, None)), window=4)


def test_iqr_gap_shortens_history_below_two_leaves_spike_unflagged():
    # window 4: the history of t=7 is positions 4..6, of which only 4 is
    # observed; one value is below the IQR minimum of 2, so the spike stays
    vals = [1.0, 2.0, 1.0, 2.0, 1.0, None, None, 100.0, 1.0, 2.0]
    assert detect_outliers_iqr(Series(tuple(vals)), window=4, alpha=1.5) == ()
    # with positions 5 and 6 observed the same spike is flagged
    dense = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 100.0, 1.0, 2.0]
    assert detect_outliers_iqr(Series(tuple(dense)), window=4, alpha=1.5) == (7,)


def test_zscore_zero_scale_never_flags():
    vals = [5.0] * 20 + [500.0]
    # plain std over a constant history is zero: nothing may be flagged
    flags = detect_outliers_zscore(Series(tuple(vals[:-1] + [5.0])), window=10, alpha=3.0)
    assert flags == ()
    # but the actual spike IS flaggable since history excludes the candidate
    flags2 = detect_outliers_zscore(Series(tuple(vals)), window=10, alpha=3.0)
    assert flags2 == ()  # zero scale still, history is all 5s
    # with variation in history the spike flags
    varied = [5.0, 6.0] * 10 + [500.0]
    assert 20 in detect_outliers_zscore(Series(tuple(varied)), window=10, alpha=3.0)


def test_zscore_robust_uses_median_and_mad():
    # history {1,2,1,2,100}: the spike inflates mean/std but not median/MAD,
    # so only the robust variant flags the candidate 10
    vals = [1.0, 2.0, 1.0, 2.0, 100.0, 10.0]
    plain = detect_outliers_zscore(Series(tuple(vals)), window=6, alpha=3.0, robust=False)
    robust = detect_outliers_zscore(Series(tuple(vals)), window=6, alpha=3.0, robust=True)
    assert 5 not in plain
    assert 5 in robust


def test_percentile_strict():
    vals = tuple(float(i) for i in range(100))
    flags = detect_outliers_percentile(Series(vals), lower_pct=10.0, upper_pct=90.0)
    # type-7 bounds on 0..99 are 9.9 and 89.1; strictly outside
    assert flags == tuple(range(0, 10)) + tuple(range(90, 100))


def test_detect_dispatch_and_none():
    s = Series(tuple([1.0, 2.0] * 16 + [99.0]))
    assert detect_outliers(s, DetectionPolicy(method="none")) == ()
    assert detect_outliers(s, DetectionPolicy(method="rolling_iqr", window=8)) == (32,)


def test_originally_missing_never_flagged_by_diagnose():
    vals = [1.0, 2.0] * 16
    vals[10] = None
    vals[20] = 99.0
    diag, cleaned = diagnose(
        Series(tuple(vals)),
        DetectionPolicy(method="rolling_iqr", window=8, alpha=1.5),
        RepairPolicy(outlier_handle="interpolate", missing_fill="interpolate"),
    )
    assert diag.missing_indices == (10,)
    assert 10 not in diag.outlier_indices
    assert 20 in diag.outlier_indices
    assert cleaned.is_complete()
    n = len(vals)
    assert diag.quality_score == pytest.approx(
        1.0 - 1.0 / n - len(diag.outlier_indices) / n
    )


def test_quality_score_clamped():
    vals = [None] * 30 + [1.0, 2.0]
    diag, _ = diagnose(
        Series(tuple(vals)),
        DetectionPolicy(method="none"),
        RepairPolicy(missing_fill="interpolate"),
    )
    assert 0.0 <= diag.quality_score <= 1.0


# ---------------------------------------------------------------------------
# Repairs
# ---------------------------------------------------------------------------


def test_repair_clip_to_clean_range():
    s = Series((1.0, 5.0, 100.0, 3.0))
    out = repair_outliers(s, (2,), RepairPolicy(outlier_handle="clip"))
    assert out.values == (1.0, 5.0, 5.0, 3.0)


def test_repair_interpolate_between_clean_neighbors():
    s = Series((1.0, 100.0, 3.0))
    out = repair_outliers(s, (1,), RepairPolicy(outlier_handle="interpolate"))
    assert out.values == (1.0, 2.0, 3.0)


def test_repair_interpolate_boundary_copies_nearest():
    s = Series((100.0, 2.0, 3.0))
    out = repair_outliers(s, (0,), RepairPolicy(outlier_handle="interpolate"))
    assert out.values == (2.0, 2.0, 3.0)


def test_repair_ffill_bfill():
    s = Series((1.0, 100.0, 3.0))
    assert repair_outliers(s, (1,), RepairPolicy(outlier_handle="ffill")).values == (1.0, 1.0, 3.0)
    assert repair_outliers(s, (1,), RepairPolicy(outlier_handle="bfill")).values == (1.0, 3.0, 3.0)


def test_repair_local_mean_median_window():
    s = Series((1.0, 2.0, 3.0, 4.0, 100.0, 6.0))
    pol = RepairPolicy(outlier_handle="local_mean", neighborhood=3)
    assert repair_outliers(s, (4,), pol).values[4] == pytest.approx(3.0)
    pol2 = RepairPolicy(outlier_handle="local_median", neighborhood=3)
    assert repair_outliers(s, (4,), pol2).values[4] == pytest.approx(3.0)


def test_repair_zero_and_drop_rejected():
    s = Series((1.0, 100.0, 3.0))
    assert repair_outliers(s, (1,), RepairPolicy(outlier_handle="zero")).values == (1.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        repair_outliers(s, (1,), RepairPolicy(outlier_handle="drop"))


def test_repair_smooth_interpolates_then_averages():
    s = Series((2.0, 2.0, 20.0, 2.0))
    out = repair_outliers(s, (2,), RepairPolicy(outlier_handle="smooth", smooth_window=2))
    # flag replaced by 2.0 via interpolation, then trailing mean of width 2
    assert out.values == (2.0, 2.0, 2.0, 2.0)


def test_fill_missing_strategies():
    s = Series((None, 2.0, None, 6.0, None))
    pol = RepairPolicy(missing_fill="interpolate")
    assert fill_missing(s, pol).values == (2.0, 2.0, 4.0, 6.0, 6.0)
    assert fill_missing(s, RepairPolicy(missing_fill="ffill")).values == (2.0, 2.0, 2.0, 6.0, 6.0)
    assert fill_missing(s, RepairPolicy(missing_fill="bfill")).values == (2.0, 2.0, 6.0, 6.0, 6.0)
    assert fill_missing(s, RepairPolicy(missing_fill="zero")).values == (0.0, 2.0, 0.0, 6.0, 0.0)
    got = fill_missing(s, RepairPolicy(missing_fill="local_mean", neighborhood=2))
    assert got.values[2] == pytest.approx(2.0)  # only one prior clean point
    with pytest.raises(ValueError):
        fill_missing(s, RepairPolicy(missing_fill="drop"))


def test_fill_missing_fully_missing_needs_zero():
    s = Series((None, None, 1.0)).with_values((None, None, None))
    assert fill_missing(s, RepairPolicy(missing_fill="zero")).values == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fill_missing(s, RepairPolicy(missing_fill="interpolate"))


def test_compute_stats_moments():
    s = Series((1.0, 2.0, 3.0, 4.0))
    st_ = compute_stats(s)
    assert st_.mean == pytest.approx(2.5)
    assert st_.std == pytest.approx(math.sqrt(1.25))
    assert st_.minimum == 1.0 and st_.maximum == 4.0
    assert st_.skewness == pytest.approx(0.0)
    # population excess kurtosis of the uniform 4-point set
    assert st_.excess_kurtosis == pytest.approx(-1.36)


def test_compute_stats_constant_series():
    st_ = compute_stats(Series((5.0, 5.0, 5.0)))
    assert st_.std == 0.0 and st_.skewness == 0.0 and st_.excess_kurtosis == 0.0


# ---------------------------------------------------------------------------
# Randomized oracle equivalence (the acceptance test runs the large sweep)
# ---------------------------------------------------------------------------


def _random_series(rng, n):
    vals = list(rng.normal(10.0, 3.0, size=n))
    for i in rng.choice(n, size=max(1, n // 20), replace=False):
        vals[int(i)] = float(vals[int(i)]) * float(rng.choice([5.0, -3.0]))
    for i in rng.choice(n, size=n // 25 if n >= 25 else 0, replace=False):
        vals[int(i)] = None
    return [None if v is None else float(v) for v in vals]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_detectors_match_oracles_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(30, 120))
        vals = _random_series(rng, n)
        if sum(v is not None for v in vals) < 24:
            continue
        s = Series(tuple(vals))
        w = int(rng.choice([8, 12, 24]))
        if sum(v is not None for v in vals) < w:
            continue
        assert detect_outliers_iqr(s, window=w, alpha=1.5) == oracle_iqr(vals, w, 1.5)
        assert detect_outliers_zscore(s, window=w, alpha=3.0) == oracle_zscore(
            vals, w, 3.0, False
        )
        assert detect_outliers_zscore(s, window=w, alpha=3.0, robust=True) == oracle_zscore(
            vals, w, 3.0, True
        )
        assert detect_outliers_percentile(s, 5.0, 95.0) == oracle_percentile(vals, 5.0, 95.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=24, max_size=80))
def test_iqr_oracle_property(vals):
    s = Series(tuple(vals))
    assert detect_outliers_iqr(s, window=12, alpha=1.5) == oracle_iqr(list(s.values), 12, 1.5)


# Gappy series: a missing cell inside a window shortens the histories of the
# indices after it, so one series has histories of several lengths. About a
# third of the cells are missing (one None branch to two integer branches).
# Small integers give ties and keep the oracles' arithmetic exact.
gappy_values = st.lists(
    st.one_of(st.none(), st.integers(-20, 20).map(float), st.integers(-20, 20).map(float)),
    min_size=8,
    max_size=80,
)


def _gappy_series(vals, window):
    assume(sum(v is not None for v in vals) >= window)
    return Series(tuple(vals))


@settings(max_examples=60, deadline=None)
@given(gappy_values, st.integers(4, 16), st.sampled_from([1.0, 1.5, 3.0]))
def test_iqr_oracle_property_gappy(vals, window, alpha):
    s = _gappy_series(vals, window)
    assert detect_outliers_iqr(s, window, alpha) == oracle_iqr(vals, window, alpha)


def _on_plain_threshold(vals, window, alpha):
    """Whether some index has |x - mean| / std exactly equal to alpha.

    With integer values and alpha this is the integer identity
    (n x - S)^2 = alpha^2 (n Q - S^2) over each history (S the sum, Q the
    sum of squares). At such a tie the float comparison depends on the
    summation order, which the detector and the oracle do not share.
    """
    for t in range(window - 1, len(vals)):
        hist = [int(v) for v in oracle_history(vals, t, window)]
        if vals[t] is None or not hist:
            continue
        n, total = len(hist), sum(hist)
        spread = n * sum(v * v for v in hist) - total * total
        if spread and (n * int(vals[t]) - total) ** 2 == int(alpha) ** 2 * spread:
            return True
    return False


@pytest.mark.parametrize("robust", [False, True])
@settings(max_examples=60, deadline=None)
@given(gappy_values, st.integers(2, 16), st.sampled_from([1.0, 2.0, 3.0]))
def test_zscore_oracle_property_gappy(robust, vals, window, alpha):
    s = _gappy_series(vals, window)
    # the robust statistics of integers are exact; the plain ones are not
    assume(robust or not _on_plain_threshold(vals, window, alpha))
    assert detect_outliers_zscore(s, window, alpha, robust) == oracle_zscore(
        vals, window, alpha, robust
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        DetectionPolicy(method="magic")
    with pytest.raises(ValueError):
        DetectionPolicy(window=1)
    with pytest.raises(ValueError):
        RepairPolicy(outlier_handle="explode")
    with pytest.raises(ValueError):
        RepairPolicy(missing_fill="explode")


def test_diagnose_roundtrip_dict():
    diag, _ = diagnose(
        Series(tuple([1.0, 2.0] * 16)),
        DetectionPolicy(),
        RepairPolicy(),
    )
    d = diag.to_dict()
    # the logged dicts must reconstruct the exact policies for replay
    assert DetectionPolicy(**d["detection"]) == diag.detection
    assert RepairPolicy(**d["repair"]) == diag.repair
