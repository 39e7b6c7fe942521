"""Forecasting models: exact small cases, structure recovery, registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forecastlab.models import (
    Forecast,
    MODEL_IDS,
    ModelFailureError,
    ModelSpec,
    allowed_hyperparameter_keys,
    fit_forecast,
    hyperparameter_space,
    minimum_train_length,
    validate_hyperparameters,
)
from forecastlab.models import statistical
from forecastlab.series import Series


def _fc(model_id, params, values, horizon):
    return fit_forecast(ModelSpec(model_id, params), Series(tuple(values)), horizon).array()


# ---------------------------------------------------------------------------
# random_walk
# ---------------------------------------------------------------------------


def test_random_walk_flat():
    out = _fc("random_walk", {"drift": False}, [1.0, 5.0, 3.0], 4)
    np.testing.assert_array_equal(out, [3.0, 3.0, 3.0, 3.0])


def test_random_walk_drift_slope():
    # drift is the average first difference: (x[-1] - x[0]) / (n - 1)
    out = _fc("random_walk", {"drift": True}, [2.0, 3.0, 10.0], 3)
    np.testing.assert_allclose(out, [14.0, 18.0, 22.0])


def test_random_walk_single_point():
    out = _fc("random_walk", {}, [7.0], 2)
    np.testing.assert_array_equal(out, [7.0, 7.0])


# ---------------------------------------------------------------------------
# moving_average
# ---------------------------------------------------------------------------


def test_moving_average_recursive():
    # window 2: each step averages the two latest values, real or predicted
    out = _fc("moving_average", {"window": 2}, [2.0, 4.0], 3)
    np.testing.assert_allclose(out, [3.0, 3.5, 3.25])


def test_moving_average_window_larger_history_fails():
    with pytest.raises(ModelFailureError):
        _fc("moving_average", {"window": 6}, [1.0, 2.0, 3.0], 2)


# ---------------------------------------------------------------------------
# exp_smoothing
# ---------------------------------------------------------------------------


def test_exp_smoothing_simple_constant_forecast():
    out = _fc("exp_smoothing", {"alpha": 0.5, "trend": False, "seasonal": False}, [4.0, 4.0, 4.0, 4.0], 3)
    np.testing.assert_allclose(out, [4.0, 4.0, 4.0])
    assert out[0] == out[1] == out[2]


def test_exp_smoothing_holt_tracks_line():
    t = np.arange(60.0)
    out = _fc("exp_smoothing", {"trend": True}, list(3.0 + 2.0 * t), 5)
    np.testing.assert_allclose(out, 3.0 + 2.0 * np.arange(60.0, 65.0), atol=1e-6)


def test_exp_smoothing_seasonal_repeats_pattern():
    pattern = [0.0, 10.0, 0.0, 10.0] * 20
    out = _fc(
        "exp_smoothing",
        {"trend": False, "seasonal": True, "period": 2},
        pattern,
        4,
    )
    # next steps continue the alternating pattern
    assert abs(out[0] - 0.0) < 1.0 and abs(out[1] - 10.0) < 1.0
    assert abs(out[2] - 0.0) < 1.0 and abs(out[3] - 10.0) < 1.0


def test_exp_smoothing_seasonal_needs_period():
    with pytest.raises(ValueError):
        ModelSpec("exp_smoothing", {"seasonal": True})


# ---------------------------------------------------------------------------
# arima
# ---------------------------------------------------------------------------


def test_arima_010_equals_driftless_random_walk():
    rng = np.random.default_rng(0)
    x = list(np.cumsum(rng.normal(0, 1, 80)))
    a = _fc("arima", {"p": 0, "d": 1, "q": 0}, x, 6)
    b = _fc("random_walk", {"drift": False}, x, 6)
    np.testing.assert_array_equal(a, b)


def test_arima_ar1_coefficient_recovery():
    rng = np.random.default_rng(1)
    n = 2000
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.7 * x[i - 1] + rng.normal()
    out = _fc("arima", {"p": 1, "d": 0, "q": 0}, list(x), 1)
    # one-step forecast approximately phi * x_last (+ small intercept)
    assert out[0] == pytest.approx(0.7 * x[-1], abs=0.4)


def test_arima_constant_series_is_flat():
    out = _fc("arima", {"p": 1, "d": 0, "q": 1}, [5.0] * 40, 3)
    np.testing.assert_allclose(out, [5.0, 5.0, 5.0], atol=1e-8)


# ---------------------------------------------------------------------------
# bit-exact pins: the recursions must keep their float64 operations and order
# ---------------------------------------------------------------------------


def _pin_series():
    """A seasonal series for the smoothing pins, a random walk for ARIMA."""
    rng = np.random.default_rng(20261018)
    t = np.arange(96)
    seasonal = 20.0 + 0.05 * t + 3.0 * np.sin(2 * np.pi * t / 12) + rng.normal(0.0, 0.5, 96)
    walk = 10.0 + np.cumsum(rng.normal(0.0, 1.0, 96))
    return seasonal, walk


# Recorded from the per-element numpy-scalar implementation that the
# Python-float recursions replaced; every parameter is left free.
SMOOTHING_PINS = {
    "plain": ({}, ["0x1.7d81feaf28b27p+4"] * 4),
    "trend": (
        {"trend": True},
        ["0x1.92e63b76916f6p+4", "0x1.ab90f69412c07p+4", "0x1.c43bb1b194117p+4", "0x1.dce66ccf15628p+4"],
    ),
    "seasonal": (
        {"seasonal": True, "period": 12},
        ["0x1.853404e321f2ap+4", "0x1.a0f6450b27f90p+4", "0x1.b9f30f3cc3fa7p+4", "0x1.bc29d12c10ff8p+4"],
    ),
    "trend_seasonal": (
        {"trend": True, "seasonal": True, "period": 12},
        ["0x1.85d3fb16af24bp+4", "0x1.a0f84ac49076ap+4", "0x1.bac8dfac6391bp+4", "0x1.bd8fe5235b837p+4"],
    ),
}
ARIMA_PINS = {
    (1, 0, 0): ["0x1.b0bcfcb2f66adp+3", "0x1.afe093629bdfdp+3", "0x1.af1f4fea8234dp+3", "0x1.ae75da496c122p+3"],
    (2, 1, 1): ["0x1.b2382da60cc22p+3", "0x1.b2252c24fd7cfp+3", "0x1.b22b661fd94a3p+3", "0x1.b2297d9a537f3p+3"],
    (0, 0, 2): ["0x1.93a121543ed53p+3", "0x1.c03da4b70aa83p+3", "0x1.ab59fbb4f3e1ep+3", "0x1.ab59fbb4f3e1ep+3"],
}


@pytest.mark.parametrize("variant", sorted(SMOOTHING_PINS))
def test_exp_smoothing_forecast_pinned_bit_for_bit(variant):
    kwargs, expected = SMOOTHING_PINS[variant]
    seasonal, _ = _pin_series()
    out = statistical.exp_smoothing(seasonal, 4, **kwargs)
    assert [float(v).hex() for v in out] == expected


@pytest.mark.parametrize("order", sorted(ARIMA_PINS))
def test_arima_forecast_pinned_bit_for_bit(order):
    _, walk = _pin_series()
    out = statistical.arima(walk, 4, *order)
    assert [float(v).hex() for v in out] == ARIMA_PINS[order]


def test_smoothing_search_runs_one_pass_per_parameter_set(monkeypatch):
    seasonal, _ = _pin_series()
    seen = []
    real_pass = statistical._smoothing_pass

    def counting(start, alpha, beta, gamma, *rest):
        seen.append((alpha, beta, gamma))
        return real_pass(start, alpha, beta, gamma, *rest)

    monkeypatch.setattr(statistical, "_smoothing_pass", counting)
    given = {"alpha": None, "beta": None, "gamma": None}
    best, _ = statistical._fit_free_params(seasonal, given, True, True, 12)
    assert len(seen) == len(set(seen)) > 0
    assert (best["alpha"], best["beta"], best["gamma"]) in seen
    # the forecast reuses the winning pass's state: no pass beyond the search's
    search_passes = len(seen)
    seen.clear()
    statistical.exp_smoothing(seasonal, 4, trend=True, seasonal=True, period=12)
    assert 0 < len(seen) <= search_passes


# Reference search: every candidate pass runs to the end, with no bound, and
# the chosen parameters get a pass of their own for the final state. The
# forecasts must match it bit for bit.


def _oracle_pass(x, alpha, beta, gamma, trend, seasonal, period):
    n = x.size
    xs = x.tolist()
    if seasonal:
        m = period
        level = float(np.mean(x[:m]))
        slope = (float(np.mean(x[m:2 * m])) - level) / m if trend else 0.0
        season = [v - level for v in xs[:m]]
        start = m
    else:
        m = 0
        level = xs[0]
        slope = xs[1] - xs[0] if trend else 0.0
        season = []
        start = 1
    sse = 0.0
    for t in range(start, n):
        xt = xs[t]
        s_idx = t % m if seasonal else 0
        s_val = season[s_idx] if seasonal else 0.0
        pred = level + slope + s_val
        err = xt - pred
        sse += err * err
        new_level = alpha * (xt - s_val) + (1.0 - alpha) * (level + slope)
        new_slope = beta * (new_level - level) + (1.0 - beta) * slope if trend else slope
        if seasonal:
            season[s_idx] = gamma * (xt - level - slope) + (1.0 - gamma) * s_val
        level, slope = new_level, new_slope
    return sse, level, slope, np.array(season)


def _oracle_fit(x, given, trend, seasonal, period):
    names = ["alpha"] + ["beta"] * trend + ["gamma"] * seasonal
    fixed = {k: v for k, v in given.items() if k in names and v is not None}
    free = [k for k in names if k not in fixed]
    best = dict(fixed)
    for k in free:
        best[k] = 0.5

    def sse_of(params):
        key = (params.get("alpha", 0.5), params.get("beta", 0.0), params.get("gamma", 0.0))
        return _oracle_pass(x, *key, trend, seasonal, period)[0]

    if not free:
        return best
    for grid in (statistical.SMOOTHING_COARSE_GRID, None):
        best_sse = sse_of(best)
        for k in free:
            if grid is None:
                candidates = sorted(
                    {
                        min(statistical.SMOOTHING_PARAM_MAX,
                            max(statistical.SMOOTHING_PARAM_MIN, round(best[k] + off, 4)))
                        for off in statistical.SMOOTHING_REFINE_OFFSETS
                    }
                )
            else:
                candidates = list(grid)
            for cand in candidates:
                trial = dict(best)
                trial[k] = cand
                s = sse_of(trial)
                if s < best_sse:
                    best_sse = s
                    best = trial
    return best


def _oracle_exp_smoothing(x, horizon, trend, seasonal, period, **given):
    m = period if seasonal else 0
    params = _oracle_fit(x, given, trend, seasonal, m)
    _, level, slope, season = _oracle_pass(
        x, params["alpha"], params.get("beta", 0.0), params.get("gamma", 0.0), trend, seasonal, m
    )
    out = np.empty(horizon)
    for h in range(1, horizon + 1):
        val = level + (slope * h if trend else 0.0)
        if seasonal:
            val += season[(x.size - 1 + h) % m]
        out[h - 1] = val
    return out


SMOOTHING_VARIANTS = ((False, False), (True, False), (False, True), (True, True))
SMOOTHING_GIVEN = st.none() | st.sampled_from([0.01, 0.3, 0.5, 0.77, 0.99])


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=4, max_size=60)
    | st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=60),
    scale=st.sampled_from([1e-6, 1.0, 1e8]),
    variant=st.sampled_from(SMOOTHING_VARIANTS),
    period=st.integers(2, 12),
    fixed=st.fixed_dictionaries({k: SMOOTHING_GIVEN for k in ("alpha", "beta", "gamma")}),
)
def test_smoothing_search_matches_full_pass_oracle(values, scale, variant, period, fixed):
    x = np.asarray(values, dtype=float) * scale
    trend, seasonal = variant
    period = min(period, x.size // 2)
    expected = _oracle_exp_smoothing(x, 7, trend, seasonal, period, **fixed)
    out = statistical.exp_smoothing(x, 7, trend=trend, seasonal=seasonal, period=period, **fixed)
    assert [float(v).hex() for v in out] == [float(v).hex() for v in expected]


@pytest.mark.parametrize("variant", SMOOTHING_VARIANTS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_smoothing_search_matches_oracle_when_sse_overflows(variant, sign):
    # squares of 1e300 overflow the SSE to inf; the search must still finish
    trend, seasonal = variant
    x = sign * 1e300 * (1.0 + np.arange(48.0) % 5)
    expected = _oracle_exp_smoothing(x, 5, trend, seasonal, 12)
    out = statistical.exp_smoothing(x, 5, trend=trend, seasonal=seasonal, period=12)
    assert [float(v).hex() for v in out] == [float(v).hex() for v in expected]


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_matches_two_line_oracle():
    # independent recomputation: half the extrapolated least-squares line
    # plus half the flat SES level of the doubled line 2x - trend
    t = np.arange(40.0)
    x = 1.0 + 3.0 * t + np.sin(t)
    slope, intercept = np.polyfit(t, x, 1)
    amplified = 2.0 * x - (intercept + slope * t)
    level = amplified[0]
    for v in amplified[1:]:
        level = 0.5 * v + 0.5 * level
    expected = [0.5 * (intercept + slope * (39.0 + h)) + 0.5 * level for h in (1, 2, 3, 4)]
    out = _fc("theta", {"ses_alpha": 0.5}, list(x), 4)
    np.testing.assert_allclose(out, expected, atol=1e-9)


def test_theta_constant():
    out = _fc("theta", {}, [2.0] * 20, 3)
    np.testing.assert_allclose(out, [2.0, 2.0, 2.0], atol=1e-9)


# ---------------------------------------------------------------------------
# croston
# ---------------------------------------------------------------------------


def test_croston_intermittent_rate():
    # demand 6 every 3rd step: long-run rate 2 per step
    x = [0.0, 0.0, 6.0] * 10
    out = _fc("croston", {"alpha": 0.3}, x, 4)
    assert np.all(out == out[0])
    assert out[0] == pytest.approx(2.0, abs=0.8)


def test_croston_all_zero_history():
    out = _fc("croston", {"alpha": 0.3}, [0.0] * 10, 3)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# lag regressions
# ---------------------------------------------------------------------------


def test_linear_regression_extrapolates_line():
    t = np.arange(60.0)
    out = _fc("linear_regression", {"num_lags": 4}, list(2.0 * t), 5)
    np.testing.assert_allclose(out, 2.0 * np.arange(60.0, 65.0), atol=1e-6)


def test_polynomial_regression_fits_quadratic():
    t = np.arange(40.0)
    out = _fc("polynomial_regression", {"num_lags": 4, "degree": 2}, list((t / 10.0) ** 2), 3)
    target = (np.arange(40.0, 43.0) / 10.0) ** 2
    np.testing.assert_allclose(out, target, atol=0.05)


def test_ridge_shrinks_towards_zero():
    rng = np.random.default_rng(3)
    x = list(rng.normal(0, 1, 80))
    weak = _fc("ridge_regression", {"num_lags": 8, "lambda": 0.1}, x, 1)
    strong = _fc("ridge_regression", {"num_lags": 8, "lambda": 1000.0}, x, 1)
    # heavy regularization pushes the prediction towards the intercept-only model
    assert abs(strong[0] - np.mean(x)) < abs(weak[0] - np.mean(x)) + 0.5


def test_lasso_matches_ols_at_zero_penalty():
    t = np.arange(50.0)
    x = list(3.0 + 2.0 * t)
    lasso = _fc("lasso_regression", {"num_lags": 4, "lambda": 0.0}, x, 3)
    np.testing.assert_allclose(lasso, 3.0 + 2.0 * np.arange(50.0, 53.0), atol=1e-4)


def test_lasso_large_penalty_collapses_to_mean():
    rng = np.random.default_rng(5)
    x = list(rng.normal(10, 1, 60))
    out = _fc("lasso_regression", {"num_lags": 8, "lambda": 1e6}, x, 2)
    # all coefficients zeroed: prediction is the target mean of the lag rows
    assert out[0] == pytest.approx(out[1], abs=1e-9)
    assert out[0] == pytest.approx(10.0, abs=1.0)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_model_ids_complete():
    assert len(MODEL_IDS) == 10
    assert set(MODEL_IDS) == {
        "random_walk",
        "moving_average",
        "exp_smoothing",
        "arima",
        "theta",
        "croston",
        "linear_regression",
        "polynomial_regression",
        "ridge_regression",
        "lasso_regression",
    }


def test_hyperparameter_space_shapes():
    assert hyperparameter_space("arima") == {"p": [0, 1, 2], "d": [0, 1], "q": [0, 1, 2]}
    assert hyperparameter_space("random_walk") == {"drift": [False, True]}
    assert hyperparameter_space("moving_average") == {"window": [3, 6, 12, 24]}
    es = hyperparameter_space("exp_smoothing", seasonal_period=24)
    assert es["seasonal"] == [False, True] and es["period"] == [24]
    es_none = hyperparameter_space("exp_smoothing")
    assert es_none["seasonal"] == [False] and es_none["period"] == [None]
    assert hyperparameter_space("ridge_regression") == {
        "num_lags": [4, 8, 24],
        "lambda": [0.1, 1.0, 10.0],
    }
    with pytest.raises(ValueError):
        hyperparameter_space("prophet")


def test_minimum_train_lengths():
    assert minimum_train_length(ModelSpec("random_walk", {})) == 1
    assert minimum_train_length(ModelSpec("moving_average", {"window": 12})) == 12
    assert minimum_train_length(ModelSpec("exp_smoothing", {"seasonal": True, "period": 24})) == 48
    assert minimum_train_length(ModelSpec("exp_smoothing", {"trend": True})) == 4
    assert minimum_train_length(ModelSpec("exp_smoothing", {})) == 2
    assert minimum_train_length(ModelSpec("arima", {"p": 2, "d": 1, "q": 2})) == 17
    assert minimum_train_length(ModelSpec("theta", {})) == 4
    assert minimum_train_length(ModelSpec("croston", {})) == 2
    assert minimum_train_length(ModelSpec("linear_regression", {"num_lags": 24})) == 26


def test_validate_hyperparameters_domains():
    with pytest.raises(ValueError):
        validate_hyperparameters("arima", {"p": 9})
    with pytest.raises(ValueError):
        validate_hyperparameters("arima", {"alpha": 0.5})
    with pytest.raises(ValueError):
        validate_hyperparameters("exp_smoothing", {"alpha": 1.5})
    with pytest.raises(ValueError):
        validate_hyperparameters("exp_smoothing", {"alpha": 0.0})
    with pytest.raises(ValueError):
        validate_hyperparameters("random_walk", {"drift": 1})
    with pytest.raises(ValueError):
        validate_hyperparameters("theta", {"ses_alpha": True})
    with pytest.raises(ValueError):
        validate_hyperparameters("nope", {})
    validate_hyperparameters("ridge_regression", {"num_lags": 8, "lambda": 0.1})


def test_allowed_keys():
    assert allowed_hyperparameter_keys("arima") == frozenset({"p", "d", "q"})
    with pytest.raises(ValueError):
        allowed_hyperparameter_keys("nope")


def test_params_label_sorted_and_default():
    assert ModelSpec("arima", {"q": 1, "p": 2}).params_label() == "p=2;q=1"
    assert ModelSpec("theta", {}).params_label() == "default"


def test_fit_forecast_short_history_raises():
    with pytest.raises(ModelFailureError):
        _fc("arima", {"p": 1, "d": 0, "q": 0}, [1.0, 2.0, 3.0], 2)


def test_fit_forecast_horizon_validation():
    with pytest.raises(ValueError):
        _fc("random_walk", {}, [1.0, 2.0], 0)


def test_forecast_container_checks():
    with pytest.raises(ValueError):
        Forecast(values=())
    with pytest.raises(ValueError):
        Forecast(values=(1.0, float("nan")))
    f = Forecast(values=(1.0, 2.0))
    assert f.horizon == 2


def test_every_model_default_grid_fits_synthetic():
    rng = np.random.default_rng(8)
    t = np.arange(160.0)
    x = list(10.0 + 0.05 * t + np.sin(2 * np.pi * t / 12) + rng.normal(0, 0.2, 160))
    train = Series(tuple(x))
    for mid in MODEL_IDS:
        space = hyperparameter_space(mid, seasonal_period=12)
        keys = list(space)
        first = {k: space[k][0] for k in keys}
        out = fit_forecast(ModelSpec(mid, first), train, 8)
        assert out.horizon == 8
        assert np.isfinite(out.array()).all()
