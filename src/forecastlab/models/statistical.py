"""Classical forecasters: random walk, trailing-mean, exponential smoothing,
ARIMA via the Hannan-Rissanen two-stage regression, theta, and Croston."""

from __future__ import annotations

import math
from itertools import cycle

import numpy as np

SMOOTHING_COARSE_GRID = tuple(round(0.1 * i, 2) for i in range(1, 10))
SMOOTHING_REFINE_OFFSETS = (-0.08, -0.06, -0.04, -0.02, 0.0, 0.02, 0.04, 0.06, 0.08)
SMOOTHING_PARAM_MIN = 0.01
SMOOTHING_PARAM_MAX = 0.99


def random_walk(x: np.ndarray, horizon: int, drift: bool = False) -> np.ndarray:
    """Repeat the last value; with drift, add the mean one-step increment."""
    last = float(x[-1])
    if not drift or x.size < 2:
        return np.full(horizon, last)
    step = (float(x[-1]) - float(x[0])) / (x.size - 1)
    return last + step * np.arange(1, horizon + 1, dtype=float)


def moving_average(x: np.ndarray, horizon: int, window: int = 3) -> np.ndarray:
    """Recursive mean of the trailing window; forecasts feed back in."""
    if x.size < window:
        raise ValueError("train shorter than the averaging window")
    buf = list(map(float, x[-window:]))
    out = np.empty(horizon)
    for h in range(horizon):
        f = sum(buf) / window
        out[h] = f
        buf.pop(0)
        buf.append(f)
    return out


def _smoothing_start(
    x: np.ndarray, trend: bool, seasonal: bool, period: int
) -> tuple[list[float], float, float, list[float]]:
    """What every pass over ``x`` starts from, whatever its parameters: the
    values the recursion steps through, as Python floats, and the initial
    level, slope and seasonal state (one entry per phase, none without a
    season)."""
    xs = x.tolist()
    if seasonal:
        m = period
        level = float(np.mean(x[:m]))
        slope = (float(np.mean(x[m:2 * m])) - level) / m if trend else 0.0
        return xs[m:], level, slope, [v - level for v in xs[:m]]
    return xs[1:], xs[0], xs[1] - xs[0] if trend else 0.0, []


def _smoothing_pass(
    start: tuple[list[float], float, float, list[float]],
    alpha: float,
    beta: float,
    gamma: float,
    trend: bool,
    bound: float | None = None,
) -> tuple[float, float, float, list[float]] | None:
    """One full recursion from ``start``; returns (sse, level, slope,
    seasonal state), or None as soon as the running SSE reaches ``bound``.

    Each step adds a square, so the running SSE never falls: a pass stopped
    at a bound would have ended at or above it. A NaN SSE reaches no bound,
    so that pass runs to the end. The loops run over Python floats for
    speed. Keep their operations and their order: forecasts are pinned bit
    for bit by the tests.
    """
    steps, level, slope, season = start
    limit = math.nan if bound is None else bound  # no SSE reaches NaN
    keep_a, keep_b, keep_g = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    sse = 0.0
    if season:
        season = season.copy()
        for xt, s_idx in zip(steps, cycle(range(len(season)))):
            s_val = season[s_idx]
            err = xt - (level + slope + s_val)
            sse += err * err
            if sse >= limit:
                return None
            new_level = alpha * (xt - s_val) + keep_a * (level + slope)
            season[s_idx] = gamma * (xt - level - slope) + keep_g * s_val
            if trend:
                slope = beta * (new_level - level) + keep_b * slope
            level = new_level
    else:
        for xt in steps:
            err = xt - (level + slope + 0.0)
            sse += err * err
            if sse >= limit:
                return None
            new_level = alpha * xt + keep_a * (level + slope)
            if trend:
                slope = beta * (new_level - level) + keep_b * slope
            level = new_level
    return sse, level, slope, season


def _fit_free_params(
    x: np.ndarray,
    given: dict[str, float | None],
    trend: bool,
    seasonal: bool,
    period: int,
) -> tuple[dict[str, float], tuple[float, float, list[float]]]:
    """Grid-plus-refinement SSE minimization for unspecified smoothing params.

    Returns the chosen parameters and the (level, slope, seasonal state)
    their pass ended in.
    """
    names = ["alpha"]
    if trend:
        names.append("beta")
    if seasonal:
        names.append("gamma")
    fixed = {k: v for k, v in given.items() if k in names and v is not None}
    free = [k for k in names if k not in fixed]
    best = dict(fixed)
    for k in free:
        best[k] = 0.5

    def key_of(params: dict[str, float]) -> tuple[float, float, float]:
        return (params.get("alpha", 0.5), params.get("beta", 0.0), params.get("gamma", 0.0))

    start = _smoothing_start(x, trend, seasonal, period)
    # The incumbent's pass runs unbounded: its SSE may overflow to inf, and
    # a bound of inf would stop it.
    best_sse, *state = _smoothing_pass(start, *key_of(best), trend)
    # A candidate wins only below the incumbent's SSE, which never rises, so
    # a set passed over once loses every later comparison: each distinct set
    # gets one pass, stopped once it reaches the incumbent's SSE.
    seen = {key_of(best)}
    for grid in (SMOOTHING_COARSE_GRID, None):
        # cycle one free parameter at a time over its candidate values
        for k in free:
            if grid is None:
                center = best[k]
                candidates = sorted(
                    {
                        min(SMOOTHING_PARAM_MAX, max(SMOOTHING_PARAM_MIN, round(center + off, 4)))
                        for off in SMOOTHING_REFINE_OFFSETS
                    }
                )
            else:
                candidates = list(grid)
            for cand in candidates:
                trial = dict(best)
                trial[k] = cand
                key = key_of(trial)
                if key in seen:
                    continue
                seen.add(key)
                result = _smoothing_pass(start, *key, trend, best_sse)
                if result is not None and result[0] < best_sse:
                    best_sse, *state = result
                    best = trial
    return best, tuple(state)


def exp_smoothing(
    x: np.ndarray,
    horizon: int,
    alpha: float | None = None,
    beta: float | None = None,
    gamma: float | None = None,
    trend: bool = False,
    seasonal: bool = False,
    period: int | None = None,
) -> np.ndarray:
    """Simple / Holt / additive Holt-Winters exponential smoothing.

    Smoothing parameters that are not supplied are fit on the training
    data by sum-of-squared-error minimization over a coarse grid followed
    by a local refinement. Seasonal mode needs at least two full periods.
    """
    if seasonal:
        if period is None or period < 2:
            raise ValueError("seasonal smoothing needs a period of at least 2")
        if x.size < 2 * period:
            raise ValueError("seasonal smoothing needs two full periods of history")
    if x.size < 2:
        raise ValueError("smoothing needs at least 2 points")
    m = period if seasonal else 0
    _, (level, slope, season) = _fit_free_params(
        x, {"alpha": alpha, "beta": beta, "gamma": gamma}, trend, seasonal, m
    )
    n = x.size
    out = np.empty(horizon)
    for h in range(1, horizon + 1):
        val = level + (slope * h if trend else 0.0)
        if seasonal:
            val += season[(n - 1 + h) % m]
        out[h - 1] = val
    return out


def _long_ar_residuals(w: np.ndarray, order: int, include_const: bool) -> np.ndarray:
    """Residuals of a long autoregression, the innovation proxy stage."""
    n = w.size
    rows = np.arange(order, n)
    cols = []
    if include_const:
        cols.append(np.ones(rows.size))
    for i in range(1, order + 1):
        cols.append(w[rows - i])
    design = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(design, w[rows], rcond=None)
    resid = np.zeros(n)
    resid[rows] = w[rows] - design @ beta
    return resid


def arima(x: np.ndarray, horizon: int, p: int = 1, d: int = 0, q: int = 0) -> np.ndarray:
    """ARIMA(p, d, q) by differencing plus Hannan-Rissanen least squares.

    The series is differenced d times; innovations are proxied by the
    residuals of a long autoregression and the ARMA coefficients come from
    a single least-squares fit. The constant term is included only when
    d = 0, which makes (0, 1, 0) coincide with the driftless random walk.
    Forecasts are recursive with future innovations at zero, then the
    differencing is inverted.
    """
    if p < 0 or d < 0 or q < 0:
        raise ValueError("orders must be nonnegative")
    tails: list[float] = []
    w = x.astype(float)
    for _ in range(d):
        tails.append(float(w[-1]))
        w = np.diff(w)
    n = w.size
    include_const = d == 0
    min_needed = p + q + 2
    if n < min_needed:
        raise ValueError("differenced series too short for the requested orders")

    if p == 0 and q == 0:
        const = float(np.mean(w)) if include_const else 0.0
        future = np.full(horizon, const)
        for last in reversed(tails):
            future = last + np.cumsum(future)
        return future

    if q > 0:
        long_order = min(max(8, 2 * (p + q)), max(1, n // 4))
        proxy = _long_ar_residuals(w, long_order, include_const)
        t0 = max(p, long_order + q)
    else:
        long_order = 0
        proxy = np.zeros(n)
        t0 = p
    rows = np.arange(t0, n)
    if rows.size < (p + q + int(include_const)):
        raise ValueError("not enough observations for the final regression")
    cols = []
    if include_const:
        cols.append(np.ones(rows.size))
    for i in range(1, p + 1):
        cols.append(w[rows - i])
    for j in range(1, q + 1):
        cols.append(proxy[rows - j])
    design = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(design, w[rows], rcond=None)
    pos = 0
    const = float(beta[pos]) if include_const else 0.0
    pos += int(include_const)
    phi = beta[pos:pos + p]
    pos += p
    theta_c = beta[pos:pos + q]

    # in-sample innovations of the fitted model, burn-in at zero; only the
    # MA terms read them
    phis = phi.tolist()
    thetas = theta_c.tolist()
    w_hist = w.tolist()
    e_hist = [0.0] * n
    if q > 0:
        for t in range(p, n):
            pred = const
            for i in range(1, p + 1):
                pred += phis[i - 1] * w_hist[t - i]
            for j in range(1, q + 1):
                if t - j >= 0:
                    pred += thetas[j - 1] * e_hist[t - j]
            e_hist[t] = w_hist[t] - pred

    future = np.empty(horizon)
    for h in range(horizon):
        pred = const
        for i in range(1, p + 1):
            pred += phis[i - 1] * w_hist[-i]
        for j in range(1, q + 1):
            pred += thetas[j - 1] * e_hist[-j]
        future[h] = pred
        w_hist.append(pred)
        e_hist.append(0.0)

    for last in reversed(tails):
        future = last + np.cumsum(future)
    return future


def theta(x: np.ndarray, horizon: int, ses_alpha: float = 0.5) -> np.ndarray:
    """Two-line theta decomposition.

    Averages the extrapolated least-squares trend (the flattened line)
    with simple exponential smoothing of the doubled-curvature line
    2x - trend, extended flat at its final level.
    """
    n = x.size
    if n < 3:
        raise ValueError("theta needs at least 3 points")
    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, x, 1)
    trendline = intercept + slope * t
    amplified = 2.0 * x - trendline
    level = float(amplified[0])
    for v in amplified[1:]:
        level = ses_alpha * float(v) + (1.0 - ses_alpha) * level
    steps = np.arange(1, horizon + 1, dtype=float)
    return 0.5 * (intercept + slope * (n - 1 + steps)) + 0.5 * level


def croston(x: np.ndarray, horizon: int, alpha: float = 0.3) -> np.ndarray:
    """Croston's method for intermittent demand.

    Smooths nonzero demand sizes and inter-demand intervals separately;
    the forecast is the constant ratio of the two. A series with no
    nonzero demand forecasts zero.
    """
    nz = np.flatnonzero(x != 0.0)
    if nz.size == 0:
        return np.zeros(horizon)
    size = float(x[nz[0]])
    interval = float(nz[0] + 1)
    prev = int(nz[0])
    for i in nz[1:]:
        gap = float(int(i) - prev)
        size = alpha * float(x[i]) + (1.0 - alpha) * size
        interval = alpha * gap + (1.0 - alpha) * interval
        prev = int(i)
    return np.full(horizon, size / interval)
