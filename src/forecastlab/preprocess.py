"""Data quality diagnostics: outlier detection, outlier repair, and
missing-value filling.

Rolling detectors are causal. The window at index t covers positions
[t - window + 1, t]; detection statistics are computed over the non-missing
values strictly before t inside that window, so a candidate never
contaminates its own fences, and the first window - 1 indices are never
flagged for lack of history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .profiling import trend_label
from .series import Series

MAD_TO_SIGMA = 1.4826

DETECTION_METHODS = ("rolling_iqr", "rolling_zscore", "percentile", "none")
REPAIR_METHODS = (
    "clip",
    "interpolate",
    "ffill",
    "bfill",
    "local_mean",
    "local_median",
    "smooth",
    "zero",
    "drop",
)
FILL_METHODS = (
    "interpolate",
    "ffill",
    "bfill",
    "local_mean",
    "local_median",
    "zero",
    "drop",
)

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class DetectionPolicy:
    """How outliers are found.

    method: rolling_iqr, rolling_zscore, percentile, or none.
    window: trailing window width for the rolling methods.
    alpha: fence multiplier (IQR) or threshold (zscore).
    robust_center: zscore only; median and scaled MAD instead of mean/std.
    lower_pct / upper_pct: percentile bounds, in percent.
    """

    method: str = "rolling_iqr"
    window: int = 24
    alpha: float = 1.5
    robust_center: bool = False
    lower_pct: float = 1.0
    upper_pct: float = 99.0

    def __post_init__(self) -> None:
        if self.method not in DETECTION_METHODS:
            raise ValueError(f"unknown detection method {self.method!r}")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not (0.0 <= self.lower_pct < self.upper_pct <= 100.0):
            raise ValueError("percentile bounds must satisfy 0 <= lower < upper <= 100")


@dataclass(frozen=True)
class RepairPolicy:
    """How flagged outliers and missing slots are replaced.

    neighborhood: point count for the local mean/median strategies.
    smooth_window: causal moving-average width for the smooth strategy.
    """

    outlier_handle: str = "interpolate"
    missing_fill: str = "interpolate"
    neighborhood: int = 5
    smooth_window: int = 3

    def __post_init__(self) -> None:
        if self.outlier_handle not in REPAIR_METHODS:
            raise ValueError(f"unknown outlier strategy {self.outlier_handle!r}")
        if self.missing_fill not in FILL_METHODS:
            raise ValueError(f"unknown missing-value strategy {self.missing_fill!r}")
        if self.neighborhood < 1:
            raise ValueError("neighborhood must be at least 1")
        if self.smooth_window < 1:
            raise ValueError("smooth_window must be at least 1")


@dataclass(frozen=True)
class SeriesStats:
    mean: float
    std: float
    minimum: float
    maximum: float
    trend: str
    skewness: float
    excess_kurtosis: float

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "trend": self.trend,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
        }


@dataclass(frozen=True)
class QualityDiagnostics:
    """Pre-repair inventory of a raw series plus the policies applied to it."""

    stats: SeriesStats
    missing_indices: IndexSet
    outlier_indices: IndexSet
    detection: DetectionPolicy
    repair: RepairPolicy
    quality_score: float

    def to_dict(self) -> dict:
        return {
            "stats": self.stats.to_dict(),
            "missing_indices": list(self.missing_indices),
            "outlier_indices": list(self.outlier_indices),
            "detection": {
                "method": self.detection.method,
                "window": self.detection.window,
                "alpha": self.detection.alpha,
                "robust_center": self.detection.robust_center,
                "lower_pct": self.detection.lower_pct,
                "upper_pct": self.detection.upper_pct,
            },
            "repair": {
                "outlier_handle": self.repair.outlier_handle,
                "missing_fill": self.repair.missing_fill,
                "neighborhood": self.repair.neighborhood,
                "smooth_window": self.repair.smooth_window,
            },
            "quality_score": self.quality_score,
        }


def compute_stats(series: Series) -> SeriesStats:
    """Summary statistics over the observed (non-missing) values."""
    obs = series.observed_values()
    if obs.size == 0:
        raise ValueError("no observed values to summarize")
    mean = float(obs.mean())
    d = obs - mean
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        skew, kurt = 0.0, 0.0
    else:
        skew = float(np.mean(d**3)) / m2**1.5
        kurt = float(np.mean(d**4)) / (m2 * m2) - 3.0
    return SeriesStats(
        mean=mean,
        std=float(np.sqrt(m2)),
        minimum=float(obs.min()),
        maximum=float(obs.max()),
        trend=trend_label(obs),
        skewness=skew,
        excess_kurtosis=kurt,
    )


def _rolling_histories(
    series: Series, window: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Trailing histories of every observed index t >= window - 1.

    The history of t is the non-missing values at positions
    [t - window + 1, t - 1], in order. Indices are grouped by history
    length, and each group yields (ts, x, hist): the indices, their values,
    and one history per row. A dense series is a single group.
    """
    values = series.values
    pos = np.array([i for i, v in enumerate(values) if v is not None], dtype=np.intp)
    obs = np.array([v for v in values if v is not None], dtype=float)
    k = np.arange(np.searchsorted(pos, window - 1), pos.size)
    lo = np.searchsorted(pos, pos[k] - window + 1)
    length = k - lo
    for size in np.unique(length).tolist():
        rows = length == size
        starts = lo[rows]
        hist = obs[starts[:, None] + np.arange(size)]
        yield pos[k[rows]], obs[k[rows]], hist


def detect_outliers_iqr(series: Series, window: int = 24, alpha: float = 1.5) -> IndexSet:
    """Rolling interquartile fences.

    At each flaggable index the first and third quartile (type-7 linear
    interpolation) of the trailing history give fences
    [Q1 - alpha * IQR, Q3 + alpha * IQR]; values strictly outside are
    flagged. A degenerate history (IQR = 0) collapses the fences to the
    quartiles themselves.
    """
    if window < 4:
        raise ValueError("iqr window must be at least 4")
    n_obs = len(series) - len(series.missing_indices())
    if n_obs < window:
        raise ValueError("series needs at least window non-missing points")
    flagged = np.zeros(len(series), dtype=bool)
    for ts, x, hist in _rolling_histories(series, window):
        if hist.shape[1] < 2:
            continue
        q1, q3 = np.quantile(hist, [0.25, 0.75], axis=1)
        iqr = q3 - q1
        flagged[ts] = (x < q1 - alpha * iqr) | (x > q3 + alpha * iqr)
    return tuple(np.flatnonzero(flagged).tolist())


def detect_outliers_zscore(
    series: Series,
    window: int = 24,
    alpha: float = 3.0,
    robust: bool = False,
) -> IndexSet:
    """Rolling z-score detector.

    Flags |x_t - center| / scale > alpha over the trailing history. The
    plain variant uses the mean and population std; the robust variant the
    median and 1.4826 times the median absolute deviation. A zero scale
    never flags.
    """
    if window < 2:
        raise ValueError("zscore window must be at least 2")
    n_obs = len(series) - len(series.missing_indices())
    if n_obs < window:
        raise ValueError("series needs at least window non-missing points")
    flagged = np.zeros(len(series), dtype=bool)
    for ts, x, hist in _rolling_histories(series, window):
        if hist.shape[1] == 0:
            continue
        if robust:
            center = np.median(hist, axis=1)
            scale = MAD_TO_SIGMA * np.median(np.abs(hist - center[:, None]), axis=1)
        else:
            center = hist.mean(axis=1)
            scale = hist.std(axis=1)
        live = scale != 0.0
        flagged[ts[live]] = np.abs(x[live] - center[live]) / scale[live] > alpha
    return tuple(np.flatnonzero(flagged).tolist())


def detect_outliers_percentile(
    series: Series,
    lower_pct: float = 1.0,
    upper_pct: float = 99.0,
) -> IndexSet:
    """Global percentile rule.

    Bounds are the (lower_pct, upper_pct) quantiles of the series' observed
    values; values strictly outside are flagged at every index.
    """
    if not (0.0 <= lower_pct < upper_pct <= 100.0):
        raise ValueError("percentile bounds must satisfy 0 <= lower < upper <= 100")
    ref = series.observed_values()
    if ref.size == 0:
        raise ValueError("series has no observed values")
    lo, hi = np.quantile(ref, [lower_pct / 100.0, upper_pct / 100.0])
    return tuple(
        i for i, v in enumerate(series.values) if v is not None and (v < lo or v > hi)
    )


def detect_outliers(series: Series, policy: DetectionPolicy) -> IndexSet:
    """Dispatch on the policy method; 'none' flags nothing."""
    if policy.method == "rolling_iqr":
        return detect_outliers_iqr(series, policy.window, policy.alpha)
    if policy.method == "rolling_zscore":
        return detect_outliers_zscore(series, policy.window, policy.alpha, policy.robust_center)
    if policy.method == "percentile":
        return detect_outliers_percentile(series, policy.lower_pct, policy.upper_pct)
    return ()


def _nearest_clean(clean_idx: list[int], t: int, prefer: str) -> int | None:
    before = [i for i in clean_idx if i < t]
    after = [i for i in clean_idx if i > t]
    if prefer == "before":
        ordered = (before[-1] if before else None, after[0] if after else None)
    else:
        ordered = (after[0] if after else None, before[-1] if before else None)
    for cand in ordered:
        if cand is not None:
            return cand
    return None


def _local_pool(clean_idx: list[int], values: tuple[float | None, ...], t: int, count: int) -> list[float]:
    """The nearest ``count`` clean values before t, falling back to the
    values after t when none precede it."""
    before = [i for i in clean_idx if i < t]
    if before:
        picked = before[-count:]
    else:
        picked = [i for i in clean_idx if i > t][:count]
    return [values[i] for i in picked]  # type: ignore[misc]


def _interpolate_at(values: list[float | None], targets: set[int], clean_idx: list[int]) -> None:
    """Linear two-point interpolation; one-sided gaps copy the nearest clean value."""
    for t in sorted(targets):
        before = [i for i in clean_idx if i < t]
        after = [i for i in clean_idx if i > t]
        if before and after:
            i0, i1 = before[-1], after[0]
            y0, y1 = values[i0], values[i1]
            values[t] = y0 + (y1 - y0) * (t - i0) / (i1 - i0)  # type: ignore[operator]
        elif before:
            values[t] = values[before[-1]]
        elif after:
            values[t] = values[after[0]]


def repair_outliers(series: Series, flags: IndexSet, policy: RepairPolicy) -> Series:
    """Replace flagged entries per the policy's outlier strategy.

    Non-flagged entries pass through unchanged except under 'smooth',
    which interpolates the flags and then applies a causal moving average
    of width smooth_window to every point. Missing slots are never touched
    here. 'drop' would break index alignment mid-pipeline and is rejected.
    """
    if policy.outlier_handle == "drop":
        raise ValueError("'drop' removes points and is not supported mid-pipeline")
    flag_set = set(flags)
    if not flag_set.issubset(range(len(series))):
        raise ValueError("flag index out of range")
    values: list[float | None] = list(series.values)
    clean_idx = [
        i for i, v in enumerate(values) if v is not None and i not in flag_set
    ]
    needs_clean = policy.outlier_handle in ("clip", "interpolate", "ffill", "bfill", "local_mean", "local_median", "smooth")
    if needs_clean and flag_set and not clean_idx:
        raise ValueError("every observed value is flagged; nothing clean to repair from")

    handle = policy.outlier_handle
    if handle == "clip":
        clean_vals = [values[i] for i in clean_idx]
        lo, hi = min(clean_vals), max(clean_vals)  # type: ignore[type-var]
        for t in flag_set:
            if values[t] is not None:
                values[t] = min(max(values[t], lo), hi)  # type: ignore[type-var]
    elif handle == "interpolate":
        _interpolate_at(values, {t for t in flag_set if values[t] is not None}, clean_idx)
    elif handle in ("ffill", "bfill"):
        prefer = "before" if handle == "ffill" else "after"
        for t in sorted(flag_set):
            if values[t] is None:
                continue
            src = _nearest_clean(clean_idx, t, prefer)
            if src is not None:
                values[t] = values[src]
    elif handle in ("local_mean", "local_median"):
        reducer = np.mean if handle == "local_mean" else np.median
        for t in sorted(flag_set):
            if values[t] is None:
                continue
            pool = _local_pool(clean_idx, series.values, t, policy.neighborhood)
            if pool:
                values[t] = float(reducer(pool))
    elif handle == "zero":
        for t in flag_set:
            if values[t] is not None:
                values[t] = 0.0
    elif handle == "smooth":
        _interpolate_at(values, {t for t in flag_set if values[t] is not None}, clean_idx)
        w = policy.smooth_window
        smoothed: list[float | None] = list(values)
        for t in range(len(values)):
            if values[t] is None:
                continue
            lo = max(0, t - w + 1)
            neigh = [v for v in values[lo:t + 1] if v is not None]
            smoothed[t] = float(np.mean(neigh))
        values = smoothed

    return series.with_values(values)


def fill_missing(series: Series, policy: RepairPolicy) -> Series:
    """Fill every missing slot per the policy's missing-value strategy.

    Boundary gaps under interpolate/ffill/bfill fall back to the nearest
    observation in the other direction. Requires at least one observed
    value unless the strategy is 'zero'.
    """
    if policy.missing_fill == "drop":
        raise ValueError("'drop' removes points and is not supported mid-pipeline")
    missing = set(series.missing_indices())
    if not missing:
        return series
    values: list[float | None] = list(series.values)
    obs_idx = [i for i, v in enumerate(values) if v is not None]
    strategy = policy.missing_fill
    if strategy == "zero":
        for t in missing:
            values[t] = 0.0
        return series.with_values(values)
    if not obs_idx:
        raise ValueError("cannot fill a fully missing series without the zero strategy")

    if strategy == "interpolate":
        _interpolate_at(values, missing, obs_idx)
    elif strategy in ("ffill", "bfill"):
        prefer = "before" if strategy == "ffill" else "after"
        for t in sorted(missing):
            src = _nearest_clean(obs_idx, t, prefer)
            values[t] = values[src]  # type: ignore[index]
    elif strategy in ("local_mean", "local_median"):
        reducer = np.mean if strategy == "local_mean" else np.median
        for t in sorted(missing):
            pool = _local_pool(obs_idx, series.values, t, policy.neighborhood)
            values[t] = float(reducer(pool))
    return series.with_values(values)


def diagnose(
    series: Series, detection: DetectionPolicy, repair: RepairPolicy
) -> tuple[QualityDiagnostics, Series]:
    """Run the full quality pass and return (diagnostics, cleaned series).

    Order of operations: summary stats on the raw observations, missing
    slots filled first so detection windows are dense, then outliers
    detected and repaired. Indices that were originally missing are never
    also reported as outliers. The quality score is
    1 - missing_fraction - outlier_fraction, clamped to [0, 1].
    """
    stats = compute_stats(series)
    missing = series.missing_indices()
    filled = fill_missing(series, repair)
    flags = tuple(i for i in detect_outliers(filled, detection) if i not in set(missing))
    cleaned = repair_outliers(filled, flags, repair)
    n = len(series)
    score = max(0.0, min(1.0, 1.0 - len(missing) / n - len(flags) / n))
    diagnostics = QualityDiagnostics(
        stats=stats,
        missing_indices=missing,
        outlier_indices=flags,
        detection=detection,
        repair=repair,
        quality_score=score,
    )
    return diagnostics, cleaned
