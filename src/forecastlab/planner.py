"""Candidate pools and deterministic hyperparameter backtesting.

The advisor proposes a pool of models with per-model search spaces; this
module samples concrete configurations from each space, evaluates every
configuration on the validation window (fitting on the scaled training
window only), and ranks the best configuration per model. Results are
bit-identical for any worker count: tasks are enumerated up front and
reduced by task index, never by completion order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .advisor import Advisor, AdvisorDecision
from .models import Forecast, ModelFailureError, ModelSpec, fit_forecast
from .profiling import TemporalProfile
from .series import Series, ZScoreScaler, IDENTITY_SCALER, mae, mape

DEFAULT_MAX_CONFIGS = 8
DEFAULT_TOP_K = 3
CANDIDATE_SEED_STRIDE = 101


@dataclass(frozen=True)
class Candidate:
    """One pool entry: a model plus its hyperparameter search space."""

    model_id: str
    search_space: dict[str, list]
    reason: str

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "hyperparameters": self.search_space,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class CandidatePool:
    candidates: tuple[Candidate, ...]
    source: str

    def model_ids(self) -> tuple[str, ...]:
        return tuple(c.model_id for c in self.candidates)


@dataclass(frozen=True)
class BacktestRecord:
    """Validation outcome for one concrete configuration."""

    spec: ModelSpec
    status: str  # ok | failed
    val_mae: float | None = None
    val_mape: float | None = None
    val_forecast: tuple[float, ...] | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.spec.model_id,
            "hyperparameters": dict(self.spec.hyperparameters),
            "status": self.status,
            "val_mae": self.val_mae,
            "val_mape": self.val_mape,
            "error": self.error,
        }


def build_pool(
    advisor: Advisor, profile: TemporalProfile, n_candidates: int = DEFAULT_TOP_K
) -> tuple[CandidatePool, AdvisorDecision]:
    """Ask the advisor for a candidate pool and freeze it."""
    decision = advisor.advise_selection(profile, n_candidates)
    candidates = tuple(
        Candidate(
            model_id=entry["model"],
            search_space={key: list(vals) for key, vals in entry["hyperparameters"].items()},
            reason=entry["reason"],
        )
        for entry in decision.payload["selected_models"]
    )
    return CandidatePool(candidates, decision.source), decision


def sample_configs(search_space: dict[str, list], max_configs: int, seed: int) -> list[dict]:
    """Draw concrete configurations from a search space.

    The full cartesian product (last key varying fastest, dict key order) is
    used when it fits the budget; otherwise indices are drawn without
    replacement from a seeded generator and kept in drawn order.
    """
    if max_configs < 1:
        raise ValueError("max_configs must be positive")
    keys = list(search_space)
    if not keys:
        return [{}]
    sizes = [len(search_space[k]) for k in keys]
    if any(s == 0 for s in sizes):
        raise ValueError("every search dimension needs at least one value")
    total = math.prod(sizes)
    if total <= max_configs:
        return [dict(zip(keys, combo)) for combo in product(*(search_space[k] for k in keys))]
    rng = np.random.default_rng(seed)
    drawn = rng.choice(total, size=max_configs, replace=False)
    configs = []
    for flat in drawn:
        remainder = int(flat)
        positions = [0] * len(keys)
        for j in range(len(keys) - 1, -1, -1):
            remainder, positions[j] = divmod(remainder, sizes[j])
        configs.append({k: search_space[k][positions[j]] for j, k in enumerate(keys)})
    return configs


def _evaluate(
    spec: ModelSpec,
    train_scaled: Series,
    val_values: np.ndarray,
    scaler: ZScoreScaler,
) -> BacktestRecord:
    # Fit in scaled space; metrics always in the original space.
    try:
        forecast: Forecast = fit_forecast(spec, train_scaled, len(val_values))
    except ModelFailureError as exc:
        return BacktestRecord(spec, "failed", error=str(exc))
    point = np.asarray(scaler.inverse(forecast.array()), dtype=float)
    val_mae = mae(val_values, point)
    try:
        val_mape = mape(val_values, point)
    except ValueError as exc:
        return BacktestRecord(spec, "failed", error=str(exc))
    return BacktestRecord(spec, "ok", val_mae, val_mape, tuple(float(v) for v in point))


def backtest_pool(
    pool: CandidatePool,
    train: Series,
    val: Series,
    scaler: ZScoreScaler = IDENTITY_SCALER,
    max_configs_per_model: int = DEFAULT_MAX_CONFIGS,
    seed: int = 0,
    workers: int = 1,
) -> tuple[BacktestRecord, ...]:
    """Evaluate sampled configurations for every candidate on the validation
    window. Output order is (candidate order, sample order) regardless of
    the worker count."""
    if workers < 1:
        raise ValueError("workers must be positive")
    train_scaled = train.with_values(
        float(v) for v in scaler.transform(np.asarray(train.dense(), dtype=float))
    )
    val_values = np.asarray(val.dense(), dtype=float)

    tasks: list[tuple[ModelSpec | None, BacktestRecord | None]] = []
    for candidate_idx, candidate in enumerate(pool.candidates):
        configs = sample_configs(
            candidate.search_space,
            max_configs_per_model,
            seed + CANDIDATE_SEED_STRIDE * candidate_idx,
        )
        for config in configs:
            try:
                spec = ModelSpec(candidate.model_id, dict(config))
            except ValueError as exc:
                bad = ModelSpec(candidate.model_id, {})
                tasks.append((None, BacktestRecord(bad, "failed", error=str(exc))))
                continue
            tasks.append((spec, None))

    results: list[BacktestRecord | None] = [prebuilt for _, prebuilt in tasks]
    live = [(i, spec) for i, (spec, _) in enumerate(tasks) if spec is not None]
    if workers == 1 or len(live) <= 1:
        for i, spec in live:
            results[i] = _evaluate(spec, train_scaled, val_values, scaler)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            evaluated = pool_exec.map(
                lambda item: (item[0], _evaluate(item[1], train_scaled, val_values, scaler)),
                live,
            )
            for i, record in evaluated:
                results[i] = record
    return tuple(r for r in results if r is not None)


def rank_top_models(
    records: Sequence[BacktestRecord], top_k: int = DEFAULT_TOP_K
) -> tuple[BacktestRecord, ...]:
    """Best configuration per model, ranked across models.

    Within a model, earlier records win ties (sample order); across models
    the sort key is (val_mape, val_mae, model_id). Failed records never
    rank.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    best: dict[str, BacktestRecord] = {}
    for record in records:
        if record.status != "ok":
            continue
        current = best.get(record.spec.model_id)
        if current is None or (record.val_mape, record.val_mae) < (
            current.val_mape,
            current.val_mae,
        ):
            best[record.spec.model_id] = record
    ranked = sorted(best.values(), key=lambda r: (r.val_mape, r.val_mae, r.spec.model_id))
    return tuple(ranked[:top_k])
