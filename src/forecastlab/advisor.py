"""Decision advisor: a deterministic rule engine with an optional LLM backend.

Every pipeline decision point (preprocessing strategy, candidate model pool,
ensemble integration) is resolved here. In "rules" mode the outcome is a pure
function of the inputs and no I/O happens. In "llm" mode the wire prompts are
sent to a chat-completion endpoint; responses must parse as JSON and pass the
shipped schema, otherwise the advisor falls back to the rule outcome and the
decision is tagged "llm_fallback".
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import prompts
from .ensemble import (
    EnsembleConfig,
    EnsembleDecision,
    aggregate_scores,
    decide,
    performance_weights,
)
from .models import MODEL_IDS, allowed_hyperparameter_keys, hyperparameter_space
from .preprocess import DetectionPolicy, QualityDiagnostics, RepairPolicy, compute_stats, diagnose
from .profiling import TemporalProfile
from .series import Series

if TYPE_CHECKING:
    import jsonschema

# Quality gates and rule thresholds.
MISSING_ERROR_THRESHOLD_PCT = 20.0
MISSING_MEDIAN_THRESHOLD_PCT = 5.0
HEAVY_SKEW_THRESHOLD = 2.0
HEAVY_KURTOSIS_THRESHOLD = 3.0
INTERMITTENCY_THRESHOLD = 0.4
STRONG_TREND_STRENGTH = 0.6
DEFAULT_CANDIDATE_COUNT = 3
DEFAULT_CREDENTIAL_ENV = "FORECASTLAB_API_KEY"

# Wire vocabulary -> internal policy names.
WIRE_MISSING_TO_FILL = {
    "interpolate": "interpolate",
    "forward_fill": "ffill",
    "backward_fill": "bfill",
    "mean": "local_mean",
    "median": "local_median",
    "zero": "zero",
    "drop": "drop",
}
WIRE_DETECT_TO_METHOD = {
    "iqr": "rolling_iqr",
    "zscore": "rolling_zscore",
    "percentile": "percentile",
    "none": "none",
}
WIRE_HANDLE_TO_REPAIR = {
    "clip": "clip",
    "drop": "drop",
    "zero": "zero",
    "interpolate": "interpolate",
    "ffill": "ffill",
    "bfill": "bfill",
    "mean": "local_mean",
    "median": "local_median",
    "smooth": "smooth",
}
WIRE_STRATEGY_TO_INTERNAL = {
    "best_model": "single_best",
    "weighted_average": "weighted_average",
    "trimmed_mean": "trimmed_mean",
    "median": "median",
    "custom_weights": "weighted_average",
}

# Pool padding order once the profile rules have fired.
FALLBACK_MODEL_ORDER = (
    "linear_regression",
    "exp_smoothing",
    "random_walk",
    "theta",
    "ridge_regression",
    "moving_average",
    "arima",
    "polynomial_regression",
    "lasso_regression",
    "croston",
)


class InsufficientQualityError(ValueError):
    """Raised when the input fails the hard quality gate."""


@dataclass(frozen=True)
class LLMConfig:
    """Connection settings for a chat-completion endpoint."""

    endpoint: str
    model: str = "advisor-default"
    temperature: float = 0.0
    timeout: float = 30.0
    max_attempts: int = 2
    credential_env: str = DEFAULT_CREDENTIAL_ENV


@dataclass(frozen=True)
class AdvisorDecision:
    """One resolved decision plus where it came from.

    kind: preprocess | selection | ensemble.
    source: rules | llm | llm_fallback.
    payload: the wire-shaped decision actually adopted.
    """

    kind: str
    payload: dict
    source: str
    raw_response: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": self.payload, "source": self.source}


@functools.cache
def load_schema(name: str) -> dict:
    path = resources.files("forecastlab") / "schemas" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@functools.cache
def schema_validator(name: str) -> jsonschema.protocols.Validator:
    """A validator for a shipped schema, built and schema-checked once."""
    import jsonschema  # only the llm advisor validates, so rules runs skip the import

    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def strip_code_fences(text: str) -> str:
    """Remove one surrounding markdown code fence, tolerating a language tag."""
    body = text.strip()
    if not body.startswith("```"):
        return body
    lines = body.splitlines()[1:]
    if lines and lines[-1].strip().startswith("```"):
        lines = lines[:-1]
    return "\n".join(lines).strip()


class LLMClient:
    """Minimal chat-completion HTTP client (OpenAI-style request shape)."""

    def __init__(self, config: LLMConfig):
        self.config = config

    def complete(self, system: str, user: str) -> str:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.credential_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        import requests  # only the llm advisor makes requests

        response = requests.post(
            self.config.endpoint, json=payload, headers=headers, timeout=self.config.timeout
        )
        response.raise_for_status()
        body = response.json()
        return body["choices"][0]["message"]["content"]


def policies_from_strategies(
    strategies: Mapping[str, str], heavy_tailed: bool = False
) -> tuple[DetectionPolicy, RepairPolicy, list[str]]:
    """Map wire strategy names onto concrete detection/repair policies.

    'drop' is not row-preserving, so it is substituted with interpolation
    and the substitution is reported in the notes.
    """
    notes: list[str] = []
    fill = WIRE_MISSING_TO_FILL[strategies["missing_value_strategy"]]
    if fill == "drop":
        fill = "interpolate"
        notes.append("missing_value_strategy 'drop' would shorten the series; substituted 'interpolate'")
    handle = WIRE_HANDLE_TO_REPAIR[strategies["outlier_handle_strategy"]]
    if handle == "drop":
        handle = "interpolate"
        notes.append("outlier_handle_strategy 'drop' would shorten the series; substituted 'interpolate'")
    method = WIRE_DETECT_TO_METHOD[strategies["outlier_detect_strategy"]]
    # Conventional defaults: 1.5 IQR fences, 3-sigma band for zscore.
    alpha = 3.0 if method == "rolling_zscore" else 1.5
    detection = DetectionPolicy(
        method=method,
        window=24,
        alpha=alpha,
        robust_center=heavy_tailed and method == "rolling_zscore",
    )
    repair = RepairPolicy(outlier_handle=handle, missing_fill=fill)
    return detection, repair, notes


def is_heavy_tailed(skewness: float, excess_kurtosis: float) -> bool:
    return abs(skewness) > HEAVY_SKEW_THRESHOLD or excess_kurtosis > HEAVY_KURTOSIS_THRESHOLD


def check_missing_gate(series: Series) -> float:
    """Enforce the hard missing-data gate; returns the missing percentage."""
    pct = 100.0 * len(series.missing_indices()) / len(series)
    if pct > MISSING_ERROR_THRESHOLD_PCT:
        raise InsufficientQualityError(
            f"insufficient data quality: {pct:.1f}% of values are missing "
            f"(limit {MISSING_ERROR_THRESHOLD_PCT:.0f}%)"
        )
    return pct


PreprocessResult = tuple[QualityDiagnostics, Series, list[str]]


def apply_strategies(series: Series, strategies: Mapping[str, str]) -> PreprocessResult:
    """Turn adopted wire strategies into cleaned data: the only place a
    preprocess decision is applied.

    The heavy-tail test on the raw window picks the robust zscore center;
    returns (diagnostics, cleaned series, substitution notes).
    """
    stats = compute_stats(series)
    heavy = is_heavy_tailed(stats.skewness, stats.excess_kurtosis)
    detection, repair, notes = policies_from_strategies(strategies, heavy_tailed=heavy)
    diagnostics, cleaned = diagnose(series, detection, repair)
    return diagnostics, cleaned, notes


def rules_preprocess(series: Series) -> tuple[dict, PreprocessResult]:
    """Quality assessment and strategy recommendation from fixed rules,
    returned with the result of applying those strategies.

    Light missingness is interpolated, moderate missingness uses local
    medians; heavy-tailed data switches to the robust zscore detector with
    median repair, everything else uses IQR fences with interpolation.
    """
    n = len(series)
    missing_count = len(series.missing_indices())
    missing_pct = check_missing_gate(series)
    fill = "interpolate" if missing_pct < MISSING_MEDIAN_THRESHOLD_PCT else "median"
    stats = compute_stats(series)
    heavy = is_heavy_tailed(stats.skewness, stats.excess_kurtosis)
    strategies = {
        "missing_value_strategy": fill,
        "outlier_detect_strategy": "zscore" if heavy else "iqr",
        "outlier_handle_strategy": "median" if heavy else "interpolate",
    }
    applied = apply_strategies(series, strategies)
    diagnostics = applied[0]
    outlier_count = len(diagnostics.outlier_indices)
    issues: list[str] = []
    if missing_count:
        issues.append("missing_values")
    if outlier_count:
        issues.append("outliers")
    if heavy:
        issues.append("heavy_tails")
    payload = {
        "basic_stats": {
            "mean": stats.mean,
            "std": stats.std,
            "min": stats.minimum,
            "max": stats.maximum,
            "trend": stats.trend,
        },
        "missing_info": {
            "missing_count": missing_count,
            "missing_percentage": missing_pct,
        },
        "outlier_info": {
            "outlier_count": outlier_count,
            "outlier_percentage": outlier_count / n,
        },
        "quality_assessment": {
            "data_quality_score": diagnostics.quality_score,
            "main_issues": issues,
        },
        "recommended_strategies": strategies,
    }
    return payload, applied


def rank_candidate_models(profile: TemporalProfile) -> list[tuple[str, str]]:
    """Ordered (model_id, reason) pairs from the profile rule table.

    Rule order: intermittency, seasonality, strong trend, plain
    stationarity; remaining slots are padded from a fixed diversity order.
    """
    picks: list[tuple[str, str]] = []
    chosen: set[str] = set()

    def add(model_id: str, reason: str) -> None:
        if model_id not in chosen:
            chosen.add(model_id)
            picks.append((model_id, reason))

    if profile.intermittency > INTERMITTENCY_THRESHOLD:
        add(
            "croston",
            f"{profile.intermittency:.0%} of observations are exact zeros; "
            "intermittent-demand smoothing applies",
        )
    if profile.seasonality.detected:
        cycle = f"repeating cycle of period {profile.seasonality.period}"
        add("exp_smoothing", f"{cycle}; seasonal smoothing can track it")
        add("theta", f"{cycle}; decomposition-based extrapolation is competitive on cyclic data")
        add("arima", f"{cycle}; autoregressive terms capture cycle correlation")
    strong_trend = profile.trend.label != "stable" and profile.trend.strength >= STRONG_TREND_STRENGTH
    if strong_trend:
        add(
            "linear_regression",
            f"{profile.trend.label} trend with strength {profile.trend.strength:.2f}; "
            "extrapolating fits apply",
        )
        add("exp_smoothing", "trend-aware smoothing tracks level drift")
    if profile.stationarity.is_stationary and not profile.seasonality.detected:
        add("arima", "stationary without seasonality; short-memory autoregression is appropriate")
        add("moving_average", "stationary level; recent-window averaging is a strong baseline")
    for model_id in FALLBACK_MODEL_ORDER:
        add(model_id, "diverse complement to the rule-selected pool")
    return picks


def selection_payload_from_rules(profile: TemporalProfile, n_candidates: int) -> dict:
    if not 1 <= n_candidates <= len(MODEL_IDS):
        raise ValueError(f"n_candidates must lie in [1, {len(MODEL_IDS)}]")
    period = profile.seasonality.period if profile.seasonality.detected else None
    ranked = rank_candidate_models(profile)[:n_candidates]
    return {
        "selected_models": [
            {
                "model": model_id,
                "hyperparameters": hyperparameter_space(model_id, period),
                "reason": reason,
            }
            for model_id, reason in ranked
        ]
    }


def normalize_selection_payload(
    payload: Mapping, profile: TemporalProfile, n_candidates: int
) -> dict | None:
    """Sanitize an LLM selection payload; None when nothing usable remains.

    Model names are lowercased and must be registry ids; hyperparameter keys
    must be valid for the model; scalar values are wrapped into singleton
    search lists; an empty space falls back to the default grid.
    """
    period = profile.seasonality.period if profile.seasonality.detected else None
    models: list[dict] = []
    seen: set[str] = set()
    for entry in payload.get("selected_models", []):
        model_id = str(entry.get("model", "")).strip().lower()
        if model_id not in MODEL_IDS or model_id in seen:
            continue
        raw_space = entry.get("hyperparameters")
        if not isinstance(raw_space, Mapping):
            continue
        allowed = allowed_hyperparameter_keys(model_id)
        space: dict[str, list] = {}
        usable = True
        for key, values in raw_space.items():
            key = str(key).strip().lower()
            if key not in allowed:
                usable = False
                break
            candidates = list(values) if isinstance(values, (list, tuple)) else [values]
            if not candidates:
                usable = False
                break
            space[key] = candidates
        if not usable:
            continue
        if not space:
            space = hyperparameter_space(model_id, period)
        reason = str(entry.get("reason", "")).strip() or "selected by advisor"
        models.append({"model": model_id, "hyperparameters": space, "reason": reason})
        seen.add(model_id)
        if len(models) == n_candidates:
            break
    if not models:
        return None
    return {"selected_models": models}


def decision_from_wire(
    payload: Mapping,
    member_ids: Sequence[str],
    maes: Sequence[float],
    mapes: Sequence[float],
    disagreement: float,
    config: EnsembleConfig | None = None,
) -> EnsembleDecision | None:
    """Build an EnsembleDecision from a wire payload; None when unusable.

    best_model requires a known member; custom_weights must cover exactly
    the member set with nonnegative weights and is renormalized; a
    weighted_average without usable weights falls back to the internal
    performance weights. Gap and disagreement metadata always come from the
    internal computation.
    """
    config = config if config is not None else EnsembleConfig()
    baseline = decide(member_ids, maes, mapes, disagreement, config)
    members = baseline.member_ids
    internal = WIRE_STRATEGY_TO_INTERNAL.get(payload.get("integration_strategy"))
    if internal is None:
        return None
    confidence = str(payload.get("confidence", "")).strip().lower()
    if confidence not in ("low", "medium", "high"):
        return None
    reasoning = str(payload.get("reasoning", "")).strip()
    if not reasoning:
        return None
    weights: tuple[float, ...] | None = None
    selected: str | None = None
    if internal == "single_best":
        selected = payload.get("selected_model")
        if selected not in members:
            return None
    elif internal == "weighted_average":
        raw_weights = payload.get("weights")
        if payload.get("integration_strategy") == "custom_weights" or raw_weights:
            if not isinstance(raw_weights, Mapping) or set(raw_weights) != set(members):
                return None
            try:
                values = [float(raw_weights[m]) for m in members]
            except (TypeError, ValueError):
                return None
            if any(v < 0 for v in values) or sum(values) <= 0:
                return None
            total = sum(values)
            weights = tuple(v / total for v in values)
        else:
            scores = aggregate_scores(maes, mapes, config)
            weights = tuple(float(w) for w in performance_weights(scores, config))
    return EnsembleDecision(
        strategy=internal,
        member_ids=members,
        weights=weights,
        selected_model=selected,
        rationale=reasoning,
        confidence=confidence,
        gap=baseline.gap,
        disagreement=baseline.disagreement,
        trim_fraction=config.trim_fraction,
    )


class PreprocessAdvice(NamedTuple):
    """(applied result, decision), like advise_ensemble's pair; ``source``
    reads as on every other advise_* result (benchmarks/spans.py counts
    fallbacks from it)."""

    applied: PreprocessResult
    decision: AdvisorDecision

    @property
    def source(self) -> str:
        return self.decision.source


class Advisor:
    """Resolves pipeline decisions via rules or a JSON-contract LLM."""

    def __init__(
        self,
        mode: str = "rules",
        llm: LLMConfig | None = None,
        client: LLMClient | None = None,
    ):
        if mode not in ("rules", "llm"):
            raise ValueError("advisor mode must be 'rules' or 'llm'")
        if mode == "llm" and llm is None and client is None:
            raise ValueError("llm mode needs an LLMConfig or a prebuilt client")
        self.mode = mode
        self.client = client if client is not None else (LLMClient(llm) if llm else None)
        self.max_attempts = max(1, llm.max_attempts if llm is not None else 2)

    def _request_payload(
        self, system: str, user: str, schema_name: str
    ) -> tuple[dict | None, str | None]:
        import jsonschema
        import requests

        validator = schema_validator(schema_name)
        last_raw: str | None = None
        for _ in range(self.max_attempts):
            try:
                raw = self.client.complete(system, user)
            except (requests.RequestException, KeyError, TypeError, ValueError):
                continue
            last_raw = raw
            try:
                payload = json.loads(strip_code_fences(raw))
                validator.validate(payload)
            except (ValueError, jsonschema.ValidationError):
                continue
            if isinstance(payload, dict):
                return payload, raw
        return None, last_raw

    def advise_preprocess(self, series: Series) -> PreprocessAdvice:
        """Decide the preprocess strategies and apply them, so the window is
        diagnosed exactly once whichever source the decision comes from."""
        check_missing_gate(series)
        if self.mode == "rules":
            rules_payload, applied = rules_preprocess(series)
            return PreprocessAdvice(applied, AdvisorDecision("preprocess", rules_payload, "rules"))
        sample = {"value": [None if v is None else float(v) for v in series.values]}
        system, user = prompts.render_preprocess_messages(sample)
        payload, raw = self._request_payload(system, user, "preprocess_decision")
        if payload is None:
            rules_payload, applied = rules_preprocess(series)
            decision = AdvisorDecision("preprocess", rules_payload, "llm_fallback", raw)
            return PreprocessAdvice(applied, decision)
        applied = apply_strategies(series, payload["recommended_strategies"])
        return PreprocessAdvice(applied, AdvisorDecision("preprocess", payload, "llm", raw))

    def advise_selection(
        self, profile: TemporalProfile, n_candidates: int = DEFAULT_CANDIDATE_COUNT
    ) -> AdvisorDecision:
        rules_payload = selection_payload_from_rules(profile, n_candidates)
        if self.mode == "rules":
            return AdvisorDecision("selection", rules_payload, "rules")
        system, user = prompts.render_selection_messages(
            profile.to_dict(), list(MODEL_IDS), n_candidates
        )
        payload, raw = self._request_payload(system, user, "model_selection")
        if payload is not None:
            normalized = normalize_selection_payload(payload, profile, n_candidates)
            if normalized is not None:
                return AdvisorDecision("selection", normalized, "llm", raw)
        return AdvisorDecision("selection", rules_payload, "llm_fallback", raw)

    def advise_ensemble(
        self,
        member_ids: Sequence[str],
        maes: Sequence[float],
        mapes: Sequence[float],
        disagreement: float,
        forecast_previews: Mapping[str, Sequence[float]] | None = None,
        config: EnsembleConfig | None = None,
    ) -> tuple[EnsembleDecision, AdvisorDecision]:
        config = config if config is not None else EnsembleConfig()
        baseline = decide(member_ids, maes, mapes, disagreement, config)
        if self.mode == "rules":
            return baseline, AdvisorDecision("ensemble", baseline.to_wire(), "rules")
        individual: dict[str, dict] = {}
        for i, member in enumerate(member_ids):
            entry: dict = {"val_mae": float(maes[i]), "val_mape": float(mapes[i])}
            if forecast_previews and member in forecast_previews:
                entry["forecast_head"] = [float(v) for v in forecast_previews[member][:8]]
            individual[member] = entry
        viz_info = (
            f"\nNumeric context: disagreement_index={disagreement:.6g} "
            f"across {len(member_ids)} members."
        )
        system, user = prompts.render_ensemble_messages(individual, viz_info)
        payload, raw = self._request_payload(system, user, "ensemble_decision")
        if payload is not None:
            decision = decision_from_wire(payload, member_ids, maes, mapes, disagreement, config)
            if decision is not None:
                return decision, AdvisorDecision("ensemble", dict(payload), "llm", raw)
        return baseline, AdvisorDecision("ensemble", baseline.to_wire(), "llm_fallback", raw)
