"""Advisor rule tables, wire validation, LLM contract with fallback."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from forecastlab.advisor import (
    Advisor,
    InsufficientQualityError,
    LLMConfig,
    check_missing_gate,
    decision_from_wire,
    is_heavy_tailed,
    load_schema,
    normalize_selection_payload,
    policies_from_strategies,
    rank_candidate_models,
    rules_preprocess,
    schema_validator,
    selection_payload_from_rules,
    strip_code_fences,
)
from forecastlab.ensemble import EnsembleConfig
from forecastlab.profiling import build_profile
from forecastlab.series import Series

GOLDEN = Path(__file__).parent / "golden"


def _series_with_missing(n, missing_frac, seed=0):
    rng = np.random.default_rng(seed)
    vals = list(rng.normal(10.0, 1.0, n))
    k = int(round(missing_frac * n))
    for i in rng.choice(n, size=k, replace=False):
        vals[int(i)] = None
    return Series(tuple(vals))


def _stationary_profile(seed=2):
    rng = np.random.default_rng(seed)
    return build_profile(Series(tuple(float(v) for v in rng.normal(0, 1, 400))))


def _seasonal_profile(seed=0):
    t = np.arange(600.0)
    rng = np.random.default_rng(seed)
    x = 10.0 + 3.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.3, 600)
    return Series(tuple(float(v) for v in x)), build_profile(
        Series(tuple(float(v) for v in x))
    )


# ---------------------------------------------------------------------------
# quality gate and preprocessing rules
# ---------------------------------------------------------------------------


def test_missing_gate_error_above_20pct():
    s = _series_with_missing(100, 0.25)
    with pytest.raises(InsufficientQualityError, match=r"insufficient data quality: 25\.0%"):
        check_missing_gate(s)
    with pytest.raises(InsufficientQualityError):
        Advisor(mode="rules").advise_preprocess(s)


def test_missing_gate_passes_at_20pct():
    s = _series_with_missing(100, 0.20)
    assert check_missing_gate(s) == pytest.approx(20.0)


def test_rules_light_missing_interpolate_iqr():
    s = _series_with_missing(200, 0.01)
    payload, _ = rules_preprocess(s)
    assert payload["recommended_strategies"] == {
        "missing_value_strategy": "interpolate",
        "outlier_detect_strategy": "iqr",
        "outlier_handle_strategy": "interpolate",
    }
    assert payload["missing_info"]["missing_count"] == 2
    jsonschema.validate(payload, load_schema("preprocess_decision"))


def test_rules_moderate_missing_median_fill():
    s = _series_with_missing(200, 0.10)
    payload, _ = rules_preprocess(s)
    assert payload["recommended_strategies"]["missing_value_strategy"] == "median"
    jsonschema.validate(payload, load_schema("preprocess_decision"))


def test_rules_heavy_tails_pick_robust_zscore():
    rng = np.random.default_rng(1)
    vals = list(rng.normal(10, 1, 300))
    for i in range(0, 300, 25):
        vals[i] = 10 + float(rng.pareto(1.2)) * 15.0  # fat upper tail
    s = Series(tuple(vals))
    payload, _ = rules_preprocess(s)
    assert payload["recommended_strategies"]["outlier_detect_strategy"] == "zscore"
    assert payload["recommended_strategies"]["outlier_handle_strategy"] == "median"
    assert "heavy_tails" in payload["quality_assessment"]["main_issues"]
    detection, repair, _ = policies_from_strategies(
        payload["recommended_strategies"], heavy_tailed=True
    )
    assert detection.method == "rolling_zscore"
    assert detection.robust_center is True
    assert detection.alpha == 3.0
    assert repair.outlier_handle == "local_median"


def test_rules_payload_schema_and_score_range():
    s = _series_with_missing(150, 0.05)
    payload, _ = rules_preprocess(s)
    jsonschema.validate(payload, load_schema("preprocess_decision"))
    assert 0.0 <= payload["quality_assessment"]["data_quality_score"] <= 1.0
    assert 0.0 <= payload["outlier_info"]["outlier_percentage"] <= 1.0


def test_policies_drop_substituted_with_note():
    detection, repair, notes = policies_from_strategies(
        {
            "missing_value_strategy": "drop",
            "outlier_detect_strategy": "iqr",
            "outlier_handle_strategy": "drop",
        }
    )
    assert repair.missing_fill == "interpolate"
    assert repair.outlier_handle == "interpolate"
    assert len(notes) == 2
    assert all("substituted" in n for n in notes)
    assert detection.alpha == 1.5


def test_policies_wire_aliases():
    detection, repair, _ = policies_from_strategies(
        {
            "missing_value_strategy": "forward_fill",
            "outlier_detect_strategy": "none",
            "outlier_handle_strategy": "mean",
        }
    )
    assert repair.missing_fill == "ffill"
    assert repair.outlier_handle == "local_mean"
    assert detection.method == "none"


def test_is_heavy_tailed_thresholds():
    assert is_heavy_tailed(2.5, 0.0)
    assert is_heavy_tailed(-2.5, 0.0)
    assert is_heavy_tailed(0.0, 3.5)
    assert not is_heavy_tailed(1.9, 2.9)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------


def test_rank_stationary_non_seasonal_pinned_order():
    profile = _stationary_profile()
    assert not profile.seasonality.detected and profile.stationarity.is_stationary
    ranked = [m for m, _ in rank_candidate_models(profile)]
    assert ranked[:3] == ["arima", "moving_average", "linear_regression"]


def test_rank_seasonal_pinned_order():
    _, profile = _seasonal_profile()
    ranked = [m for m, _ in rank_candidate_models(profile)]
    assert ranked[:3] == ["exp_smoothing", "theta", "arima"]


def test_rank_intermittent_croston_first():
    rng = np.random.default_rng(3)
    vals = [0.0 if rng.random() < 0.6 else float(rng.integers(1, 6)) for _ in range(300)]
    profile = build_profile(Series(tuple(vals)))
    ranked = [m for m, _ in rank_candidate_models(profile)]
    assert ranked[0] == "croston"


def test_rank_covers_all_models_without_duplicates():
    profile = _stationary_profile()
    ranked = [m for m, _ in rank_candidate_models(profile)]
    assert len(ranked) == len(set(ranked)) == 10


def test_selection_payload_pins_period_and_validates():
    _, profile = _seasonal_profile()
    payload = selection_payload_from_rules(profile, 3)
    jsonschema.validate(payload, load_schema("model_selection"))
    entry = payload["selected_models"][0]
    assert entry["model"] == "exp_smoothing"
    assert entry["hyperparameters"]["period"] == [profile.seasonality.period]
    with pytest.raises(ValueError):
        selection_payload_from_rules(profile, 0)
    with pytest.raises(ValueError):
        selection_payload_from_rules(profile, 11)


def test_normalize_selection_payload_sanitizes():
    profile = _stationary_profile()
    payload = {
        "selected_models": [
            {"model": "ARIMA", "hyperparameters": {"p": 1, "q": [0, 1]}, "reason": "r"},
            {"model": "arima", "hyperparameters": {"p": [2]}, "reason": "dup"},
            {"model": "prophet", "hyperparameters": {}, "reason": "unknown"},
            {"model": "theta", "hyperparameters": {"bogus_key": [1]}, "reason": "bad key"},
            {"model": "random_walk", "hyperparameters": {}, "reason": ""},
        ]
    }
    got = normalize_selection_payload(payload, profile, n_candidates=3)
    models = [e["model"] for e in got["selected_models"]]
    # arima kept once (scalar wrapped), prophet and bad-key theta dropped,
    # random_walk falls back to its default grid with a stock reason
    assert models == ["arima", "random_walk"]
    assert got["selected_models"][0]["hyperparameters"] == {"p": [1], "q": [0, 1]}
    assert got["selected_models"][1]["hyperparameters"] == {"drift": [False, True]}
    assert got["selected_models"][1]["reason"] == "selected by advisor"


def test_normalize_selection_payload_caps_count_and_empty():
    profile = _stationary_profile()
    payload = {
        "selected_models": [
            {"model": m, "hyperparameters": {}, "reason": "r"}
            for m in ("arima", "theta", "croston", "random_walk")
        ]
    }
    got = normalize_selection_payload(payload, profile, n_candidates=2)
    assert len(got["selected_models"]) == 2
    assert normalize_selection_payload({"selected_models": []}, profile, 3) is None
    only_bad = {"selected_models": [{"model": "nope", "hyperparameters": {}, "reason": "x"}]}
    assert normalize_selection_payload(only_bad, profile, 3) is None


# ---------------------------------------------------------------------------
# ensemble wire decisions
# ---------------------------------------------------------------------------

MEMBERS = ("exp_smoothing", "theta", "arima")
MAES = [1.8, 1.0, 2.0]
MAPES = [10.0, 11.64, 12.0]


def _wire(**kw):
    base = {"integration_strategy": "median", "weights": None, "selected_model": None,
            "reasoning": "robust", "confidence": "low"}
    base.update(kw)
    return base


def test_wire_best_model_requires_member():
    d = decision_from_wire(
        _wire(integration_strategy="best_model", selected_model="theta"),
        MEMBERS, MAES, MAPES, 0.1,
    )
    assert d.strategy == "single_best" and d.selected_model == "theta"
    assert decision_from_wire(
        _wire(integration_strategy="best_model", selected_model="prophet"),
        MEMBERS, MAES, MAPES, 0.1,
    ) is None


def test_wire_custom_weights_renormalized():
    d = decision_from_wire(
        _wire(
            integration_strategy="custom_weights",
            weights={"exp_smoothing": 2.0, "theta": 1.0, "arima": 1.0},
        ),
        MEMBERS, MAES, MAPES, 0.1,
    )
    assert d.strategy == "weighted_average"
    assert d.weights == pytest.approx((0.5, 0.25, 0.25))


def test_wire_custom_weights_must_cover_members():
    assert decision_from_wire(
        _wire(integration_strategy="custom_weights", weights={"theta": 1.0}),
        MEMBERS, MAES, MAPES, 0.1,
    ) is None
    assert decision_from_wire(
        _wire(integration_strategy="custom_weights",
              weights={"exp_smoothing": -1.0, "theta": 1.0, "arima": 1.0}),
        MEMBERS, MAES, MAPES, 0.1,
    ) is None


def test_wire_weighted_average_without_weights_uses_internal():
    d = decision_from_wire(
        _wire(integration_strategy="weighted_average", weights=None),
        MEMBERS, MAES, MAPES, 0.1,
    )
    assert d.strategy == "weighted_average"
    assert d.weights is not None
    assert sum(d.weights) == pytest.approx(1.0)


def test_wire_vocabulary_and_confidence_closed():
    assert decision_from_wire(
        _wire(integration_strategy="magic"), MEMBERS, MAES, MAPES, 0.1
    ) is None
    assert decision_from_wire(
        _wire(confidence="certain"), MEMBERS, MAES, MAPES, 0.1
    ) is None
    assert decision_from_wire(_wire(reasoning="  "), MEMBERS, MAES, MAPES, 0.1) is None
    d = decision_from_wire(_wire(confidence="LOW"), MEMBERS, MAES, MAPES, 0.1)
    assert d.confidence == "low"


def test_wire_gap_metadata_from_internal_baseline():
    d = decision_from_wire(_wire(), MEMBERS, MAES, MAPES, 0.37)
    assert d.disagreement == 0.37
    assert d.gap == pytest.approx(0.025, abs=1e-9)


# ---------------------------------------------------------------------------
# fence stripping
# ---------------------------------------------------------------------------


def test_strip_code_fences_variants():
    assert strip_code_fences('{"a": 1}') == '{"a": 1}'
    assert strip_code_fences('```json\n{"a": 1}\n```') == '{"a": 1}'
    assert strip_code_fences('```\n{"a": 1}\n```') == '{"a": 1}'
    assert strip_code_fences('  ```json\n{"a": 1}\n```  ') == '{"a": 1}'


# ---------------------------------------------------------------------------
# LLM contract against the stub server
# ---------------------------------------------------------------------------


def _llm_advisor(chat_server, attempts=2):
    cfg = LLMConfig(endpoint=chat_server.endpoint, max_attempts=attempts, timeout=5.0)
    return Advisor(mode="llm", llm=cfg)


def test_llm_valid_ensemble_response(chat_server):
    chat_server.responses.append(json.dumps(_wire()))
    advisor = _llm_advisor(chat_server)
    decision, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm"
    assert decision.strategy == "median"
    assert advice.raw_response == json.dumps(_wire())


def test_llm_fenced_response_parses(chat_server):
    chat_server.responses.append("```json\n" + json.dumps(_wire()) + "\n```")
    advisor = _llm_advisor(chat_server)
    decision, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm"
    assert decision.strategy == "median"


def test_llm_invalid_strategy_falls_back(chat_server):
    bad = json.dumps(_wire(integration_strategy="magic"))
    chat_server.responses.extend([bad, bad])
    advisor = _llm_advisor(chat_server, attempts=2)
    decision, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm_fallback"
    # "magic" violates the wire enum, so both attempts are consumed
    assert len(chat_server.requests) == 2
    # fallback equals the rule decision
    rules_decision, _ = Advisor(mode="rules").advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert decision == rules_decision
    assert advice.raw_response == bad


def test_llm_malformed_json_retries_then_falls_back(chat_server):
    chat_server.responses.extend(["not json at all", "{broken"])
    advisor = _llm_advisor(chat_server, attempts=2)
    decision, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm_fallback"
    assert advice.raw_response == "{broken"
    assert decision.strategy in ("single_best", "weighted_average", "median", "trimmed_mean")


def test_llm_first_bad_then_good_succeeds(chat_server):
    chat_server.responses.extend(["garbage", json.dumps(_wire())])
    advisor = _llm_advisor(chat_server, attempts=2)
    _, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm"
    assert len(chat_server.requests) == 2


@pytest.mark.parametrize(
    "name", ["preprocess_decision", "model_selection", "ensemble_decision"]
)
def test_shipped_schemas_are_valid_and_validator_rejects(name):
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    assert schema_validator(name) is schema_validator(name)
    with pytest.raises(jsonschema.ValidationError):
        schema_validator(name).validate({})


def test_llm_request_shape_and_temperature(chat_server):
    chat_server.responses.append(json.dumps(_wire()))
    advisor = _llm_advisor(chat_server)
    advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    req = chat_server.requests[0]
    assert req["model"] == "advisor-default"
    assert req["temperature"] == 0.0
    assert [m["role"] for m in req["messages"]] == ["system", "user"]


def test_llm_credential_header_only_when_env_set(chat_server, monkeypatch):
    monkeypatch.delenv("FORECASTLAB_API_KEY", raising=False)
    chat_server.responses.append(json.dumps(_wire()))
    _llm_advisor(chat_server).advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert "authorization" not in chat_server.headers[0]

    monkeypatch.setenv("FORECASTLAB_API_KEY", "sk-test-123")
    chat_server.responses.append(json.dumps(_wire()))
    _llm_advisor(chat_server).advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert chat_server.headers[1].get("authorization") == "Bearer sk-test-123"


def test_llm_preprocess_fallback_keeps_rules_payload(chat_server):
    chat_server.responses.extend(["nope", "nope"])
    s = _series_with_missing(200, 0.01)
    advisor = _llm_advisor(chat_server, attempts=2)
    _, decision = advisor.advise_preprocess(s)
    assert decision.source == "llm_fallback"
    assert decision.payload == rules_preprocess(s)[0]
    assert decision.raw_response == "nope"


def test_llm_selection_normalizes_or_falls_back(chat_server):
    _, profile = _seasonal_profile()
    good = json.dumps(
        {
            "selected_models": [
                {"model": "THETA", "hyperparameters": {"ses_alpha": [0.5]}, "reason": "x"}
            ]
        }
    )
    chat_server.responses.append(good)
    advisor = _llm_advisor(chat_server)
    decision = advisor.advise_selection(profile, 3)
    assert decision.source == "llm"
    assert decision.payload["selected_models"][0]["model"] == "theta"
    assert decision.payload["selected_models"][0]["hyperparameters"] == {"ses_alpha": [0.5]}


def test_llm_selection_unusable_models_fall_back(chat_server):
    _, profile = _seasonal_profile()
    bad = json.dumps(
        {"selected_models": [{"model": "prophet", "hyperparameters": {}, "reason": "x"}]}
    )
    chat_server.responses.extend([bad, bad])
    advisor = _llm_advisor(chat_server, attempts=2)
    decision = advisor.advise_selection(profile, 3)
    assert decision.source == "llm_fallback"
    assert decision.payload == selection_payload_from_rules(profile, 3)


def test_llm_server_down_falls_back_quietly():
    cfg = LLMConfig(endpoint="http://127.0.0.1:9/nothing", max_attempts=2, timeout=0.2)
    advisor = Advisor(mode="llm", llm=cfg)
    decision, advice = advisor.advise_ensemble(MEMBERS, MAES, MAPES, 0.1)
    assert advice.source == "llm_fallback"
    assert advice.raw_response is None
    assert decision.strategy


def test_advisor_mode_validation():
    with pytest.raises(ValueError):
        Advisor(mode="oracle")
    with pytest.raises(ValueError):
        Advisor(mode="llm")


# ---------------------------------------------------------------------------
# golden prompt files
# ---------------------------------------------------------------------------

PINNED_SAMPLE = {
    "length": 128,
    "head": [10.0, 10.5, 11.0, 10.8],
    "tail": [12.1, 12.4, 12.2, 12.6],
    "missing_count": 3,
    "missing_percentage": 2.34375,
    "mean": 11.2,
    "std": 0.9,
    "min": 9.4,
    "max": 13.1,
}
PINNED_ANALYSIS = {
    "trend": {"label": "increasing", "strength": 0.82},
    "seasonality": {"detected": True, "period": 24, "strength": 0.91},
    "stationarity": {"is_stationary": False, "statistic": -1.73, "critical_value": -2.86},
    "intermittency": 0.0,
    "distribution": {"skewness": 0.12, "excess_kurtosis": -0.4},
}
PINNED_MODELS = [
    "random_walk", "moving_average", "exp_smoothing", "arima", "theta",
    "croston", "linear_regression", "polynomial_regression",
    "ridge_regression", "lasso_regression",
]
PINNED_FORECASTS = {
    "exp_smoothing": {"val_mae": 0.31, "val_mape": 2.9, "forecast_head": [12.7, 12.9, 13.0]},
    "theta": {"val_mae": 0.35, "val_mape": 3.2, "forecast_head": [12.6, 12.8, 12.9]},
}
PINNED_VIZ = "\nNumeric context: disagreement_index=0.1200 across 2 members."


def test_rendered_prompts_match_golden_files():
    from forecastlab.prompts import (
        render_ensemble_messages,
        render_preprocess_messages,
        render_selection_messages,
    )

    cases = {
        "preprocess": render_preprocess_messages(PINNED_SAMPLE),
        "selection": render_selection_messages(PINNED_ANALYSIS, PINNED_MODELS, 3),
        "ensemble": render_ensemble_messages(PINNED_FORECASTS, PINNED_VIZ),
    }
    for name, (system, user) in cases.items():
        assert system == (GOLDEN / f"{name}_system.txt").read_text(encoding="utf-8")
        assert user == (GOLDEN / f"{name}_user.txt").read_text(encoding="utf-8")


def test_no_unsubstituted_placeholders_in_rendered_prompts():
    from forecastlab.prompts import render_ensemble_messages, render_selection_messages

    _, user = render_selection_messages(PINNED_ANALYSIS, PINNED_MODELS, 3)
    assert "{analysis}" not in user
    assert "{available_models}" not in user
    assert "{n_candidates}" not in user
    _, euser = render_ensemble_messages(PINNED_FORECASTS, "")
    assert "{viz_info}" not in euser
    assert "{json.dumps" not in euser
