"""Stacked logistic estimation, bootstrap intervals, and identities."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import oracles
from torquenet import (CollinearityError, ContagionModel, DataError,
                       PathwayAnalyzer, PathwayConfig, PredictionError,
                       ReductionEstimate, SeparationError, build_frame,
                       build_villages, check_collinearity, contagion_screen,
                       counterfactual_reduction, exposure_table, fit,
                       fit_frame, newton_logit, reduction_point)
from torquenet import contagion
from torquenet.contagion import RegressionFrame, _log_likelihood
from torquenet.io import parse_scenario
from torquenet.pathways import EXPOSURE_FIELDS

from helpers import quick_panel


def _panels(n_villages=3, n=40, seed=0):
    return {f"v{i}": quick_panel(n, village=f"v{i}", seed=seed + i)
            for i in range(n_villages)}


def _expo_cols(panels, seed=0):
    rng = np.random.default_rng(seed)
    cols = {name: {} for name in ("xi_layer", "xi_rest", "k_alters")}
    for key, panel in panels.items():
        cols["xi_layer"][key] = rng.poisson(1.2, panel.n).astype(float)
        cols["xi_rest"][key] = rng.poisson(2.0, panel.n).astype(float)
        cols["k_alters"][key] = rng.poisson(6.0, panel.n).astype(float)
    return cols


# -- frame assembly --------------------------------------------------


def test_frame_layout_and_fixed_effects():
    panels = _panels()
    frame = build_frame(panels, "t", _expo_cols(panels))
    assert frame.columns[:2] == ("intercept", "k_w1")
    assert frame.columns[2:5] == ("xi_layer", "xi_rest", "k_alters")
    assert frame.columns[-2:] == ("village:v1", "village:v2")
    assert frame.villages == ("v0", "v1", "v2")
    # reference village rows carry no dummy, others exactly one
    fe = frame.X[:, -2:]
    assert (fe[frame.village_code == 0] == 0).all()
    assert (fe[frame.village_code == 1][:, 0] == 1).all()
    assert (fe[frame.village_code == 2][:, 1] == 1).all()
    assert (fe.sum(axis=1) <= 1).all()
    assert frame.n == 120
    assert frame.n_dropped == 0


def test_frame_drops_incomplete_rows():
    panels = _panels(2)
    broken = panels["v0"]
    k3 = np.asarray(broken.k_w3["t"]).copy()
    k3[:5] = np.nan
    panels["v0"] = broken.with_topic("t", broken.treated["t"],
                                    broken.k_w1["t"], k3)
    frame = build_frame(panels, "t", _expo_cols(panels))
    assert frame.n_dropped == 5
    assert frame.n == 75
    assert all(v == "v0" for v, _ in frame.rows[:35])


def test_frame_needs_two_villages():
    panels = _panels(1)
    with pytest.raises(DataError):
        build_frame(panels, "t", _expo_cols(panels))


def test_frame_universe_pins_columns():
    panels = _panels(3)
    cols = _expo_cols(panels)
    fitted = build_frame(panels, "t", cols)
    sub = {"v1": panels["v1"]}
    sub_cols = {name: {"v1": cols[name]["v1"]} for name in cols}
    frame = build_frame(sub, "t", sub_cols, village_universe=fitted.villages)
    assert frame.columns == fitted.columns
    with pytest.raises(PredictionError):
        build_frame(sub, "t", sub_cols, village_universe=("v0", "v2"))


def test_fit_reads_exposure_recarrays():
    panels = _panels()
    cols = _expo_cols(panels)
    records = {key: np.rec.fromarrays(
        [cols[name][key].astype(np.int64) for name in cols], names=tuple(cols))
        for key in panels}
    model = fit(panels, records, "t")
    expect = fit_frame(build_frame(panels, "t", cols), "t")
    assert model.columns[2:5] == ("xi_layer", "xi_rest", "k_alters")
    np.testing.assert_array_equal(model.frame.X, expect.frame.X)
    np.testing.assert_array_equal(model.beta, expect.beta)


# -- maximum likelihood ----------------------------------------------


def test_wald_and_slope_match_scipy_stats():
    # scipy.stats is the oracle here only; the package does not import it
    from scipy.stats import linregress, norm

    from torquenet.simulate import _ols_slope

    panels = _panels(4, n=80)
    model = fit_frame(build_frame(panels, "t", _expo_cols(panels)), "t")
    for name in model.columns:
        z, p = model.wald(name)
        assert p == 2.0 * norm.sf(abs(z))
    rng = np.random.default_rng(40)
    for _ in range(300):
        n = int(rng.integers(3, 16))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-2, 2) * x
        want = linregress(x, y)
        assert _ols_slope(x, y) == (want.slope, want.pvalue)
    # perfect fits: r is clipped to +-1 and the p-value collapses to 0
    x = np.arange(5.0)
    for sign in (1.0, -1.0):
        want = linregress(x, sign * x)
        assert _ols_slope(x, sign * x) == (want.slope, want.pvalue)


def test_slope_and_se_match_closed_form():
    # one binary regressor: the MLE is the log odds ratio of the 2x2 table
    n00, n01, n10, n11 = 40, 10, 20, 30
    x = np.array([0.0] * (n00 + n01) + [1.0] * (n10 + n11))
    y = np.array([0.0] * n00 + [1.0] * n01 + [0.0] * n10 + [1.0] * n11)
    X = np.column_stack([np.ones_like(x), x])
    beta, cov, ll, _, gmax = newton_logit(X, y)
    slope, se = oracles.logit_2x2_table(n00, n01, n10, n11)
    assert abs(beta[1] - slope) < 1e-9
    assert abs(np.sqrt(cov[1, 1]) - se) < 1e-9
    assert abs(beta[0] - np.log(n01 / n00)) < 1e-9
    assert gmax < 1e-8


def test_matches_generic_optimizer():
    rng = np.random.default_rng(41)
    n, p = 400, 5
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    beta_true = np.array([-0.5, 0.8, -0.4, 0.2, 0.0])
    y = (rng.random(n) < expit(X @ beta_true)).astype(float)
    beta, _, ll, _, _ = newton_logit(X, y)
    res = minimize(lambda b: -_log_likelihood(X @ b, y, None),
                   np.zeros(p), method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 500})
    assert np.allclose(beta, res.x, atol=1e-5)
    assert ll >= -res.fun - 1e-9


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    n, p = 300, 4
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = (rng.random(n) < 0.4).astype(float)
    for point in (np.zeros(p), rng.normal(scale=0.5, size=p)):
        analytic = X.T @ (y - expit(X @ point))
        numeric = oracles.central_difference_gradient(
            lambda b: _log_likelihood(X @ b, y, None), point)
        denom = np.linalg.norm(analytic)
        assert np.linalg.norm(numeric - analytic) / denom < 1e-5


def test_weights_equal_row_duplication():
    rng = np.random.default_rng(43)
    n, p = 120, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = (rng.random(n) < expit(X[:, 1] - 0.3)).astype(float)
    w = rng.integers(0, 4, n).astype(float)
    keep = w > 0
    dup = np.repeat(np.arange(n), w.astype(int))
    beta_w, cov_w, ll_w, _, _ = newton_logit(X[keep], y[keep],
                                             weights=w[keep])
    beta_d, cov_d, ll_d, _, _ = newton_logit(X[dup], y[dup])
    assert np.allclose(beta_w, beta_d, atol=1e-9)
    assert np.allclose(cov_w, cov_d, atol=1e-9)
    assert abs(ll_w - ll_d) < 1e-7


def test_collinear_design_names_columns():
    rng = np.random.default_rng(44)
    x = rng.normal(size=50)
    X = np.column_stack([np.ones(50), x, 2.0 * x])
    with pytest.raises(CollinearityError) as err:
        check_collinearity(X, ("intercept", "a", "twice_a"))
    assert "dependent columns" in str(err.value)
    assert "twice_a" in str(err.value) or "a" in str(err.value)


def test_perfect_separation_raises_with_column_name():
    # enough rows that the likelihood plateau is still improving when the
    # runaway coefficient crosses the detection bound
    n = 20000
    x = np.array([-1.0, 1.0] * (n // 2))
    y = (x > 0).astype(float)
    X = np.column_stack([np.ones(n), x])
    with pytest.raises(SeparationError, match="splitter"):
        newton_logit(X, y, columns=("intercept", "splitter"))


def test_fit_frame_end_to_end():
    panels = _panels(4, n=80)
    cols = _expo_cols(panels)
    frame = build_frame(panels, "t", cols)
    model = fit_frame(frame, "t")
    assert model.grad_max < 1e-8
    assert model.loglik >= model.null_loglik
    assert model.se.shape == model.beta.shape
    z, p = model.wald("xi_layer")
    j = frame.columns.index("xi_layer")
    assert z == pytest.approx(model.beta[j] / model.se[j])
    assert 0.0 <= p <= 1.0
    preds = model.predict()
    assert ((preds > 0) & (preds < 1)).all()
    with pytest.raises(PredictionError):
        sub_frame = dataclasses.replace(frame, columns=("other",))
        model.predict_frame(sub_frame)


def test_single_class_outcome_rejected():
    panels = _panels(2)
    flat = {}
    for key, panel in panels.items():
        ones = np.ones(panel.n)
        flat[key] = panel.with_topic("t", panel.treated["t"],
                                    panel.k_w1["t"], ones)
    with pytest.raises(DataError):
        fit_frame(build_frame(flat, "t", _expo_cols(flat)), "t")


# -- counterfactual reduction ----------------------------------------


def _fitted_model(seed=45, n_villages=5, n=60, effect=0.6):
    rng = np.random.default_rng(seed)
    panels = {}
    cols = {name: {} for name in ("xi_layer", "xi_rest", "k_alters")}
    for i in range(n_villages):
        key = f"v{i}"
        xi = rng.poisson(1.5, n).astype(float)
        rest = rng.poisson(2.0, n).astype(float)
        alters = xi + rest + rng.poisson(3.0, n)
        k1 = (rng.random(n) < 0.2).astype(float)
        eta = -1.2 + 0.9 * k1 + effect * xi + 0.1 * rest + 0.1 * (i - 2)
        y = (rng.random(n) < expit(eta)).astype(float)
        panels[key] = quick_panel(n, village=key, k1=k1, k3=y, seed=seed + i)
        cols["xi_layer"][key] = xi
        cols["xi_rest"][key] = rest
        cols["k_alters"][key] = alters.astype(float)
    frame = build_frame(panels, "t", cols)
    return fit_frame(frame, "t")


def test_reduction_zero_when_coefficient_zero():
    model = _fitted_model()
    j = model.columns.index("xi_layer")
    beta0 = model.beta.copy()
    beta0[j] = 0.0
    zeroed = dataclasses.replace(model, beta=beta0)
    assert reduction_point(zeroed) == 0.0


def test_reduction_zero_when_exposure_absent():
    model = _fitted_model()
    frame = model.frame
    j = frame.columns.index("xi_layer")
    X = frame.X.copy()
    X[:, j] = 0.0
    hollow = dataclasses.replace(model, frame=dataclasses.replace(frame, X=X))
    assert reduction_point(hollow) == 0.0


def test_reduction_positive_with_positive_coefficient():
    model = _fitted_model(effect=0.8)
    assert model.coef("xi_layer") > 0
    assert reduction_point(model) > 0.0


def test_bootstrap_interval_brackets_signal():
    model = _fitted_model(effect=0.9, n_villages=8, n=50)
    est = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=1)
    assert isinstance(est, ReductionEstimate)
    assert est.reduction == pytest.approx(reduction_point(model))
    assert est.ci_low <= est.reduction <= est.ci_high
    assert est.ci_low > 0.0
    assert est.n_boot == 1000
    assert est.n_failed < 100
    assert est.n_individuals == model.frame.n


def test_bootstrap_rejects_weak_settings():
    model = _fitted_model()
    with pytest.raises(DataError):
        counterfactual_reduction(model, "L0", 2, n_boot=200)
    with pytest.raises(DataError):
        counterfactual_reduction(model, "L0", 2, level=0.5)


def test_bootstrap_deterministic_and_thread_invariant():
    model = _fitted_model(n_villages=4, n=40)
    a = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=9)
    b = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=9)
    c = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=9,
                                 threads=4)
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    assert (a.ci_low, a.ci_high) == (c.ci_low, c.ci_high)
    d = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=10)
    assert (a.ci_low, a.ci_high) != (d.ci_low, d.ci_high)


def test_wider_interval_at_higher_level():
    model = _fitted_model(n_villages=6, n=50)
    lo = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=2)
    hi = counterfactual_reduction(model, "L0", 2, n_boot=1000, seed=2,
                                  level=0.99)
    assert hi.ci_low <= lo.ci_low
    assert hi.ci_high >= lo.ci_high


# README scenario: 30 villages of 70-90 nodes. About a third of the
# replicates do not draw the reference village v000.
SCENARIO = """
[villages]
count = 30
size_min = 70
size_max = 90
household_mean = 2.2
household_sd = 1.0

[layers]
drop = personal_private, patron
friend_closest_friend = 2, 0.3
chain_borrow_money = 0.5, 1

[intervention]
fraction = 0.3
strategy = random

[topics]
names = story

[diffusion]
rounds = 3
baseline_rate = 0.12
forget = 0.05

[diffusion:story]
closest_friend = 0.6

[estimation]
k = 2
"""

# 8 small villages with torque-guided seeding and a second, weakly
# spreading topic: at baseline_rate 0.05 most replicates of the rumor
# models end in SeparationError, at 0.12 a few do.
FAILURE_SCENARIO = (SCENARIO.replace("count = 30", "count = 8")
                    .replace("size_min = 70", "size_min = 30")
                    .replace("size_max = 90", "size_max = 40")
                    .replace("strategy = random", "strategy = torque")
                    .replace("names = story", "names = story, rumor")
                    + "\n[diffusion:rumor]\nfree_time = 0.15\n")


def _scenario_models(tmp_path, text, seed, topic, layers):
    """Fitted per-layer models of one topic of a simulated scenario."""
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    config = parse_scenario(str(path))
    nets, panels = build_villages(config, seed=seed)
    registry = next(iter(nets.values())).registry
    cfgs = [PathwayConfig(layer=registry.id_of(name), k=config.k)
            for name in layers]
    cols = [{name: {} for name in EXPOSURE_FIELDS + ("treated",)}
            for _ in layers]
    for key in sorted(nets):
        analyzer = PathwayAnalyzer(nets[key], kmax=config.k,
                                   validated=panels[key].validated(topic))
        tables = exposure_table(nets[key], panels[key], cfgs, topic,
                                analyzer=analyzer)
        for col, (_, records) in zip(cols, tables):
            for name in EXPOSURE_FIELDS:
                col[name][key] = records[name]
            col["treated"][key] = panels[key].treated[topic]
    return [fit_frame(build_frame(panels, topic, col), topic) for col in cols]


def _small_regressor_model(seed=0, n_villages=20, n=60, intercept=-1.0,
                           spread=0.3):
    """Fitted model on two small regressors and per-village shifts. Without
    large covariates the intercept's gradient, the sum of the village
    gradients, often dominates the gradient max-norm."""
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(n_villages), n)
    xi = rng.poisson(0.8, len(codes)).astype(float)
    k1 = (rng.random(len(codes)) < 0.3).astype(float)
    shift = rng.normal(0.0, spread, n_villages)
    y = (rng.random(len(codes))
         < expit(intercept + 0.8 * k1 + 0.5 * xi + shift[codes])).astype(float)
    villages = tuple(f"v{i:02d}" for i in range(n_villages))
    dummies = (codes[:, None] == np.arange(1, n_villages)).astype(float)
    frame = RegressionFrame(
        y=y, X=np.column_stack([np.ones(len(codes)), k1, xi, dummies]),
        columns=(("intercept", "k_w1", "xi_layer")
                 + tuple(f"village:{v}" for v in villages[1:])),
        villages=villages, village_code=codes,
        rows=tuple((villages[c], i) for i, c in enumerate(codes)),
        n_dropped=0)
    return fit_frame(frame, "t")


def _to_dummy_parameters(n_core, n_groups):
    """Linear map from (core, one effect per group) to the dummy design's
    (intercept, core, one contrast per later group)."""
    T = np.zeros((n_core + n_groups, n_core + n_groups))
    T[0, n_core] = 1.0
    T[1:1 + n_core, :n_core] = np.eye(n_core)
    T[1 + n_core:, n_core + 1:] = np.eye(n_groups - 1)
    T[1 + n_core:, n_core] = -1.0
    return T


def test_absorbed_groups_match_dummy_design(monkeypatch):
    # the stopping rule reads the dummy design's gradient, so the absorbed
    # fit stops at the same iteration for any tolerance, also where the
    # intercept's gradient is the largest component
    frame = _small_regressor_model().frame
    X, y, codes = frame.X[:, 1:3], frame.y, frame.village_code
    case_weights = np.random.default_rng(7).integers(1, 4, len(y)).astype(float)
    names = ("k_w1", "xi_layer") + tuple(f"village:{v}" for v in frame.villages)
    T = _to_dummy_parameters(2, len(frame.villages))
    for grad_tol, weights in itertools.product(
            (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8), (None, case_weights)):
        monkeypatch.setattr(contagion, "_GRAD_TOL", grad_tol)
        monkeypatch.setattr(contagion, "_LL_TOL", 1e-10 if grad_tol == 1e-8 else 1.0)
        dense = newton_logit(frame.X, y, weights=weights, columns=frame.columns)
        absorbed = newton_logit(X, y, weights=weights, groups=codes,
                                columns=names)
        assert absorbed[3] == dense[3]
        np.testing.assert_allclose(T @ absorbed[0], dense[0], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(T @ absorbed[1] @ T.T, dense[1], rtol=1e-8, atol=1e-12)
        assert absorbed[2] == pytest.approx(dense[2], rel=1e-12)


def test_absorbed_group_without_weight_is_collinear():
    frame = _small_regressor_model(n_villages=4, n=30).frame
    weights = (frame.village_code != 2).astype(float)
    names = ("k_w1", "xi_layer") + tuple(f"village:{v}" for v in frame.villages)
    with pytest.raises(CollinearityError, match="village:v02"):
        newton_logit(frame.X[:, 1:3], frame.y, weights=weights,
                     groups=frame.village_code, columns=names)
    with pytest.raises(ValueError):
        newton_logit(frame.X[:, 1:3], frame.y, groups=frame.village_code[::-1])


ORACLE_FIXTURES = {
    "village30": lambda tmp: (
        _scenario_models(tmp, SCENARIO, 1, "story", ("closest_friend",)), 1),
    "separation_heavy": lambda tmp: (_scenario_models(
        tmp, FAILURE_SCENARIO.replace("baseline_rate = 0.12",
                                      "baseline_rate = 0.05"),
        4, "rumor", ("parent", "free_time", "health_advice_get")), 4),
    "few_failures": lambda tmp: (_scenario_models(
        tmp, FAILURE_SCENARIO, 4, "rumor",
        ("sibling", "free_time", "lend_money")), 4),
}


@pytest.mark.parametrize("fixture", list(ORACLE_FIXTURES))
def test_bootstrap_matches_dense_refit_oracle(tmp_path, monkeypatch, fixture):
    # the absorbed-effect refits take the dense design's Newton iterates,
    # so each replicate stops after as many iterations, or fails with the
    # same error naming the same regressor, and lands where it does
    outcomes = []
    refit = contagion.newton_logit

    def recording_refit(*args, **kwargs):
        try:
            result = refit(*args, **kwargs)
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
            raise
        outcomes.append(("converged", result[3]))
        return result

    monkeypatch.setattr(contagion, "newton_logit", recording_refit)
    models, seed = ORACLE_FIXTURES[fixture](tmp_path)
    for model in models:
        for boot_seed in (seed, seed + 1):
            outcomes.clear()
            est = counterfactual_reduction(model, "layer", 2, seed=boot_seed)
            absorbed = list(outcomes)
            outcomes.clear()
            low, high, n_failed = oracles.reduction_by_dense_refit(
                model, seed=boot_seed)
            assert absorbed == outcomes
            assert est.n_failed == n_failed
            assert abs(est.ci_low - low) < 1e-12
            assert abs(est.ci_high - high) < 1e-12


# -- screening -------------------------------------------------------


def test_screen_detects_predictive_exposure():
    rng = np.random.default_rng(46)
    panels = {}
    expo = {}
    nk = {}
    for i in range(6):
        key = f"v{i}"
        n = 50
        x = rng.poisson(2.0, n).astype(float)
        alters = x + rng.poisson(4.0, n)
        k1 = (rng.random(n) < 0.15).astype(float)
        y = (rng.random(n) < expit(-1.5 + 1.0 * x + 0.8 * k1)).astype(float)
        panels[key] = quick_panel(n, village=key, k1=k1, k3=y, seed=50 + i)
        for k in (2, 3):
            expo.setdefault(("t", k), {})[key] = x
            nk.setdefault(k, {})[key] = alters.astype(float)
    result = contagion_screen(panels, expo, nk, ["t"], ks=(2, 3))
    assert len(result.rows) == 2
    assert result.passes("t")
    for row in result.rows:
        assert row.coefficient > 0
        assert row.p_value < 0.05
        assert row.n_obs == 300
    assert not result.passes("unknown")
