"""Stacked logistic estimation, bootstrap intervals, and identities."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import oracles
from torquenet import (CollinearityError, ContagionModel, DataError,
                       PredictionError, ReductionEstimate, SeparationError,
                       build_frame, check_collinearity, contagion_screen,
                       counterfactual_reduction, fit, fit_frame,
                       newton_logit, reduction_point)
from torquenet.contagion import _log_likelihood

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
