"""Fixed-effects logistic estimation of knowledge adoption and
counterfactual layer-removal predictions.

The regression stacks all villages: logit P(y = 1) = b0 + b1 * early
knowledge + exposure terms + covariates + per-village intercept shifts
(first village in sort order is the reference). Fitting is Newton ascent
with step halving on the exact log-likelihood; case weights support the
cluster bootstrap, where resampling villages with replacement is realized
as integer village weights (duplicated clusters contribute multiplied
log-likelihood terms, which is the same maximum).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr
from scipy.special import expit, ndtr

from .errors import (CollinearityError, DataError, FitError, PredictionError,
                     SeparationError)
from .panel import COVARIATE_NAMES, VillagePanel
from .pathways import EXPOSURE_FIELDS

_LL_TOL = 1e-10
_GRAD_TOL = 1e-8
_SEPARATION_BOUND = 30.0
_MAX_ITER = 80


@dataclass(frozen=True)
class RegressionFrame:
    """Design matrix and outcome for one topic across villages.

    Rows are ordered by village key, then node id; rows with a missing
    outcome, early-knowledge flag, or covariate are dropped (listwise)
    and counted in n_dropped.
    """

    y: np.ndarray
    X: np.ndarray
    columns: tuple[str, ...]
    villages: tuple[str, ...]
    village_code: np.ndarray
    rows: tuple[tuple[str, int], ...]
    n_dropped: int

    @property
    def n(self) -> int:
        return len(self.y)


def build_frame(panels: Mapping[str, VillagePanel], topic: str,
                exposure_columns: Mapping[str, Mapping[str, np.ndarray]],
                village_universe: Sequence[str] | None = None) -> RegressionFrame:
    """Assemble the stacked design for one topic.

    exposure_columns maps column name -> {village -> per-node array}.
    village_universe pins the fixed-effect layout (prediction on new rows
    against a fitted layout); by default it is the sorted panel key set.
    """
    if len(panels) < 2 and village_universe is None:
        raise DataError("need at least two villages to fit village fixed effects")
    keys = sorted(panels)
    if village_universe is None:
        universe = tuple(keys)
    else:
        universe = tuple(village_universe)
        unseen = [k for k in keys if k not in universe]
        if unseen:
            raise PredictionError(f"villages not present at fit time: {unseen}")
    uindex = {v: i for i, v in enumerate(universe)}
    exposure_names = tuple(exposure_columns)
    columns = (("intercept", "k_w1") + exposure_names + COVARIATE_NAMES
               + tuple(f"village:{v}" for v in universe[1:]))
    blocks = []
    ys = []
    codes = []
    rows = []
    dropped = 0
    for key in keys:
        panel = panels[key]
        panel.check_topic(topic)
        n = panel.n
        y = np.asarray(panel.k_w3[topic], dtype=float)
        k1 = np.asarray(panel.k_w1[topic], dtype=float)
        cov = panel.covariate_matrix()
        expo = np.column_stack([
            np.asarray(exposure_columns[name][key], dtype=float)
            for name in exposure_names
        ]) if exposure_names else np.empty((n, 0))
        keep = (np.isfinite(y) & np.isfinite(k1)
                & np.isfinite(cov).all(axis=1) & np.isfinite(expo).all(axis=1))
        dropped += int(n - keep.sum())
        if not keep.any():
            continue
        idx = np.flatnonzero(keep)
        m = len(idx)
        fe = np.zeros((m, len(universe) - 1))
        vcode = uindex[key]
        if vcode > 0:
            fe[:, vcode - 1] = 1.0
        block = np.column_stack([
            np.ones(m), k1[idx], expo[idx], cov[idx], fe,
        ])
        blocks.append(block)
        ys.append(y[idx])
        codes.append(np.full(m, vcode, dtype=np.int64))
        rows.extend((key, int(i)) for i in idx)
    if not blocks:
        raise DataError("no usable rows after listwise deletion")
    return RegressionFrame(
        y=np.concatenate(ys),
        X=np.vstack(blocks),
        columns=columns,
        villages=universe,
        village_code=np.concatenate(codes),
        rows=tuple(rows),
        n_dropped=dropped,
    )


def _log_likelihood(eta: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> float:
    # y*eta - log(1 + exp(eta)), summed with case weights
    terms = y * eta - np.logaddexp(0.0, eta)
    if w is not None:
        terms = terms * w
    return float(terms.sum())


def check_collinearity(X: np.ndarray, columns: Sequence[str]) -> None:
    """Raise naming the dependent columns when the design is rank-deficient."""
    if X.shape[0] < X.shape[1]:
        raise CollinearityError(columns)
    r = qr(X, mode="r", pivoting=True)
    rmat, piv = r[0], r[1]
    diag = np.abs(np.diag(rmat))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > scale * max(X.shape) * np.finfo(float).eps))
    if rank < X.shape[1]:
        bad = sorted(columns[j] for j in piv[rank:])
        raise CollinearityError(bad)


def newton_logit(X: np.ndarray, y: np.ndarray, *, weights: np.ndarray | None = None,
                 start: np.ndarray | None = None,
                 columns: Sequence[str] | None = None,
                 max_iter: int = _MAX_ITER):
    """Maximum-likelihood logit via Newton steps with step halving.

    Returns (beta, covariance, loglik, iterations, grad_max). Converged
    means the log-likelihood moved less than 1e-10 over the last step and
    the gradient max-norm is below 1e-8; anything else raises.
    """
    n, p = X.shape
    if columns is None:
        columns = tuple(f"x{j}" for j in range(p))
    beta = np.zeros(p) if start is None else np.array(start, dtype=float)
    eta = X @ beta
    ll = _log_likelihood(eta, y, weights)
    last_factor = None
    for it in range(1, max_iter + 1):
        mu = expit(eta)
        resid = y - mu
        if weights is not None:
            resid = resid * weights
        grad = X.T @ resid
        wvar = mu * (1.0 - mu)
        if weights is not None:
            wvar = wvar * weights
        hess = (X * wvar[:, None]).T @ X
        try:
            factor = cho_factor(hess)
        except np.linalg.LinAlgError:
            _raise_singular(X, columns, weights)
        last_factor = factor
        step = cho_solve(factor, grad)
        t = 1.0
        new_beta = beta + step
        new_eta = X @ new_beta
        new_ll = _log_likelihood(new_eta, y, weights)
        halvings = 0
        while not np.isfinite(new_ll) or new_ll < ll - 1e-12:
            t *= 0.5
            halvings += 1
            if halvings > 50:
                break
            new_beta = beta + t * step
            new_eta = X @ new_beta
            new_ll = _log_likelihood(new_eta, y, weights)
        if halvings > 50:
            # no ascent direction left: either done or pathological
            if np.abs(grad).max() < _GRAD_TOL:
                break
            _check_separation(beta, columns)
            raise FitError("line search failed before convergence")
        improved = new_ll - ll
        beta, eta, ll = new_beta, new_eta, new_ll
        mu = expit(eta)
        resid = y - mu
        if weights is not None:
            resid = resid * weights
        grad = X.T @ resid
        gmax = float(np.abs(grad).max()) if p else 0.0
        if improved < _LL_TOL and gmax < _GRAD_TOL:
            wvar = mu * (1.0 - mu)
            if weights is not None:
                wvar = wvar * weights
            hess = (X * wvar[:, None]).T @ X
            try:
                factor = cho_factor(hess)
            except np.linalg.LinAlgError:
                _raise_singular(X, columns, weights)
            cov = cho_solve(factor, np.eye(p))
            return beta, cov, ll, it, gmax
        if improved < 1e-6:
            _check_separation(beta, columns)
    raise FitError(f"no convergence in {max_iter} Newton iterations")


def _check_separation(beta: np.ndarray, columns: Sequence[str]) -> None:
    worst = int(np.abs(beta).argmax()) if len(beta) else 0
    if len(beta) and abs(beta[worst]) > _SEPARATION_BOUND:
        raise SeparationError(columns[worst])


def _raise_singular(X, columns, weights):
    if weights is not None:
        mask = weights > 0
        X = X[mask]
    check_collinearity(X, columns)
    raise CollinearityError(columns)


@dataclass(frozen=True)
class ContagionModel:
    """Fitted adoption model for one topic and exposure configuration."""

    topic: str
    columns: tuple[str, ...]
    beta: np.ndarray
    cov: np.ndarray
    loglik: float
    null_loglik: float
    iterations: int
    grad_max: float
    frame: RegressionFrame

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def coef(self, name: str) -> float:
        return float(self.beta[self.columns.index(name)])

    def wald(self, name: str) -> tuple[float, float]:
        """(z statistic, two-sided p-value) for one coefficient."""
        j = self.columns.index(name)
        z = float(self.beta[j] / np.sqrt(self.cov[j, j]))
        return z, float(2.0 * ndtr(-abs(z)))

    def predict_frame(self, frame: RegressionFrame) -> np.ndarray:
        if frame.columns != self.columns:
            raise PredictionError("frame columns do not match the fitted model")
        return expit(frame.X @ self.beta)

    def predict(self) -> np.ndarray:
        """In-sample predicted probabilities."""
        return expit(self.frame.X @ self.beta)


def fit_frame(frame: RegressionFrame, topic: str) -> ContagionModel:
    """Fit the adoption model on a prepared frame."""
    y = frame.y
    if not ((y == 0).any() and (y == 1).any()):
        raise DataError("outcome has a single class; nothing to fit")
    check_collinearity(frame.X, frame.columns)
    beta, cov, ll, it, gmax = newton_logit(frame.X, y, columns=frame.columns)
    pbar = float(y.mean())
    null_ll = float(len(y) * (pbar * np.log(pbar) + (1 - pbar) * np.log1p(-pbar)))
    return ContagionModel(
        topic=topic, columns=frame.columns, beta=beta, cov=cov,
        loglik=ll, null_loglik=null_ll, iterations=it, grad_max=gmax,
        frame=frame,
    )


def fit(panels: Mapping[str, VillagePanel], exposures: Mapping[str, np.recarray],
        topic: str) -> ContagionModel:
    """Fit the layer-split adoption model from per-village exposure_table
    recarrays."""
    cols = {name: {v: rec[name] for v, rec in exposures.items()}
            for name in EXPOSURE_FIELDS}
    return fit_frame(build_frame(panels, topic, cols), topic)


@dataclass(frozen=True)
class ReductionEstimate:
    """Counterfactual drop in mean predicted adoption when one layer's
    critical exposure is zeroed."""

    layer: str
    k: int
    reduction: float
    ci_low: float
    ci_high: float
    level: float
    n_individuals: int
    n_boot: int
    n_failed: int


def _reduction_stat(X: np.ndarray, X0: np.ndarray, beta: np.ndarray,
                    active: np.ndarray | None = None,
                    row_weights: np.ndarray | None = None) -> float:
    if active is not None:
        X = X[:, active]
        X0 = X0[:, active]
    diff = expit(X @ beta) - expit(X0 @ beta)
    if row_weights is None:
        return float(diff.mean())
    total = row_weights.sum()
    return float((diff * row_weights).sum() / total)


def reduction_point(model: ContagionModel, xi_column: str = "xi_layer") -> float:
    """Mean predicted-probability drop from zeroing one exposure column."""
    frame = model.frame
    j = frame.columns.index(xi_column)
    X0 = frame.X.copy()
    X0[:, j] = 0.0
    return _reduction_stat(frame.X, X0, model.beta)


def counterfactual_reduction(model: ContagionModel, layer: str, k: int, *,
                             xi_column: str = "xi_layer", n_boot: int = 1000,
                             level: float = 0.95, seed: int = 0,
                             threads: int = 1) -> ReductionEstimate:
    """Mean predicted-probability drop from zeroing one exposure column,
    with a village-cluster bootstrap percentile interval.

    Each replicate resamples villages with replacement (realized as case
    weights), refits from a warm start, and recomputes the weighted mean
    drop; replicates that fail to fit are skipped and counted.
    """
    if level not in (0.95, 0.99):
        raise DataError("supported interval levels: 0.95, 0.99")
    if n_boot < 1000:
        raise DataError("cluster bootstrap needs at least 1000 replicates")
    frame = model.frame
    j = frame.columns.index(xi_column)
    X = frame.X
    X0 = X.copy()
    X0[:, j] = 0.0
    point = _reduction_stat(X, X0, model.beta)
    nv = len(frame.villages)
    # fixed-effect column index per village (reference has none)
    fe_col = {v: frame.columns.index(f"village:{frame.villages[v]}")
              for v in range(1, nv)}
    present = np.bincount(frame.village_code, minlength=nv) > 0
    codes = frame.village_code
    y = frame.y
    present_ids = np.flatnonzero(present)

    def one_rep(rep: int) -> float | None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        draw = rng.choice(present_ids, size=len(present_ids), replace=True)
        w_village = np.bincount(draw, minlength=nv).astype(float)
        w_row = w_village[codes]
        active = np.ones(len(frame.columns), dtype=bool)
        for v, col in fe_col.items():
            if w_village[v] == 0:
                active[col] = False
        if w_village[0] == 0:
            # reference village absent: the surviving dummies sum to one on
            # every weighted row, so re-base on the lowest drawn village
            new_ref = int(np.flatnonzero(w_village)[0])
            active[fe_col[new_ref]] = False
        yw = y[w_row > 0]
        if not ((yw == 0).any() and (yw == 1).any()):
            return None
        try:
            beta_r, _, _, _, _ = newton_logit(
                X[:, active], y, weights=w_row, start=model.beta[active],
                columns=tuple(np.array(frame.columns)[active]))
        except (FitError, SeparationError, CollinearityError):
            return None
        return _reduction_stat(X, X0, beta_r, active=active, row_weights=w_row)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_rep, range(n_boot)))
    else:
        results = [one_rep(rep) for rep in range(n_boot)]
    stats = np.array([r for r in results if r is not None])
    n_failed = n_boot - len(stats)
    if len(stats) == 0:
        raise FitError("every bootstrap replicate failed")
    tail = 100.0 * (1.0 - level) / 2.0
    ci_low, ci_high = np.percentile(stats, [tail, 100.0 - tail])
    return ReductionEstimate(
        layer=layer, k=k, reduction=point,
        ci_low=float(ci_low), ci_high=float(ci_high), level=level,
        n_individuals=frame.n, n_boot=n_boot, n_failed=n_failed,
    )


@dataclass(frozen=True)
class ScreenRow:
    """Wald test of the pooled exposure coefficient at one (topic, k)."""

    topic: str
    k: int
    coefficient: float
    std_error: float
    z: float
    p_value: float
    n_obs: int


@dataclass(frozen=True)
class ScreenResult:
    rows: tuple[ScreenRow, ...]
    alpha: float

    def passes(self, topic: str) -> bool:
        """Significant exposure at every tested k for the topic."""
        mine = [r for r in self.rows if r.topic == topic]
        return bool(mine) and all(r.p_value < self.alpha for r in mine)


def contagion_screen(panels: Mapping[str, VillagePanel],
                     exposure_by_topic_k: Mapping[tuple[str, int], Mapping[str, np.ndarray]],
                     n_by_k: Mapping[int, Mapping[str, np.ndarray]],
                     topics: Sequence[str], ks: Sequence[int] = (2, 3, 4),
                     alpha: float = 0.05) -> ScreenResult:
    """Per-topic significance screen of total k-degree intervened exposure.

    exposure_by_topic_k[(topic, k)][village] is the per-node count of
    intervened k-degree alters (no layer split); n_by_k[k][village] is the
    per-node k-degree alter count. One model per (topic, k); a topic
    passes when the exposure coefficient is significant at every k.
    """
    rows = []
    for topic in topics:
        for k in ks:
            cols = {
                "exposure": dict(exposure_by_topic_k[(topic, k)]),
                "k_alters": dict(n_by_k[k]),
            }
            frame = build_frame(panels, topic, cols)
            model = fit_frame(frame, topic)
            z, p = model.wald("exposure")
            rows.append(ScreenRow(
                topic=topic, k=int(k), coefficient=model.coef("exposure"),
                std_error=float(model.se[model.columns.index("exposure")]),
                z=z, p_value=p, n_obs=frame.n,
            ))
    return ScreenResult(rows=tuple(rows), alpha=alpha)
