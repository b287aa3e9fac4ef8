"""Fixed-effects logistic estimation of knowledge adoption and
counterfactual layer-removal predictions.

The regression stacks all villages: logit P(y = 1) = b0 + b1 * early
knowledge + exposure terms + covariates + per-village intercept shifts
(first village in sort order is the reference). Fitting is Newton ascent
with step halving on the exact log-likelihood. The full-sample fit carries
the intercept and the village dummies as columns of the design.

The cluster bootstrap resamples villages with replacement, realized as
integer case weights on the rows of the villages drawn (a duplicated
cluster contributes multiplied log-likelihood terms, which is the same
maximum). Its refits absorb the village effects: one effect per drawn
village is kept outside the design, and newton_logit solves each step
through the Schur complement of the diagonal village block. That only
reparametrises the model. The stopping rule and the separation check read
the effects as an intercept (the lowest drawn village) plus contrasts, so
the estimates, predictions, reductions and failure rules are those of a
refit on the dummy design, up to rounding.
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
                 groups: np.ndarray | None = None,
                 max_iter: int = _MAX_ITER):
    """Maximum-likelihood logit via Newton steps with step halving.

    Returns (beta, covariance, loglik, iterations, grad_max). Converged
    means the log-likelihood moved less than 1e-10 over the last step and
    the gradient max-norm is below 1e-8; anything else raises.

    groups, if given, holds one nondecreasing integer code per row, and
    every distinct code gets its own intercept, absorbed instead of carried
    as a dummy column: X then holds only the other columns, and start,
    columns, beta and the covariance run over X's columns followed by one
    effect per group in code order. See _Design for how the stopping rule
    and the separation check read the group effects.
    """
    design = _Design(X, groups)
    k = design.k
    if columns is None:
        columns = tuple(f"x{j}" for j in range(k))
    beta = np.zeros(k) if start is None else np.array(start, dtype=float)

    def score_and_curvature(eta):
        mu = expit(eta)
        resid = y - mu
        wvar = mu * (1.0 - mu)
        if weights is not None:
            resid = resid * weights
            wvar = wvar * weights
        return design.score(resid), wvar

    eta = design.eta(beta)
    ll = _log_likelihood(eta, y, weights)
    grad, wvar = score_and_curvature(eta)
    for it in range(1, max_iter + 1):
        step = design.solve(design.factor(wvar, columns, weights), grad)
        t = 1.0
        new_beta = beta + step
        new_eta = design.eta(new_beta)
        new_ll = _log_likelihood(new_eta, y, weights)
        halvings = 0
        while not np.isfinite(new_ll) or new_ll < ll - 1e-12:
            t *= 0.5
            halvings += 1
            if halvings > 50:
                break
            new_beta = beta + t * step
            new_eta = design.eta(new_beta)
            new_ll = _log_likelihood(new_eta, y, weights)
        if halvings > 50:
            # no ascent direction left: either done or pathological
            if np.abs(design.contrast_score(grad)).max() < _GRAD_TOL:
                break
            _check_separation(design.contrasts(beta), design.contrast_names(columns))
            raise FitError("line search failed before convergence")
        improved = new_ll - ll
        beta, eta, ll = new_beta, new_eta, new_ll
        grad, wvar = score_and_curvature(eta)
        gmax = float(np.abs(design.contrast_score(grad)).max()) if k else 0.0
        if improved < _LL_TOL and gmax < _GRAD_TOL:
            cov = design.inverse(design.factor(wvar, columns, weights))
            return beta, cov, ll, it, gmax
        if improved < 1e-6:
            _check_separation(design.contrasts(beta), design.contrast_names(columns))
    raise FitError(f"no convergence in {max_iter} Newton iterations")


class _Design:
    """The linear predictor of newton_logit: X @ beta, plus one absorbed
    intercept per group when groups are given.

    With groups, the Hessian is [[A, B], [B', D]] over (X's columns, group
    effects), D diagonal, so a step solves the Schur complement
    S = A - B D^-1 B' on X's columns and back-substitutes the group part.
    The stopping rule and the separation check read the parameters as the
    equivalent dummy design would: an intercept (the first group's effect),
    X's coefficients, and one contrast per later group (its effect minus
    the first's), with the gradient in that parametrisation. Newton steps
    are affine-invariant, so the iterates are that design's too, up to
    roundoff, and the fit stops and fails where it would.
    """

    __slots__ = ("X", "p", "k", "starts", "member")

    def __init__(self, X: np.ndarray, groups: np.ndarray | None):
        self.X = X
        self.p = X.shape[1]
        self.starts = self.member = None
        if groups is None:
            self.k = self.p
            return
        groups = np.asarray(groups)
        step = np.diff(groups)
        if (step < 0).any():
            raise ValueError("group codes must be nondecreasing")
        new = np.concatenate([[True], step > 0])
        self.starts = np.flatnonzero(new)
        self.member = np.cumsum(new) - 1
        self.k = self.p + len(self.starts)

    def eta(self, beta: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return self.X @ beta
        return self.X @ beta[:self.p] + beta[self.p:][self.member]

    def score(self, resid: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return self.X.T @ resid
        return np.concatenate([self.X.T @ resid, np.add.reduceat(resid, self.starts)])

    def factor(self, wvar: np.ndarray, columns, weights):
        X = self.X
        Xw = X * wvar[:, None]
        try:
            if self.starts is None:
                return cho_factor(Xw.T @ X)
            d = np.add.reduceat(wvar, self.starts)
            if not (d > 0).all():
                raise np.linalg.LinAlgError("group without weight")
            B = np.add.reduceat(Xw, self.starts, axis=0).T
            Bd = B / d
            return cho_factor(Xw.T @ X - Bd @ B.T), Bd, d
        except np.linalg.LinAlgError:
            if self.starts is None:
                _raise_singular(X, columns, weights)
            dummies = (self.member[:, None] == np.arange(1, len(self.starts))).astype(float)
            _raise_singular(np.column_stack([np.ones(len(X)), X, dummies]),
                            self.contrast_names(columns), weights)

    def solve(self, factor, grad: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return cho_solve(factor, grad)
        schur, Bd, d = factor
        gb, ga = grad[:self.p], grad[self.p:]
        step_b = cho_solve(schur, gb - Bd @ ga)
        return np.concatenate([step_b, ga / d - Bd.T @ step_b])

    def inverse(self, factor) -> np.ndarray:
        if self.starts is None:
            return cho_solve(factor, np.eye(self.p))
        schur, Bd, d = factor
        p = self.p
        cov = np.empty((self.k, self.k))
        cov[:p, :p] = cho_solve(schur, np.eye(p))
        cov[:p, p:] = cross = -cov[:p, :p] @ Bd
        cov[p:, :p] = cross.T
        cov[p:, p:] = np.diag(1.0 / d) - Bd.T @ cross
        return cov

    def contrasts(self, beta: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return beta
        effect = beta[self.p:]
        return np.concatenate([effect[:1], beta[:self.p], effect[1:] - effect[0]])

    def contrast_score(self, grad: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return grad
        ga = grad[self.p:]
        return np.concatenate([[ga.sum()], grad[:self.p], ga[1:]])

    def contrast_names(self, columns: Sequence[str]) -> Sequence[str]:
        if self.starts is None:
            return columns
        return ("intercept", *columns[:self.p], *columns[self.p + 1:])


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


def _reduction_stat(eta: np.ndarray, eta0: np.ndarray,
                    row_weights: np.ndarray | None = None) -> float:
    diff = expit(eta) - expit(eta0)
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
    return _reduction_stat(frame.X @ model.beta, X0 @ model.beta)


def counterfactual_reduction(model: ContagionModel, layer: str, k: int, *,
                             xi_column: str = "xi_layer", n_boot: int = 1000,
                             level: float = 0.95, seed: int = 0,
                             threads: int = 1) -> ReductionEstimate:
    """Mean predicted-probability drop from zeroing one exposure column,
    with a village-cluster bootstrap percentile interval.

    Each replicate resamples villages with replacement (realized as case
    weights on the rows of the villages drawn), refits from a warm start
    with the village effects absorbed as groups, and recomputes the
    weighted mean drop; replicates that fail to fit are skipped and
    counted.
    """
    if level not in (0.95, 0.99):
        raise DataError("supported interval levels: 0.95, 0.99")
    if n_boot < 1000:
        raise DataError("cluster bootstrap needs at least 1000 replicates")
    frame = model.frame
    point = reduction_point(model, xi_column)
    nv = len(frame.villages)
    # the regressors besides the intercept and the village dummies, which
    # the refits leave to one absorbed effect per village
    nc = len(frame.columns) - nv
    j = frame.columns.index(xi_column) - 1
    if not 0 <= j < nc:
        raise DataError(f"{xi_column!r} is not a regressor of the model")
    order = np.argsort(frame.village_code, kind="stable")
    codes = frame.village_code[order]
    X = frame.X[order, 1:1 + nc]
    y = frame.y[order]
    sizes = np.bincount(codes, minlength=nv)
    present_ids = np.flatnonzero(sizes)
    names = frame.columns[1:1 + nc] + tuple(f"village:{v}" for v in frame.villages)
    # each village's effect in the full fit (village 0 is the reference)
    effect = model.beta[0] + np.concatenate([[0.0], model.beta[1 + nc:]])

    def one_rep(rep: int) -> float | None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        draw = rng.choice(present_ids, size=len(present_ids), replace=True)
        w_village = np.bincount(draw, minlength=nv).astype(float)
        drawn = np.flatnonzero(w_village)
        rows = w_village[codes] > 0
        yw = y[rows]
        if not ((yw == 0).any() and (yw == 1).any()):
            return None
        # warm start from the full fit, as a dummy-design refit with the
        # lowest drawn village as reference starts: that village takes the
        # bare intercept, every other drawn village its full-fit effect
        start = np.concatenate([model.beta[1:1 + nc], effect[drawn]])
        start[nc] = model.beta[0]
        Xr, w_row = X[rows], w_village[codes[rows]]
        try:
            beta_r, _, _, _, _ = newton_logit(
                Xr, yw, weights=w_row, start=start, groups=codes[rows],
                columns=names[:nc] + tuple(names[nc + v] for v in drawn))
        except (FitError, SeparationError, CollinearityError):
            return None
        eta = Xr @ beta_r[:nc] + np.repeat(beta_r[nc:], sizes[drawn])
        return _reduction_stat(eta, eta - Xr[:, j] * beta_r[j], row_weights=w_row)

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
