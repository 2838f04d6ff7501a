"""Bayesian optimization of (learning rate, embedding dim, hidden dim).

A squared-exponential Gaussian process is fit to the trial objectives
(validation cross-entropy after a short training budget), with its
hyperparameters picked by marginal likelihood over a small grid. The next
trial maximizes expected improvement over a seeded candidate pool; the
first three trials come from a scrambled Halton sequence.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import models
from ._files import write_table
from .models import ModelDims, TrainingExample, TrainingDiverged
from .tokens import Vocab

HISTORY_VERSION = "search-v2"

_GRID_LENGTHSCALES = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
_GRID_SIGNALS = (0.5, 1.0, 2.0)
_GRID_NOISES = (1e-6, 1e-4, 1e-2)
_N_INIT = 3  # trials placed by the Halton sequence before the GP places any
_POOL_SIZE = 512  # seeded candidate points per GP trial, scored by expected improvement


@dataclass(frozen=True)
class TrialConfig:
    learning_rate: float
    d_e: int
    d_h: int


@dataclass(frozen=True)
class SearchSpace:
    """Log-uniform learning rate, integer embedding and hidden dims."""

    learning_rate: tuple[float, float] = (1e-5, 1e-2)
    d_e: tuple[int, int] = (8, 64)
    d_h: tuple[int, int] = (8, 64)

    def __post_init__(self):
        if not (0 < self.learning_rate[0] < self.learning_rate[1]):
            raise ValueError("learning rate bounds must be ordered and positive")
        for lo, hi in (self.d_e, self.d_h):
            if not (1 <= lo <= hi):
                raise ValueError("integer dimension bounds must be ordered and >= 1")

    @property
    def dim(self) -> int:
        return 3

    def config_at(self, u: np.ndarray) -> TrialConfig:
        """Materialize a config from a point in the unit cube."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        lo, hi = self.learning_rate
        lr = float(np.exp(np.log(lo) + u[0] * (np.log(hi) - np.log(lo))))
        d_e = int(round(self.d_e[0] + u[1] * (self.d_e[1] - self.d_e[0])))
        d_h = int(round(self.d_h[0] + u[2] * (self.d_h[1] - self.d_h[0])))
        return TrialConfig(learning_rate=lr, d_e=d_e, d_h=d_h)


# ---------------------------------------------------------------------------
# Gaussian process


def _chol_with_jitter(K: np.ndarray) -> np.ndarray:
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(K + jitter * np.eye(K.shape[0]))
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = 1e-8
            elif jitter >= 1e-4:
                raise
            else:
                jitter *= 10.0


class GaussianProcess:
    """Squared-exponential GP with observation noise, exact inference."""

    def __init__(self, lengthscale: float, signal: float, noise: float):
        self.lengthscale = float(lengthscale)
        self.signal = float(signal)
        self.noise = float(noise)
        self.y_mean = 0.0
        self.y_scale = 1.0
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
        return self.signal**2 * np.exp(-0.5 * d2 / self.lengthscale**2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0] or X.shape[0] < 1:
            raise ValueError("need one objective per point")
        z = (y - self.y_mean) / self.y_scale
        K = self._kernel(X, X) + self.noise**2 * np.eye(X.shape[0])
        L = _chol_with_jitter(K)
        self._X = X
        self._chol = L
        self._alpha = np.linalg.solve(L.T, np.linalg.solve(L, z))
        self._z = z
        return self

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and (noise-free) variance at the query points."""
        if self._X is None:
            raise ValueError("fit before predict")
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = self._kernel(Xs, self._X)
        mean = Ks @ self._alpha
        v = np.linalg.solve(self._chol, Ks.T)
        var = self.signal**2 - np.sum(v * v, axis=0)
        var = np.maximum(var, 0.0)
        return mean * self.y_scale + self.y_mean, var * self.y_scale**2

    def log_marginal_likelihood(self) -> float:
        n = self._X.shape[0]
        return float(
            -0.5 * self._z @ self._alpha
            - np.sum(np.log(np.diag(self._chol)))
            - 0.5 * n * math.log(2.0 * math.pi)
        )


def gp_fit(X: np.ndarray, y: np.ndarray) -> GaussianProcess:
    """Fit with hyperparameters chosen by marginal likelihood over a grid.

    Objectives are standardized internally; predictions come back in the
    original units.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size < 1:
        raise ValueError("need at least one observation")
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y))
    if y_scale == 0.0:
        y_scale = 1.0
    best: GaussianProcess | None = None
    best_ll = -np.inf
    for ls in _GRID_LENGTHSCALES:
        for sig in _GRID_SIGNALS:
            for noise in _GRID_NOISES:
                gp = GaussianProcess(ls, sig, noise)
                gp.y_mean = y_mean
                gp.y_scale = y_scale
                gp.fit(X, y)
                ll = gp.log_marginal_likelihood()
                if ll > best_ll:
                    best, best_ll = gp, ll
    return best


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


_erf = np.vectorize(math.erf)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))


def expected_improvement(gp: GaussianProcess, pool: np.ndarray, best: float) -> np.ndarray:
    """Closed-form EI for minimization at each point of a [P, dim] pool;
    zero where sigma = 0 and mean >= best."""
    mean, var = gp.predict(pool)
    sigma = np.sqrt(var)
    improve = best - mean
    ei = np.where(sigma > 1e-12, 0.0, np.maximum(improve, 0.0))
    ok = sigma > 1e-12
    if np.any(ok):
        z = improve[ok] / sigma[ok]
        ei_ok = improve[ok] * _norm_cdf(z) + sigma[ok] * _norm_pdf(z)
        ei = ei.copy()
        ei[ok] = np.maximum(ei_ok, 0.0)
    return ei


def halton(n: int, dim: int, seed: int) -> np.ndarray:
    """First n points of a Halton sequence, rotated by a seeded offset."""
    primes = (2, 3, 5, 7, 11, 13)[:dim]
    rot = np.random.default_rng(seed).random(dim)
    pts = np.empty((n, dim))
    for j, base in enumerate(primes):
        for i in range(n):
            f, r, idx = 1.0, 0.0, i + 1
            while idx > 0:
                f /= base
                r += f * (idx % base)
                idx //= base
            pts[i, j] = r
    return (pts + rot) % 1.0


@dataclass
class MinimizeResult:
    best_x: np.ndarray
    best_y: float
    xs: np.ndarray
    ys: np.ndarray


def minimize(fn: Callable[[np.ndarray], float], dim: int, budget: int, seed: int) -> MinimizeResult:
    """GP-EI minimization over the unit cube.

    Evaluations returning NaN are recorded but excluded from conditioning
    and from the incumbent; if every trial fails the search errors out.
    """
    if budget < _N_INIT:
        raise ValueError(f"budget must be at least {_N_INIT}")
    xs = np.empty((budget, dim))
    ys = np.empty(budget)
    init = halton(_N_INIT, dim, seed)
    for t in range(budget):
        if t < _N_INIT:
            x = init[t]
        else:
            ok = np.isfinite(ys[:t])
            if not np.any(ok):
                x = np.random.default_rng((seed, t)).random(dim)
            else:
                gp = gp_fit(xs[:t][ok], ys[:t][ok])
                best = float(np.min(ys[:t][ok]))
                pool = np.random.default_rng((seed, t)).random((_POOL_SIZE, dim))
                ei = expected_improvement(gp, pool, best)
                x = pool[int(np.argmax(ei))]
        xs[t] = x
        ys[t] = fn(x)
    ok = np.isfinite(ys)
    if not np.any(ok):
        raise RuntimeError("all trials failed")
    best_idx = int(np.flatnonzero(ok)[np.argmin(ys[ok])])
    return MinimizeResult(best_x=xs[best_idx].copy(), best_y=float(ys[best_idx]), xs=xs, ys=ys)


# ---------------------------------------------------------------------------
# model search


@dataclass(frozen=True)
class TrainValData:
    vocab: Vocab
    train: tuple[TrainingExample, ...]
    validation: tuple[TrainingExample, ...]


@dataclass
class Trial:
    index: int
    config: TrialConfig
    objective: float
    status: str
    wall_time: float


@dataclass
class SearchResult:
    best: Trial
    trials: list[Trial]
    space: SearchSpace
    seed: int


def search(
    space: SearchSpace,
    model_kind: str,
    data: TrainValData,
    budget_trials: int,
    seed: int,
    trial_epochs: int = 10,
) -> SearchResult:
    """Sequential GP-EI search; each trial trains for a short fixed budget
    and is scored by mean per-step validation cross-entropy."""
    if model_kind not in models.KINDS:
        raise ValueError(f"unknown model kind: {model_kind!r}")
    cls = models.KINDS[model_kind]
    trials: list[Trial] = []

    def objective(u: np.ndarray) -> float:
        config = space.config_at(u)
        dims = ModelDims(d_e=config.d_e, d_h=config.d_h)
        model = cls.init(data.vocab, dims, seed=derive_trial_seed(seed, len(trials)))
        started = time.perf_counter()
        try:
            models.train(model, data.train, lr=config.learning_rate, epochs=trial_epochs,
                         seed=derive_trial_seed(seed, len(trials)))
            value = models.mean_loss(model, data.validation)
            status = "ok"
        except (TrainingDiverged, FloatingPointError):
            value = float("nan")
            status = "failed"
        trials.append(Trial(len(trials), config, value, status, time.perf_counter() - started))
        return value

    minimize(objective, dim=space.dim, budget=budget_trials, seed=seed)
    best_trial = min(
        (t for t in trials if np.isfinite(t.objective)), key=lambda t: t.objective
    )
    return SearchResult(best=best_trial, trials=trials, space=space, seed=seed)


def derive_trial_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index) % (2**63)


def write_history(path: str | Path, result: SearchResult) -> None:
    """One row per trial; the incumbent is flagged. Search ranges are
    recorded on line 1 so every history file is self-describing."""
    sp = result.space
    rows = [f"{t.index}\t{t.config.learning_rate!r}\t{t.config.d_e}\t{t.config.d_h}\t{t.objective!r}"
            f"\t{t.status}\t{t.wall_time:.3f}\t{'*' if t.index == result.best.index else ''}" for t in result.trials]
    fields = {"seed": result.seed, "lr_range": f"{sp.learning_rate[0]!r},{sp.learning_rate[1]!r}",
              "d_e_range": f"{sp.d_e[0]},{sp.d_e[1]}", "d_h_range": f"{sp.d_h[0]},{sp.d_h[1]}", "rows": len(rows)}
    write_table(path, HISTORY_VERSION, fields, rows)
