import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellseq.hypersearch import (
    GaussianProcess,
    SearchSpace,
    TrainValData,
    expected_improvement,
    gp_fit,
    halton,
    minimize,
    search,
    write_history,
)
from cellseq.models import make_example
from cellseq.tokens import END, START, Vocab

from report_tables import read_history


# ---------------------------------------------------------------------------
# Gaussian process


def test_gp_interpolates_observations():
    gp = GaussianProcess(lengthscale=0.3, signal=1.0, noise=1e-8)
    X = np.array([[0.1], [0.5], [0.9]])
    y = np.array([1.0, -0.5, 2.0])
    gp.fit(X, y)
    mean, var = gp.predict(X)
    np.testing.assert_allclose(mean, y, atol=1e-6)
    assert np.all(var >= 0)
    assert np.all(var <= gp.noise**2 + 1e-6)


def test_gp_reverts_to_prior_far_away():
    gp = GaussianProcess(lengthscale=0.1, signal=1.0, noise=1e-6)
    gp.fit(np.array([[0.5]]), np.array([3.0]))
    gp.y_mean = 0.0
    mean, var = gp.predict(np.array([[50.0]]))
    assert mean[0] == pytest.approx(0.0, abs=1e-9)  # prior mean
    assert var[0] == pytest.approx(gp.signal**2, abs=1e-9)


def test_gp_three_point_hand_solve_oracle():
    ls, sig, noise = 0.4, 1.3, 0.05
    X = np.array([[0.0], [0.3], [1.0]])
    y = np.array([0.2, -0.7, 1.1])
    gp = GaussianProcess(ls, sig, noise).fit(X, y)
    xs = np.array([[0.6]])
    mean, var = gp.predict(xs)

    def k(a, b):
        return sig**2 * np.exp(-0.5 * (a - b) ** 2 / ls**2)

    K = np.array([[k(a[0], b[0]) for b in X] for a in X]) + noise**2 * np.eye(3)
    ks = np.array([k(xs[0, 0], b[0]) for b in X])
    expect_mean = ks @ np.linalg.solve(K, y)
    expect_var = sig**2 - ks @ np.linalg.solve(K, ks)
    assert mean[0] == pytest.approx(expect_mean, abs=1e-10)
    assert var[0] == pytest.approx(expect_var, abs=1e-10)


def test_gp_fit_standardizes_and_selects():
    rng = np.random.default_rng(0)
    X = rng.random((12, 2))
    y = 100.0 + 5.0 * np.sin(6 * X[:, 0]) + 0.01 * rng.normal(size=12)
    gp = gp_fit(X, y)
    mean, _ = gp.predict(X)
    assert float(np.mean(np.abs(mean - y))) < 1.0  # fits in original units


def test_gp_handles_duplicate_points_with_jitter():
    X = np.array([[0.5], [0.5], [0.5]])
    y = np.array([1.0, 1.0, 1.0])
    gp = GaussianProcess(lengthscale=0.5, signal=1.0, noise=0.0).fit(X, y)
    mean, _ = gp.predict(np.array([[0.5]]))
    assert mean[0] == pytest.approx(1.0, abs=1e-3)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_gp_posterior_variance_nonnegative(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((6, 3))
    y = rng.normal(size=6)
    gp = gp_fit(X, y)
    _, var = gp.predict(rng.random((40, 3)))
    assert np.all(var >= 0.0)


# ---------------------------------------------------------------------------
# expected improvement


def test_ei_zero_at_noiseless_best():
    gp = GaussianProcess(lengthscale=0.3, signal=1.0, noise=1e-9)
    gp.fit(np.array([[0.4]]), np.array([0.7]))
    (ei,) = expected_improvement(gp, np.array([[0.4]]), best=0.7)
    assert ei == pytest.approx(0.0, abs=1e-6)


def test_ei_at_mu_equals_best_with_unit_sigma():
    gp = GaussianProcess(lengthscale=1.0, signal=1.0, noise=1e-9)
    gp.fit(np.array([[0.0]]), np.array([0.0]))
    gp.y_mean = 0.0
    # far from data: mean -> 0 (prior), sigma -> signal = 1
    (ei,) = expected_improvement(gp, np.array([[1000.0]]), best=0.0)
    assert ei == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_ei_nonnegative_on_random_grid(seed):
    rng = np.random.default_rng(seed)
    gp = gp_fit(rng.random((8, 2)), rng.normal(size=8))
    ei = expected_improvement(gp, rng.random((64, 2)), best=float(rng.normal()))
    assert np.all(ei >= 0.0)


def test_ei_of_incumbent_never_increases_after_conditioning():
    rng = np.random.default_rng(3)
    X = rng.random((5, 1))
    y = (X[:, 0] - 0.4) ** 2
    best_idx = int(np.argmin(y))
    x_best = X[best_idx : best_idx + 1]  # a pool of one point
    best = float(y[best_idx])
    gp_before = GaussianProcess(0.3, 1.0, 1e-4).fit(X, y)
    (ei_before,) = expected_improvement(gp_before, x_best, best)
    X2 = np.vstack([X, x_best])
    y2 = np.append(y, best)
    gp_after = GaussianProcess(0.3, 1.0, 1e-4).fit(X2, y2)
    (ei_after,) = expected_improvement(gp_after, x_best, best)
    assert ei_after <= ei_before + 1e-12


# ---------------------------------------------------------------------------
# minimize


def test_minimize_budget_three_is_pure_quasirandom():
    calls = []

    def fn(x):
        calls.append(x.copy())
        return float(x[0])

    res = minimize(fn, dim=1, budget=3, seed=0)
    np.testing.assert_allclose(np.array(calls), halton(3, 1, 0))
    assert res.best_y == min(float(c[0]) for c in calls)


def test_minimize_deterministic():
    fn = lambda x: float((x[0] - 0.3) ** 2)
    a = minimize(fn, dim=1, budget=10, seed=4)
    b = minimize(fn, dim=1, budget=10, seed=4)
    np.testing.assert_array_equal(a.xs, b.xs)
    assert a.best_y == b.best_y


def test_minimize_stays_in_unit_cube():
    res = minimize(lambda x: float(np.sum(x**2)), dim=3, budget=15, seed=1)
    assert np.all(res.xs >= 0.0) and np.all(res.xs <= 1.0)


def test_minimize_rejects_tiny_budget():
    with pytest.raises(ValueError):
        minimize(lambda x: 0.0, dim=1, budget=2, seed=0)


def test_minimize_all_failures_error():
    with pytest.raises(RuntimeError, match="all trials failed"):
        minimize(lambda x: float("nan"), dim=1, budget=4, seed=0)


def test_minimize_skips_failed_trials():
    def fn(x):
        return float("nan") if x[0] < 0.5 else float(x[0])

    res = minimize(fn, dim=1, budget=12, seed=2)
    assert np.isfinite(res.best_y)
    assert res.best_y >= 0.5


# ---------------------------------------------------------------------------
# search space and model search


def test_space_materializes_bounds_and_rounds():
    space = SearchSpace(learning_rate=(1e-5, 1e-2), d_e=(8, 64), d_h=(8, 64))
    lo = space.config_at(np.zeros(3))
    hi = space.config_at(np.ones(3))
    assert lo.learning_rate == pytest.approx(1e-5)
    assert hi.learning_rate == pytest.approx(1e-2)
    assert (lo.d_e, lo.d_h) == (8, 8)
    assert (hi.d_e, hi.d_h) == (64, 64)
    mid = space.config_at(np.array([0.5, 0.5, 0.5]))
    assert mid.learning_rate == pytest.approx(np.sqrt(1e-5 * 1e-2))
    assert isinstance(mid.d_e, int) and 8 <= mid.d_e <= 64


def test_space_rejects_bad_bounds():
    with pytest.raises(ValueError):
        SearchSpace(learning_rate=(1e-2, 1e-5))
    with pytest.raises(ValueError):
        SearchSpace(d_e=(0, 4))


@pytest.fixture(scope="module")
def tiny_data():
    vocab = Vocab(range(1, 5))
    seqs = [(START, 1, 2, 3, END), (START, 2, 3, 4, END), (START, 3, 4, 1, END)]
    train = tuple(make_example(vocab, s) for s in seqs * 2)
    val = tuple(make_example(vocab, s) for s in seqs)
    return TrainValData(vocab=vocab, train=train, validation=val)


def test_search_runs_and_is_deterministic(tiny_data, tmp_path):
    space = SearchSpace(learning_rate=(1e-4, 1e-1), d_e=(2, 8), d_h=(2, 8))
    a = search(space, "rnn", tiny_data, budget_trials=4, seed=0, trial_epochs=2)
    b = search(space, "rnn", tiny_data, budget_trials=4, seed=0, trial_epochs=2)
    assert len(a.trials) == 4
    assert a.best.objective == b.best.objective
    assert a.best.config == b.best.config
    assert all(np.isfinite(t.objective) or t.status == "failed" for t in a.trials)
    path = tmp_path / "history.tsv"
    write_history(path, a)
    text = path.read_text()
    assert "lr_range=" in text.splitlines()[0]
    assert text.count("\n") == len(a.trials) + 1
    assert "*" in text
    fields, rows = read_history(path)
    assert fields == {"seed": 0, "lr_range": space.learning_rate, "d_e_range": space.d_e, "d_h_range": space.d_h,
                      "rows": len(a.trials)}
    np.testing.assert_equal([row[:6] + row[7:] for row in rows],
                            [(t.index, t.config.learning_rate, t.config.d_e, t.config.d_h, t.objective, t.status,
                              "*" if t is a.best else "") for t in a.trials])
    assert [row[6] for row in rows] == [round(t.wall_time, 3) for t in a.trials]


def test_search_rejects_unknown_kind(tiny_data):
    with pytest.raises(ValueError):
        search(SearchSpace(), "gru", tiny_data, budget_trials=3, seed=0)


def test_halton_deterministic_and_in_bounds():
    a = halton(16, 3, seed=5)
    b = halton(16, 3, seed=5)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    c = halton(16, 3, seed=6)
    assert not np.array_equal(a, c)
