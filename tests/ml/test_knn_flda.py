"""Tests for KNN and FLDA regressors."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import FLDARegressor, KNNRegressor


class TestKNN:
    def test_exact_match_wins_inverse_weighting(self):
        X = np.asarray([[0.0, 1.0], [0.0, 1.0], [5.0, 9.0]])
        y = np.asarray([10.0, 10.0, 99.0])
        m = KNNRegressor(k=3).fit(X, y)
        assert m.predict(np.asarray([[0.0, 1.0]]))[0] == pytest.approx(10.0, abs=0.5)

    def test_k_one_nearest(self):
        X = np.asarray([[0.0], [10.0]])
        y = np.asarray([1.0, 2.0])
        m = KNNRegressor(k=1).fit(X, y)
        assert m.predict([[1.0]])[0] == 1.0
        assert m.predict([[9.0]])[0] == 2.0

    def test_uniform_weighting_averages(self):
        X = np.asarray([[0.0], [1.0], [100.0]])
        y = np.asarray([0.0, 10.0, 99.0])
        m = KNNRegressor(k=2, weighting="uniform").fit(X, y)
        assert m.predict([[0.4]])[0] == pytest.approx(5.0)

    def test_categorical_penalty(self):
        # Same numerics, different category: penalty pushes the match away.
        X = np.asarray([[0.0, 5.0], [1.0, 5.0]])
        y = np.asarray([10.0, 20.0])
        m = KNNRegressor(k=1, categorical_weight=10.0).fit(X, y, categorical=(0,))
        assert m.predict(np.asarray([[1.0, 5.0]]))[0] == 20.0

    def test_use_categorical_false_ignores_flag(self):
        X = np.asarray([[0.0, 5.0], [100.0, 5.0]])
        y = np.asarray([10.0, 20.0])
        m = KNNRegressor(k=1, use_categorical=False).fit(X, y, categorical=(0,))
        # user code becomes numeric; 60 is closer to 100 after scaling
        assert m.predict(np.asarray([[90.0, 5.0]]))[0] == 20.0

    def test_k_larger_than_train(self):
        m = KNNRegressor(k=50).fit(np.asarray([[0.0], [1.0]]), np.asarray([1.0, 3.0]))
        assert 1.0 <= m.predict([[0.5]])[0] <= 3.0

    def test_chunking_consistent(self, rng):
        X = rng.random((200, 3))
        y = rng.random(200)
        a = KNNRegressor(k=5, chunk_size=7).fit(X, y).predict(X)
        b = KNNRegressor(k=5, chunk_size=512).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ModelError):
            KNNRegressor(k=0)
        with pytest.raises(ModelError):
            KNNRegressor(weighting="gaussian")
        with pytest.raises(NotFittedError):
            KNNRegressor().predict(np.zeros((1, 1)))


class TestFLDA:
    def test_separable_bins(self, rng):
        # Power determined by a categorical user: FLDA should learn it.
        user = rng.integers(0, 4, size=400)
        y = np.asarray([50.0, 100.0, 150.0, 200.0])[user]
        X = user[:, None].astype(float)
        m = FLDARegressor(n_bins=8).fit(X, y, categorical=(0,))
        preds = m.predict(X)
        assert np.abs(preds - y).mean() < 20.0

    def test_linear_failure_mode(self, rng):
        """FLDA cannot separate a XOR-like nonlinear structure."""
        x1 = rng.integers(0, 2, size=500)
        x2 = rng.integers(0, 2, size=500)
        y = np.where(x1 == x2, 100.0, 200.0)  # XOR target
        X = np.column_stack([x1, x2]).astype(float)
        m = FLDARegressor(n_bins=2).fit(X, y)
        err = np.abs(m.predict(X) - y).mean()
        assert err > 20.0  # linear boundaries cannot fix XOR

    def test_predict_class_indices(self, rng):
        X = rng.random((100, 2))
        y = X[:, 0] * 100
        m = FLDARegressor(n_bins=5).fit(X, y)
        classes = m.predict_class(X)
        assert classes.min() >= 0

    def test_predictions_are_bin_means(self, rng):
        X = rng.random((200, 1)) * 10
        y = X[:, 0] * 10 + rng.normal(0, 0.5, 200)
        m = FLDARegressor(n_bins=4).fit(X, y)
        preds = set(np.round(m.predict(X), 6).tolist())
        assert len(preds) <= 4

    def test_constant_target_rejected(self):
        with pytest.raises(ModelError, match="single class"):
            FLDARegressor().fit(np.random.rand(20, 2), np.full(20, 5.0))

    def test_unseen_category_code_rejected(self):
        X = np.asarray([[0.0], [1.0], [0.0], [1.0]])
        y = np.asarray([1.0, 2.0, 1.1, 2.1])
        m = FLDARegressor(n_bins=2).fit(X, y, categorical=(0,))
        with pytest.raises(ModelError, match="codes outside"):
            m.predict(np.asarray([[5.0]]))

    def test_validation(self):
        with pytest.raises(ModelError):
            FLDARegressor(n_bins=1)
        with pytest.raises(ModelError):
            FLDARegressor(ridge=0.0)
        with pytest.raises(NotFittedError):
            FLDARegressor().predict(np.zeros((1, 1)))
