"""Distance-weighted k-nearest-neighbor regression.

Numeric features are standardized to unit variance; categorical features
contribute a Hamming term (0 when equal, ``categorical_weight``
otherwise). Matching the paper's diagnosis, KNN under-performs the tree
because jobs at "small distance" (similar nodes and walltime) can still
have very different power when they come from different users/apps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.base import Estimator, check_Xy

__all__ = ["KNNRegressor"]


class KNNRegressor(Estimator):
    """Brute-force k-NN with inverse-distance weighting.

    Parameters
    ----------
    k:
        Neighbor count.
    categorical_weight:
        Distance contribution of a categorical mismatch (in units of
        standardized numeric distance).
    chunk_size:
        Distinct query rows processed per distance-matrix block, bounding
        memory to ``chunk_size × n_train`` floats. :meth:`predict`
        computes one distance row per *distinct* query row, so its cost
        is distinct query rows × training rows.
    """

    def __init__(
        self,
        k: int = 5,
        categorical_weight: float = 2.0,
        chunk_size: int = 512,
        use_categorical: bool = True,
        weighting: str = "inverse",
    ) -> None:
        super().__init__()
        if k < 1:
            raise ModelError("k must be >= 1")
        if categorical_weight < 0:
            raise ModelError("categorical_weight must be >= 0")
        if chunk_size < 1:
            raise ModelError("chunk_size must be >= 1")
        if weighting not in ("inverse", "uniform"):
            raise ModelError("weighting must be 'inverse' or 'uniform'")
        self.k = k
        self.categorical_weight = categorical_weight
        self.chunk_size = chunk_size
        # use_categorical=False treats category codes as plain numbers in
        # the standardized euclidean distance — the naive construction the
        # paper's KNN baseline corresponds to (user 57 is "close" to 58).
        self.use_categorical = use_categorical
        self.weighting = weighting
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._numeric: np.ndarray = np.empty(0, dtype=np.int64)
        self._cat: np.ndarray = np.empty(0, dtype=np.int64)
        self._scale: np.ndarray | None = None

    def fit(self, X, y, categorical: tuple[int, ...] = ()) -> "KNNRegressor":
        X, y = check_Xy(X, y)
        if not self.use_categorical:
            categorical = ()
        bad = [c for c in categorical if not 0 <= c < X.shape[1]]
        if bad:
            raise ModelError(f"categorical indices out of range: {bad}")
        self._cat = np.asarray(sorted(categorical), dtype=np.int64)
        self._numeric = np.asarray(
            [i for i in range(X.shape[1]) if i not in categorical], dtype=np.int64
        )
        scale = X[:, self._numeric].std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._X = X
        self._y = y
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X, _ = check_Xy(X)
        if X.shape[1] != self._X.shape[1]:
            raise ModelError(
                f"X has {X.shape[1]} features; model was fitted with {self._X.shape[1]}"
            )
        k = min(self.k, len(self._y))
        train_num = self._X[:, self._numeric] / self._scale
        train_sq = (train_num * train_num).sum(axis=1)
        train_cat = self._X[:, self._cat]
        # A row's neighbours depend only on its own distance row, and equal
        # query rows give equal distance rows: predict each distinct row
        # once and scatter the results back.
        uniq, inverse = np.unique(X, axis=0, return_inverse=True)
        out = np.empty(len(uniq))
        for lo in range(0, len(uniq), self.chunk_size):
            hi = min(lo + self.chunk_size, len(uniq))
            d2 = self._distances(uniq[lo:hi], train_num, train_sq, train_cat)
            nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
            rows = np.arange(hi - lo)[:, None]
            if self.weighting == "uniform":
                out[lo:hi] = self._y[nn].mean(axis=1)
            else:
                ndist = np.sqrt(d2[rows, nn])
                weights = 1.0 / (ndist + 1e-9)
                out[lo:hi] = (self._y[nn] * weights).sum(axis=1) / weights.sum(axis=1)
        return out[inverse.reshape(-1)]

    def _distances(
        self,
        q: np.ndarray,
        train_num: np.ndarray,
        train_sq: np.ndarray,
        train_cat: np.ndarray,
    ) -> np.ndarray:
        """Squared distances from the query rows ``q`` to every training row."""
        q_num = q[:, self._numeric] / self._scale
        # numpy hands a one-row product to BLAS gemv, which rounds apart
        # from the gemm every larger block gets; doubling a lone row keeps
        # each row's distances independent of the block it lands in.
        lhs = 2.0 * q_num if len(q) > 1 else np.repeat(2.0 * q_num, 2, axis=0)
        # Squared euclidean over standardized numerics.
        d2 = (
            (q_num * q_num).sum(axis=1)[:, None]
            + train_sq[None, :]
            - (lhs @ train_num.T)[: len(q)]
        )
        if len(self._cat):
            q_cat = q[:, self._cat]
            mism = (q_cat[:, None, :] != train_cat[None, :, :]).sum(axis=2)
            d2 = d2 + (self.categorical_weight**2) * mism
        return np.maximum(d2, 0.0)
