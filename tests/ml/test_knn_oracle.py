"""KNN prediction against a frozen copy of the per-row predict loop.

``KNNRegressor.predict`` computes one distance row per *distinct* query
row and scatters the results back. :func:`reference_predict` is the
loop it replaced, kept verbatim: every query row gets its own distance
row. The two must agree bit for bit — on tie-heavy integer features,
where many training rows sit at equal distance and ``argpartition``
tie-breaks decide the neighbour set, and on duplicated, permuted and
single-row queries.

One case is compared differently. The reference hands a block of one
row to numpy as a ``(1, d) @ (d, n)`` product, which BLAS computes
with gemv instead of gemm and rounds differently, so the reference's
answer for a row depends on whether it ends up alone in the last
block. ``predict`` gives every row the gemm answer: a single-row query
is checked against the reference's prediction of that row inside a
batch, and the batched references are sized to leave no one-row block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import KNNRegressor
from repro.ml.base import check_Xy


def reference_predict(model: KNNRegressor, X) -> np.ndarray:
    """The per-row predict loop: one distance row for every query row."""
    X, _ = check_Xy(X)
    k = min(model.k, len(model._y))
    train_num = model._X[:, model._numeric] / model._scale
    train_cat = model._X[:, model._cat]
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], model.chunk_size):
        hi = min(lo + model.chunk_size, X.shape[0])
        q_num = X[lo:hi, model._numeric] / model._scale
        d2 = (
            (q_num * q_num).sum(axis=1)[:, None]
            + (train_num * train_num).sum(axis=1)[None, :]
            - 2.0 * q_num @ train_num.T
        )
        if len(model._cat):
            q_cat = X[lo:hi, model._cat]
            mism = (q_cat[:, None, :] != train_cat[None, :, :]).sum(axis=2)
            d2 = d2 + (model.categorical_weight**2) * mism
        d2 = np.maximum(d2, 0.0)
        nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        if model.weighting == "uniform":
            out[lo:hi] = model._y[nn].mean(axis=1)
        else:
            ndist = np.sqrt(d2[rows, nn])
            weights = 1.0 / (ndist + 1e-9)
            out[lo:hi] = (model._y[nn] * weights).sum(axis=1) / weights.sum(axis=1)
    return out


def tie_heavy(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows shaped like the paper's features: a user code, a node count
    and a requested walltime, each drawn from a few distinct values."""
    user = rng.integers(0, 6, size=n)
    nodes = rng.choice([1, 2, 4, 8], size=n)
    walltime = rng.choice([1800, 3600, 21600, 86400], size=n)
    return np.column_stack([user, nodes, walltime]).astype(float)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(20200518)
    X = tie_heavy(rng, 400)
    y = rng.normal(200.0, 40.0, size=400)
    dup = tie_heavy(rng, 300)
    return X, y, {
        "duplicated": dup,
        "permuted": dup[rng.permutation(len(dup))],
        "train": X[:398],
    }


@pytest.mark.parametrize("queries", ["duplicated", "permuted", "train"])
@pytest.mark.parametrize("chunk_size", [7, 512])
@pytest.mark.parametrize("use_categorical", [True, False])
@pytest.mark.parametrize("weighting", ["uniform", "inverse"])
@pytest.mark.parametrize("k", [1, 5, 15])
def test_bit_identical_to_reference(data, k, weighting, use_categorical, chunk_size, queries):
    X, y, query_sets = data
    model = KNNRegressor(
        k=k, weighting=weighting, use_categorical=use_categorical, chunk_size=chunk_size
    ).fit(X, y, categorical=(0,))
    Q = query_sets[queries]
    assert len(Q) % chunk_size != 1  # no one-row block in the reference
    got = model.predict(Q)
    want = reference_predict(model, Q)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # Single-row queries: each row alone gets its prediction from the batch.
    for i in range(0, len(Q), 37):
        alone = model.predict(Q[i : i + 1])
        assert alone.shape == (1,)
        assert alone.view(np.int64)[0] == want.view(np.int64)[i]


@pytest.mark.parametrize("weighting", ["uniform", "inverse"])
@pytest.mark.parametrize("use_categorical", [True, False])
def test_prediction_independent_of_batch(data, weighting, use_categorical):
    """A row's prediction does not depend on its batch-mates or the
    block size — what lets the serving micro-batcher coalesce KNN
    requests without changing their answers."""
    X, y, query_sets = data
    Q = query_sets["duplicated"]
    preds = [
        KNNRegressor(
            k=15, weighting=weighting, use_categorical=use_categorical, chunk_size=chunk
        )
        .fit(X, y, categorical=(0,))
        .predict(Q)
        for chunk in (1, 2, 7, 512)
    ]
    for p in preds[1:]:
        assert np.array_equal(p.view(np.int64), preds[0].view(np.int64))
    model = KNNRegressor(
        k=15, weighting=weighting, use_categorical=use_categorical
    ).fit(X, y, categorical=(0,))
    alone = np.concatenate([model.predict(Q[i : i + 1]) for i in range(len(Q))])
    assert np.array_equal(alone.view(np.int64), preds[0].view(np.int64))


def test_distance_rows_built_per_distinct_query_row(data, monkeypatch):
    X, y, query_sets = data
    Q = query_sets["duplicated"]
    distinct = len(np.unique(Q, axis=0))
    assert distinct < len(Q)
    built = []
    original = KNNRegressor._distances

    def counting(self, q, *args):
        built.append(len(q))
        return original(self, q, *args)

    monkeypatch.setattr(KNNRegressor, "_distances", counting)
    model = KNNRegressor(k=5, chunk_size=7).fit(X, y, categorical=(0,))
    assert len(model.predict(Q)) == len(Q)
    assert sum(built) == distinct
    assert max(built) <= 7
