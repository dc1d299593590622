"""From-scratch tree ensembles for region-candidate classification.

Decision trees with weighted Gini splits are the shared base learner.
A boosted ensemble with per-round random under-sampling separates
lesion candidates from normal tissue under heavy class imbalance; a
bagged forest with out-of-bag grid selection grades detected lesions
as malignant or benign. One descent, which walks many trees in
lockstep, scores rows for single trees, both ensembles, their vote
bound on partly known rows and the out-of-bag grid.

Training functions operate on plain float matrices with labels in
{-1, +1}, or on ``LabeledSample`` lists of extracted feature vectors,
whose models are tagged with the feature schema; ``check_schema``
refuses a model that does not take schema rows, and ``predict`` scores
plain row matrices. ``assign_training_labels`` maps candidates to
labels against ground-truth masks. With a fixed seed all training is
bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .features import FEATURE_SCHEMA, FEATURE_SCHEMA_ID, FeatureVector
from .nrrd_io import (array_of, check_fields, integer_from, is_finite, is_number, of_type,
                      one_of, or_null, read_document)

DEFAULT_N_TREES = 2000
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_RF_NTREE_GRID = tuple(range(100, 1001, 100))
MODEL_FORMAT = "siftcad-model"
MODEL_VERSION = 1

# a boosting round whose balanced subsample still misclassifies half the
# total weight is redrawn at most this many times before training stops
_MAX_RESAMPLE = 10
_EPS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# labeled samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSample:
    """A feature vector with a binary label and its case id (group)."""

    features: FeatureVector
    label: int
    group: str

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if not np.isfinite(self.features.values).all():
            raise ValueError("sample features must be finite")


@dataclass(frozen=True)
class CandidateLabel:
    """Training label for one candidate: +1 lesion, -1 normal, 0 neutral."""

    label: int
    lesion_index: int | None
    best_dsi: float


def assign_training_labels(candidates, ground_truth) -> list[CandidateLabel]:
    """Three-way labels for candidates against ground-truth lesion masks.

    Overlap is measured at the original resolution (candidates are
    upscaled first). A candidate is positive iff it has the highest DSI
    to some lesion among all candidates and that DSI is at least 0.6;
    negative iff its DSI to every lesion is below 0.2; neutral
    otherwise. At most one candidate is positive per lesion.

    Each DSI is ``2 |C and L| / (|C| + |L|)``, with the conventions of
    :func:`~siftcad.volume.dsi_matrix`; the overlap is counted by reading
    each lesion mask at the candidate's voxels.
    """
    n_c = len(candidates)
    n_l = len(ground_truth)
    truths = [m.data.ravel() for m in ground_truth]
    inter = np.zeros((n_c, n_l), dtype=np.int64)
    sizes = np.zeros(n_c, dtype=np.int64)
    for i, c in enumerate(candidates):
        idx = c.original_indices()
        sizes[i] = idx.size
        for j, truth in enumerate(truths):
            inter[i, j] = np.count_nonzero(truth[idx])
    total = sizes[:, None] + np.array([np.count_nonzero(t) for t in truths],
                                      dtype=np.int64)[None, :]
    mat = np.ones(total.shape)
    np.divide(2.0 * inter, total, out=mat, where=total > 0)
    winner_of = [None] * n_c
    for j in range(n_l):
        if n_c == 0:
            break
        i = int(np.argmax(mat[:, j]))
        if mat[i, j] >= 0.6:
            prev = winner_of[i]
            if prev is None or mat[i, j] > mat[i, prev]:
                winner_of[i] = j
    out = []
    for i in range(n_c):
        best = float(mat[i].max()) if n_l else 0.0
        if winner_of[i] is not None:
            out.append(CandidateLabel(1, winner_of[i], best))
        elif best < 0.2:
            out.append(CandidateLabel(-1, None, best))
        else:
            out.append(CandidateLabel(0, None, best))
    return out


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Binary CART stored as parallel node arrays.

    ``feature[i] < 0`` marks a leaf; internal nodes route samples with
    x[feature] < threshold to ``left``. ``value`` is the weighted
    positive-class fraction of the node's training samples.
    ``predict_proba`` gives each row the value of the node its path ends
    at: a leaf, or a split on a column the row holds NaN in.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _leaf_values((self,), _feature_rows((self,), x))[0][0]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, d, where: str) -> "DecisionTree":
        """Rebuild a tree, checking every field; ValueError names the
        first missing or malformed one."""
        check_fields(d, _TREE_FIELDS, where, ValueError)
        arrays = {k: np.asarray(d[k], np.float64 if k in ("threshold", "value") else np.int64)
                  for k in ("feature", "threshold", "left", "right", "value")}
        feature = arrays["feature"]
        n_nodes = len(feature)
        for name, arr in arrays.items():
            if len(arr) != n_nodes:
                raise ValueError(f"{where}: field {name!r} has {len(arr)} "
                                 f"entries, 'feature' has {n_nodes}")
        n_features = d["n_features"]
        if ((feature < -1) | (feature >= n_features)).any():
            raise ValueError(
                f"{where}: field 'feature' must hold -1 or a feature index "
                f"below n_features={n_features}")
        # children come after their parent, so prediction always ends
        node = np.flatnonzero(feature >= 0)
        for name in ("left", "right"):
            child = arrays[name][node]
            if ((child <= node) | (child >= n_nodes)).any():
                raise ValueError(f"{where}: field {name!r} must point every "
                                 f"split node to a later node")
        return cls(n_features=n_features, **arrays)


def _weighted_gini(wt, wpt):
    # total-weight-scaled Gini impurity: w * (1 - p^2 - q^2); callers
    # silence the 0/0 of an empty side, which this maps to 0
    g = wt - (wpt ** 2 + (wt - wpt) ** 2) / wt
    return np.where(wt > 0, g, 0.0)


# lanes x features x samples of one batched split search: each of its
# work arrays stays near 256 KB of float64 however many nodes a step scores
_SPLIT_CELLS = 1 << 15


def _best_splits(x, row, weights, slots, feats) -> list:
    """Lowest-impurity (feature, threshold, gain) of each node, or None.

    Lane i is the node of sample slots ``slots[i]``: rows ``row[slots[i]]``
    of ``x``, with weights ``weights[0, slots[i]]`` and positive-class
    weights ``weights[1, slots[i]]``, searched over the features
    ``feats[i]``; all lanes hold the same number of samples. Every
    (feature, cut) pair of every lane is scored in one pass over the
    ``(lanes, features, samples)`` block, sorted along the samples.
    Thresholds are midpoints between consecutive distinct values and
    samples with x < threshold go left. Ties resolve to the lowest
    feature, then the lowest threshold.
    """
    g, k = slots.shape
    m = feats.shape[1]
    lane = np.arange(g)
    wk = weights[:2].take(slots, axis=1)
    # row sums of a C-contiguous block are bit-equal to each row's 1-D sum
    wt, wpt = np.add.reduce(wk, axis=2)
    xs = x.take(row[slots][:, None, :] * x.shape[1] + feats[:, :, None])
    # the stable rank order of each (lane, feature) row, then the flat
    # (lane, sample) position of each rank
    at = xs.argsort(axis=2, kind="stable")
    xs = xs.take(at + k * np.arange(g * m).reshape(g, m, 1))
    valid = xs[:, :, :-1] < xs[:, :, 1:]
    at += (k * lane)[:, None, None]
    # cumsums accumulate in rank order, bit-equal to 1-D cumsums; the cut
    # after the last rank is no cut
    wl, wpl = wk.reshape(2, -1).take(at[:, :, :-1], axis=1).cumsum(axis=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = _weighted_gini(wt, wpt)
        total = _weighted_gini(wl, wpl) + _weighted_gini(
            wt[:, None, None] - wl, wpt[:, None, None] - wpl)
    total[~valid] = np.inf
    # rows are feature-major: the first minimum is the lowest feature,
    # then the lowest cut
    best = total.reshape(g, -1).argmin(axis=1)
    f, c = np.divmod(best, k - 1)
    thr = 0.5 * (xs[lane, f, c] + xs[lane, f, c + 1])
    gain = parent - total.reshape(g, -1)[lane, best]
    return [(fi, ti, gi) if ok else None for ok, fi, ti, gi in zip(
        valid.any(axis=(1, 2)).tolist(), feats[lane, f].tolist(),
        thr.tolist(), gain.tolist())]


class _Growth:
    """One tree's node arrays and open-node heap while it grows."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "heap", "splits")

    def __init__(self):
        self.feature, self.threshold, self.left, self.right = [], [], [], []
        self.value, self.heap, self.splits = [], [], 0

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.5)
        return len(self.feature) - 1

    def tree(self, nf) -> DecisionTree:
        return DecisionTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64),
            n_features=nf,
        )


def _grow_trees(x, y, rows, weights, rngs, m_try, max_splits) -> list:
    """Best-first weighted-Gini CARTs grown in lockstep: tree t is fit on
    the rows ``rows[t]`` of ``x`` (repeats allowed) with position weights
    ``weights[t]`` and draws its features from ``rngs[t]``.

    A tree numbers its nodes in creation order. Each step, every tree
    with split budget left splits its open node of largest gain (the
    earliest on ties) and appends the left, then the right child. Then
    each tree draws, in creation order, ``m_try`` features (all when
    None) for each new node that holds positive weight in both classes,
    and the new nodes of all trees are scored together, grouped by
    sample count. Each tree equals the one grown alone, bit for bit.
    """
    x = np.ascontiguousarray(x)  # read through flat indices
    nf = x.shape[1]
    row = np.concatenate(rows)  # tree t owns a run of these sample slots
    w = np.concatenate(weights)
    wp = np.where(y[row] > 0, w, 0.0)
    ww = np.array((w, wp, w - wp))  # all, positive and negative class
    every = np.arange(nf)
    grown = [_Growth() for _ in rows]
    end = list(itertools.accumulate(len(r) for r in rows))
    born = [(t, grown[t].add(), np.arange(e - len(r), e))
            for t, (r, e) in enumerate(zip(rows, end))]
    active = range(len(rows))
    while born:
        groups = {}
        for i, (_, _, s) in enumerate(born):
            groups.setdefault(len(s), []).append(i)
        blocks = []
        for k, lanes in groups.items():
            s = np.array([born[i][2] for i in lanes])
            # bit-equal to each node's 1-D sums; a sum of non-negative
            # weights is positive iff one of them is
            sums = np.add.reduce(ww.take(s, axis=1), axis=2).tolist()
            split = []
            for j, (i, wt, wpt, wnt) in enumerate(zip(lanes, *sums)):
                t, node, _ = born[i]
                grown[t].value[node] = wpt / wt if wt > 0 else 0.5
                if wpt > 0 and wnt > 0:
                    split.append(j)
            if split:
                lanes = [lanes[j] for j in split]
                blocks.append((k, lanes, s if len(split) == len(s) else s[split]))
        # each tree draws in its creation order
        feats = dict.fromkeys(sorted(i for _, lanes, _ in blocks for i in lanes), every)
        if m_try is not None:
            for i in feats:
                feats[i] = rngs[born[i][0]].choice(nf, size=m_try, replace=False)
        for k, lanes, s in blocks:
            step = max(1, _SPLIT_CELLS // (k * (m_try or nf)))
            for a in range(0, len(lanes), step):
                chunk = lanes[a:a + step]
                f = np.array([feats[i] for i in chunk])
                if m_try is not None:
                    f.sort(axis=1)
                for i, found in zip(chunk, _best_splits(x, row, ww, s[a:a + step], f)):
                    if found is not None:
                        t, node, slots = born[i]
                        feature, thr, gain = found
                        heapq.heappush(grown[t].heap, (-gain, node, slots, feature, thr))
        born, growing = [], []
        for t in active:
            g = grown[t]
            if not g.heap or g.splits >= max_splits:
                continue
            growing.append(t)
            _, node, slots, feature, thr = heapq.heappop(g.heap)
            go = x[row[slots], feature] < thr
            g.feature[node] = feature
            g.threshold[node] = thr
            g.left[node] = g.add()
            g.right[node] = g.add()
            g.splits += 1
            born.append((t, g.left[node], slots[go]))
            born.append((t, g.right[node], slots[~go]))
        active = growing
    return [g.tree(nf) for g in grown]


def _as_xy(samples_or_x, y):
    """(X, y, schema_id) of a LabeledSample list, whose rows take the
    feature schema, or of an (X, y) pair, which has no schema."""
    if y is None:
        samples = samples_or_x
        if not samples:
            raise ValueError("need at least one sample")
        x = np.stack([s.features.values for s in samples])
        yy = np.array([s.label for s in samples], dtype=np.float64)
        return x, yy, FEATURE_SCHEMA_ID
    x = np.asarray(samples_or_x, dtype=np.float64)
    yy = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or yy.shape != (len(x),):
        raise ValueError("X must be (n, f) with matching y")
    if not np.isin(yy, (-1.0, 1.0)).all():
        raise ValueError("labels must be -1 or +1")
    if not np.isfinite(x).all():
        raise ValueError("sample features must be finite")
    return x, yy, None


def train_tree(samples_or_x, y=None, *, sample_weight=None, max_splits=None,
               m_try=None, seed=None) -> DecisionTree:
    """Greedy weighted-Gini CART.

    Grows best-first (largest impurity decrease first, insertion order
    on ties) until the split budget, pure leaves, or no remaining valid
    split. ``m_try`` restricts each split to a uniform random feature
    subset of that size. Single-class input yields a single leaf.
    """
    x, yy, _ = _as_xy(samples_or_x, y)
    n, nf = x.shape
    if sample_weight is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (n,) or (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        w = w / w.sum()
    if max_splits is None:
        max_splits = n
    if max_splits < 0:
        raise ValueError("max_splits must be non-negative")
    if m_try is not None and not 1 <= m_try <= nf:
        raise ValueError(f"m_try must be in [1, {nf}]")
    rng = np.random.default_rng(seed)
    return _grow_trees(x, yy, [np.arange(n)], [w], [rng], m_try, max_splits)[0]


# ---------------------------------------------------------------------------
# RUSBoost
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RusBoostModel:
    """Boosted trees trained on balanced under-samples.

    The positive-class probability is the logistic of the alpha-weighted
    vote margin normalized by the total alpha mass, so scores from
    ensembles of different lengths stay comparable.
    """

    trees: tuple
    alphas: np.ndarray
    learning_rate: float
    schema_id: str | None = None

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._proba(x, upper=False)

    def upper_proba(self, x: np.ndarray) -> np.ndarray:
        """An upper bound on ``predict_proba`` of every completion of the
        rows of ``x``, whose NaN columns are not yet known. A tree whose
        path reaches a NaN column casts the vote that raises the margin:
        +1 under a non-negative alpha, -1 under a negative one. Raising
        votes raises each exact product, the running sum adds in the same
        order and the logistic is monotone, so the bound holds bit for
        bit, and equals ``predict_proba`` on rows its trees never read
        NaN in."""
        return self._proba(x, upper=True)

    def _proba(self, x, upper: bool) -> np.ndarray:
        total = float(self.alphas.sum()) if len(self.trees) else 0.0
        # a model of no positive weight scores 0.5 on rows of any width
        x = _feature_rows(self.trees if total > 0 else (), x)
        if total <= 0:
            return np.full(len(x), 0.5)
        value, determined = _leaf_values(self.trees, x)
        positive = value >= 0.5
        if upper:
            positive = np.where(determined, positive, (self.alphas >= 0)[:, None])
        votes = np.where(positive, 1.0, -1.0)
        # a running sum adds the rounds in order, as a per-tree loop would
        margin = np.add.accumulate(self.alphas[:, None] * votes, axis=0)[-1]
        return 1.0 / (1.0 + np.exp(-margin / total))

    def prefix(self, n_trees: int) -> "RusBoostModel":
        """The same model truncated to its first ``n_trees`` rounds."""
        return RusBoostModel(self.trees[:n_trees], self.alphas[:n_trees],
                             self.learning_rate, self.schema_id)


def train_rusboost(samples_or_x, y=None, *, n_trees=DEFAULT_N_TREES,
                   seed=None, _trace=None) -> RusBoostModel:
    """AdaBoost with uniform random under-sampling of the majority class.

    Each round draws a 1:1 balanced subsample under the current weights,
    fits a tree on it, and scores the weighted error on the full set;
    rounds with error >= 0.5 are redrawn up to a bounded count before
    training stops early. Each tree may split as often as there are
    training samples, and each round's weight is shrunk by
    ``DEFAULT_LEARNING_RATE``.
    """
    x, yy, schema_id = _as_xy(samples_or_x, y)
    n = len(x)
    pos = np.flatnonzero(yy > 0)
    neg = np.flatnonzero(yy < 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be present")
    minority, majority = (pos, neg) if pos.size <= neg.size else (neg, pos)
    rng = np.random.default_rng(seed)
    w = np.full(n, 1.0 / n)
    trees, alphas = [], []
    for _ in range(n_trees):
        accepted = None
        for _ in range(_MAX_RESAMPLE):
            sub = np.sort(np.concatenate(
                [minority, rng.choice(majority, size=minority.size,
                                      replace=False)]))
            wsub = w[sub]
            (tree,) = _grow_trees(x, yy, [sub], [wsub / wsub.sum()], [rng],
                                  None, n)
            # probability ties vote positive
            h = np.where(tree.predict_proba(x) >= 0.5, 1.0, -1.0)
            eps = float(w[h != yy].sum())
            if eps < 0.5:
                accepted = (tree, h, eps)
                break
        if accepted is None:
            break
        tree, h, eps = accepted
        alpha = DEFAULT_LEARNING_RATE * 0.5 * math.log(
            (1.0 - eps) / max(eps, _EPS_FLOOR))
        w = w * np.exp(-alpha * yy * h)
        w = w / w.sum()
        trees.append(tree)
        alphas.append(alpha)
        if _trace is not None:
            _trace.append({"subsample": sub, "epsilon": eps, "alpha": alpha})
    return RusBoostModel(tuple(trees), np.asarray(alphas, dtype=np.float64),
                         DEFAULT_LEARNING_RATE, schema_id)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RandomForestModel:
    """Bagged trees; probability = fraction of trees voting positive.

    ``oob_grid`` holds the ``(n_tree, m_try, oob_mse)`` points that
    ``train_rf`` scored to choose the model; model files do not carry it.
    """

    trees: tuple
    n_tree: int
    m_try: int
    schema_id: str | None = None
    oob_error: float = float("nan")
    oob_grid: tuple = ()

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._proba(x, upper=False)

    def upper_proba(self, x: np.ndarray) -> np.ndarray:
        """An upper bound on ``predict_proba`` of every completion of the
        rows of ``x``, whose NaN columns are not yet known: a tree whose
        path reaches a NaN column votes positive."""
        return self._proba(x, upper=True)

    def _proba(self, x, upper: bool) -> np.ndarray:
        value, determined = _leaf_values(self.trees, _feature_rows(self.trees, x))
        positive = value >= 0.5
        if upper:
            positive |= ~determined
        # vote counts are small integers, exact in any order
        return positive.sum(axis=0) / len(self.trees)


def rf_mtry_grid(n_features: int) -> tuple[int, ...]:
    """Four features-per-split settings spanning [0.5 sqrt(NF), 2 sqrt(NF)].

    Values are rounded up, clipped to [1, NF], and deduplicated (the
    grid collapses on very small feature counts).
    """
    root = math.sqrt(n_features)
    vals = np.ceil(np.linspace(0.5 * root, 2.0 * root, 4)).astype(int)
    vals = np.clip(vals, 1, n_features)
    return tuple(int(v) for v in np.unique(vals))


def _bootstrap_forest(x, y, m_try, seeds):
    """One tree per seed on a sorted bootstrap draw of the rows, all grown
    together; returns the trees and the (trees, n) bootstrap draws."""
    n = len(x)
    rngs = [np.random.default_rng(s) for s in seeds]
    boots = np.sort([rng.integers(0, n, size=n) for rng in rngs], axis=1)
    trees = _grow_trees(x, y, boots, [np.full(n, 1.0 / n)] * len(boots), rngs,
                        m_try, n)
    return trees, boots


def _feature_rows(trees, x) -> np.ndarray:
    """``x`` as a float64 matrix with one column per feature ``trees``
    take (any count when there are no trees); ValueError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2D feature matrix, got shape {x.shape}")
    if len(trees) and x.shape[1] != trees[0].n_features:
        raise ValueError(f"expected (n, {trees[0].n_features}) inputs, got {x.shape}")
    return x


def _leaf_values(trees, x) -> tuple[np.ndarray, np.ndarray]:
    """(value, determined), (trees, rows): the value of the node where
    each row's path through each tree ends, all trees descended together
    in blocks of at most ``_SPLIT_CELLS`` (tree, row) pairs.

    A path ends at a leaf, or at a split on a column the row holds NaN
    in: that (tree, row) pair is undetermined, and its value is the
    split node's.
    """
    n = len(x)
    values = np.empty((len(trees), n))
    determined = np.empty((len(trees), n), dtype=bool)
    col = np.arange(n)
    step = max(1, _SPLIT_CELLS // max(1, n))
    for a in range(0, len(trees), step):
        block = trees[a:a + step]
        base = np.cumsum([0] + [len(t.feature) for t in block[:-1]])
        feature = np.concatenate([t.feature for t in block])
        threshold = np.concatenate([t.threshold for t in block])
        left = np.concatenate([t.left + b for t, b in zip(block, base)])
        right = np.concatenate([t.right + b for t, b in zip(block, base)])
        node = np.repeat(base, n).reshape(len(block), n)
        stuck = np.zeros(node.shape, dtype=bool)
        inner = feature[node] >= 0
        while inner.any():
            # a leaf reads column -1 here and keeps its node
            v = x[col, feature[node]]
            stuck |= inner & np.isnan(v)
            inner &= ~stuck
            node = np.where(inner, np.where(v < threshold[node], left[node], right[node]),
                            node)
            inner = (feature[node] >= 0) & ~stuck
        values[a:a + len(block)] = np.concatenate([t.value for t in block])[node]
        determined[a:a + len(block)] = ~stuck
    return values, determined


def _oob_votes(x, y, m_try, seeds):
    """(positive out-of-bag votes, out-of-bag) masks, (trees, rows), of
    the bootstrap forest of ``seeds``; the forest itself is dropped."""
    trees, boots = _bootstrap_forest(x, y, m_try, seeds)
    oob = np.ones(boots.shape, dtype=bool)
    oob[np.arange(len(boots))[:, None], boots] = False
    return oob & (_leaf_values(trees, x)[0] >= 0.5), oob


def train_rf(samples_or_x, y=None, *, seed=None, n_tree_grid=None,
             m_try_grid=None) -> RandomForestModel:
    """Bootstrap forest with out-of-bag grid selection.

    For each features-per-split setting a maximal forest is grown once
    and every tree-count grid point is scored from the out-of-bag votes
    of its prefix (samples never out-of-bag are excluded from the MSE).
    The lowest-MSE point wins, ties toward fewer trees then fewer
    features per split, and the final model is refit on all samples;
    its ``oob_grid`` lists every point scored.
    """
    x, yy, schema_id = _as_xy(samples_or_x, y)
    n, nf = x.shape
    if (yy > 0).sum() == 0 or (yy < 0).sum() == 0:
        raise ValueError("both classes must be present")
    n_tree_grid = tuple(sorted(n_tree_grid or DEFAULT_RF_NTREE_GRID))
    m_try_grid = tuple(sorted(m_try_grid or rf_mtry_grid(nf)))
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(m_try_grid) + 1)
    max_trees = n_tree_grid[-1]
    mse = {}
    for mi, m in enumerate(m_try_grid):
        hit, oob = _oob_votes(x, yy, m, children[mi].spawn(max_trees))
        # vote counts are small integers, exact in float64 in any order
        vote_sum = np.zeros(n)
        vote_cnt = np.zeros(n)
        done = 0
        for nt in n_tree_grid:
            vote_sum += hit[done:nt].sum(axis=0)
            vote_cnt += oob[done:nt].sum(axis=0)
            done = nt
            covered = vote_cnt > 0
            pred = 2.0 * (vote_sum[covered] / vote_cnt[covered]) - 1.0
            mse[(nt, m)] = float(((pred - yy[covered]) ** 2).mean())
    grid = tuple((nt, m, e) for (nt, m), e in sorted(mse.items()))
    n_best, m_best, best = min(grid, key=lambda point: point[2])
    trees, _ = _bootstrap_forest(x, yy, m_best, children[-1].spawn(n_best))
    return RandomForestModel(tuple(trees), n_best, m_best, schema_id, best, grid)


# ---------------------------------------------------------------------------
# prediction and cross-validation
# ---------------------------------------------------------------------------

def split_features(model) -> np.ndarray:
    """Sorted indices of the features some tree of ``model`` splits on:
    the only columns its scores depend on."""
    split = [t.feature[t.feature >= 0] for t in model.trees]
    return np.unique(np.concatenate(split)) if split else np.zeros(0, dtype=np.int64)


def _check_read_features(model, x: np.ndarray) -> None:
    """A non-finite value in a column the model splits on would route the
    sample silently (NaN compares false), so it is refused; columns no
    tree reads may hold anything."""
    read = split_features(model)
    bad = read[~np.isfinite(x[:, read]).all(axis=0)]
    if bad.size:
        k = int(bad[0])
        name = FEATURE_SCHEMA[k] if x.shape[1] == len(FEATURE_SCHEMA) else f"#{k}"
        raise ValueError(f"feature {name} is not finite, and the model splits on it")


def check_schema(model, where: str) -> None:
    """Refuse a model that does not take rows of :data:`FEATURE_SCHEMA`:
    one tagged with another ``schema_id`` (an untagged model is taken as
    is), or with a tree of another feature count. The ValueError names
    ``where`` and the field."""
    n = len(FEATURE_SCHEMA)
    for tree in model.trees:
        if tree.n_features != n:
            raise ValueError(f"{where}: field 'n_features' is {tree.n_features}, "
                             f"but the feature schema has {n} features")
    if model.schema_id not in (None, FEATURE_SCHEMA_ID):
        raise ValueError(f"{where}: field 'schema_id' is {model.schema_id!r}, "
                         f"but the features are {FEATURE_SCHEMA_ID!r}")


def predict(model, x):
    """Positive-class probability of each row of the 2D matrix ``x``.

    Every row must be finite in the features the model splits on
    (ValueError naming the first that is not); other columns are never
    read. The schema is the caller's to check, see :func:`check_schema`.
    """
    x = _feature_rows(model.trees, x)
    _check_read_features(model, x)
    return model.predict_proba(x)


def group_folds(groups, k: int) -> np.ndarray:
    """Fold index per sample; all samples of a group share a fold.

    Groups are sorted and dealt round-robin, so the assignment is
    deterministic and folds differ in size by at most one group.
    """
    uniq = sorted(set(groups))
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > len(uniq):
        raise ValueError(f"k={k} exceeds the {len(uniq)} available groups")
    fold_of = {g: i % k for i, g in enumerate(uniq)}
    return np.array([fold_of[g] for g in groups], dtype=np.int64)


def rusboost_cv_curve(x, y, groups, *, n_trees_list, k=5, seed=None) -> list[float]:
    """Grouped k-fold CV loss at several ensemble lengths, one training
    per fold, of the rows ``x`` with +-1 labels ``y`` and one group (case
    id) per row in ``groups``.

    Trains each fold once at max(n_trees_list) and scores every prefix
    length, which is equivalent to retraining because boosting rounds
    do not look ahead. All samples of a group share a fold, and every
    sample is scored by the fold that left it out. The loss is the
    pooled MSE between ``2p - 1`` and the +-1 labels, so a chance
    predictor (p = 0.5) scores exactly 1.0.
    """
    x, yy, _ = _as_xy(x, y)
    n_trees_list = sorted(n_trees_list)
    folds = group_folds(groups, k)
    fold_seeds = np.random.SeedSequence(seed).spawn(k)
    sq = np.empty((len(n_trees_list), len(x)))
    for f in range(k):
        test = folds == f
        model = train_rusboost(x[~test], yy[~test],
                               n_trees=n_trees_list[-1],
                               seed=fold_seeds[f])
        for i, nt in enumerate(n_trees_list):
            p = model.prefix(nt).predict_proba(x[test])
            sq[i, test] = ((2.0 * p - 1.0) - yy[test]) ** 2
    return [float(row.mean()) for row in sq]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_dict(model) -> dict:
    if not isinstance(model, (RusBoostModel, RandomForestModel)):
        raise ValueError(f"cannot serialize {type(model).__name__}")
    base = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "schema_id": model.schema_id,
        "trees": [t.to_dict() for t in model.trees],
    }
    if isinstance(model, RusBoostModel):
        base.update(kind="rusboost", learning_rate=model.learning_rate,
                    alphas=model.alphas.tolist())
    else:
        base.update(kind="random_forest", n_tree=model.n_tree,
                    m_try=model.m_try, oob_error=model.oob_error)
    return base


# the fields of each kind of model document, of every model document,
# and of each tree: (name, required, valid, what a valid value is)
_KIND_FIELDS = {
    "rusboost": (
        ("alphas", True, array_of("if"), "a list of finite numbers"),
        ("learning_rate", True, is_finite, "a finite number"),
    ),
    "random_forest": (
        ("n_tree", True, integer_from(1), "a positive integer"),
        ("m_try", True, integer_from(1), "a positive integer"),
        ("oob_error", True, is_number, "a number"),
    ),
}
_MODEL_FIELDS = (
    ("format", True, one_of(MODEL_FORMAT), repr(MODEL_FORMAT)),
    ("version", True, one_of(MODEL_VERSION), str(MODEL_VERSION)),
    ("kind", True, one_of(*_KIND_FIELDS), " or ".join(map(repr, _KIND_FIELDS))),
    ("schema_id", True, or_null(of_type(str)), "a string or null"),
    ("trees", True, of_type(list), "a list"),
)
_TREE_FIELDS = (
    ("feature", True, array_of("i"), "a list of integers"),
    ("threshold", True, array_of("if"), "a list of finite numbers"),
    ("left", True, array_of("i"), "a list of integers"),
    ("right", True, array_of("i"), "a list of integers"),
    ("value", True, array_of("if"), "a list of finite numbers"),
    ("n_features", True, integer_from(1), "a positive integer"),
)


def model_from_dict(d):
    """Rebuild a model document, checking it field by field.

    Raises ValueError naming the first missing or malformed field.
    """
    check_fields(d, _MODEL_FIELDS, "model", ValueError)
    kind = d["kind"]
    check_fields(d, _KIND_FIELDS[kind], "model", ValueError)
    trees = tuple(DecisionTree.from_dict(t, f"model: trees[{i}]")
                  for i, t in enumerate(d["trees"]))
    if any(t.n_features != trees[0].n_features for t in trees):
        raise ValueError("model: field 'trees' mixes feature counts")
    if kind == "rusboost":
        alphas = np.asarray(d["alphas"], dtype=np.float64)
        if len(alphas) != len(trees):
            raise ValueError(
                f"model: field 'alphas' must hold one weight per tree "
                f"({len(trees)})")
        return RusBoostModel(trees, alphas, float(d["learning_rate"]), d["schema_id"])
    n_tree, m_try = d["n_tree"], d["m_try"]
    if n_tree != len(trees):
        raise ValueError(f"model: field 'n_tree' is {n_tree} but "
                         f"'trees' holds {len(trees)}")
    if m_try > trees[0].n_features:
        raise ValueError(f"model: field 'm_try' exceeds the "
                         f"{trees[0].n_features} features")
    return RandomForestModel(trees, n_tree, m_try, d["schema_id"], float(d["oob_error"]))


def save_model(path, model) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)


def load_model(path):
    """Read a model file; malformed content raises ValueError naming the
    file and the field."""
    doc = read_document(path, "model file", ValueError)
    try:
        return model_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
