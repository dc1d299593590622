"""Tree, RUSBoost, random-forest, labeling, and CV behavior."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from siftcad import classifiers
from siftcad.classifiers import (
    _best_splits,
    _grow_trees,
    _leaf_values,
    CandidateLabel,
    DecisionTree,
    LabeledSample,
    RandomForestModel,
    RusBoostModel,
    assign_training_labels,
    check_schema,
    group_folds,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    rf_mtry_grid,
    rusboost_cv_curve,
    save_model,
    split_features,
    train_rf,
    train_rusboost,
    train_tree,
)
from siftcad.candidates import generate_candidates
from siftcad.features import FEATURE_SCHEMA, FEATURE_SCHEMA_ID, FeatureVector
from siftcad.nrrd_io import load_case
from siftcad.phantom import generate_suite
from siftcad.volume import BinaryMask

from helpers import candidate_from_mask
from oracles import (
    ball_mask,
    grow_tree,
    per_feature_best_split,
    rusboost_scores_per_tree,
    training_labels_by_dsi_matrix,
    tree_walk,
)


def _separable_1d(n_neg=6, n_pos=6):
    x = np.concatenate([-1.0 - np.arange(n_neg), 1.0 + np.arange(n_pos)])
    y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
    return x[:, None], y


def _n_splits(tree) -> int:
    return int((tree.feature >= 0).sum())


def _votes(tree, x) -> np.ndarray:
    """Class votes in {-1, +1}; probability ties go positive."""
    return np.where(tree.predict_proba(x) >= 0.5, 1.0, -1.0)


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------

def test_tree_separable_single_split():
    x, y = _separable_1d()
    tree = train_tree(x, y)
    assert _n_splits(tree) == 1
    assert np.array_equal(_votes(tree, x), y)
    # midpoint of the gap between the closest opposite-class points
    assert tree.threshold[0] == 0.0


def test_tree_left_branch_is_strictly_less():
    x = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 1.0])
    tree = train_tree(x, y)
    thr = tree.threshold[0]
    # the threshold sample itself goes right
    assert tree.predict_proba(np.array([[thr]]))[0] >= 0.5
    assert tree.predict_proba(np.array([[thr - 1e-9]]))[0] < 0.5


def test_tree_xor_needs_three_splits():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    tree = train_tree(x, y)
    assert np.array_equal(_votes(tree, x), y)
    assert _n_splits(tree) >= 3


def test_tree_deterministic_on_duplicate_run():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 5))
    y = np.where(x[:, 2] + 0.3 * x[:, 0] > 0, 1.0, -1.0)
    a = train_tree(x, y, m_try=3, seed=42)
    b = train_tree(x, y, m_try=3, seed=42)
    assert a.to_dict() == b.to_dict()


def test_tree_zero_weight_samples_are_invisible():
    x = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    w = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    tree = train_tree(x, y, sample_weight=w)
    assert _n_splits(tree) == 1
    got = _votes(tree, x[1:])
    assert np.array_equal(got, y[1:])


def test_tree_tiebreak_prefers_lowest_feature():
    x1 = np.array([[-1.0], [1.0]])
    x = np.hstack([x1, x1.copy()])
    y = np.array([-1.0, 1.0])
    tree = train_tree(x, y)
    assert tree.feature[0] == 0


def test_tree_single_class_is_one_leaf():
    x = np.arange(5.0)[:, None]
    tree = train_tree(x, np.ones(5))
    assert _n_splits(tree) == 0
    assert np.all(tree.predict_proba(x) == 1.0)


def test_tree_split_budget_is_respected():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    tree = train_tree(x, y, max_splits=2)
    assert _n_splits(tree) <= 2


def _split_key(split):
    if split is None:
        return None
    f, thr, gain = split
    return int(f), float(thr).hex(), float(gain).hex()


def _random_node(rng):
    """A node as the growers see it: bootstrap-style duplicate rows,
    rounded (tied), constant and copied columns, zero-weight samples."""
    n = int(rng.integers(2, 40))
    nf = int(rng.integers(1, 12))
    x = rng.normal(size=(n, nf))
    for j in range(nf):
        mode = rng.integers(4)
        if mode == 1:
            x[:, j] = np.round(x[:, j] * rng.integers(1, 3))
        elif mode == 2:
            x[:, j] = float(rng.integers(-2, 3))
        elif mode == 3 and j > 0:
            x[:, j] = x[:, rng.integers(j)]
    if rng.random() < 0.3:
        x = x[np.sort(rng.integers(0, n, size=n))]
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    w = w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    wp = np.where(y > 0, w, 0.0)
    size = 2 if rng.random() < 0.2 else int(rng.integers(2, n + 1))
    idx = np.sort(rng.choice(n, size=size, replace=False))
    m = int(rng.integers(1, nf + 1))
    feat_ids = rng.choice(nf, size=m, replace=False)
    if rng.random() < 0.5:
        feat_ids = np.sort(feat_ids)  # as m_try draws them
    return x, w, wp, idx, feat_ids


def _lane_split(x, w, wp, idx, feat_ids):
    """The batched split search on one node, as a lane of its own."""
    weights = np.array((w, wp, w - wp))
    return _best_splits(x, np.arange(len(x)), weights, idx[None],
                        np.asarray(feat_ids)[None])[0]


def test_best_split_equals_per_feature_oracle():
    rng = np.random.default_rng(20240611)
    seen_none = seen_pair = 0
    for _ in range(600):
        x, w, wp, idx, feat_ids = _random_node(rng)
        want = per_feature_best_split(x, w, wp, idx, feat_ids)
        got = _lane_split(x, w, wp, idx, feat_ids)
        assert _split_key(got) == _split_key(want)
        seen_none += want is None
        seen_pair += idx.size == 2
    assert seen_none > 10 and seen_pair > 50

    # no valid cut: every drawn feature is constant on the node
    x = np.array([[1.0, 3.0, 0.0], [1.0, 3.0, 5.0], [1.0, 3.0, 9.0]])
    w = np.full(3, 1.0 / 3)
    wp = np.array([w[0], 0.0, w[2]])
    assert _lane_split(x, w, wp, np.arange(3), np.array([0, 1])) is None
    assert _split_key(_lane_split(x, w, wp, np.arange(3), np.array([0, 2]))) \
        == _split_key(per_feature_best_split(x, w, wp, np.arange(3),
                                             np.array([0, 2])))


def test_batched_lanes_equal_per_feature_oracle():
    # many nodes of one size in one call, each with its own samples
    # (through a row map with repeats) and its own feature draw
    rng = np.random.default_rng(77)
    for _ in range(60):
        x, w, wp, _, _ = _random_node(rng)
        n, nf = x.shape
        row = rng.integers(0, n, size=3 * n)
        ws = rng.random(3 * n) * (rng.random(3 * n) < 0.8)
        wps = np.where(rng.random(3 * n) < 0.4, ws, 0.0)
        k = int(rng.integers(2, 3 * n + 1))
        m = int(rng.integers(1, nf + 1))
        slots = np.array([np.sort(rng.choice(3 * n, size=k, replace=False))
                          for _ in range(int(rng.integers(1, 9)))])
        feats = np.array([np.sort(rng.choice(nf, size=m, replace=False))
                          for _ in slots])
        got = _best_splits(x, row, np.array((ws, wps, ws - wps)), slots, feats)
        for lane, found in zip(range(len(slots)), got):
            # the oracle sees the node as the rows it holds, in slot order
            rows = row[slots[lane]]
            want = per_feature_best_split(x[rows], ws[slots[lane]], wps[slots[lane]],
                                          np.arange(k), feats[lane])
            assert _split_key(found) == _split_key(want)


def _lockstep_inputs(rng, n, nf, n_tree, weighting, single_class=False):
    """A matrix with a rounded (tied) column, a copied and a constant
    column, sorted bootstrap rows per tree, and per-tree weights."""
    x = rng.normal(size=(n, nf))
    x[:, 0] = np.round(x[:, 0])
    if nf > 2:
        x[:, 2] = x[:, 1]
    if nf > 3:
        x[:, 3] = 1.5
    y = np.ones(n) if single_class else np.where(rng.random(n) < 0.5, 1.0, -1.0)
    rows = np.sort(rng.integers(0, n, size=(n_tree, n)), axis=1)
    weights = []
    for t in range(n_tree):
        if weighting == "uniform":
            wt = np.full(n, 1.0 / n)
        else:  # boosting-like spread, some zeros, some trees with no
            # positive weight at all
            wt = rng.random(n) ** 4 * (rng.random(n) < 0.75)
            if weighting == "zeros" and t % 3 == 0:
                wt[y[rows[t]] > 0] = 0.0
            wt = wt / wt.sum() if wt.sum() > 0 else np.full(n, 1.0 / n)
        weights.append(wt)
    return x, y, rows, weights


@pytest.mark.parametrize("n, nf, m_try, weighting, budget, single_class", [
    (1, 4, 2, "uniform", None, False),
    (2, 4, 1, "uniform", None, False),
    (3, 5, 5, "uniform", None, False),
    (4, 85, 10, "uniform", None, False),
    (12, 5, 2, "uniform", None, True),
    (16, 6, 3, "zeros", None, False),
    (40, 12, 3, "uniform", None, False),
    (40, 12, 12, "boosting", None, False),
    (30, 6, None, "boosting", None, False),
    (25, 6, 2, "uniform", 3, False),
])
def test_lockstep_forest_equals_one_tree_at_a_time(n, nf, m_try, weighting, budget,
                                                   single_class):
    rng = np.random.default_rng(1000 * n + nf)
    n_tree = 24
    x, y, rows, weights = _lockstep_inputs(rng, n, nf, n_tree, weighting, single_class)
    seeds = np.random.SeedSequence(n).spawn(n_tree)
    max_splits = n if budget is None else budget
    trees = _grow_trees(x, y, rows, weights, [np.random.default_rng(s) for s in seeds],
                        m_try, max_splits)
    for t, tree in enumerate(trees):
        want = grow_tree(x[rows[t]], y[rows[t]], weights[t], max_splits, m_try,
                         np.random.default_rng(seeds[t]))
        assert json.dumps(tree.to_dict()) == json.dumps(want), t
    if single_class:
        assert all(_n_splits(tree) == 0 for tree in trees)


def test_single_trees_under_a_binding_budget_equal_the_oracle():
    rng = np.random.default_rng(8)
    for trial in range(12):
        n = int(rng.integers(8, 40))
        x, y, _, (w,) = _lockstep_inputs(rng, n, 6, 1, "boosting")
        m_try = None if trial % 3 == 0 else int(rng.integers(1, 7))
        for budget in (0, 1, 2, 4):
            tree = train_tree(x, y, sample_weight=w, max_splits=budget,
                              m_try=m_try, seed=trial)
            want = grow_tree(x, y, w / w.sum(), budget, m_try,
                             np.random.default_rng(trial))
            assert json.dumps(tree.to_dict()) == json.dumps(want)
            assert _n_splits(tree) <= budget


@pytest.mark.parametrize("cells", [None, 64])
def test_leaf_values_equal_a_per_row_walk(monkeypatch, cells):
    rng = np.random.default_rng(5)
    x, y, rows, weights = _lockstep_inputs(rng, 40, 6, 30, "uniform")
    grown = tuple(_grow_trees(x, y, rows, weights,
                              [np.random.default_rng(s) for s in range(30)], 2, 40))
    trees = grown + tuple(_random_tree(rng, 6) for _ in range(10))
    if cells is not None:
        # lockstep blocks of a single tree each
        monkeypatch.setattr(classifiers, "_SPLIT_CELLS", cells)
    # probes on every threshold exercise the strict x < threshold rule
    probe = np.vstack([x, rng.normal(size=(20, 6))])
    for tree in grown[:5] + trees[-5:]:
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                probe = np.vstack([probe, probe[:1]])
                probe[-1, f] = thr
    holed = np.where(rng.random(probe.shape) < 0.3, np.nan, probe)
    # column 3 is constant, so no grown tree splits on it
    unread = probe.copy()
    unread[:, 3] = np.nan
    for z in (probe, holed, unread):
        walks = [tree_walk(t, z) for t in trees]
        values, determined = _leaf_values(trees, z)
        assert values.tobytes() == np.stack([v for v, _ in walks]).tobytes()
        assert np.array_equal(determined, np.stack([d for _, d in walks]))
        for tree, (v, d) in zip(trees, walks):
            single_values, single_determined = _leaf_values((tree,), z)
            assert single_values[0].tobytes() == v.tobytes()
            assert np.array_equal(single_determined[0], d)
            # a bare tree stops at a NaN split too
            assert tree.predict_proba(z).tobytes() == v.tobytes()
    assert _leaf_values(trees, probe)[1].all()
    assert not _leaf_values(trees, holed)[1].all()
    values, determined = _leaf_values(grown, unread)
    assert determined.all()
    assert values.tobytes() == _leaf_values(grown, probe)[0].tobytes()


# ---------------------------------------------------------------------------
# RUSBoost
# ---------------------------------------------------------------------------

def _imbalanced_separable(n_neg=1000, n_pos=10, seed=0):
    rng = np.random.default_rng(seed)
    xn = rng.normal(loc=-2.0, scale=0.5, size=(n_neg, 3))
    xp = rng.normal(loc=2.0, scale=0.5, size=(n_pos, 3))
    x = np.vstack([xn, xp])
    y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
    return x, y


def test_rusboost_balanced_accuracy_on_imbalanced_set():
    x, y = _imbalanced_separable()
    model = train_rusboost(x, y, n_trees=20, seed=1)
    pred = np.where(model.predict_proba(x) >= 0.5, 1.0, -1.0)
    tpr = (pred[y > 0] == 1.0).mean()
    tnr = (pred[y < 0] == -1.0).mean()
    assert 0.5 * (tpr + tnr) == 1.0


def test_rusboost_rounds_are_balanced_subsamples():
    x, y = _imbalanced_separable(n_neg=50, n_pos=5)
    trace = []
    train_rusboost(x, y, n_trees=8, seed=2, _trace=trace)
    assert len(trace) == 8
    for rec in trace:
        sub_y = y[rec["subsample"]]
        assert (sub_y > 0).sum() == 5
        assert (sub_y < 0).sum() == 5
        assert 0.0 <= rec["epsilon"] < 0.5


def test_rusboost_empty_model_predicts_half():
    model = RusBoostModel((), np.zeros(0), 0.1)
    assert np.all(model.predict_proba(np.zeros((4, 2))) == 0.5)


def test_rusboost_unlearnable_labels_stop_early():
    # identical inputs with balanced labels: every stump errs on half
    # the weight, so all resamples fail and no round is accepted
    x = np.zeros((10, 2))
    y = np.array([1.0, -1.0] * 5)
    model = train_rusboost(x, y, n_trees=30, seed=0)
    assert len(model.trees) == 0
    assert np.all(model.predict_proba(x) == 0.5)


def test_rusboost_memorizes_single_positive():
    x = np.vstack([np.zeros((40, 2)), np.full((3, 2), 5.0)])
    y = np.concatenate([-np.ones(40), np.ones(3)])
    model = train_rusboost(x, y, n_trees=10, seed=4)
    assert predict(model, np.array([[5.0, 5.0]]))[0] > 0.5


def test_rusboost_scores_equal_per_tree_loop_bitwise():
    x, y = _golden_matrix(300, 20, 16, seed=0)
    model = train_rusboost(x, y, n_trees=120, seed=3)
    assert len(model.trees) == 120
    rng = np.random.default_rng(21)
    probe = np.vstack([x, rng.normal(size=(40, 16)) * 2.0])
    # rows on a split threshold exercise the strict x < threshold rule
    for tree in model.trees[:10]:
        for f, thr in zip(tree.feature, tree.threshold):
            if f >= 0:
                probe = np.vstack([probe, probe[:1]])
                probe[-1, f] = thr
    # single rows and no rows: the running sum must not change its order
    for rows in (probe, probe[7:9], probe[:0], *(probe[i:i + 1] for i in range(0, 400, 40))):
        got = model.predict_proba(rows)
        assert got.tobytes() == rusboost_scores_per_tree(model, rows).tobytes()
    for n_trees in (1, 2, 17):
        prefix = model.prefix(n_trees)
        assert prefix.predict_proba(probe).tobytes() == \
            rusboost_scores_per_tree(prefix, probe).tobytes()


def test_rusboost_rejects_wrong_feature_count():
    x, y = _imbalanced_separable(n_neg=30, n_pos=5)
    model = train_rusboost(x, y, n_trees=4, seed=1)
    with pytest.raises(ValueError, match=r"expected \(n, 3\) inputs"):
        model.predict_proba(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="2D"):
        model.predict_proba(np.zeros(3))
    zero = RusBoostModel(model.trees, np.zeros(len(model.trees)), 0.1)
    assert np.all(zero.predict_proba(np.zeros((2, 4))) == 0.5)


def test_rusboost_deterministic():
    x, y = _imbalanced_separable(n_neg=60, n_pos=6, seed=5)
    a = train_rusboost(x, y, n_trees=12, seed=9)
    b = train_rusboost(x, y, n_trees=12, seed=9)
    assert np.array_equal(a.alphas, b.alphas)
    assert all(s.to_dict() == t.to_dict() for s, t in zip(a.trees, b.trees))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def _two_gaussians(n=60, seed=7):
    rng = np.random.default_rng(seed)
    xa = rng.normal(loc=-1.5, scale=0.6, size=(n, 4))
    xb = rng.normal(loc=1.5, scale=0.6, size=(n, 4))
    x = np.vstack([xa, xb])
    y = np.concatenate([-np.ones(n), np.ones(n)])
    return x, y


def test_rf_mtry_grid_bounds():
    grid = rf_mtry_grid(100)
    assert grid == (5, 10, 15, 20)
    assert all(5 <= m <= 20 for m in grid)


def test_rf_separates_two_gaussians():
    x, y = _two_gaussians()
    model = train_rf(x, y, seed=3, n_tree_grid=(20, 40), m_try_grid=(1, 2))
    pred = np.where(model.predict_proba(x) >= 0.5, 1.0, -1.0)
    assert (pred == y).mean() >= 0.95
    assert model.oob_error < 1.0


def test_rf_grid_selection_is_seed_deterministic():
    x, y = _two_gaussians(n=40, seed=11)
    a = train_rf(x, y, seed=21, n_tree_grid=(10, 20), m_try_grid=(1, 2, 4))
    b = train_rf(x, y, seed=21, n_tree_grid=(10, 20), m_try_grid=(1, 2, 4))
    assert (a.n_tree, a.m_try) == (b.n_tree, b.m_try)
    assert a.oob_error == b.oob_error
    assert all(s.to_dict() == t.to_dict() for s, t in zip(a.trees, b.trees))


def test_rf_oob_grid_equals_one_tree_at_a_time():
    # the forests of every grid column grown tree by tree with the oracle,
    # from the seed derivation of ``train_rf``, and scored from each
    # tree's own out-of-bag predictions
    x, y = _two_gaussians(n=24, seed=17)
    x[:, 1] = np.round(x[:, 1])
    n_tree_grid, m_try_grid = (4, 9, 20), (1, 2)
    model = train_rf(x, y, seed=6, n_tree_grid=n_tree_grid, m_try_grid=m_try_grid)
    children = np.random.SeedSequence(6).spawn(len(m_try_grid) + 1)
    want = {}
    for mi, m in enumerate(m_try_grid):
        vote_sum, vote_cnt = np.zeros(len(x)), np.zeros(len(x))
        for t, seed in enumerate(children[mi].spawn(n_tree_grid[-1])):
            rng = np.random.default_rng(seed)
            boot = np.sort(rng.integers(0, len(x), size=len(x)))
            tree = DecisionTree.from_dict(
                grow_tree(x[boot], y[boot], np.full(len(x), 1.0 / len(x)), len(x), m, rng),
                "oracle")
            oob = np.setdiff1d(np.arange(len(x)), boot)
            vote_sum[oob] += tree.predict_proba(x[oob]) >= 0.5
            vote_cnt[oob] += 1
            if t + 1 in n_tree_grid:
                covered = vote_cnt > 0
                pred = 2.0 * (vote_sum[covered] / vote_cnt[covered]) - 1.0
                want[(t + 1, m)] = float(((pred - y[covered]) ** 2).mean())
    assert model.oob_grid == tuple((nt, m, e) for (nt, m), e in sorted(want.items()))
    best = min(model.oob_grid, key=lambda point: point[2])
    assert (model.n_tree, model.m_try, model.oob_error) == best


def test_rf_probability_is_vote_fraction():
    x, y = _two_gaussians(n=30, seed=13)
    model = train_rf(x, y, seed=1, n_tree_grid=(10,), m_try_grid=(2,))
    p = model.predict_proba(x[:5])
    votes = np.stack([t.predict_proba(x[:5]) >= 0.5 for t in model.trees])
    assert np.allclose(p, votes.mean(axis=0))
    assert np.all((p * model.n_tree) % 1.0 == 0.0)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_group_folds_never_split_a_group():
    groups = [f"case{i % 7}" for i in range(35)]
    folds = group_folds(groups, 5)
    for g in set(groups):
        sel = [f for f, gg in zip(folds, groups) if gg == g]
        assert len(set(sel)) == 1


def test_group_folds_rejects_too_many_folds():
    with pytest.raises(ValueError):
        group_folds(["a", "b", "c"], 5)


def test_cv_constant_predictor_scores_one():
    # constant features leave every fold's booster at chance: a one-leaf
    # tree errs on half of the balanced training fold, so no round is
    # accepted and the empty ensemble predicts 0.5 everywhere
    x = np.zeros((20, 1))
    y = np.array([1.0, -1.0] * 10)
    groups = [f"c{i % 5}" for i in range(20)]
    losses = rusboost_cv_curve(x, y, groups=groups, n_trees_list=(1, 5), k=5, seed=0)
    assert losses == [1.0, 1.0]


def test_cv_perfect_classifier_scores_near_zero():
    x, y = _two_gaussians(n=50, seed=17)
    groups = [f"c{i % 10}" for i in range(len(x))]
    (loss,) = rusboost_cv_curve(x, y, groups=groups, n_trees_list=(15,), k=5, seed=0)
    assert loss < 0.35


def test_rusboost_cv_curve_not_increasing_to_plateau():
    x, y = _imbalanced_separable(n_neg=120, n_pos=12, seed=19)
    groups = [f"c{i % 8}" for i in range(len(x))]
    losses = rusboost_cv_curve(x, y, groups=groups,
                               n_trees_list=(1, 4, 16, 32), k=4, seed=5)
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9
    assert abs(losses[-1] - losses[-2]) <= 0.02


# ---------------------------------------------------------------------------
# label assignment
# ---------------------------------------------------------------------------

def _mask_candidate(data):
    return candidate_from_mask(BinaryMask(data, (1.0, 1.0, 1.0)))


def test_assign_labels_rule_table():
    dims = (24, 24, 24)
    lesion = ball_mask(dims, (1, 1, 1), (12, 12, 12), 6.0)
    exact = lesion.copy()
    partial = ball_mask(dims, (1, 1, 1), (12, 12, 12), 3.9)  # mid overlap
    far = ball_mask(dims, (1, 1, 1), (3, 3, 3), 2.0)
    cands = [_mask_candidate(m) for m in (exact, partial, far)]
    truth = [BinaryMask(lesion, (1.0, 1.0, 1.0))]
    labels = assign_training_labels(cands, truth)
    assert [l.label for l in labels] == [1, 0, -1]
    assert labels[0].lesion_index == 0
    assert labels[0].best_dsi == 1.0
    assert 0.2 <= labels[1].best_dsi < 0.6
    assert labels[2].best_dsi == 0.0


def test_assign_labels_one_positive_per_lesion():
    dims = (24, 24, 24)
    lesion = ball_mask(dims, (1, 1, 1), (12, 12, 12), 6.0)
    near = lesion & ball_mask(dims, (1, 1, 1), (12, 12, 12), 5.5)
    cands = [_mask_candidate(lesion), _mask_candidate(near)]
    labels = assign_training_labels(cands, [BinaryMask(lesion, (1.0, 1.0, 1.0))])
    assert sum(1 for l in labels if l.label == 1) == 1
    assert labels[0].label == 1  # the max-DSI candidate wins
    assert labels[1].label == 0  # high overlap but not the winner


def test_assign_labels_high_dsi_but_below_point_six():
    dims = (24, 24, 24)
    lesion = ball_mask(dims, (1, 1, 1), (12, 12, 12), 6.0)
    tiny = ball_mask(dims, (1, 1, 1), (12, 12, 12), 3.0)
    labels = assign_training_labels(
        [_mask_candidate(tiny)], [BinaryMask(lesion, (1.0, 1.0, 1.0))])
    assert labels[0].label == 0
    assert labels[0].best_dsi < 0.6


def test_assign_labels_no_lesions_everything_negative():
    dims = (12, 12, 12)
    blob = ball_mask(dims, (1, 1, 1), (6, 6, 6), 3.0)
    labels = assign_training_labels([_mask_candidate(blob)], [])
    assert labels == [CandidateLabel(-1, None, 0.0)]


class _Region:
    """A candidate as the labelling reads it: its original-grid indices,
    which may be empty."""

    def __init__(self, indices):
        self.indices = np.asarray(indices, dtype=np.int64)

    def original_indices(self):
        return self.indices


def _label_keys(labels):
    return [(lab.label, lab.lesion_index, lab.best_dsi.hex()) for lab in labels]


def _oracle_keys(candidates, truths):
    return [(label, j, best.hex())
            for label, j, best in training_labels_by_dsi_matrix(candidates, truths)]


def test_assign_labels_at_exactly_the_thresholds():
    truth = np.zeros((3, 4, 5), bool)
    truth.flat[:5] = True
    cands = [_Region([0, 1, 2, 10, 11]), _Region([4, 20, 21, 22, 23]), _Region([])]
    truths = [BinaryMask(truth, (1.0, 1.0, 1.0)), BinaryMask(np.zeros_like(truth), (1, 1, 1))]
    labels = assign_training_labels(cands, truths)
    # 2 * 3 / 10 is 0.6 and 2 * 1 / 10 is 0.2; an empty candidate is
    # identical to an empty lesion
    assert [(lab.label, lab.lesion_index, lab.best_dsi) for lab in labels] == \
        [(1, 0, 0.6), (0, None, 0.2), (1, 1, 1.0)]
    assert _label_keys(labels) == _oracle_keys(cands, truths)


def test_assign_labels_match_the_dsi_matrix_oracle():
    rng = np.random.default_rng(41)
    dims = (6, 6, 4)
    seen = set()
    for _ in range(80):
        truths = [rng.random(dims) < rng.choice([0.0, 0.05, 0.2, 0.5])
                  for _ in range(int(rng.integers(0, 4)))]
        if len(truths) > 1:
            truths[1] |= truths[0]  # overlapping lesions
        cands = [_Region(np.flatnonzero(rng.random(dims) < p))
                 for p in rng.choice([0.0, 0.05, 0.2, 0.6], size=int(rng.integers(0, 8)))]
        cands += [_Region(np.flatnonzero(t)) for t in truths[:1]]
        masks = [BinaryMask(t, (1.0, 1.0, 1.0)) for t in truths]
        labels = assign_training_labels(cands, masks)
        assert _label_keys(labels) == _oracle_keys(cands, masks)
        seen.update(lab.label for lab in labels)
    assert seen == {-1, 0, 1}


# the labelling's rise over a file-backed 80x80x40 case (seed 5, the first
# case of the benchmark's suite), its candidates upscaled as it runs:
# 4.71 grids reading each lesion mask at every candidate's voxels; 9.9
# through dsi_matrix's incidence of every candidate's indices
def test_labelling_peak_in_grids(tmp_path):
    dims = (80, 80, 40)
    record = generate_suite(1, 5, tmp_path, dims=dims, diameter_range_mm=(6.0, 16.0))[0]
    case = load_case(record)
    cands = generate_candidates(case)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        labels = assign_training_labels(cands, case.ground_truth)
        rise = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert {lab.label for lab in labels} == {-1, 0, 1}
    assert rise / (8 * np.prod(dims)) <= 5.0


# ---------------------------------------------------------------------------
# samples, prediction API, serialization
# ---------------------------------------------------------------------------

def _fake_vector(seed):
    rng = np.random.default_rng(seed)
    return FeatureVector(rng.normal(size=len(FEATURE_SCHEMA)))


def _rows(samples):
    return np.stack([s.features.values for s in samples])


def test_labeled_samples_train_and_predict():
    samples = [LabeledSample(_fake_vector(i), 1 if i % 2 else -1, f"c{i % 4}")
               for i in range(16)]
    model = train_rusboost(samples, n_trees=5, seed=0)
    batch = predict(model, _rows(samples[:3]))
    assert batch.shape == (3,)
    assert ((0.0 <= batch) & (batch <= 1.0)).all()
    # predict scores a 2D row matrix, never a single row
    with pytest.raises(ValueError, match="2D"):
        predict(model, samples[0].features.values)


def test_check_schema_refuses_foreign_models():
    samples = [LabeledSample(_fake_vector(i), 1 if i % 2 else -1, "c")
               for i in range(8)]
    x, y = _rows(samples), [s.label for s in samples]
    # a model fit on samples takes schema rows; one fit on a matrix is untagged
    model = train_rusboost(samples, n_trees=3, seed=0)
    assert model.schema_id == FEATURE_SCHEMA_ID
    assert train_rusboost(x, y, n_trees=3, seed=0).schema_id is None
    check_schema(model, "m")
    check_schema(replace(model, schema_id=None), "m")
    with pytest.raises(ValueError, match="^m: field 'schema_id' is 'other-schema'"):
        check_schema(replace(model, schema_id="other-schema"), "m")
    narrow = train_rf(x[:, :5], y, seed=0, n_tree_grid=(3,), m_try_grid=(2,))
    with pytest.raises(ValueError, match="^m: field 'n_features' is 5"):
        check_schema(narrow, "m")


def test_batch_scores_equal_one_at_a_time_scores():
    samples = [LabeledSample(_fake_vector(i), 1 if i % 3 else -1, f"c{i % 4}")
               for i in range(24)]
    x = _rows(samples)
    for model in (train_rusboost(samples, n_trees=8, seed=1),
                  train_rf(samples, seed=1, n_tree_grid=(15,), m_try_grid=(4,))):
        batch = predict(model, x)
        single = np.concatenate([predict(model, x[i:i + 1]) for i in range(len(x))])
        assert batch.tobytes() == single.tobytes()


def test_split_features_are_the_union_of_the_trees_splits():
    samples = [LabeledSample(_fake_vector(i), 1 if i % 3 else -1, f"c{i % 4}")
               for i in range(24)]
    for model in (train_rusboost(samples, n_trees=8, seed=1),
                  train_rf(samples, seed=1, n_tree_grid=(15,), m_try_grid=(4,))):
        want = sorted({int(f) for t in model.trees for f in t.feature if f >= 0})
        assert split_features(model).tolist() == want
    assert split_features(RusBoostModel((), np.zeros(0), 0.1)).size == 0


def test_predict_refuses_non_finite_read_features_only():
    samples = [LabeledSample(_fake_vector(i), 1 if i % 3 else -1, f"c{i % 4}")
               for i in range(24)]
    x = _rows(samples)
    for model in (train_rusboost(samples, n_trees=8, seed=1),
                  train_rf(samples, seed=1, n_tree_grid=(15,), m_try_grid=(4,))):
        read = split_features(model)
        unread = np.setdiff1d(np.arange(len(FEATURE_SCHEMA)), read)
        assert read.size and unread.size
        want = predict(model, x)
        holed = x.copy()
        holed[:, unread] = np.nan
        assert predict(model, holed).tobytes() == want.tobytes()
        assert predict(model, holed[:1]).tobytes() == want[:1].tobytes()
        for k, value in ((read[0], np.nan), (read[-1], np.inf)):
            bad = x[:2].copy()
            bad[1, k] = value
            with pytest.raises(ValueError, match=f"feature {FEATURE_SCHEMA[k]} "):
                predict(model, bad)
            with pytest.raises(ValueError, match=FEATURE_SCHEMA[k]):
                predict(model, bad[1:])


def _random_tree(rng, nf, depth=3):
    """A random tree of up to ``depth`` splits per path, leaf values
    drawn with the 0.5 tie among them."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(d):
        i = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.choice([0.0, 0.5, 1.0, rng.random()])))
        if d and rng.random() < 0.8:
            feature[i] = int(rng.integers(nf))
            threshold[i] = float(rng.normal())
            left[i] = grow(d - 1)
            right[i] = grow(d - 1)
        return i

    grow(depth)
    return DecisionTree(np.array(feature), np.array(threshold), np.array(left),
                        np.array(right), np.array(value), nf)


def test_upper_proba_bounds_every_completion():
    rng = np.random.default_rng(17)
    nf = 5
    for trial in range(40):
        trees = tuple(_random_tree(rng, nf) for _ in range(int(rng.integers(1, 9))))
        alphas = rng.normal(0.3, 1.0, size=len(trees))
        # hand-set zero and negative weights, and weight sums <= 0
        alphas[rng.random(len(trees)) < 0.2] = 0.0
        if trial % 4 == 1:
            alphas = -np.abs(alphas)
        elif trial % 4 == 2:
            alphas[-1] = -alphas[:-1].sum()
        models = (RusBoostModel(trees, alphas, 0.1),
                  RandomForestModel(trees, len(trees), 1))
        x = rng.normal(size=(12, nf))
        # probes on the thresholds exercise the strict x < threshold rule
        pool = np.concatenate([rng.normal(size=8), *(t.threshold for t in trees)])
        ties = rng.random(x.shape) < 0.2
        x[ties] = rng.choice(pool, size=int(ties.sum()))
        holes = rng.random(x.shape) < rng.uniform(0.1, 0.6)
        masked = np.where(holes, np.nan, x)
        for model in models:
            exact = model.predict_proba(x)
            assert model.upper_proba(x).tobytes() == exact.tobytes()
            upper = model.upper_proba(masked)
            for _ in range(20):
                filled = np.where(holes, rng.choice(pool, size=x.shape), x)
                assert (upper >= model.predict_proba(filled)).all()
            read = split_features(model)
            if np.isnan(masked[:, read]).any():
                with pytest.raises(ValueError, match="not finite"):
                    predict(model, masked)


def test_training_arrays_must_be_finite():
    x, y = _imbalanced_separable(n_neg=20, n_pos=6, seed=3)
    for row, col, value in ((3, 0, np.nan), (5, 1, np.inf)):
        bad = x.copy()
        bad[row, col] = value
        for train in (train_tree, train_rusboost, train_rf):
            with pytest.raises(ValueError, match="features must be finite"):
                train(bad, y)


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(_fake_vector(0), 2, "c")
    bad = np.zeros(len(FEATURE_SCHEMA))
    bad[3] = np.nan
    with pytest.raises(ValueError):
        LabeledSample(FeatureVector(bad), 1, "c")


def test_model_json_roundtrip(tmp_path):
    x, y = _imbalanced_separable(n_neg=40, n_pos=8, seed=23)
    rus = replace(train_rusboost(x, y, n_trees=6, seed=2), schema_id="s1")
    path = tmp_path / "rus.json"
    save_model(path, rus)
    back = load_model(path)
    assert isinstance(back, RusBoostModel)
    assert back.schema_id == "s1"
    assert np.array_equal(back.predict_proba(x), rus.predict_proba(x))

    xf, yf = _two_gaussians(n=20, seed=29)
    rf = replace(train_rf(xf, yf, seed=7, n_tree_grid=(10,), m_try_grid=(2,)),
                 schema_id="s1")
    path2 = tmp_path / "rf.json"
    save_model(path2, rf)
    back2 = load_model(path2)
    assert (back2.n_tree, back2.m_try) == (rf.n_tree, rf.m_try)
    assert np.array_equal(back2.predict_proba(xf), rf.predict_proba(xf))


def test_model_dict_rejects_foreign_payload():
    with pytest.raises(ValueError):
        model_from_dict({"format": "something-else", "version": 1})
    x, y = _separable_1d()
    tree = train_tree(x, y)
    with pytest.raises(ValueError):
        model_to_dict(tree)  # bare trees are not a persisted model kind


def test_model_dict_rejects_a_child_that_points_back():
    # a split node whose child is itself or an earlier node would send
    # prediction round a cycle forever
    x, y = _separable_1d()
    doc = model_to_dict(train_rusboost(x, y, n_trees=1, seed=0))
    assert doc["trees"][0]["feature"][0] >= 0
    for target in (0, -1):
        bad = json.loads(json.dumps(doc))
        bad["trees"][0]["right"][0] = target
        with pytest.raises(ValueError, match="trees\\[0\\]: field 'right'"):
            model_from_dict(bad)


def test_duplicated_tree_moves_rf_probability_monotonically():
    x, y = _two_gaussians(n=20, seed=31)
    model = train_rf(x, y, seed=7, n_tree_grid=(10,), m_try_grid=(2,))
    probe = x[:1]
    base = float(model.predict_proba(probe)[0])
    tree = model.trees[0]
    vote = float(tree.predict_proba(probe)[0] >= 0.5)
    from siftcad.classifiers import RandomForestModel
    grown = RandomForestModel(model.trees + (tree,), model.n_tree + 1,
                              model.m_try)
    moved = float(grown.predict_proba(probe)[0])
    if vote > base:
        assert moved > base
    elif vote < base:
        assert moved < base
    else:
        assert moved == base


# ---------------------------------------------------------------------------
# frozen model bytes
# ---------------------------------------------------------------------------

def _golden_matrix(n_neg, n_pos, n_features, seed):
    """Shifted positives with a rounded (tied) column, a constant column
    and a copy of column 0 (an exact tie between two features)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_neg + n_pos, n_features))
    x[n_neg:, :4] += 1.5
    x[:, 3] = np.round(x[:, 3])
    x[:, 4] = 2.5
    x[:, 5] = x[:, 0]
    y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
    return x, y


def _model_sha256(model):
    text = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_models_match_frozen_golden():
    # frozen before the split search was vectorised; any change to the
    # model bytes is a behaviour change and has to be declared
    x, y = _golden_matrix(300, 20, 16, seed=0)
    rus = train_rusboost(x, y, n_trees=60, seed=3)
    assert len(rus.trees) == 60
    assert _model_sha256(rus) == (
        "88911d4a59444e9b28d32983bb6be3b6d4a0978eb264f717efc231cd29309c07")

    # bootstraps of 64 samples repeat samples; the grid runs m_try 2-8
    x, y = _golden_matrix(40, 24, 16, seed=1)
    rf = train_rf(x, y, seed=5, n_tree_grid=(10, 30))
    assert (rf.n_tree, rf.m_try) == (30, 6)
    assert _model_sha256(rf) == (
        "b0bbf426919560c7a7bd2523a48c8c0866e5634fa9e14f335ced7d871d2e285f")
