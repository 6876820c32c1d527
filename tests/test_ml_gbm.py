"""Tests for the gradient boosting machine.

Every fit is held to ``gbm_oracle.oracle_fit``, the one-model round loop
over the node-by-node learner that the joint fit replaced.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from gbm_oracle import oracle_fit
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ml_tree import tree_predict

from repro import FleetConfig, FleetGenerator, fast_profile
from repro.core.autowlm import AutoWLMPredictor
from repro.local_model import LocalModel
from repro.ml.ensemble import BayesianGBMEnsemble
from repro.ml.gbm import GradientBoostingModel, fit_models


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 6))
    y = 2 * X[:, 0] - X[:, 1] ** 2 + 0.3 * rng.normal(size=600)
    return X, y


class TestFitBasics:
    def test_improves_over_constant(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=50, max_depth=3, random_state=0)
        model.fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.5 * np.var(y)

    def test_train_loss_non_increasing_without_subsample(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = X[:, 0] + rng.normal(size=300) * 0.1
        model = GradientBoostingModel(
            n_estimators=30,
            max_depth=3,
            subsample=1.0,
            early_stopping_rounds=None,
            random_state=0,
        )
        model.fit(X, y)
        losses = np.array(model.train_losses_)
        assert (np.diff(losses) <= 1e-9).all()

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty"):
            GradientBoostingModel().fit(np.zeros((0, 3)), np.zeros(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            GradientBoostingModel().fit(np.zeros((5, 3)), np.zeros(4))

    def test_1d_x_raises(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            GradientBoostingModel().fit(np.zeros(5), np.zeros(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GradientBoostingModel().predict(np.zeros((2, 2)))

    def test_zero_rounds_predict_the_initial_score(self):
        X = np.arange(20.0).reshape(10, 2)
        model = GradientBoostingModel(n_estimators=0, random_state=0).fit(X, X[:, 0])
        assert model.n_trees == 0
        assert (model.predict(X) == np.mean(X[:, 0])).all()

    def test_tiny_dataset_trains(self):
        """Below the early-stopping row threshold the model still fits."""
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        model = GradientBoostingModel(n_estimators=10, random_state=0)
        model.fit(X, y)
        assert model.predict(X).shape == (4,)


class TestEarlyStopping:
    def test_early_stopping_limits_rounds(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        y = rng.normal(size=400)  # pure noise: should stop early
        model = GradientBoostingModel(
            n_estimators=200,
            early_stopping_rounds=5,
            random_state=0,
        )
        model.fit(X, y)
        assert model.best_iteration_ < 200
        assert model.n_trees == model.best_iteration_

    def test_explicit_eval_set(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=40, early_stopping_rounds=5, random_state=0)
        model.fit(X[:400], y[:400], eval_set=(X[400:], y[400:]))
        assert len(model.val_losses_) >= model.best_iteration_

    def test_disabled_early_stopping_runs_all_rounds(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = GradientBoostingModel(n_estimators=15, early_stopping_rounds=None, random_state=0)
        model.fit(X, y)
        assert model.n_trees == 15


class TestObjectives:
    def test_absolute_error_objective(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="absolute_error",
            n_estimators=60,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        mae = np.mean(np.abs(model.predict(X) - y))
        assert mae < np.mean(np.abs(y - np.median(y)))

    def test_gaussian_nll_outputs_mean_and_variance(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=40,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        mean, var = model.predict_dist(X)
        assert mean.shape == var.shape == y.shape
        assert (var > 0).all()
        # the mean head should still track the target
        assert np.corrcoef(mean, y)[0, 1] > 0.8

    def test_gaussian_nll_variance_tracks_noise(self):
        """Heteroscedastic data: predicted variance should be larger in the
        high-noise region than in the low-noise region."""
        rng = np.random.default_rng(3)
        n = 2000
        X = rng.uniform(-1, 1, size=(n, 1))
        noise = np.where(X[:, 0] > 0, 2.0, 0.1)
        y = rng.normal(scale=noise)
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=60,
            max_depth=2,
            learning_rate=0.2,
            random_state=0,
        )
        model.fit(X, y)
        _, var = model.predict_dist(np.array([[0.5], [-0.5]]))
        assert var[0] > var[1]


class TestSampling:
    def test_subsample_and_colsample(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            n_estimators=40,
            subsample=0.7,
            colsample=0.5,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        assert np.mean((model.predict(X) - y) ** 2) < np.var(y)

    def test_seed_reproducibility(self, regression_data):
        X, y = regression_data
        preds = []
        for _ in range(2):
            model = GradientBoostingModel(n_estimators=20, subsample=0.8, random_state=42)
            model.fit(X, y)
            preds.append(model.predict(X[:20]))
        np.testing.assert_allclose(preds[0], preds[1])

    def test_different_seeds_differ(self, regression_data):
        X, y = regression_data
        models = [
            GradientBoostingModel(
                n_estimators=20, subsample=0.8, random_state=s
            ).fit(X, y)
            for s in (0, 1)
        ]
        assert not np.allclose(models[0].predict(X[:50]), models[1].predict(X[:50]))


class TestIntrospection:
    def test_n_trees_counts_params(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=10,
            early_stopping_rounds=None,
            random_state=0,
        )
        model.fit(X, y)
        assert model.best_iteration_ == 10
        assert model.n_trees == 2 * 10

    def test_byte_size_positive(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=5, random_state=0)
        assert model.byte_size() == 0
        model.fit(X, y)
        assert model.byte_size() > 0


# ---------------------------------------------------------------------------
# the packed forest against the per-tree oracle
# ---------------------------------------------------------------------------
def oracle_twin(model, X, y, eval_set=None):
    """``model``'s settings fit by the oracle: the twin model, the trees
    its fit kept (in fit order) and the fit's binner."""
    twin = copy.copy(model)
    trees, binner = oracle_fit(twin, X, y, eval_set)
    return twin, trees, binner


def assert_fit_equals(model, twin):
    """``model`` holds exactly what ``twin`` holds: every packed table,
    the initial score, the kept rounds and both loss curves."""
    for name in model.forest_._fields:
        got, want = getattr(model.forest_, name), getattr(twin.forest_, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert model.init_raw_.tobytes() == twin.init_raw_.tobytes()
    assert model.best_iteration_ == twin.best_iteration_
    for name in ("train_losses_", "val_losses_"):
        got, want = getattr(model, name), getattr(twin, name)
        assert all(type(v) is float for v in got), name
        assert np.array(got).tobytes() == np.array(want).tobytes(), name


def predict_raw_per_tree(model, trees, X):
    """The reference inference: the initial score, then each kept tree's
    scaled leaf values added one tree at a time, round by round."""
    n_params = model.init_raw_.size
    raw = np.tile(model.init_raw_, (len(X), 1))
    for t, tree in enumerate(trees):
        raw[:, t % n_params] += model.learning_rate * tree_predict(tree, X)
    return raw


def pack_per_tree(trees):
    """``trees`` packed node by node: per tree, internal nodes and leaves
    numbered on from the trees before it, in node order, a reference to
    a leaf stored as ``~leaf`` — LightGBM's layout, written out."""
    feature, threshold, left, right, leaf_value, roots = [], [], [], [], [], []
    for tree in trees:
        ref = {}
        for nid in range(tree.n_nodes_):
            if tree.is_leaf_[nid]:
                ref[nid] = ~len(leaf_value)
                leaf_value.append(tree.value_[nid])
            else:
                ref[nid] = len(feature)
                feature.append(tree.feature_[nid])
                threshold.append(tree.threshold_[nid])
        for nid in range(tree.n_nodes_):
            if not tree.is_leaf_[nid]:
                left.append(ref[tree.left_[nid]])
                right.append(ref[tree.right_[nid]])
        roots.append(ref[0])
    return {
        "feature": np.array(feature, dtype=np.int32),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int32),
        "right": np.array(right, dtype=np.int32),
        "leaf_value": np.array(leaf_value, dtype=np.float64),
        "roots": np.array(roots, dtype=np.int32),
    }


def assert_packed(model, trees):
    """The model's tables are exactly ``trees`` packed."""
    for name, want in pack_per_tree(trees).items():
        got = getattr(model.forest_, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


def _probe_rows(X, model, rng):
    """Training rows plus adversarial ones: every split threshold of the
    forest, its float neighbours and NaN, +-inf, -0.0, 0.0 in each
    column, and rows made only of those values; shuffled."""
    forest = model.forest_
    blocks = [X]
    for j in range(X.shape[1]):
        t = forest.threshold[forest.feature == j]
        values = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), _SPECIALS])
        block = np.repeat(X[:3], values.size, axis=0)
        block[:, j] = np.tile(values, 3)
        blocks.append(block)
    blocks.append(np.repeat(_SPECIALS[:, None], X.shape[1], axis=1))
    P = np.concatenate(blocks)
    return P[rng.permutation(len(P))]


def assert_walk_matches_oracle(model, trees, P, rng):
    """``predict_raw`` equals the per-tree oracle bit for bit on ``P`` as
    one batch, row by row, in random chunks and in reversed order."""
    want = predict_raw_per_tree(model, trees, P)
    assert model.predict_raw(P).tobytes() == want.tobytes()
    for i in rng.choice(len(P), size=min(len(P), 12), replace=False):
        assert model.predict_raw(P[i : i + 1]).tobytes() == want[i : i + 1].tobytes()
    cuts = np.sort(rng.choice(np.arange(1, len(P)), size=min(len(P) - 1, 4), replace=False))
    got = np.concatenate([model.predict_raw(chunk) for chunk in np.split(P, cuts)])
    assert got.tobytes() == want.tobytes()
    assert model.predict_raw(P[::-1]).tobytes() == want[::-1].tobytes()


@st.composite
def _boosting_problems(draw):
    """Small boosting fits rich in the walk's edge cases: NaN features,
    a low-cardinality column whose values sit on thresholds, depths 1-6,
    one- and two-parameter objectives, leaf-size limits that leave every
    root a leaf, and pure-noise targets that stop early and trim."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=20, max_value=120))
    n_features = draw(st.integers(min_value=1, max_value=5))
    X = rng.normal(size=(n, n_features))
    X[:, 0] = rng.integers(-2, 3, size=n)
    X[rng.random(X.shape) < 0.1] = np.nan
    if draw(st.booleans()):
        y = 2.0 * np.nan_to_num(X[:, 0]) + rng.normal(size=n) * 0.3
    else:
        y = rng.normal(size=n)  # noise: early stopping trims rounds
    params = dict(
        objective=draw(st.sampled_from(["absolute_error", "gaussian_nll"])),
        n_estimators=draw(st.integers(min_value=1, max_value=12)),
        max_depth=draw(st.integers(min_value=1, max_value=6)),
        min_samples_leaf=draw(st.sampled_from([1, 3, 200])),  # 200: stumps
        early_stopping_rounds=draw(st.sampled_from([None, 1, 3])),
        subsample=draw(st.sampled_from([1.0, 0.7])),
        colsample=draw(st.sampled_from([1.0, 0.6])),
        learning_rate=draw(st.sampled_from([0.1, 0.3])),
        random_state=seed % 1000,
    )
    return X, y, params, rng


class TestPackedWalk:
    @given(_boosting_problems())
    def test_predict_raw_matches_per_tree_oracle(self, problem):
        X, y, params, rng = problem
        model = GradientBoostingModel(**params).fit(X, y)
        twin, trees, _ = oracle_twin(model, X, y)
        assert_packed(model, trees)
        assert_fit_equals(model, twin)
        assert_walk_matches_oracle(model, trees, _probe_rows(X, model, rng), rng)

    @pytest.mark.parametrize("objective", ["absolute_error", "gaussian_nll"])
    def test_stumps_whose_root_is_a_leaf(self, objective):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        model = GradientBoostingModel(
            objective=objective, n_estimators=5, min_samples_leaf=40, random_state=0
        ).fit(X, y)
        _, trees, _ = oracle_twin(model, X, y)
        assert (model.forest_.roots < 0).all()
        assert model.forest_.feature.size == 0
        assert_packed(model, trees)
        assert_walk_matches_oracle(model, trees, _probe_rows(X, model, rng), rng)

    @pytest.mark.parametrize("objective", ["absolute_error", "gaussian_nll"])
    def test_early_stopping_trims_rounds(self, objective):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        params = dict(n_estimators=40, max_depth=6, early_stopping_rounds=3, random_state=1)
        model = GradientBoostingModel(objective=objective, **params).fit(X, y)
        n_params = model.init_raw_.size
        assert len(model.train_losses_) * n_params > model.n_trees
        assert model.n_trees == model.best_iteration_ * n_params
        twin, trees, _ = oracle_twin(model, X, y)
        assert_packed(model, trees)
        assert_fit_equals(model, twin)
        assert_walk_matches_oracle(model, trees, _probe_rows(X, model, rng), rng)


# ---------------------------------------------------------------------------
# the joint fit against the one-model oracle
# ---------------------------------------------------------------------------
@st.composite
def _joint_problems(draw):
    """Joint fits of 1-5 models rich in the grower's edge cases: NaN,
    +-inf and constant columns, a low-cardinality column, all three
    objectives, row and column subsampling, leaf sizes that force stumps,
    noise targets whose early stopping ends members at different rounds,
    and an explicit validation set."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=2, max_value=90))
    X = rng.normal(size=(n, draw(st.integers(min_value=1, max_value=4))))
    X[:, 0] = rng.integers(-2, 3, size=n)
    extra = []
    if draw(st.booleans()):
        extra.append(np.full(n, 2.5))  # constant
    if draw(st.booleans()):
        extra.append(rng.choice([np.nan, np.inf, -np.inf, 1.0, 2.0], size=n))
    X = np.column_stack([X, *extra])
    if draw(st.booleans()):
        X[rng.random(X.shape) < 0.1] = np.nan
    if draw(st.booleans()):
        y = 2.0 * np.nan_to_num(X[:, 0]) + rng.normal(size=n) * 0.3
    else:
        y = rng.normal(size=n)  # noise: members stop early, each on its own round
    params = dict(
        objective=draw(st.sampled_from(["squared_error", "absolute_error", "gaussian_nll"])),
        n_estimators=draw(st.integers(min_value=0, max_value=10)),
        max_depth=draw(st.integers(min_value=0, max_value=5)),
        min_samples_leaf=draw(st.sampled_from([0, 1, 3, 200])),  # 200: stumps
        min_child_weight=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        early_stopping_rounds=draw(st.sampled_from([None, 1, 2, 3])),
        subsample=draw(st.sampled_from([1.0, 0.6])),
        colsample=draw(st.sampled_from([1.0, 0.5])),
        learning_rate=draw(st.sampled_from([0.1, 0.5])),
        max_bins=draw(st.sampled_from([4, 64])),
    )
    n_models = draw(st.integers(min_value=1, max_value=5))
    eval_set = None
    if n_models == 1 and draw(st.booleans()):
        eval_set = (X[: max(1, n // 4)], y[: max(1, n // 4)])
    return X, y, params, n_models, eval_set, seed % 1000


def assert_joint_fit_matches_oracle(X, y, params, n_models, eval_set, seed):
    models = [GradientBoostingModel(random_state=seed + k, **params) for k in range(n_models)]
    with np.errstate(invalid="ignore", over="ignore"):
        fit_models(models, X, y, eval_set)
        for model in models:
            assert_fit_equals(model, oracle_twin(model, X, y, eval_set)[0])
    return models


class TestJointFit:
    @given(_joint_problems())
    @settings(max_examples=120, deadline=None)
    def test_every_model_equals_its_fit_alone(self, problem):
        assert_joint_fit_matches_oracle(*problem)

    def test_members_stop_at_different_rounds(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        params = dict(objective="gaussian_nll", n_estimators=30, max_depth=3)
        params.update(early_stopping_rounds=2, subsample=0.8)
        models = assert_joint_fit_matches_oracle(X, y, params, 5, None, 11)
        rounds = [len(m.train_losses_) for m in models]
        assert len(set(rounds)) > 1 and max(rounds) < 30

    def test_models_must_share_settings(self):
        models = [GradientBoostingModel(max_depth=2), GradientBoostingModel(max_depth=3)]
        with pytest.raises(ValueError, match="share every setting"):
            fit_models(models, np.zeros((30, 2)), np.zeros(30))

    def test_ensemble_members_equal_their_fits_alone(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        y = X[:, 0] + 0.3 * rng.normal(size=120)
        ens = BayesianGBMEnsemble(n_members=3, n_estimators=15, max_depth=3, random_state=4)
        ens.fit(X, y)
        for k, member in enumerate(ens.members_):
            alone = GradientBoostingModel(
                objective="gaussian_nll", random_state=4 + k, **ens.gbm_kwargs
            ).fit(X, y)
            assert_fit_equals(member, alone)


def _held_arrays(value):
    """Every ndarray ``value`` holds, through tuples, lists, dicts and
    object attributes."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _held_arrays(v)]
    if isinstance(value, dict):
        return _held_arrays(list(value.values()))
    if hasattr(value, "__dict__"):
        return _held_arrays(vars(value))
    return []


class TestSizeAccounting:
    @pytest.mark.parametrize("objective", ["absolute_error", "gaussian_nll"])
    def test_byte_size_is_every_held_array(self, regression_data, objective):
        X, y = regression_data
        model = GradientBoostingModel(objective=objective, n_estimators=40, random_state=0)
        model.fit(X, y)
        arrays = _held_arrays(model)
        assert len(arrays) == 7  # six forest tables and the initial score
        assert model.byte_size() == sum(a.nbytes for a in arrays)

    def test_pickle_is_weights_only(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(objective="gaussian_nll", n_estimators=40, random_state=0)
        model.fit(X, y)
        assert model.byte_size() > 4 * 1024
        assert len(pickle.dumps(model)) <= model.byte_size() + 4 * 1024


# ---------------------------------------------------------------------------
# golden model digests
# ---------------------------------------------------------------------------
#: SHA-256 of every tree array of two models fit on a fixed trace prefix,
#: recorded before the split search was vectorized.  Any change to the fit
#: kernel that moves one bit of one tree changes them.  They fingerprint a
#: numpy build too (featurization and the Gaussian-NLL gradients go through
#: its exp/log kernels), like the drift-gated results/*.txt do.  A fitted
#: model holds no tree, so the digests hash the trees the oracle
#: (``gbm_oracle``) grows and keeps refitting the same data, and the tests
#: assert the model's packed tables are those trees.
GOLDEN_LOCAL_ENSEMBLE = "f77a3a784b14d240dffcdf484ac8390599d835dabb6b4b14974591f428b7486e"
GOLDEN_AUTOWLM = "27e106571f3a07b08d4a5bd4c62117c09b5432cf16d0a4c1476817e522c5b7dc"


def _tree_digest(fits):
    """Hash the kept trees of ``fits`` (``(model, trees, binner)`` from
    :func:`oracle_twin`) as the digests were recorded: with each split's
    bin index beside its raw threshold.  A tree stores only the
    threshold, the bin's upper edge, so the index is rebuilt from the
    edges of the binner each fit used."""
    digest = hashlib.sha256()
    for model, trees, binner in fits:
        digest.update(np.asarray(model.init_raw_, dtype=np.float64).tobytes())
        for tree in trees:
            threshold_bin = np.zeros(tree.n_nodes_, dtype=np.int32)
            for nid in np.flatnonzero(~tree.is_leaf_):
                edges = binner.bin_edges_[tree.feature_[nid]]
                threshold_bin[nid] = np.searchsorted(edges, tree.threshold_[nid])
                assert edges[threshold_bin[nid]] == tree.threshold_[nid]
            for array in (
                tree.feature_,
                tree.threshold_,
                threshold_bin,
                tree.left_,
                tree.right_,
                tree.value_,
                tree.is_leaf_,
            ):
                digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trace_prefix():
    gen = FleetGenerator(FleetConfig(seed=1, volume_scale=0.3))
    trace = gen.generate_trace(gen.sample_instance(0), 2.0)
    return [trace[i] for i in range(400)]


def recording_fits(monkeypatch, cls):
    """Record the ``(X, y)`` of every ``cls.fit`` call, in call order."""
    calls = []
    fit = cls.fit

    def spy(self, X, y, *args):
        calls.append((np.array(X), np.array(y)))
        return fit(self, X, y, *args)

    monkeypatch.setattr(cls, "fit", spy)
    return calls


class TestGoldenDigests:
    def test_fast_profile_local_ensemble(self, trace_prefix, monkeypatch):
        fits = recording_fits(monkeypatch, BayesianGBMEnsemble)
        profile = fast_profile()
        model = LocalModel(profile.local, profile.pool, random_state=3)
        for record in trace_prefix:
            model.add_example(record.features, record.exec_time)
        assert model.n_retrains == len(fits) == 3
        # the oracle refits the last retrain's members one at a time
        X, y = fits[-1]
        members = model._ensemble.members_
        twins = [oracle_twin(member, X, y) for member in members]
        assert _tree_digest(twins) == GOLDEN_LOCAL_ENSEMBLE
        for member, (twin, trees, _) in zip(members, twins):
            assert_packed(member, trees)
            assert_fit_equals(member, twin)

    def test_autowlm_gbm(self, trace_prefix, monkeypatch):
        fits = recording_fits(monkeypatch, GradientBoostingModel)
        predictor = AutoWLMPredictor(fast_profile().local, random_state=5)
        for record in trace_prefix:
            predictor.observe(record)
        assert predictor.n_retrains == len(fits) == 3
        model = predictor._model
        twin, trees, binner = oracle_twin(model, *fits[-1])
        assert _tree_digest([(twin, trees, binner)]) == GOLDEN_AUTOWLM
        assert_packed(model, trees)
        assert_fit_equals(model, twin)
