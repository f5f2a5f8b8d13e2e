"""Pair features, pair building, classifier training, and quality metrics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagraph import (
    EdgeClassifier,
    PairSet,
    TrainConfig,
    build_pairs,
    evaluate_quality,
    holdout_pairs,
    make_scorer,
    quality_from_counts,
    score,
    score_pairs,
    synth,
    train,
)
from lagraph.edge_classifier import (
    ONE_HOP,
    SAMPLED,
    TWO_HOP,
    _forward,
    init_classifier,
    loss_and_grad,
    pair_weights,
)

from conftest import (
    assert_gradients_match,
    central_difference,
    flatten_params,
)


def pair_features(e_u, e_v):
    """The pair features ``_forward`` feeds the MLP, read through an identity projection."""
    e_u, e_v = np.atleast_2d(e_u), np.atleast_2d(e_v)
    d = e_u.shape[1]
    clf = EdgeClassifier(proj=np.eye(d), layers=[(np.zeros((3 * d, 1)), np.zeros(1))])
    _, (_, _, _, _, hiddens) = _forward(clf, e_u, e_v)
    return hiddens[0]


class TestPairFeatures:
    def test_hand_computed(self):
        out = pair_features(np.array([1.0, 2.0]), np.array([3.0, -1.0]))
        assert out.tolist() == [[2.0, 3.0, 4.0, 1.0, 3.0, -2.0]]

    def test_batch_shape(self):
        u = np.arange(6.0).reshape(2, 3)
        v = np.ones((2, 3))
        assert pair_features(u, v).shape == (2, 9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_symmetric(self, d, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=d), rng.normal(size=d)
        assert np.array_equal(pair_features(a, b), pair_features(b, a))


def brute_force_structural_pairs(g, t):
    """Enumerate train-train pairs at distance 1 and distance 2 from scratch."""
    train = np.flatnonzero(t.split_mask("train") & t.known_mask())
    adj = {v: set(int(u) for u in g.neighbors(v) if u != v) for v in range(g.num_nodes)}
    one, two = set(), set()
    for i, u in enumerate(train):
        for v in train[i + 1:]:
            u_, v_ = int(u), int(v)
            if v_ in adj[u_]:
                one.add((u_, v_))
            elif adj[u_] & adj[v_]:
                two.add((u_, v_))
    return one, two


class TestBuildPairs:
    def graph(self):
        return synth(n=40, c=3, d=4, homophily=0.6, avg_degree=5.0, feature_sep=1.0, seed=11)

    def test_single_edge_pair(self):
        from conftest import undirected_graph
        from lagraph import NodeTable
        g = undirected_graph(2, [(0, 1)])
        t = NodeTable(features=np.zeros((2, 2)), labels=np.array([1, 1], dtype=np.int64),
                      num_classes=2, split=np.zeros(2, dtype=np.int8))
        ps = build_pairs(g, t, TrainConfig())
        assert len(ps) == 1
        assert (int(ps.u[0]), int(ps.v[0]), int(ps.labels[0])) == (0, 1, 1)

    def test_matches_brute_force_enumeration(self):
        g, t = self.graph()
        one, two = brute_force_structural_pairs(g, t)
        ps = build_pairs(g, t, TrainConfig(include_two_hop=True))
        got_one = {(int(a), int(b)) for a, b, pr in zip(ps.u, ps.v, ps.provenance) if pr == ONE_HOP}
        got_two = {(int(a), int(b)) for a, b, pr in zip(ps.u, ps.v, ps.provenance) if pr == TWO_HOP}
        assert got_one == one
        assert got_two == two
        assert len(ps) == len(one) + len(two)  # no duplicates, nothing else
        want_labels = (t.labels[ps.u] == t.labels[ps.v]).astype(int)
        assert np.array_equal(ps.labels, want_labels)

    def all_train(self):
        # tiny graphs leave too few train-train edges, so put every node in train
        from lagraph import NodeTable
        g, t = self.graph()
        t = NodeTable(features=t.features, labels=t.labels, num_classes=t.num_classes,
                      split=np.zeros(g.num_nodes, dtype=np.int8))
        return g, t

    def test_one_hop_only(self):
        g, t = self.all_train()
        one, _ = brute_force_structural_pairs(g, t)
        ps = build_pairs(g, t, TrainConfig(include_two_hop=False))
        assert one
        assert {(int(a), int(b)) for a, b in zip(ps.u, ps.v)} == one

    def test_sampled_augmentation(self):
        g, t = self.all_train()
        base = build_pairs(g, t, TrainConfig())
        cfg = TrainConfig(num_sampled=30, seed=5)
        ps = build_pairs(g, t, cfg)
        assert len(ps) == len(base) + 30
        train = t.split_mask("train")
        sampled = ps.provenance == SAMPLED
        assert sampled.sum() == 30
        assert train[ps.u[sampled]].all() and train[ps.v[sampled]].all()
        keys = {(int(a), int(b)) for a, b in zip(ps.u, ps.v)}
        assert len(keys) == len(ps)  # all pairs distinct
        again = build_pairs(g, t, cfg)
        assert np.array_equal(ps.u, again.u) and np.array_equal(ps.v, again.v)

    def test_sampled_pool_exhaustion(self):
        g, t = self.graph()
        n_train = int(t.split_mask("train").sum())
        total = n_train * (n_train - 1) // 2
        ps = build_pairs(g, t, TrainConfig(num_sampled=10 * total))
        assert len(ps) == total  # every train-train pair exactly once

    def test_no_pairs_raises(self):
        from lagraph import Graph, NodeTable
        g = Graph.from_edges(3, np.zeros((0, 2), dtype=np.int64))
        t = NodeTable(features=np.zeros((3, 2)), labels=np.array([0, 1, 0], dtype=np.int64),
                      num_classes=2, split=np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="no eligible training pairs"):
            build_pairs(g, t, TrainConfig())


class TestHoldoutPairs:
    def test_disjoint_from_training_and_within_two_hops(self):
        g, t = synth(n=50, c=3, d=4, homophily=0.6, avg_degree=5.0, feature_sep=1.0, seed=3)
        train_pairs = build_pairs(g, t, TrainConfig())
        held = holdout_pairs(g, t)
        train_keys = {(int(a), int(b)) for a, b in zip(train_pairs.u, train_pairs.v)}
        held_keys = {(int(a), int(b)) for a, b in zip(held.u, held.v)}
        assert held_keys and not (train_keys & held_keys)
        train_mask = t.split_mask("train")
        assert not np.any(train_mask[held.u] & train_mask[held.v])
        adj = {v: set(int(u) for u in g.neighbors(v) if u != v) for v in range(g.num_nodes)}
        for a, b in held_keys:
            assert b in adj[a] or (adj[a] & adj[b])


class TestForwardFixture:
    def fixture_classifier(self):
        return EdgeClassifier(
            proj=np.array([[2.0]]),
            layers=[
                (np.array([[0.5, -1.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.1, -0.2])),
                (np.array([[1.5], [-0.5]]), np.array([0.25])),
            ],
        )

    def test_hand_computed_logit(self):
        # e_u = 0.6, e_v = -1.4 -> z = (2.0, -0.8, -0.84)
        # layer 1: (0.3, -3.04) -> relu (0.3, 0) -> logit 0.3*1.5 + 0.25 = 0.7
        clf = self.fixture_classifier()
        got = score(clf, np.array([0.3]), np.array([-0.7]))
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-0.7)), abs=1e-15)

    def test_batch_matches_single(self):
        clf = self.fixture_classifier()
        xs = np.array([[0.3], [1.0]])
        ys = np.array([[-0.7], [0.2]])
        batch = score(clf, xs, ys)
        assert batch[0] == score(clf, xs[0], ys[0])
        assert batch[1] == score(clf, xs[1], ys[1])


def random_pairset(rng, n_nodes, n_pairs):
    u = rng.integers(0, n_nodes - 1, size=n_pairs)
    v = (u + 1 + rng.integers(0, n_nodes - 1, size=n_pairs)) % n_nodes
    swap = u > v
    u[swap], v[swap] = v[swap], u[swap]
    labels = rng.integers(0, 2, size=n_pairs)
    if labels.max() == labels.min():
        labels[0] = 1 - labels[0]
    return PairSet(u=u, v=v, labels=labels.astype(np.int64),
                   provenance=np.zeros(n_pairs, dtype=np.int8))


def classifier_params(clf):
    arrays = [clf.proj]
    for W, b in clf.layers:
        arrays.extend([W, b])
    return arrays


class TestGradients:
    def test_finite_difference_check(self, rng):
        features = rng.normal(size=(12, 5))
        pairs = random_pairset(rng, 12, 30)
        cfg = TrainConfig(proj_dim=4, hidden_widths=(6,), seed=1)
        clf = init_classifier(5, cfg)
        weights = pair_weights(pairs, "balanced")

        arrays = classifier_params(clf)
        _, g_proj, g_layers = loss_and_grad(clf, features, pairs, weights)
        analytic = [g_proj]
        for gW, gb in g_layers:
            analytic.extend([gW, gb])
        flat = flatten_params(analytic)

        coords = rng.choice(flat.size, size=20, replace=False)
        fd = central_difference(
            lambda: loss_and_grad(clf, features, pairs, weights)[0], arrays, coords)
        assert_gradients_match(flat, fd, rel_tol=1e-4)

    def test_gradient_of_subbatch(self, rng):
        features = rng.normal(size=(8, 3))
        pairs = random_pairset(rng, 8, 12)
        clf = init_classifier(3, TrainConfig(proj_dim=2, hidden_widths=(4,), seed=2))
        weights = np.ones(len(pairs))
        idx = np.array([1, 4, 7])
        arrays = classifier_params(clf)
        _, g_proj, g_layers = loss_and_grad(clf, features, pairs, weights, idx)
        analytic = [g_proj]
        for gW, gb in g_layers:
            analytic.extend([gW, gb])
        fd = central_difference(
            lambda: loss_and_grad(clf, features, pairs, weights, idx)[0],
            arrays, range(flatten_params(analytic).size))
        assert_gradients_match(flatten_params(analytic), fd, rel_tol=1e-4)


class TestTraining:
    def separable_problem(self, rng, n=40):
        labels = np.arange(n) % 2
        features = np.where(labels[:, None] == 0, -5.0, 5.0) + rng.normal(scale=0.1, size=(n, 1))
        u, v = np.triu_indices(n, k=1)
        pair_labels = (labels[u] == labels[v]).astype(np.int64)
        pairs = PairSet(u=u, v=v, labels=pair_labels,
                        provenance=np.zeros(u.size, dtype=np.int8))
        return features, pairs

    def test_learns_separable_pairs(self, rng):
        features, pairs = self.separable_problem(rng)
        cfg = TrainConfig(proj_dim=4, hidden_widths=(8,), epochs=60, seed=0)
        clf = train(pairs, features, cfg)
        preds = score_pairs(clf, features, pairs.u, pairs.v) >= 0.5
        assert (preds == pairs.labels.astype(bool)).mean() >= 0.99

    def test_zero_epochs_returns_init(self, rng):
        features, pairs = self.separable_problem(rng, n=10)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(4,), epochs=0, seed=7)
        clf = train(pairs, features, cfg)
        ref = init_classifier(1, cfg)
        assert np.array_equal(clf.proj, ref.proj)
        for (w1, b1), (w2, b2) in zip(clf.layers, ref.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert math.isfinite(clf.final_loss)
        assert clf.loss_history.size == 0

    def test_bitwise_deterministic(self, rng):
        features, pairs = self.separable_problem(rng, n=16)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(4,), epochs=5, seed=3, batch_size=8)
        a = train(pairs, features, cfg)
        b = train(pairs, features, cfg)
        assert np.array_equal(a.proj, b.proj)
        for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        assert np.array_equal(a.loss_history, b.loss_history)
        c = train(pairs, features, dataclasses.replace(cfg, seed=4))
        assert not np.array_equal(a.proj, c.proj)

    def test_full_batch_small_lr_descends(self, rng):
        features, pairs = self.separable_problem(rng, n=14)
        cfg = TrainConfig(proj_dim=2, hidden_widths=(4,), epochs=40, seed=1,
                          learning_rate=1e-3, momentum=0.0, batch_size=10_000)
        clf = train(pairs, features, cfg)
        assert np.all(np.diff(clf.loss_history) <= 1e-10)
        assert clf.loss_history[-1] < clf.loss_history[0]
        assert clf.final_loss == clf.loss_history[-1]

    def test_single_class_rejected(self, rng):
        features = rng.normal(size=(4, 2))
        pairs = PairSet(u=np.array([0, 1]), v=np.array([2, 3]),
                        labels=np.array([1, 1], dtype=np.int64),
                        provenance=np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match="single class"):
            train(pairs, features)

    def test_divergence_aborts_with_diagnostics(self, rng):
        features = rng.normal(size=(6, 2))
        features[0, 0] = np.inf
        pairs = random_pairset(rng, 6, 8)
        with pytest.raises(RuntimeError, match="non-finite loss at epoch"):
            train(pairs, features, TrainConfig(epochs=2, seed=0))

    def test_empty_pairset_rejected(self, rng):
        pairs = PairSet(u=np.zeros(0, dtype=np.int64), v=np.zeros(0, dtype=np.int64),
                        labels=np.zeros(0, dtype=np.int64), provenance=np.zeros(0, dtype=np.int8))
        with pytest.raises(ValueError, match="empty pair set"):
            train(pairs, rng.normal(size=(3, 2)))


class TestScoreSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_score_symmetric_under_random_weights(self, seed):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(5,), seed=seed)
        clf = init_classifier(4, cfg)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert score(clf, a, b) == score(clf, b, a)

    def test_scorer_adapter_matches_score(self, rng):
        clf = init_classifier(3, TrainConfig(proj_dim=2, hidden_widths=(4,), seed=0))
        features = rng.normal(size=(6, 3))
        scorer = make_scorer(clf, features)
        u, v = np.array([0, 2]), np.array([5, 3])
        assert np.array_equal(scorer(u, v), score_pairs(clf, features, u, v))


class TestQuality:
    def threshold_classifier(self):
        # single linear layer: logit = 5 - 10*|xu - xv|, positive iff |d| < 0.5
        return EdgeClassifier(
            proj=np.array([[1.0]]),
            layers=[(np.array([[-10.0], [0.0], [0.0]]), np.array([5.0]))],
        )

    def test_counts_hand_checked(self):
        clf = self.threshold_classifier()
        features = np.array([[0.0], [0.1], [0.9], [2.0], [2.05], [5.0]])
        pairs = PairSet(u=np.array([0, 3, 0, 2, 0, 1]), v=np.array([1, 4, 2, 3, 5, 2]),
                        labels=np.array([1, 0, 1, 0, 0, 1], dtype=np.int64),
                        provenance=np.zeros(6, dtype=np.int8))
        got = evaluate_quality(clf, pairs, features)
        want = quality_from_counts(tp=1, fp=1, fn=2, tn=2)
        assert got == want
        assert got.p == pytest.approx(1 / 3) and got.q == pytest.approx(1 / 3)
        assert got.p_pre == pytest.approx(1 / 2) and got.base_rate == pytest.approx(1 / 2)

    def test_threshold_override(self):
        clf = self.threshold_classifier()
        features = np.array([[0.0], [0.1]])
        pairs = PairSet(u=np.array([0]), v=np.array([1]),
                        labels=np.array([0], dtype=np.int64),
                        provenance=np.zeros(1, dtype=np.int8))
        assert evaluate_quality(clf, pairs, features).fp == 1
        strict = evaluate_quality(clf, pairs, features, threshold=0.999)
        assert strict.fp == 0 and strict.tn == 1

    def test_undefined_cells_are_nan(self):
        q = quality_from_counts(tp=0, fp=0, fn=0, tn=5)
        assert math.isnan(q.p) and math.isnan(q.p_pre)
        assert q.q == 0.0
        q2 = quality_from_counts(tp=2, fp=0, fn=1, tn=0)
        assert math.isnan(q2.q)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_bayes_identity_on_counts(self, tp, fp, fn, tn):
        # precision * P(pred positive) == recall * P(actually positive)
        if tp + fp + fn + tn == 0:
            return
        q = quality_from_counts(tp, fp, fn, tn)
        n = q.total
        if tp + fp > 0 and tp + fn > 0:
            assert q.p_pre * ((tp + fp) / n) == pytest.approx(q.p * ((tp + fn) / n), abs=1e-15)

    def test_empty_pairs_yield_nan_quality(self):
        clf = self.threshold_classifier()
        pairs = PairSet(u=np.zeros(0, dtype=np.int64), v=np.zeros(0, dtype=np.int64),
                        labels=np.zeros(0, dtype=np.int64), provenance=np.zeros(0, dtype=np.int8))
        q = evaluate_quality(clf, pairs, np.zeros((1, 1)))
        assert q.total == 0
        assert all(math.isnan(x) for x in (q.p, q.q, q.p_pre, q.base_rate))


class TestPairSetValidation:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            PairSet(u=np.array([2]), v=np.array([2]),
                    labels=np.array([1], dtype=np.int64),
                    provenance=np.zeros(1, dtype=np.int8))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PairSet(u=np.array([0]), v=np.array([1]),
                    labels=np.array([2], dtype=np.int64),
                    provenance=np.zeros(1, dtype=np.int8))
