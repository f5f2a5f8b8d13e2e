"""Pair features, pair building, classifier training, and quality metrics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagraph.edge_classifier as edge_classifier
import lagraph.graph as graph
from lagraph.data import synth
from lagraph.edge_classifier import (
    ONE_HOP,
    SAMPLED,
    TWO_HOP,
    EdgeClassifier,
    PairSet,
    TrainConfig,
    _forward,
    _sample_pairs,
    build_pairs,
    evaluate_quality,
    holdout_pairs,
    init_classifier,
    loss_and_grad,
    make_scorer,
    pair_quality,
    pair_weights,
    quality_from_counts,
    score_pairs,
    train,
)
from lagraph.graph import Graph, NodeTable

from conftest import (
    assert_gradients_match,
    central_difference,
    draw_graph,
    draw_table,
    flatten_params,
    reference_build_pairs,
    reference_final_loss,
    reference_holdout_pairs,
    reference_sample_pairs,
    reference_score_pairs,
    reference_two_hop_pools,
    traced_peak,
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

    def test_memory_is_bounded(self):
        # the pairs (10 bytes each) and their u column once more while the columns are
        # joined; the mirrored graph's CSR and adjacency, 16 bytes an edge; and one block
        # of the two-hop scan, 24 bytes a pool entry. These 141k pairs trace about 2.9 MB;
        # one whole-graph product in place of the blocks traces about 5.7 MB
        n = 4000
        g, t = synth(n=n, c=4, d=16, homophily=0.4, avg_degree=8.0, feature_sep=4.0, seed=0)
        mirror = g.both_ways()
        indptr, _ = reference_two_hop_pools(mirror)
        rows = graph.POOL_ROWS
        block = max(int(indptr[min(lo + rows, n)] - indptr[lo]) for lo in range(0, n, rows))
        pairs, peak = traced_peak(holdout_pairs, g, t)
        bound = len(pairs) * (10 + 4) + mirror.num_edges * 16 + block * 24
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MB over {bound / 2**20:.2f} MB"


def pairs_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_pairset(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for name in ("u", "v", "labels", "provenance"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same_samples(train_ids, used_u, used_v, count, seed):
    got = _sample_pairs(train_ids, used_u, used_v, count, seed)
    want = reference_sample_pairs(train_ids, used_u, used_v, count, seed)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSamplePairsMatchesPerDrawLoop:
    """``_sample_pairs`` keeps, batch by batch, the pairs the per-draw loop keeps, in its order."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_drawn_inputs(self, data):
        n = data.draw(st.integers(0, 40), label="nodes")
        train_ids = np.asarray(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n),
                                                label="train")), dtype=np.int64)
        pairs = [(int(a), int(b)) for i, a in enumerate(train_ids) for b in train_ids[i + 1:]]
        used = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)), label="used")) if pairs else []
        used = np.asarray(used, dtype=np.int32).reshape(-1, 2)
        count = data.draw(st.integers(0, len(pairs) + 5), label="count")
        assert_same_samples(train_ids, used[:, 0], used[:, 1], count, data.draw(st.integers(0, 9), label="seed"))

    @pytest.mark.parametrize("n_train,count", [(60, 500), (400, 2000), (2000, 4000), (16000, 1000)])
    def test_large_pools(self, n_train, count):
        rng = np.random.default_rng(n_train)
        train_ids = np.sort(rng.choice(4 * n_train, size=n_train, replace=False))
        lo, hi = np.sort(rng.integers(0, n_train, size=(3 * n_train, 2)), axis=1).T
        keys = np.unique((lo * n_train + hi)[lo != hi])
        assert_same_samples(train_ids, train_ids[keys // n_train], train_ids[keys % n_train], count, 3)

    def test_exhausted_pool(self):
        train_ids = np.arange(0, 40, 2, dtype=np.int64)
        used = np.array([[0, 2], [4, 38]], dtype=np.int32)
        u, v = _sample_pairs(train_ids, used[:, 0], used[:, 1], 10_000, 1)
        assert u.size == 20 * 19 // 2 - 2
        assert_same_samples(train_ids, used[:, 0], used[:, 1], 10_000, 1)


class TestPoolsMatchPerNodeLoop:
    """``build_pairs`` and ``holdout_pairs`` read every pool from one CSR; the
    pairs, in order, must be those of the per-node ``two_hop_candidates`` loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_build_pairs(self, data):
        g = draw_graph(data)
        t = draw_table(data, g.num_nodes)
        cfg = TrainConfig(include_two_hop=data.draw(st.booleans()),
                          num_sampled=data.draw(st.sampled_from([0, 7])), seed=data.draw(st.integers(0, 9)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "POOL_ROWS", data.draw(st.sampled_from([1, 3, 1024]), label="scan rows"))
            got = pairs_or_error(build_pairs, g, t, cfg)
        assert_same_pairset(got, pairs_or_error(reference_build_pairs, g, t, cfg))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_holdout_pairs(self, data):
        g = draw_graph(data)
        t = draw_table(data, g.num_nodes)
        two_hop = data.draw(st.booleans())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "POOL_ROWS", data.draw(st.sampled_from([1, 3, 1024]), label="scan rows"))
            got = pairs_or_error(holdout_pairs, g, t, two_hop)
        assert_same_pairset(got, pairs_or_error(reference_holdout_pairs, g, t, two_hop))

    def test_synthetic_graph(self):
        g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
        cfg = TrainConfig(num_sampled=50)
        assert_same_pairset(build_pairs(g, t, cfg), reference_build_pairs(g, t, cfg))
        assert_same_pairset(holdout_pairs(g, t), reference_holdout_pairs(g, t))


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
        got = score_pairs(clf, np.array([[0.3], [-0.7]]), np.array([0]), np.array([1]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.7)), abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_saturated_logit_scores_zero_without_warning(self):
        # logit -800 for every pair: exp(800) overflows, the probability is exactly 0.0
        clf = EdgeClassifier(proj=np.eye(1), layers=[(np.zeros((3, 1)), np.array([-800.0]))])
        got = score_pairs(clf, np.array([[0.3], [-0.7]]), np.array([0]), np.array([1]))
        assert got.shape == (1,) and got[0] == 0.0
        pairs = PairSet(u=[0], v=[1], labels=[0], provenance=[ONE_HOP])
        _, grad_proj, grad_layers = loss_and_grad(clf, np.ones((2, 1)), pairs, np.ones(1))
        assert not grad_proj.any() and not grad_layers[0][1].any()

    def test_batch_matches_single(self):
        clf = self.fixture_classifier()
        features = np.array([[0.3], [1.0], [-0.7], [0.2]])
        batch = score_pairs(clf, features, np.array([0, 1]), np.array([2, 3]))
        assert batch[0] == score_pairs(clf, features, np.array([0]), np.array([2]))[0]
        assert batch[1] == score_pairs(clf, features, np.array([1]), np.array([3]))[0]


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


def reference_train(pairset, features, cfg):
    """``train`` stepping each array on its own, with the epoch loss summed from
    the batch losses and the final loss from a full-batch ``loss_and_grad``."""
    clf = init_classifier(features.shape[1], cfg)
    weights = pair_weights(pairset, cfg.class_weighting)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(pairset)
    batch = min(cfg.batch_size, n)
    vel_proj = np.zeros_like(clf.proj)
    vel_layers = [(np.zeros_like(W), np.zeros_like(b)) for W, b in clf.layers]
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            loss, g_proj, g_layers = loss_and_grad(clf, features, pairset, weights, idx)
            total += loss * len(idx)
            vel_proj = cfg.momentum * vel_proj - cfg.learning_rate * g_proj
            clf.proj = clf.proj + vel_proj
            vel_layers = [(cfg.momentum * vW - cfg.learning_rate * gW, cfg.momentum * vb - cfg.learning_rate * gb)
                          for (gW, gb), (vW, vb) in zip(g_layers, vel_layers)]
            clf.layers = [(W + vW, b + vb) for (W, b), (vW, vb) in zip(clf.layers, vel_layers)]
        history.append(total / n)
    clf.final_loss = loss_and_grad(clf, features, pairset, weights)[0]
    clf.loss_history = np.asarray(history)
    return clf


@dataclasses.dataclass
class WidePairs:
    """What ``train`` reads of a ``PairSet``, held as given: int64 ids and labels."""

    u: np.ndarray
    v: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.u.shape[0]


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

    @pytest.mark.parametrize("epochs", [0, 4])
    def test_forward_only_epoch_loss_matches_reference(self, rng, monkeypatch, epochs):
        features, pairs = self.separable_problem(rng, n=30)
        features = np.concatenate([features, rng.normal(size=features.shape)], axis=1)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(5, 4), epochs=epochs, seed=2, batch_size=64)
        want = reference_train(pairs, features, cfg)
        batches = []
        original = edge_classifier.loss_and_grad

        def counted(*args, **kwargs):
            batches.append(args[4] if len(args) > 4 else kwargs.get("idx"))
            return original(*args, **kwargs)

        monkeypatch.setattr(edge_classifier, "loss_and_grad", counted)
        got = train(pairs, features, cfg)
        assert np.array_equal(got.loss_history, want.loss_history)
        assert got.final_loss == want.final_loss
        assert np.array_equal(got.proj, want.proj)
        for (w1, b1), (w2, b2) in zip(got.layers, want.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)
        # only the index batches whose gradients are applied
        assert len(batches) == epochs * math.ceil(len(pairs) / cfg.batch_size)
        assert all(idx is not None for idx in batches)

    def test_blocked_final_loss_equals_one_pass(self, rng, monkeypatch):
        features, pairs = self.separable_problem(rng, n=60)
        features = np.concatenate([features, rng.normal(size=features.shape)], axis=1)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(5, 4), epochs=2, seed=5)
        assert len(pairs) > edge_classifier.SCORE_BLOCK
        clf = train(pairs, features, cfg)
        want = reference_final_loss(clf, features, pairs, cfg.class_weighting)
        assert clf.final_loss == want
        for block in (1, 7):
            monkeypatch.setattr(edge_classifier, "SCORE_BLOCK", block)
            got = train(pairs, features, cfg)
            assert np.array_equal(got.proj, clf.proj)
            np.testing.assert_allclose(got.final_loss, want, rtol=1e-12, atol=0.0)

    def test_training_does_not_depend_on_pair_storage(self, rng):
        features, pairs = self.separable_problem(rng, n=30)
        u, v, labels = (a.astype(np.int64) for a in (pairs.u, pairs.v, pairs.labels))
        wide = WidePairs(u=u, v=v, labels=labels)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(4,), epochs=3, seed=1, batch_size=64)
        want = train(wide, features, cfg)
        got = train(PairSet(u=u, v=v, labels=labels, provenance=np.zeros(u.size, dtype=np.int64)),
                    features, cfg)
        for a, b in zip(classifier_params(got), classifier_params(want)):
            assert np.array_equal(a, b)
        assert np.array_equal(got.loss_history, want.loss_history)
        assert got.final_loss == want.final_loss

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
        weights = pair_weights(pairs, cfg.class_weighting)
        assert clf.final_loss == loss_and_grad(clf, features, pairs, weights)[0]
        # each epoch is logged before its one step, the final loss after the last
        assert clf.final_loss < clf.loss_history[-1]

    @pytest.mark.parametrize("epochs", [0, 1, 5])
    def test_one_full_pass_per_train(self, rng, monkeypatch, epochs):
        features, pairs = self.separable_problem(rng, n=20)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(4,), epochs=epochs, seed=0, batch_size=64)
        rows = []
        original = edge_classifier._forward

        def counted(clf, xu, xv):
            rows.append(xu.shape[0])
            return original(clf, xu, xv)

        monkeypatch.setattr(edge_classifier, "_forward", counted)
        train(pairs, features, cfg)
        assert rows.count(len(pairs)) == 1
        assert len(rows) == epochs * math.ceil(len(pairs) / cfg.batch_size) + 1

    def test_classifiers_share_no_memory(self, rng):
        features, pairs = self.separable_problem(rng, n=16)
        cfg = TrainConfig(proj_dim=3, hidden_widths=(4,), epochs=3, seed=3, batch_size=8)
        first = train(pairs, features, cfg)
        before = [a.copy() for a in classifier_params(first)]
        second = train(pairs, features, dataclasses.replace(cfg, seed=4))
        for a in classifier_params(first):
            assert not any(np.shares_memory(a, b) for b in classifier_params(second))
        assert all(np.array_equal(a, b) for a, b in zip(classifier_params(first), before))

    def test_single_class_rejected(self, rng):
        features = rng.normal(size=(4, 2))
        pairs = PairSet(u=np.array([0, 1]), v=np.array([2, 3]),
                        labels=np.array([1, 1], dtype=np.int64),
                        provenance=np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match="single class"):
            train(pairs, features)

    @pytest.mark.filterwarnings("error")
    def test_divergence_aborts_with_diagnostics(self, rng):
        features = rng.normal(size=(6, 2))
        features[0, 0] = np.inf
        pairs = random_pairset(rng, 6, 8)
        with pytest.raises(RuntimeError, match=r"non-finite loss at epoch 0, .*largest \|feature\| inf\)"):
            train(pairs, features, TrainConfig(epochs=2, seed=0))

    @pytest.mark.filterwarnings("error")
    def test_divergence_in_the_last_step_is_reported(self):
        # one batch, one epoch: only the final loss sees the step of 1e308
        g, t = synth(n=60, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=4.0, seed=0)
        cfg = TrainConfig(learning_rate=1e308, epochs=1, num_sampled=100, proj_dim=4, hidden_widths=(4,))
        pairs = build_pairs(g, t, cfg)
        assert len(pairs) <= cfg.batch_size
        with pytest.raises(RuntimeError, match=r"non-finite loss after the last step \(lr=1e\+308\)"):
            train(pairs, t.features, cfg)

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
        features = rng.normal(size=(2, 4))
        a, b = np.array([0]), np.array([1])
        assert score_pairs(clf, features, a, b)[0] == score_pairs(clf, features, b, a)[0]

    def test_scorer_adapter_matches_score(self, rng):
        clf = init_classifier(3, TrainConfig(proj_dim=2, hidden_widths=(4,), seed=0))
        features = rng.normal(size=(6, 3))
        scorer = make_scorer(clf, features)
        u, v = np.array([0, 2]), np.array([5, 3])
        assert np.array_equal(scorer(u, v), score_pairs(clf, features, u, v))


def reference_counts(clf, pairs, features, threshold=0.5):
    """``evaluate_quality``'s (tp, fp, fn, tn) from one forward pass over every pair."""
    pred = reference_score_pairs(clf, features, pairs.u, pairs.v) >= threshold
    truth = pairs.labels == 1
    return tuple(int(np.count_nonzero(a & b)) for a, b in
                 ((pred, truth), (pred, ~truth), (~pred, truth), (~pred, ~truth)))


def counts(quality):
    return quality.tp, quality.fp, quality.fn, quality.tn


def first_pairs(pairs, count):
    return PairSet(u=pairs.u[:count], v=pairs.v[:count], labels=pairs.labels[:count],
                   provenance=pairs.provenance[:count])


class TestBlockedScoring:
    """``score_pairs`` and the ``make_scorer`` scorer project every node once
    and run the head over blocks of ``SCORE_BLOCK`` pairs; the reference runs
    one forward pass over the projected rows of every pair."""

    def synthetic(self):
        g, t = synth(n=400, c=4, d=6, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=3)
        clf = init_classifier(t.feature_dim, TrainConfig(proj_dim=5, hidden_widths=(7,), seed=3))
        return g, t, clf, holdout_pairs(g, t)

    def test_one_block_equals_reference(self, monkeypatch):
        g, t, clf, pairs = self.synthetic()
        monkeypatch.setattr(edge_classifier, "SCORE_BLOCK", max(edge_classifier.SCORE_BLOCK, len(pairs)))
        assert 0 < len(pairs) <= edge_classifier.SCORE_BLOCK
        want = reference_score_pairs(clf, t.features, pairs.u, pairs.v)
        assert np.array_equal(score_pairs(clf, t.features, pairs.u, pairs.v), want)
        assert np.array_equal(make_scorer(clf, t.features)(pairs.u, pairs.v), want)

    def test_add_pools_equal_reference(self):
        g, t, clf, _ = self.synthetic()
        scorer = make_scorer(clf, t.features)
        indptr, pools = reference_two_hop_pools(g)
        for v in range(0, g.num_nodes, 37):
            cand = pools[indptr[v]:indptr[v + 1]].astype(np.int64)
            u = np.full(cand.shape[0], v, dtype=np.int64)
            assert np.array_equal(scorer(u, cand), reference_score_pairs(clf, t.features, u, cand))

    @pytest.mark.parametrize("count", [0, 7, 8, None])
    def test_small_blocks_match_reference(self, monkeypatch, count):
        monkeypatch.setattr(edge_classifier, "SCORE_BLOCK", 7)
        g, t, clf, pairs = self.synthetic()
        pairs = first_pairs(pairs, count)
        want = reference_score_pairs(clf, t.features, pairs.u, pairs.v)
        for got in (score_pairs(clf, t.features, pairs.u, pairs.v),
                    make_scorer(clf, t.features)(pairs.u, pairs.v)):
            assert got.shape == want.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert counts(evaluate_quality(clf, pairs, t.features, 0.5)) == reference_counts(clf, pairs, t.features)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_graphs_match_reference(self, data):
        g = draw_graph(data)
        t = draw_table(data, g.num_nodes, allow_unknown=False)
        seed = data.draw(st.integers(0, 99), label="seed")
        features = np.random.default_rng(seed).normal(size=(g.num_nodes, data.draw(st.integers(1, 4))))
        clf = init_classifier(features.shape[1], TrainConfig(proj_dim=3, hidden_widths=(4,), seed=seed))
        block = data.draw(st.integers(1, 9), label="block")
        threshold = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), label="threshold")
        try:
            pairs = holdout_pairs(g, t)
        except ValueError:
            pairs = PairSet(u=[], v=[], labels=[], provenance=[])
        pairs = first_pairs(pairs, data.draw(st.sampled_from([0, block, block + 1, None]), label="count"))
        want = reference_score_pairs(clf, features, pairs.u, pairs.v)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(edge_classifier, "SCORE_BLOCK", block)
            got = score_pairs(clf, features, pairs.u, pairs.v)
            quality = evaluate_quality(clf, pairs, features, threshold)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert counts(quality) == reference_counts(clf, pairs, features, threshold)

    def test_scorer_projects_once_when_built(self, rng):
        clf = init_classifier(3, TrainConfig(proj_dim=2, hidden_widths=(4,), seed=0))
        features = rng.normal(size=(6, 3))
        u, v = np.array([0, 2, 4]), np.array([5, 3, 1])
        want = score_pairs(clf, features, u, v)
        scorer = make_scorer(clf, features)
        clf.proj = np.full_like(clf.proj, np.nan)
        assert np.array_equal(scorer(u, v), want)

    def test_evaluation_memory_is_bounded(self):
        # the head holds eu, ev, eu - ev, |eu - ev|, eu + ev, eu * ev and their
        # concatenation at once: 9p float64 values per pair of its block. The bound
        # allows the scores, both masks, the node projection and twice that over a
        # cache-sized block of 1,024 pairs. These 100k pairs trace about 2.1 MB;
        # blocks of 16,384 pairs trace about 19 MB
        rng = np.random.default_rng(0)
        n, count, p = 2000, 100_000, 16
        features = rng.normal(size=(n, 16))
        clf = init_classifier(16, TrainConfig(proj_dim=p, hidden_widths=(16,), seed=0))
        u = rng.integers(0, n - 1, size=count)
        v = u + 1 + rng.integers(0, n - 1 - u)
        pairs = PairSet(u=u, v=v, labels=rng.integers(0, 2, size=count), provenance=np.zeros(count))
        quality, peak = traced_peak(evaluate_quality, clf, pairs, features, 0.5)
        assert quality.total == count
        bound = count * (8 + 2) + n * p * 8 + 2 * 1024 * 9 * p * 8
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MB over {bound / 2**20:.2f} MB"

    @pytest.mark.parametrize("block", [7, edge_classifier.SCORE_BLOCK])
    def test_chunked_counts_equal_one_scoring_pass(self, block, monkeypatch):
        # more than two chunks of 64 blocks, the last one ragged
        monkeypatch.setattr(edge_classifier, "SCORE_BLOCK", block)
        rng = np.random.default_rng(3)
        n, count = 500, 2 * 64 * block + block // 2 + 1
        features = rng.normal(size=(n, 4))
        clf = init_classifier(4, TrainConfig(proj_dim=3, hidden_widths=(4,), seed=1))
        u = rng.integers(0, n - 1, size=count)
        v = u + 1 + rng.integers(0, n - 1 - u)
        pairs = PairSet(u=u, v=v, labels=rng.integers(0, 2, size=count), provenance=np.zeros(count))
        scores = score_pairs(clf, features, pairs.u, pairs.v)
        calls = []

        def recording(*args):
            calls.append(score_pairs(*args))
            return calls[-1]

        monkeypatch.setattr(edge_classifier, "score_pairs", recording)
        threshold = float(np.median(scores))
        got = evaluate_quality(clf, pairs, features, threshold)
        assert counts(got) == counts(pair_quality(scores >= threshold, pairs.labels == 1))
        assert [c.size for c in calls] == [64 * block, 64 * block, block // 2 + 1]
        assert np.array_equal(np.concatenate(calls), scores)  # each pair scored in the same block


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
        got = evaluate_quality(clf, pairs, features, 0.5)
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
        assert evaluate_quality(clf, pairs, features, 0.5).fp == 1
        strict = evaluate_quality(clf, pairs, features, threshold=0.999)
        assert strict.fp == 0 and strict.tn == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40))
    def test_pair_quality_counts_and_rates(self, cells):
        pred, same = np.asarray(cells, dtype=bool).reshape(-1, 2).T
        q = pair_quality(pred, same)
        assert counts(q) == tuple(int(np.count_nonzero(a & b)) for a, b in
                                  ((pred, same), (pred, ~same), (~pred, same), (~pred, ~same)))
        # each rate is a correctly rounded ratio of exact integers, as the boolean mean is
        for rate, mask in ((q.p, same), (q.q, ~same)):
            assert rate == float(pred[mask].mean()) if mask.any() else math.isnan(rate)

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
        q = evaluate_quality(clf, pairs, np.zeros((1, 1)), 0.5)
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

    @pytest.mark.parametrize("field, value, match", [
        ("u", [0.5], "node ids"),
        ("v", [np.nan], "node ids"),
        ("u", [-1], "node ids"),
        ("v", [2**31], "node ids"),
        ("labels", [0.5], "labels"),
        ("provenance", [SAMPLED + 1], "provenance"),
    ], ids=["fractional_id", "nan_id", "negative_id", "id_past_int32", "fractional_label", "unknown_provenance"])
    def test_bad_values_rejected(self, field, value, match):
        arrays = {"u": [0], "v": [1], "labels": [1], "provenance": [ONE_HOP], field: value}
        with pytest.raises(ValueError, match=match):
            PairSet(**arrays)

    def test_empty_lists_build(self):
        pairs = PairSet(u=[], v=[], labels=[], provenance=[])
        assert len(pairs) == 0

    def test_compact_storage(self):
        pairs = PairSet(u=[0, 2**31 - 1], v=[5, 3], labels=[True, False], provenance=[TWO_HOP, SAMPLED])
        assert [a.dtype for a in (pairs.u, pairs.v, pairs.labels, pairs.provenance)] == [np.int32, np.int32, np.int8, np.int8]
        assert pairs.u.tolist() == [0, 2**31 - 1] and pairs.labels.tolist() == [1, 0]
