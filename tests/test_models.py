"""Linear and two-layer node classifiers: gradients, fitting, prediction."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

import lagraph.graph as graph
import lagraph.models as models
import lagraph.propagation as propagation
from lagraph.data import synth
from lagraph.graph import Graph, NodeTable
from lagraph.models import (
    FitConfig,
    GcnModel,
    SgcModel,
    _uniform_init,
    accuracy,
    gcn_fit,
    gcn_forward,
    gcn_loss_and_grad,
    predict,
    sgc_fit,
    sgc_loss_and_grad,
)
from lagraph.propagation import PropagationConfig, propagate

from conftest import (
    assert_gradients_match,
    central_difference,
    flatten_params,
    undirected_graph,
)


def random_node_table(rng, n, d, c, train_frac=0.5):
    labels = rng.integers(0, c, size=n).astype(np.int64)
    split = np.where(rng.random(n) < train_frac, 0, 2).astype(np.int8)
    split[:2] = 0  # guarantee labeled train nodes
    return NodeTable(features=rng.normal(size=(n, d)), labels=labels,
                     num_classes=c, split=split)


def random_graph(rng, n, extra):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    while len(pairs) < n + extra:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.append((int(a), int(b)))
    return undirected_graph(n, pairs)


def directed_problem(rng, n, d, c):
    """One-way random edges, about 20% unlabeled nodes and a random split:
    the case where the logits product rounds differently at another row
    count, so a row-restricted product would show in the last bit."""
    edges = rng.integers(0, n, size=(4 * n, 2))
    g = Graph.from_edges(n, edges[edges[:, 0] != edges[:, 1]], add_self_loops=True)
    labels = rng.integers(0, c, size=n).astype(np.int64)
    labels[rng.random(n) < 0.2] = -1
    split = rng.integers(0, 3, size=n).astype(np.int8)
    labels[0], split[0] = 0, 0  # guarantee a labeled train node
    return g, NodeTable(features=rng.normal(size=(n, d)), labels=labels, num_classes=c, split=split)


class TestSgcGradient:
    def test_finite_difference_check(self, rng):
        d, c, n = 5, 3, 20
        z = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n).astype(np.int64)
        model = SgcModel(weights=rng.normal(size=(d, c)), bias=rng.normal(size=c), k=2)
        arrays = [model.weights, model.bias]
        _, gw, gb = sgc_loss_and_grad(model, z, y, weight_decay=0.01)
        flat = flatten_params([gw, gb])
        coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        fd = central_difference(
            lambda: sgc_loss_and_grad(model, z, y, 0.01)[0], arrays, coords)
        assert_gradients_match(flat, fd, rel_tol=1e-4)


class TestGcnGradient:
    def test_finite_difference_check(self, rng):
        n, d, h, c = 14, 4, 6, 3
        g = random_graph(rng, n, 10)
        t = random_node_table(rng, n, d, c)
        model = GcnModel(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                         w2=rng.normal(size=(h, c)), b2=rng.normal(size=c))
        arrays = [model.w1, model.b1, model.w2, model.b2]
        _, gw1, gb1, gw2, gb2 = gcn_loss_and_grad(model, g, t, weight_decay=0.01)
        flat = flatten_params([gw1, gb1, gw2, gb2])
        coords = rng.choice(flat.size, size=20, replace=False)
        fd = central_difference(
            lambda: gcn_loss_and_grad(model, g, t, 0.01)[0], arrays, coords)
        assert_gradients_match(flat, fd, rel_tol=1e-4)

    def test_finite_difference_check_sym_norm(self, rng):
        n, d, h, c = 12, 3, 5, 2
        g = random_graph(rng, n, 8)
        t = random_node_table(rng, n, d, c)
        model = GcnModel(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                         w2=rng.normal(size=(h, c)), b2=rng.normal(size=c), norm="symmetric")
        arrays = [model.w1, model.b1, model.w2, model.b2]
        grads = gcn_loss_and_grad(model, g, t, 0.0)[1:]
        flat = flatten_params(list(grads))
        fd = central_difference(
            lambda: gcn_loss_and_grad(model, g, t, 0.0)[0], arrays, range(flat.size))
        assert_gradients_match(flat, fd, rel_tol=1e-4)

    def test_finite_difference_check_directed_partly_labeled(self, rng):
        n, d, h, c = 16, 3, 5, 3
        g, t = directed_problem(rng, n, d, c)
        model = GcnModel(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                         w2=rng.normal(size=(h, c)), b2=rng.normal(size=c), norm="symmetric")
        arrays = [model.w1, model.b1, model.w2, model.b2]
        flat = flatten_params(list(gcn_loss_and_grad(model, g, t, 0.01)[1:]))
        fd = central_difference(
            lambda: gcn_loss_and_grad(model, g, t, 0.01)[0], arrays, range(flat.size))
        assert_gradients_match(flat, fd, rel_tol=1e-4)


def reference_gcn_loss_and_grad(model, g, t, weight_decay):
    """The full-row backward pass: logits for all n nodes, a logits gradient
    that is zero off the labeled train rows, and the whole reversed graph's
    adjoint, written out from ``gather_sum`` and ``transpose``."""
    deg = g.out_degrees().astype(np.float64)[:, None]
    gt = propagation.transpose(g)
    if model.norm == "row-mean":
        def agg(x):
            return propagation.gather_sum(g, x) / deg

        def agg_t(y):
            return propagation.gather_sum(gt, y / deg)
    else:
        scale = 1.0 / np.sqrt(deg)

        def agg(x):
            return scale * propagation.gather_sum(g, x * scale)

        def agg_t(y):
            return scale * propagation.gather_sum(gt, y * scale)

    idx = np.flatnonzero(t.split_mask("train") & t.known_mask())
    m = idx.size
    a1 = agg(t.features)
    s1 = a1 @ model.w1 + model.b1
    a2 = agg(np.maximum(s1, 0.0))
    logits = a2 @ model.w2 + model.b2
    probs = models._softmax(logits[idx])
    loss = models._cross_entropy(probs, t.labels[idx])
    loss += 0.5 * weight_decay * float(np.sum(model.w1 ** 2) + np.sum(model.w2 ** 2))
    g_logits = np.zeros_like(logits)
    delta = probs.copy()
    delta[np.arange(m), t.labels[idx]] -= 1.0
    g_logits[idx] = delta / m
    grad_w2 = a2.T @ g_logits + weight_decay * model.w2
    grad_b2 = g_logits.sum(axis=0)
    g_s1 = agg_t(g_logits @ model.w2.T) * (s1 > 0.0)
    grad_w1 = a1.T @ g_s1 + weight_decay * model.w1
    grad_b1 = g_s1.sum(axis=0)
    return loss, grad_w1, grad_b1, grad_w2, grad_b2


class TestGcnLossMatchesFullRowReference:
    """The second layer over the train rows only must not move a bit."""

    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    def test_bitwise_over_epochs(self, norm):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n, d, h, c = 300, 6, 16, 3
            g, t = directed_problem(rng, n, d, c)
            model = GcnModel(w1=_uniform_init(rng, d, (d, h)), b1=np.zeros(h),
                             w2=_uniform_init(rng, h, (h, c)), b2=np.zeros(c), norm=norm)
            inputs = models._gcn_inputs(g, t, norm, h)
            for epoch in range(5):
                got = gcn_loss_and_grad(model, g, t, 5e-4, _inputs=inputs)
                want = reference_gcn_loss_and_grad(model, g, t, 5e-4)
                assert got[0] == want[0], (seed, epoch)
                for name, a, b in zip(("w1", "b1", "w2", "b2"), got[1:], want[1:]):
                    assert np.array_equal(a, b), (seed, epoch, name)
                    setattr(model, name, getattr(model, name) - 0.5 * a)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_bitwise_under_another_blas_kernel(self, coretype):
        # OpenBLAS picks its kernel when it loads, so the check runs in a
        # child process with the variable set in the child's environment only
        test = f"{Path(__file__).name}::{type(self).__name__}::test_bitwise_over_epochs"
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                              cwd=Path(__file__).parent, env=dict(os.environ, OPENBLAS_CORETYPE=coretype),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]


def mlp_loss_and_grad(model, x, idx, y, wd):
    """Plain two-layer MLP oracle, no graph anywhere."""
    s1 = x @ model.w1 + model.b1
    h1 = np.maximum(s1, 0.0)
    logits = h1 @ model.w2 + model.b2
    sub = logits[idx] - logits[idx].max(axis=1, keepdims=True)
    p = np.exp(sub)
    p /= p.sum(axis=1, keepdims=True)
    n = idx.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(n), y])))
    loss += 0.5 * wd * float(np.sum(model.w1 ** 2) + np.sum(model.w2 ** 2))
    gl = np.zeros_like(logits)
    delta = p.copy()
    delta[np.arange(n), y] -= 1.0
    gl[idx] = delta / n
    gw2 = h1.T @ gl + wd * model.w2
    gb2 = gl.sum(axis=0)
    gs = (gl @ model.w2.T) * (s1 > 0.0)
    gw1 = x.T @ gs + wd * model.w1
    gb1 = gs.sum(axis=0)
    return loss, gw1, gb1, gw2, gb2


class TestGcnReducesToMlp:
    """On a self-loops-only graph both aggregations are the identity."""

    def test_forward_and_gradient(self, rng):
        n, d, h, c = 10, 4, 5, 3
        g = Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64), add_self_loops=True)
        t = random_node_table(rng, n, d, c)
        model = GcnModel(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                         w2=rng.normal(size=(h, c)), b2=rng.normal(size=c))

        want_logits = np.maximum(t.features @ model.w1 + model.b1, 0.0) @ model.w2 + model.b2
        np.testing.assert_allclose(gcn_forward(model, g, t.features), want_logits,
                                   rtol=0, atol=1e-12)

        idx = np.flatnonzero(t.split_mask("train"))
        want = mlp_loss_and_grad(model, t.features, idx, t.labels[idx], wd=0.02)
        got = gcn_loss_and_grad(model, g, t, weight_decay=0.02)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestPermutationEquivariance:
    def test_gcn_forward(self, rng):
        n, d, h, c = 16, 3, 4, 2
        g = random_graph(rng, n, 12)
        x = rng.normal(size=(n, d))
        model = GcnModel(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                         w2=rng.normal(size=(h, c)), b2=rng.normal(size=c))
        logits = gcn_forward(model, g, x)

        perm = rng.permutation(n)
        g2 = Graph.from_edges(n, perm[g.edge_array()], add_self_loops=False)
        x2 = np.empty_like(x)
        x2[perm] = x
        logits2 = gcn_forward(model, g2, x2)
        np.testing.assert_allclose(logits2[perm], logits, atol=1e-9)


class TestFitting:
    def easy_problem(self, seed=0):
        return synth(n=300, c=3, d=8, homophily=0.7, avg_degree=6.0,
                     feature_sep=3.0, seed=seed)

    def test_sgc_learns(self):
        g, t = self.easy_problem()
        model = sgc_fit(g, t, FitConfig(epochs=150), k=2)
        assert accuracy(predict(model, g, t), t, "test") >= 0.8

    def test_gcn_learns(self):
        g, t = self.easy_problem()
        model = gcn_fit(g, t, FitConfig(learning_rate=0.05, epochs=150, hidden_width=16))
        assert accuracy(predict(model, g, t), t, "test") >= 0.8

    def test_deterministic(self):
        g, t = self.easy_problem()
        cfg = FitConfig(epochs=20, seed=5)
        a = sgc_fit(g, t, cfg)
        b = sgc_fit(g, t, cfg)
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
        c = sgc_fit(g, t, FitConfig(epochs=20, seed=6))
        assert not np.array_equal(a.weights, c.weights)

    def test_zero_epochs_is_init(self):
        g, t = self.easy_problem()
        model = sgc_fit(g, t, FitConfig(epochs=0, seed=3), k=1)
        rng = np.random.default_rng(3)
        bound = 1.0 / np.sqrt(t.feature_dim)
        want = rng.uniform(-bound, bound, size=(t.feature_dim, t.num_classes))
        assert np.array_equal(model.weights, want)
        assert np.array_equal(model.bias, np.zeros(t.num_classes))

    def test_weight_decay_shrinks_weights(self):
        g, t = self.easy_problem()
        loose = sgc_fit(g, t, FitConfig(epochs=100, weight_decay=0.0))
        tight = sgc_fit(g, t, FitConfig(epochs=100, weight_decay=0.5))
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_no_labeled_train_nodes(self, rng):
        g = random_graph(rng, 10, 4)
        t = NodeTable(features=rng.normal(size=(10, 2)),
                      labels=np.zeros(10, dtype=np.int64), num_classes=2,
                      split=np.full(10, 2, dtype=np.int8))
        with pytest.raises(ValueError, match="no labeled train nodes"):
            sgc_fit(g, t)
        with pytest.raises(ValueError, match="no labeled train nodes"):
            gcn_fit(g, t)

    def test_early_stop_keeps_best_val_weights(self):
        g, t = self.easy_problem()
        cfg = FitConfig(epochs=300, early_stop=True, patience=5)
        model = sgc_fit(g, t, cfg)
        assert accuracy(predict(model, g, t), t, "val") >= 0.7

    def test_early_stop_requires_val_labels(self, rng):
        g = random_graph(rng, 10, 4)
        t = NodeTable(features=rng.normal(size=(10, 2)),
                      labels=np.zeros(10, dtype=np.int64), num_classes=2,
                      split=np.zeros(10, dtype=np.int8))
        with pytest.raises(ValueError, match="val split"):
            sgc_fit(g, t, FitConfig(epochs=5, early_stop=True))

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises(self):
        g, t = self.easy_problem()
        with pytest.raises(RuntimeError, match="training diverged"):
            sgc_fit(g, t, FitConfig(learning_rate=1e12, epochs=50))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fit, epochs, match", [
        (sgc_fit, 2, "non-finite loss"), (gcn_fit, 2, "non-finite loss"), (gcn_fit, 1, "non-finite logits")])
    def test_huge_step_diverges_without_warnings(self, fit, epochs, match):
        # a step of 1e308 overflows the loss of the next epoch or, after the
        # last step, the logits predict computes; numpy warns of neither
        g, t = synth(n=60, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=4.0, seed=0)
        with pytest.raises(RuntimeError, match=f"training diverged: {match}"):
            predict(fit(g, t, FitConfig(learning_rate=1e308, epochs=epochs)), g, t)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0}, {"epochs": -1}, {"weight_decay": -0.1},
        {"hidden_width": 0}, {"norm": "max"}, {"patience": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


def reference_gcn_fit(g, t, cfg):
    """``gcn_fit`` as a loop over the public per-epoch calls, each of which
    rebuilds the aggregators and the first-layer aggregate from scratch."""
    rng = np.random.default_rng(cfg.seed)
    d, h, c = t.feature_dim, cfg.hidden_width, t.num_classes
    model = GcnModel(w1=_uniform_init(rng, d, (d, h)), b1=np.zeros(h),
                     w2=_uniform_init(rng, h, (h, c)), b2=np.zeros(c), norm=cfg.norm)
    val = t.split_mask("val") & t.known_mask()
    best, best_acc, stale = None, -1.0, 0
    for _ in range(cfg.epochs):
        _, gw1, gb1, gw2, gb2 = gcn_loss_and_grad(model, g, t, cfg.weight_decay)
        model.w1 = model.w1 - cfg.learning_rate * gw1
        model.b1 = model.b1 - cfg.learning_rate * gb1
        model.w2 = model.w2 - cfg.learning_rate * gw2
        model.b2 = model.b2 - cfg.learning_rate * gb2
        if cfg.early_stop:
            pred = np.argmax(gcn_forward(model, g, t.features), axis=1)
            acc = float(np.mean(pred[val] == t.labels[val]))
            if acc > best_acc:
                best_acc, stale = acc, 0
                best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2.copy())
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if cfg.early_stop and best is not None:
        model.w1, model.b1, model.w2, model.b2 = best
    return model


class TestGcnFitPreparesOnce:
    def problem(self):
        return synth(n=200, c=3, d=6, homophily=0.6, avg_degree=5.0, feature_sep=2.0, seed=1)

    def test_one_transpose_and_one_loss_call_per_epoch(self, monkeypatch):
        g, t = self.problem()
        calls = {"transpose": 0, "gcn_loss_and_grad": 0}
        for module, name in ((propagation, "transpose"), (models, "gcn_loss_and_grad")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        gcn_fit(g, t, FitConfig(learning_rate=0.05, epochs=7))
        assert calls == {"transpose": 1, "gcn_loss_and_grad": 7}

    def test_restricted_step_and_adjoint_built_once_per_fit(self, monkeypatch):
        # the epochs only multiply: no sparse matrix is built or sliced inside
        # gcn_loss_and_grad once gcn_fit hands it the prepared inputs
        g, t = self.problem()
        events, inside = [], [False]

        def spy(kind, original):
            def wrapped(*args, **kwargs):
                events.append((kind, inside[0], kwargs.get("rows") is not None))
                return original(*args, **kwargs)
            return wrapped

        original_loss = models.gcn_loss_and_grad

        def loss(*args, **kwargs):
            assert kwargs.get("_inputs") is not None
            inside[0] = True
            try:
                return original_loss(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(models, "gcn_loss_and_grad", loss)
        monkeypatch.setattr(models, "aggregation", spy("aggregation", models.aggregation))
        monkeypatch.setattr(propagation, "transpose", spy("transpose", propagation.transpose))
        for name in ("__init__", "__getitem__"):
            monkeypatch.setattr(csr_array, name, spy(name, getattr(csr_array, name)))
        gcn_fit(g, t, FitConfig(learning_rate=0.05, epochs=7))
        assert not [e for e in events if e[1]]
        assert [e for e in events if e[0] == "aggregation"] == [
            ("aggregation", False, False), ("aggregation", False, True)]
        assert [e for e in events if e[0] == "transpose"] == [("transpose", False, False)]
        assert [e for e in events if e[0] == "__getitem__"]

    def test_one_csr_for_the_graph_and_one_for_its_transpose(self, monkeypatch):
        g, t = self.problem()
        built = []
        original = graph.csr_array

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graph, "csr_array", counted)
        gcn_fit(g, t, FitConfig(learning_rate=0.05, epochs=7))
        assert len(built) == 2
        assert "adjacency" in vars(g)

    def test_predict_builds_no_transpose(self, monkeypatch):
        g, t = self.problem()
        model = gcn_fit(g, t, FitConfig(learning_rate=0.05, epochs=3))
        calls = []
        original = propagation.transpose

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(propagation, "transpose", counted)
        pred = predict(model, g, t)
        assert calls == []
        assert np.array_equal(pred, np.argmax(gcn_forward(model, g, t.features), axis=1))

    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_weights_match_the_public_per_epoch_loop(self, norm, early_stop):
        g, t = self.problem()
        cfg = FitConfig(learning_rate=0.3, epochs=40, seed=4, norm=norm,
                        early_stop=early_stop, patience=3)
        got, want = gcn_fit(g, t, cfg), reference_gcn_fit(g, t, cfg)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def reference_sgc_fit(g, t, cfg, k):
    """``sgc_fit`` as a loop over the public per-epoch calls, with early
    stopping on ``predict``, which propagates the features again."""
    z = propagate(g, t.features, PropagationConfig(k=k, norm=cfg.norm))
    idx = np.flatnonzero(t.split_mask("train") & t.known_mask())
    rng = np.random.default_rng(cfg.seed)
    d, c = t.feature_dim, t.num_classes
    model = SgcModel(weights=_uniform_init(rng, d, (d, c)), bias=np.zeros(c), k=k, norm=cfg.norm)
    val = t.split_mask("val") & t.known_mask()
    best, best_acc, stale = None, -1.0, 0
    for _ in range(cfg.epochs):
        _, gw, gb = sgc_loss_and_grad(model, z[idx], t.labels[idx], cfg.weight_decay)
        model.weights = model.weights - cfg.learning_rate * gw
        model.bias = model.bias - cfg.learning_rate * gb
        if cfg.early_stop:
            pred = predict(model, g, t)
            acc = float(np.mean(pred[val] == t.labels[val]))
            if acc > best_acc:
                best_acc, stale = acc, 0
                best = (model.weights.copy(), model.bias.copy())
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if cfg.early_stop and best is not None:
        model.weights, model.bias = best
    return model


class TestSgcFitMatchesReference:
    problem = TestGcnFitPreparesOnce.problem

    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_weights_match_the_public_per_epoch_loop(self, norm, early_stop):
        g, t = self.problem()
        cfg = FitConfig(learning_rate=0.5, epochs=60, seed=4, norm=norm,
                        early_stop=early_stop, patience=3)
        got, want = sgc_fit(g, t, cfg, k=2), reference_sgc_fit(g, t, cfg, k=2)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)

    def test_one_loss_call_per_epoch(self, monkeypatch):
        g, t = self.problem()
        calls = []
        original = models.sgc_loss_and_grad

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(models, "sgc_loss_and_grad", counted)
        sgc_fit(g, t, FitConfig(epochs=7))
        assert len(calls) == 7


class TestInputChecks:
    """Bad graphs and feature matrices are rejected before the first epoch."""

    def path_graph(self, add_self_loops):
        # 4 nodes, edges 0-1-2 mirrored, node 3 isolated
        edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
        return Graph.from_edges(4, edges, add_self_loops=add_self_loops)

    def table(self, n):
        return NodeTable(features=np.arange(2.0 * n).reshape(n, 2),
                         labels=np.array([0, 1] * (n // 2) + [0] * (n % 2), dtype=np.int64),
                         num_classes=2, split=np.zeros(n, dtype=np.int8))

    def gcn_model(self):
        return GcnModel(w1=np.ones((2, 3)), b1=np.zeros(3), w2=np.ones((3, 2)), b2=np.zeros(2))

    def test_graph_without_self_loops_rejected(self):
        g, t = self.path_graph(add_self_loops=False), self.table(4)
        calls = [lambda: sgc_fit(g, t, FitConfig(epochs=3)),
                 lambda: gcn_fit(g, t, FitConfig(epochs=3)),
                 lambda: gcn_fit(g, t, FitConfig(epochs=0)),
                 lambda: gcn_forward(self.gcn_model(), g, t.features),
                 lambda: predict(self.gcn_model(), g, t)]
        for call in calls:
            with pytest.raises(ValueError, match="propagation requires a graph with self loops"):
                call()

    def test_feature_rows_must_match_nodes(self):
        g, t = self.path_graph(add_self_loops=True), self.table(5)
        calls = [lambda: sgc_fit(g, t, FitConfig(epochs=3)),
                 lambda: gcn_fit(g, t, FitConfig(epochs=3)),
                 lambda: gcn_forward(self.gcn_model(), g, t.features),
                 lambda: predict(self.gcn_model(), g, t)]
        for call in calls:
            with pytest.raises(ValueError, match="feature matrix must have one row per node"):
                call()

    def test_unknown_norm_rejected(self):
        # a misspelt norm must not fall through to the symmetric operator
        g, t = self.path_graph(add_self_loops=True), self.table(4)
        model = self.gcn_model()
        model.norm = "rowmean"
        for call in (lambda: gcn_forward(model, g, t.features), lambda: predict(model, g, t)):
            with pytest.raises(ValueError, match="norm must be one of"):
                call()


class TestPredictAndAccuracy:
    def test_tie_breaks_to_lowest_class(self, rng):
        g = random_graph(rng, 6, 2)
        t = random_node_table(rng, 6, 3, 4)
        model = SgcModel(weights=np.zeros((3, 4)), bias=np.zeros(4), k=1)
        assert np.array_equal(predict(model, g, t), np.zeros(6, dtype=np.int64))

    def test_unknown_model_type(self, rng):
        g = random_graph(rng, 4, 0)
        t = random_node_table(rng, 4, 2, 2)
        with pytest.raises(TypeError, match="SgcModel or GcnModel"):
            predict(object(), g, t)

    def test_accuracy_hand_counted(self):
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0], dtype=np.int64)
        pred = labels.copy()
        pred[3:6] = (labels[3:6] + 1) % 3  # 7 of 10 correct
        t = NodeTable(features=np.zeros((10, 1)), labels=labels, num_classes=3,
                      split=np.zeros(10, dtype=np.int8))
        assert accuracy(pred, t, "train") == pytest.approx(0.7)

    def test_accuracy_ignores_unknown_labels(self):
        labels = np.array([0, 1, -1, 1], dtype=np.int64)
        t = NodeTable(features=np.zeros((4, 1)), labels=labels, num_classes=2,
                      split=np.zeros(4, dtype=np.int8))
        pred = np.array([0, 0, 0, 1], dtype=np.int64)
        assert accuracy(pred, t, "train") == pytest.approx(2 / 3)

    def test_accuracy_errors(self):
        t = NodeTable(features=np.zeros((3, 1)), labels=np.array([0, 1, 0], dtype=np.int64),
                      num_classes=2, split=np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError, match="length"):
            accuracy(np.zeros(2, dtype=np.int64), t, "train")
        with pytest.raises(ValueError, match="no labeled nodes"):
            accuracy(np.zeros(3, dtype=np.int64), t, "val")
