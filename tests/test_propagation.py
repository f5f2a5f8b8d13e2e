"""Feature propagation against dense matrix-power oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagraph import (
    EdgeFeatureConfig,
    Graph,
    NodeTable,
    PropagationConfig,
    edge_input_features,
    propagate,
    transpose,
)
from lagraph.propagation import aggregation, gather_sum

from conftest import dense_adjacency, undirected_graph


def random_graph(rng, n, extra_edges):
    pairs = set()
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    if pairs:
        return undirected_graph(n, sorted(pairs))
    return Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64))


def node_table(rng, n, d=4):
    return NodeTable(features=rng.normal(size=(n, d)),
                     labels=np.zeros(n, dtype=np.int64), num_classes=1,
                     split=np.zeros(n, dtype=np.int8))


def dense_row_mean(g):
    a = dense_adjacency(g)
    return a / a.sum(axis=1, keepdims=True)


def dense_symmetric(g):
    a = dense_adjacency(g)
    d = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


class TestPropagate:
    def test_k0_is_identity(self, rng):
        g = random_graph(rng, 8, 12)
        x = rng.normal(size=(8, 3))
        out = propagate(g, x, PropagationConfig(k=0))
        assert np.array_equal(out, x)
        assert out is not x

    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_dense_power(self, rng, norm, k):
        g = random_graph(rng, 30, 60)
        x = rng.normal(size=(30, 5))
        s = dense_row_mean(g) if norm == "row-mean" else dense_symmetric(g)
        want = np.linalg.matrix_power(s, k) @ x
        got = propagate(g, x, PropagationConfig(k=k, norm=norm))
        assert np.allclose(got, want, atol=1e-10)

    def test_row_mean_preserves_constants(self, rng):
        g = random_graph(rng, 25, 40)
        x = np.full((25, 2), 3.25)
        out = propagate(g, x, PropagationConfig(k=3))
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_row_mean_respects_bounds(self, rng):
        g = random_graph(rng, 25, 50)
        x = rng.normal(size=(25, 1))
        out = propagate(g, x, PropagationConfig(k=2))
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_gather_sum_is_unnormalized_step(self, rng):
        g = random_graph(rng, 12, 20)
        x = rng.normal(size=(12, 2))
        assert np.allclose(gather_sum(g, x), dense_adjacency(g) @ x, atol=1e-12)

    def test_single_node(self):
        g = Graph.from_edges(1, np.zeros((0, 2), dtype=np.int64))
        x = np.array([[2.0, -1.0]])
        assert np.allclose(propagate(g, x, PropagationConfig(k=5)), x)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PropagationConfig(k=-1)
        with pytest.raises(ValueError):
            PropagationConfig(k=9)
        with pytest.raises(ValueError):
            PropagationConfig(norm="rowsum")
        g = random_graph(rng, 4, 4)
        with pytest.raises(ValueError):
            propagate(g, np.zeros((5, 2)))


class TestTranspose:
    def test_transpose_graph_reverses_edges(self, rng):
        g = random_graph(rng, 15, 25)
        gt = transpose(g)
        assert np.array_equal(dense_adjacency(gt), dense_adjacency(g).T)

    def test_propagate_transpose_matches_dense(self, rng):
        # the transposed step that GCN backprop applies
        g = random_graph(rng, 20, 35)
        x = rng.normal(size=(20, 3))
        for norm, dense in (("row-mean", dense_row_mean), ("symmetric", dense_symmetric)):
            _, agg_t = aggregation(g, norm, backward=True)
            assert np.allclose(agg_t(x), dense(g).T @ x, atol=1e-10)

    def test_adjoint_identity(self, rng):
        # <Sx, y> == <x, S^T y> ties the forward and transpose operators
        g = random_graph(rng, 18, 30)
        x = rng.normal(size=(18, 2))
        y = rng.normal(size=(18, 2))
        lhs = np.sum(propagate(g, x, PropagationConfig(k=1)) * y)
        _, agg_t = aggregation(g, "row-mean", backward=True)
        rhs = np.sum(x * agg_t(y))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestAggregation:
    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    def test_forward_step_matches_dense(self, rng, norm):
        g = random_graph(rng, 20, 35)
        x = rng.normal(size=(20, 3))
        dense = dense_row_mean(g) if norm == "row-mean" else dense_symmetric(g)
        agg, agg_t = aggregation(g, norm)
        assert agg_t is None
        assert np.allclose(agg(x), dense @ x, atol=1e-10)
        assert np.array_equal(agg(x), propagate(g, x, PropagationConfig(k=1, norm=norm)))

    @pytest.mark.parametrize("norm", ["row-mean", "symmetric"])
    def test_adjoint_matches_dense_transpose_on_a_directed_graph(self, rng, norm):
        # one-directional edges, so the adjoint must use the reversed graph
        n = 15
        edges = np.array([(u, v) for u, v in rng.integers(0, n, size=(30, 2)) if u != v])
        g = Graph.from_edges(n, edges, add_self_loops=True)
        dense = dense_row_mean(g) if norm == "row-mean" else dense_symmetric(g)
        assert not np.array_equal(dense, dense.T)
        y = rng.normal(size=(n, 2))
        _, agg_t = aggregation(g, norm, backward=True)
        assert np.allclose(agg_t(y), dense.T @ y, atol=1e-10)

    def test_graph_without_self_loops_rejected(self):
        g = Graph.from_edges(4, np.array([[0, 1], [1, 0], [1, 2], [2, 1]]), add_self_loops=False)
        x = np.ones((4, 2))
        for call in (lambda: aggregation(g, "row-mean", backward=True),
                     lambda: propagate(g, x, PropagationConfig(k=0)),
                     lambda: edge_input_features(g, node_table(np.random.default_rng(0), 4),
                                                 EdgeFeatureConfig(k=1, binary=True))):
            with pytest.raises(ValueError, match="self loops"):
                call()


class TestBinaryPower:
    """``edge_input_features(binary=True)``: plain adjacency powers."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_dense_adjacency_power(self, rng, k):
        g = random_graph(rng, 16, 24)
        t = node_table(rng, 16, d=2)
        want = np.linalg.matrix_power(dense_adjacency(g), k) @ t.features
        got = edge_input_features(g, t, EdgeFeatureConfig(k=k, binary=True))
        assert np.allclose(got, want, atol=1e-9)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            EdgeFeatureConfig(k=-1, binary=True)


class TestEdgeInputFeatures:
    def test_k0_returns_raw_features(self, rng):
        g = random_graph(rng, 10, 15)
        t = node_table(rng, 10)
        out = edge_input_features(g, t, EdgeFeatureConfig(k=0))
        assert np.array_equal(out, t.features)

    def test_k2_matches_propagate(self, rng):
        g = random_graph(rng, 10, 15)
        t = node_table(rng, 10)
        want = propagate(g, t.features, PropagationConfig(k=2))
        assert np.array_equal(edge_input_features(g, t, EdgeFeatureConfig(k=2)), want)

    def test_binary_variant(self, rng):
        g = random_graph(rng, 10, 15)
        t = node_table(rng, 10)
        want = gather_sum(g, gather_sum(g, t.features))
        got = edge_input_features(g, t, EdgeFeatureConfig(k=2, binary=True))
        assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 4), st.integers(2, 20), st.integers(0, 10_000))
    def test_output_row_count_always_matches(self, k, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, 2 * n)
        t = node_table(rng, n)
        out = edge_input_features(g, t, EdgeFeatureConfig(k=k))
        assert out.shape == t.features.shape
