"""CSR graph container, node table, positive ratio, and two-hop lookup."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagraph.graph as graph
from lagraph.graph import Graph, NodeTable, positive_ratio, two_hop_blocks, two_hop_candidates

from conftest import dense_adjacency, draw_graph, reference_two_hop_pools, undirected_graph


def small_graph():
    # 0-1, 0-2, 1-3, 3-4 plus self loops
    return undirected_graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])


class TestGraphConstruction:
    def test_csr_layout_hand_checked(self):
        g = small_graph()
        assert g.num_nodes == 5
        assert g.row_offsets.tolist() == [0, 3, 6, 8, 11, 13]
        assert g.col_targets.tolist() == [0, 1, 2, 0, 1, 3, 0, 2, 1, 3, 4, 3, 4]
        assert g.has_self_loops

    def test_duplicate_edges_collapse(self):
        g1 = Graph.from_edges(3, [(0, 1), (0, 1), (1, 0)])
        g2 = Graph.from_edges(3, [(0, 1), (1, 0)])
        assert g1.row_offsets.tolist() == g2.row_offsets.tolist()
        assert g1.col_targets.tolist() == g2.col_targets.tolist()

    def test_no_self_loop_mode(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0)], add_self_loops=False)
        assert not g.has_self_loops
        assert g.num_edges == 2

    def test_empty_edge_list(self):
        g = Graph.from_edges(4, np.zeros((0, 2), dtype=np.int64))
        assert g.num_edges == 4  # only self loops
        assert np.diff(g.row_offsets).tolist() == [1, 1, 1, 1]

    def test_neighbor_queries(self):
        g = small_graph()
        assert g.neighbors(1).tolist() == [0, 1, 3]
        assert g.out_degrees().tolist() == [3, 3, 2, 3, 2]
        assert g.nonself_degrees().tolist() == [2, 2, 1, 2, 1]
        assert 2 in g.neighbors(0) and 3 not in g.neighbors(2)

    def test_edge_array_matches_dense(self):
        g = small_graph()
        dense = dense_adjacency(g)
        rebuilt = np.zeros_like(dense)
        for u, v in g.edge_array():
            rebuilt[u, v] += 1.0
        assert np.array_equal(dense, rebuilt)  # also proves no duplicates

    def test_arrays_are_frozen(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.col_targets[0] = 99

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, row_offsets=np.array([0, 2, 1]),
                  col_targets=np.array([0, 1, 0]), has_self_loops=False)

    def test_validation_rejects_unsorted_row(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, row_offsets=np.array([0, 2, 3]),
                  col_targets=np.array([1, 0, 1]), has_self_loops=False)

    def test_validation_rejects_duplicate_target(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, row_offsets=np.array([0, 2, 3]),
                  col_targets=np.array([1, 1, 0]), has_self_loops=False)

    def test_validation_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, row_offsets=np.array([0, 1, 2]),
                  col_targets=np.array([0, 5]), has_self_loops=False)

    def test_validation_rejects_wrong_loop_flag(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, row_offsets=np.array([0, 1, 2]),
                  col_targets=np.array([0, 0]), has_self_loops=True)

    def test_edge_out_of_range_in_from_edges(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 3)])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_from_sorted_equals_from_edges(self, data):
        """Edges sorted by (source, target) without repeats build, through
        ``from_sorted``, the graph ``from_edges`` builds from them in any
        order: one-way and mirrored edges, none at all, self loops on every
        node, on none or on a few."""
        n = data.draw(st.integers(1, 30), label="nodes")
        node = st.integers(0, n - 1)
        pairs = np.asarray(data.draw(st.lists(st.tuples(node, node), max_size=90), label="pairs"),
                           dtype=np.int64).reshape(-1, 2)
        if data.draw(st.booleans(), label="mirrored"):
            pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
        loops = data.draw(st.booleans(), label="self loops")
        want = Graph.from_edges(n, pairs, add_self_loops=loops)
        if loops:
            pairs = np.concatenate([pairs, np.repeat(np.arange(n), 2).reshape(-1, 2)], axis=0)
        keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
        got = Graph.from_sorted(n, keys // n, keys % n)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_targets, want.col_targets)
        assert got.has_self_loops == want.has_self_loops

    def test_adjacency_is_built_once_and_matches_dense(self):
        g = small_graph()
        assert g.adjacency is g.adjacency
        assert np.array_equal(g.adjacency.toarray(), dense_adjacency(g))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_both_ways_is_the_mirror(self, data):
        """``both_ways`` is the graph ``from_edges`` builds from every edge and
        its reverse; a mirrored edge list comes back edge for edge."""
        g = draw_graph(data)
        edges = g.edge_array()
        want = Graph.from_edges(g.num_nodes, np.concatenate([edges, edges[:, ::-1]]), add_self_loops=False)
        got = g.both_ways()
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_targets, want.col_targets)
        assert got.has_self_loops == want.has_self_loops == g.has_self_loops
        assert got.row_offsets.dtype == got.col_targets.dtype == np.int64
        if np.array_equal(dense_adjacency(g), dense_adjacency(g).T):
            assert np.array_equal(got.col_targets, g.col_targets)


class TestNodeTable:
    def make(self, labels, split=None, c=2):
        n = len(labels)
        split = np.zeros(n, dtype=np.int8) if split is None else np.asarray(split, dtype=np.int8)
        return NodeTable(features=np.zeros((n, 3)), labels=np.asarray(labels, dtype=np.int64),
                         num_classes=c, split=split)

    def test_masks(self):
        t = self.make([0, 1, -1, 1], split=[0, 1, 2, 0])
        assert t.split_mask("train").tolist() == [True, False, False, True]
        assert t.split_mask("val").tolist() == [False, True, False, False]
        assert t.known_mask().tolist() == [True, True, False, True]
        assert t.num_nodes == 4 and t.feature_dim == 3

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            self.make([0, 2], c=2)
        with pytest.raises(ValueError):
            self.make([0, -2], c=2)

    def test_rejects_bad_split_code(self):
        with pytest.raises(ValueError):
            self.make([0, 1], split=[0, 7])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            NodeTable(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64),
                      num_classes=1, split=np.zeros(2, dtype=np.int8))

    def test_rejects_unknown_split_name(self):
        t = self.make([0, 1])
        with pytest.raises(ValueError):
            t.split_mask("holdout")


class TestPositiveRatio:
    def chain(self, labels, split=None):
        # path over the labeled nodes: 0-1, 1-2, 2-3
        g = undirected_graph(4, [(0, 1), (1, 2), (2, 3)])
        split = np.zeros(4, dtype=np.int8) if split is None else np.asarray(split, dtype=np.int8)
        t = NodeTable(features=np.zeros((4, 1)), labels=np.asarray(labels, dtype=np.int64),
                      num_classes=2, split=split)
        return g, t

    def test_hand_counted_ratio(self):
        # edges: (0,1) same, (1,2) diff, (2,3) same -> 4 of 6 directed positive
        g, t = self.chain([0, 0, 1, 1])
        rep = positive_ratio(g, t)
        assert rep.graph_ratio == pytest.approx(2.0 / 3.0)
        assert rep.positive_edges == 4 and rep.counted_edges == 6
        assert rep.per_node.tolist() == [1.0, 0.5, 0.5, 1.0]

    def test_unknown_label_edges_excluded(self):
        g, t = self.chain([0, 0, 1, -1])
        rep = positive_ratio(g, t)
        assert rep.counted_edges == 4
        assert rep.graph_ratio == pytest.approx(0.5)
        assert np.isnan(rep.per_node[3])
        assert rep.per_node[2] == 0.0

    def test_split_restriction(self):
        g, t = self.chain([0, 0, 1, 1], split=[0, 0, 2, 2])
        rep = positive_ratio(g, t, use_splits=("train",))
        assert rep.counted_edges == 2 and rep.graph_ratio == 1.0
        rep_all = positive_ratio(g, t, use_splits=("train", "test"))
        assert rep_all.counted_edges == 6

    def test_self_loops_never_counted(self):
        g = Graph.from_edges(2, np.zeros((0, 2), dtype=np.int64))
        t = NodeTable(features=np.zeros((2, 1)), labels=np.array([0, 0], dtype=np.int64),
                      num_classes=1, split=np.zeros(2, dtype=np.int8))
        rep = positive_ratio(g, t)
        assert rep.counted_edges == 0
        assert np.isnan(rep.graph_ratio)
        assert np.all(np.isnan(rep.per_node))

    def test_identity_per_node_vs_graph(self):
        # graph ratio equals positive count over counted count, which equals
        # the degree-weighted mean of defined per-node ratios
        g, t = self.chain([0, 1, 0, 1])
        rep = positive_ratio(g, t)
        assert rep.graph_ratio == pytest.approx(rep.positive_edges / rep.counted_edges)


def bfs_two_hop(g, v):
    """Set oracle: neighbors-of-neighbors minus direct neighbors minus v."""
    one = set(int(u) for u in g.neighbors(v) if u != v)
    two = set()
    for u in one:
        two.update(int(w) for w in g.neighbors(u))
    return sorted(two - one - {v})


class TestTwoHop:
    def test_path_graph(self):
        g = undirected_graph(5, [(i, i + 1) for i in range(4)])
        assert two_hop_candidates(g, 0).tolist() == [2]
        assert two_hop_candidates(g, 2).tolist() == [0, 4]

    def test_dense_clique_has_none(self):
        g = undirected_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for v in range(4):
            assert two_hop_candidates(g, v).size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_bfs_oracle(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=120))
        g = undirected_graph(n, pairs) if pairs else Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64))
        v = data.draw(st.integers(0, n - 1))
        got = two_hop_candidates(g, v)
        assert got.tolist() == bfs_two_hop(g, v)
        assert np.all(np.diff(got) > 0)  # ascending, unique


def pool_rows(g):
    """Each node's pool, read from the blocks of ``two_hop_blocks``."""
    rows = [[] for _ in range(g.num_nodes)]
    for owners, cand in two_hop_blocks(g):
        assert owners.dtype == cand.dtype == np.int32
        for v, w in zip(owners.tolist(), cand.tolist()):
            rows[v].append(w)
    return rows


class TestTwoHopPools:
    def test_directed_path_hand_checked(self):
        # 0 -> 1 -> 2 -> 3, no self loops: only forward two-step walks count
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], add_self_loops=False)
        (owners, cand), = two_hop_blocks(g)
        assert owners.tolist() == [0, 1]
        assert cand.tolist() == [2, 3]
        assert owners.dtype == cand.dtype == np.int32

    def test_triangle_and_tail(self):
        # 0-1-2 triangle with tail 2-3: 3 is two hops from 0 and 1, nothing else is
        g = undirected_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert pool_rows(g) == [[3], [3], [], [0, 1]]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_edges(self, n):
        for loops in (True, False):
            g = Graph.from_edges(n, np.zeros((0, 2), dtype=np.int64), add_self_loops=loops)
            assert pool_rows(g) == [[] for _ in range(n)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_bfs_oracle(self, data):
        g = draw_graph(data)
        assert pool_rows(g) == [bfs_two_hop(g, v) for v in range(g.num_nodes)]


class TestTwoHopBlocks:
    """The row-block scan, block by block, is the whole-graph product."""

    @pytest.mark.parametrize("rows", [1, 2, "n", "past n"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_join_to_whole_product(self, rows, data):
        g = draw_graph(data)  # one-way or mirrored edges
        isolated = data.draw(st.integers(0, 3), label="isolated nodes")
        g = Graph.from_edges(g.num_nodes + isolated, g.edge_array(), add_self_loops=g.has_self_loops)
        n = g.num_nodes
        size = {"n": n, "past n": n + 3}.get(rows, rows)
        want_indptr, want_indices = reference_two_hop_pools(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "POOL_ROWS", size)
            blocks = list(two_hop_blocks(g))
        assert len(blocks) == len(range(0, n, size))
        for lo, (owners, cand) in zip(range(0, n, size), blocks):
            hi = min(lo + size, n)
            assert owners.dtype == cand.dtype == np.int32
            assert owners.tolist() == np.repeat(np.arange(lo, hi), np.diff(want_indptr[lo:hi + 1])).tolist()
            assert cand.tolist() == want_indices[want_indptr[lo]:want_indptr[hi]].tolist()

    def test_no_nodes_no_blocks(self):
        g = Graph.from_edges(0, np.zeros((0, 2), dtype=np.int64))
        assert list(two_hop_blocks(g)) == []

    def test_scan_drops_the_graph_once_started(self, monkeypatch):
        monkeypatch.setattr(graph, "POOL_ROWS", 2)
        g = undirected_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        ref, blocks = weakref.ref(g), two_hop_blocks(g)
        del g
        owners, cand = next(blocks)
        gc.collect()
        assert ref() is None
        assert owners.tolist() == [0, 1] and cand.tolist() == [2, 3]
        assert len(list(blocks)) == 2
