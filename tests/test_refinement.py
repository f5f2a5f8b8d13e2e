"""Edge filtering, greedy edge addition, and the combined refine pass."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagraph import refinement
from lagraph.data import synth
from lagraph.edge_classifier import TrainConfig, build_pairs, init_classifier, make_scorer, train
from lagraph.graph import Graph, NodeTable, positive_ratio, two_hop_blocks, unordered_pairs
from lagraph.hashing import unit_uniform
from lagraph.propagation import EdgeFeatureConfig, edge_input_features
from lagraph.refinement import (
    OracleClassifier,
    RefinementConfig,
    RefinementReport,
    add_edges,
    filter_edges,
    oracle_scorer,
    refine,
)
from lagraph.theory import PropositionReport

from conftest import (
    draw_graph,
    draw_table,
    mirrored,
    path_graph,
    reference_add_edges,
    reference_oracle_add_scorer,
    reference_two_hop_pools,
    traced_peak,
    undirected_graph,
)


def dict_scorer(table, default=0.0):
    """Score unordered pairs from an explicit table."""
    def scorer(u, v):
        u, v = np.asarray(u), np.asarray(v)
        return np.array([table.get((min(a, b), max(a, b)), default)
                         for a, b in zip(u.tolist(), v.tolist())])
    return scorer


def unknown_labels(n):
    return np.full(n, -1)


def label_scorer(labels):
    labels = np.asarray(labels)
    return lambda u, v: (labels[np.asarray(u)] == labels[np.asarray(v)]).astype(np.float64)


class TestFilterEdges:
    def test_perfect_scorer_purifies(self):
        g, t = synth(n=200, c=3, d=2, homophily=0.5, avg_degree=6.0, feature_sep=1.0, seed=0)
        assert positive_ratio(g, t).graph_ratio < 0.9
        refined, rep = filter_edges(g, label_scorer(t.labels), 0.5, t.labels)
        assert positive_ratio(refined, t).graph_ratio == 1.0
        edges = refined.edge_array()
        nonself = edges[:, 0] != edges[:, 1]
        assert np.all(t.labels[edges[nonself, 0]] == t.labels[edges[nonself, 1]])
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after
        assert rep.filter_counts["fp"] == rep.filter_counts["fn"] == 0 < rep.filter_counts["tp"]

    def test_zero_threshold_keeps_everything(self):
        g = path_graph(6)
        refined, rep = filter_edges(g, dict_scorer({}, default=0.0), 0.0, unknown_labels(6))
        assert np.array_equal(refined.row_offsets, g.row_offsets)
        assert np.array_equal(refined.col_targets, g.col_targets)
        assert rep.edges_removed == 0

    def test_both_directions_dropped_together(self):
        g = undirected_graph(4, [(0, 1), (1, 2), (2, 3)])
        refined, rep = filter_edges(g, dict_scorer({(0, 1): 0.9, (1, 2): 0.1, (2, 3): 0.9}), 0.5,
                                    np.array([0, 0, 1, -1]))
        assert rep.edges_removed == 2
        # (0, 1) kept and same-label, (1, 2) dropped and not; node 3's label is unknown
        assert rep.filter_counts == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        assert 2 not in refined.neighbors(1) and 1 not in refined.neighbors(2)
        assert 1 in refined.neighbors(0) and 0 in refined.neighbors(1)

    def test_self_loops_survive_any_threshold(self):
        g = path_graph(4)
        refined, _ = filter_edges(g, dict_scorer({}, default=0.0), 1.0, unknown_labels(4))
        for v in range(4):
            assert v in refined.neighbors(v)
        assert refined.num_edges == 4

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_refined_graph_is_the_from_edges_rebuild(self, data):
        """The kept CSR entries, taken as they are, build the graph that
        ``Graph.from_edges`` builds from the kept edges; the counts compare
        each unordered pair with two known labels once."""
        g = draw_graph(data)
        labels = draw_table(data, g.num_nodes).labels
        threshold = data.draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]), label="threshold")
        scorer = coarse_hash_scorer(data.draw(st.integers(0, 99), label="seed"))
        got, rep = filter_edges(g, scorer, threshold, labels)
        edges = g.edge_array()
        keep = (edges[:, 0] == edges[:, 1]) | (scorer(edges[:, 0], edges[:, 1]) >= threshold)
        assert_same_graph(got, Graph.from_edges(g.num_nodes, edges[keep], add_self_loops=False))
        assert rep.edges_removed == np.count_nonzero(~keep)
        cell = {(True, True): "tp", (True, False): "fp", (False, True): "fn", (False, False): "tn"}
        counts = dict.fromkeys(cell.values(), 0)
        for a, b in {(min(a, b), max(a, b)) for a, b in edges.tolist() if a != b}:
            if labels[a] >= 0 and labels[b] >= 0:
                kept = bool(scorer(np.array([a]), np.array([b]))[0] >= threshold)
                counts[cell[kept, bool(labels[a] == labels[b])]] += 1
        assert rep.filter_counts == counts

    def test_self_loop_flag_read_from_the_kept_edges(self):
        """A graph stored with every self loop but flagged without them comes
        back flagged as ``from_edges`` would flag it."""
        g = path_graph(4)
        unflagged = Graph(4, g.row_offsets, g.col_targets, has_self_loops=False)
        assert filter_edges(unflagged, dict_scorer({}, default=1.0), 0.5, unknown_labels(4))[0].has_self_loops
        assert add_edges(unflagged, dict_scorer({}, default=1.0), 3, 0.5)[0].has_self_loops


FIXTURE_SCORES = {(0, 2): 0.9, (1, 3): 0.7, (2, 4): 0.8, (4, 6): 0.8,
                  (3, 5): 0.4, (5, 7): 0.55}


class TestAddEdges:
    def test_greedy_walk_on_path(self):
        """Hand-traced pass over the 8-node path, n_max=3, threshold 0.5.

        v=0 adds (0,2); v=1 adds (1,3); v=2 and v=3 are at budget; v=4 takes
        2 over 6 on the 0.8 tie (lower id wins) and hits budget; v=5 drops
        (3,5) under the threshold and adds (5,7); v=6 adds (6,4) even though
        4 is already at budget (passive growth is uncapped); v=7's only
        candidate pair (5,7) already exists, so nothing happens.
        """
        g = path_graph(8)
        refined, rep = add_edges(g, dict_scorer(FIXTURE_SCORES), n_max=3, threshold=0.5)
        assert rep.added_pairs.tolist() == [[0, 2], [1, 3], [4, 2], [5, 7], [6, 4]]
        assert rep.edges_added == 10
        assert rep.edges_after == rep.edges_before + 10
        assert refined.nonself_degrees().tolist() == [2, 3, 4, 3, 4, 3, 3, 2]
        for a, b in FIXTURE_SCORES:
            expected = (a, b) != (3, 5)
            assert (b in refined.neighbors(a)) == expected

    def test_nothing_eligible(self):
        g = path_graph(3)
        refined, rep = add_edges(g, dict_scorer({}, default=0.0), n_max=5, threshold=0.5)
        assert rep.edges_added == 0
        assert np.array_equal(refined.col_targets, g.col_targets)

    def test_saturated_nodes_add_nothing(self):
        g = path_graph(5)
        _, rep = add_edges(g, dict_scorer({}, default=1.0), n_max=1, threshold=0.5)
        # endpoints have degree 1 == n_max already; inner nodes exceed it
        assert rep.edges_added == 0

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            add_edges(path_graph(3), dict_scorer({}), n_max=0, threshold=0.5)

    def test_one_way_edges_are_read_both_ways(self):
        # the one-way cycle 0 -> 1 -> 2 -> 0 read both ways is a triangle: every pool is empty
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], add_self_loops=False)
        refined, rep = add_edges(g, dict_scorer({}, default=1.0), 3, 0.5)
        assert rep.added_pairs.tolist() == [] and rep.edges_added == 0
        assert_same_graph(refined, g)
        # the one-way path 2 -> 1 -> 0: node 0, whose edge points at it, reaches 2
        g = Graph.from_edges(3, [(2, 1), (1, 0)], add_self_loops=False)
        refined, rep = add_edges(g, dict_scorer({}, default=1.0), 5, 0.5)
        assert rep.added_pairs.tolist() == [[0, 2]]
        assert_same_graph(refined, Graph.from_edges(3, [(2, 1), (1, 0), (0, 2), (2, 0)],
                                                    add_self_loops=False))
        assert (rep.edges_before, rep.edges_added, rep.edges_after) == (2, 2, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_way_graph_adds_the_pairs_of_its_mirror(self, data):
        n = data.draw(st.integers(1, 30), label="nodes")
        node = st.integers(0, n - 1)
        g = Graph.from_edges(n, data.draw(st.lists(st.tuples(node, node), max_size=80), label="pairs"),
                             add_self_loops=data.draw(st.booleans(), label="self loops"))
        t = draw_table(data, n, allow_unknown=False)
        p_pre = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="p_pre")
        oc = OracleClassifier(mode="add", target_p_pre=p_pre)
        n_max = data.draw(st.integers(1, 4), label="n_max")
        seed = data.draw(st.integers(0, 99), label="seed")
        cut = data.draw(st.sampled_from([0.5, 0.9]), label="cut")
        for scorer, threshold in [(coarse_hash_scorer(seed), 0.5), (oracle_scorer(t, oc), cut)]:
            refined, rep = add_edges(g, scorer, n_max, threshold)
            _, want = add_edges(mirrored(g), scorer, n_max, threshold)
            assert np.array_equal(rep.added_pairs, want.added_pairs)
            # no added pair was an edge either way, so both of its directions are new
            assert rep.edges_added == refined.num_edges - g.num_edges == 2 * len(rep.added_pairs)


def coarse_hash_scorer(seed):
    """Symmetric per-pair scores on a grid of quarters, so ties are common."""
    def scorer(u, v):
        return np.floor(4.0 * unit_uniform(seed, np.minimum(u, v), np.maximum(u, v))) / 4.0
    return scorer


def assert_same_graph(got, want):
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_targets, want.col_targets)
    assert got.has_self_loops == want.has_self_loops


def assert_same_additions(g, scorer, n_max, threshold, reference_scorer=None):
    got, report = add_edges(g, scorer, n_max, threshold)
    want, want_pairs = reference_add_edges(g, reference_scorer or scorer, n_max, threshold)
    assert report.added_pairs.dtype == want_pairs.dtype
    assert np.array_equal(report.added_pairs, want_pairs)
    assert_same_graph(got, want)


def assert_same_oracle_additions(g, t, oc, n_max, threshold):
    """The add-mode oracle's walk adds what the per-node loop adds when it
    scores each pool with the reference scorer."""
    assert_same_additions(g, oracle_scorer(t, oc), n_max, threshold, reference_oracle_add_scorer(t, oc))


def assert_same_drawn_additions(data):
    g = draw_graph(data)
    scorer = coarse_hash_scorer(data.draw(st.integers(0, 99), label="seed"))
    assert_same_additions(g, scorer, data.draw(st.integers(1, 4), label="n_max"),
                          data.draw(st.sampled_from([0.0, 0.5, 0.75]), label="threshold"))


def assert_same_drawn_oracle_additions(data):
    g = draw_graph(data)
    t = draw_table(data, g.num_nodes, allow_unknown=False)
    oc = OracleClassifier(mode="add", target_p_pre=data.draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
                          seed=data.draw(st.integers(0, 99), label="seed"))
    assert_same_oracle_additions(g, t, oc, data.draw(st.integers(1, 4), label="n_max"),
                                 data.draw(st.sampled_from([0.5, 0.6, 0.9]), label="threshold"))


class TestAddEdgesMatchesPerNodeLoop:
    """``add_edges`` slices each pool from one CSR; the added pairs, their
    order and the refined graph must be those of the per-node loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_per_pair_scorer(self, data):
        assert_same_drawn_additions(data)

    @pytest.mark.parametrize("block", [1, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_per_pair_scorer_small_key_blocks(self, block, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lagraph.graph.POOL_ROWS", block)
            assert_same_drawn_additions(data)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_add_mode_oracle(self, data):
        assert_same_drawn_oracle_additions(data)

    def test_synthetic_graph(self):
        g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
        assert_same_additions(g, coarse_hash_scorer(3), 6, 0.5)
        for threshold in (0.5, 0.6, 0.9):
            assert_same_oracle_additions(g, t, OracleClassifier(mode="add", target_p_pre=0.7), 6, threshold)

    @pytest.mark.parametrize("block", [1, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_add_mode_oracle_small_key_blocks(self, block, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lagraph.graph.POOL_ROWS", block)
            assert_same_drawn_oracle_additions(data)

    def test_sparse_synthetic_graph(self):
        # low degree: most nodes add edges, so earlier additions are excluded often
        g, t = synth(n=300, c=3, d=2, homophily=0.5, avg_degree=3.0, feature_sep=1.0, seed=6)
        assert_same_additions(g, coarse_hash_scorer(3), 8, 0.5)
        for threshold in (0.5, 0.6, 0.9):
            assert_same_oracle_additions(g, t, OracleClassifier(mode="add", target_p_pre=0.5), 8, threshold)

    @pytest.mark.parametrize("block", [1, 7])
    def test_synthetic_graph_small_key_blocks(self, block, monkeypatch):
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", block)
        self.test_synthetic_graph()
        self.test_sparse_synthetic_graph()


def recording(scorer, calls):
    """``scorer``, appending ``(u, v, scores)`` of each call to ``calls``."""
    def scorer_of_record(u, v):
        scores = scorer(u, v)
        calls.append((np.asarray(u).copy(), np.asarray(v).copy(), np.asarray(scores).copy()))
        return scores
    return scorer_of_record


def replay_scorer(calls):
    """Returns, per pair, the score a recorded scorer gave it (a pair it never
    scored raises ``KeyError``). The table is read on the first call."""
    table = {}

    def scorer(u, v):
        if not table:
            for cu, cv, cs in calls:
                table.update(zip(zip(cu.tolist(), cv.tolist()), cs.tolist()))
        return np.array([table[pair] for pair in zip(np.asarray(u).tolist(), np.asarray(v).tolist())],
                        dtype=np.float64)
    return scorer


def assert_same_trained_additions(g, features, n_max, threshold, seed=0):
    """A trained scorer's pass adds what the per-node loop adds when that loop
    is served the very scores the pass's scorer produced. (The head's last bit
    may depend on how many pairs one call holds.)"""
    clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=seed))
    calls = []
    assert_same_additions(g, recording(make_scorer(clf, features), calls), n_max, threshold,
                          replay_scorer(calls))


def scored_entries(g, n_max):
    """Pool entries of the nodes whose non-self degree starts under ``n_max``."""
    indptr, _ = reference_two_hop_pools(g)
    return int(np.diff(indptr)[g.nonself_degrees() < n_max].sum())


class TestTrainedAddPass:
    """A plain scorer's pool entries are scored once, before the pass, one
    block of the two-hop scan a call; the added pairs are those of the
    per-node loop."""

    def graph(self):
        g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
        return g, edge_input_features(g, t, EdgeFeatureConfig())

    @pytest.mark.parametrize("block", [1, 7, 16384])
    def test_synthetic_graph(self, block, monkeypatch):
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", block)
        g, features = self.graph()
        for n_max, threshold in [(6, 0.0), (6, 0.497), (10, 0.5)]:
            assert_same_trained_additions(g, features, n_max, threshold)

    @pytest.mark.parametrize("block", [1, 7, 16384])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_graphs(self, block, data):
        g = draw_graph(data)
        seed = data.draw(st.integers(0, 99), label="seed")
        features = np.random.default_rng(seed).normal(size=(g.num_nodes, 3))
        n_max = data.draw(st.integers(1, 4), label="n_max")
        threshold = data.draw(st.sampled_from([0.0, 0.45, 0.5, 0.55]), label="threshold")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lagraph.graph.POOL_ROWS", block)
            assert_same_trained_additions(g, features, n_max, threshold, seed)

    @pytest.mark.parametrize("block", [1, 7, 1000, 16384])
    def test_calls_bounded_by_blocks(self, block, monkeypatch):
        g, features = self.graph()
        clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=0))
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", block)
        calls = []
        _, rep = add_edges(g, recording(make_scorer(clf, features), calls), 10, 0.497)
        entries = scored_entries(g, 10)
        assert rep.edges_added > 0 and 0 < entries < int(reference_two_hop_pools(g)[0][-1])
        assert 1 <= len(calls) <= math.ceil(g.num_nodes / block)
        assert sum(u.size for u, _, _ in calls) == entries
        # each call holds whole pools: no node's pool runs on into the next call
        for (u, _, _), (nxt, _, _) in zip(calls, calls[1:]):
            assert u[-1] < nxt[0]

    def test_no_score_or_pool_copy_outlives_the_pass(self, monkeypatch):
        g, features = self.graph()
        clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=0))
        scorer = make_scorer(clf, features)
        refs = []

        def pools(graph):
            for block in two_hop_blocks(graph):
                refs.extend(weakref.ref(a) for a in block)
                yield block

        def weakly_recorded(u, v):
            scores = scorer(u, v)
            refs.extend(weakref.ref(a) for a in (u, v, scores))
            return scores

        monkeypatch.setattr(refinement, "two_hop_blocks", pools)
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", 100)
        _, rep = add_edges(g, weakly_recorded, 10, 0.497)
        gc.collect()
        assert rep.edges_added > 0 and len(refs) >= 2 * math.ceil(g.num_nodes / 100) + 3
        assert all(ref() is None for ref in refs)

        # nor does an array derived from them: a second pass leaves no memory behind
        monkeypatch.undo()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            add_edges(g, scorer, 10, 0.497)
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 4096
        finally:
            tracemalloc.stop()

    def test_queue_holds_only_kept_entries(self, monkeypatch):
        g, features = self.graph()
        clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=0))
        queues, ranked_pools = [], refinement._ranked_pools
        monkeypatch.setattr(refinement, "_ranked_pools",
                            lambda *args: queues.append(ranked_pools(*args)) or queues[-1])
        _, rep = add_edges(g, make_scorer(clf, features), 10, 0.497)
        (ranked,) = queues
        assert rep.edges_added > 0 and ranked.queue.dtype == np.int32
        assert ranked.queue.size == ranked.indptr[-1]
        assert 0 < ranked.queue.size < scored_entries(g, 10)

    def test_scorer_of_wrong_shape_rejected(self):
        g, _ = self.graph()
        with pytest.raises(ValueError, match="one score per pair"):
            add_edges(g, lambda u, v: np.ones(u.shape[0] + 1), 6, 0.5)
        with pytest.raises(ValueError, match="one score per pair"):
            add_edges(g, lambda u, v: np.ones((u.shape[0], 1)), 6, 0.5)

    @pytest.mark.parametrize("kind", ["hash", "oracle"])
    def test_a_bound_past_every_degree_adds_as_n_does(self, kind):
        """No node reaches degree n, so any larger ``n_max`` adds what n does;
        the pick buffer is sized by the pools, not by ``n_max``."""
        g, t = synth(n=300, c=4, d=4, homophily=0.4, avg_degree=6.0, feature_sep=1.0, seed=3)
        if kind == "hash":
            scorer = coarse_hash_scorer(5)
        else:
            scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7, seed=5))
        want, want_rep = add_edges(g, scorer, g.num_nodes, 0.5)
        assert want_rep.edges_added > 0
        for n_max in (10**12, 10**20):
            got, rep = add_edges(g, scorer, n_max, 0.5)
            assert_same_graph(got, want)
            assert np.array_equal(rep.added_pairs, want_rep.added_pairs)


class TestRefine:
    def graph(self):
        return synth(n=150, c=3, d=4, homophily=0.5, avg_degree=6.0, feature_sep=2.0, seed=4)

    def test_matches_stage_composition(self):
        g, t = self.graph()
        features = edge_input_features(g, t, EdgeFeatureConfig())
        clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=3))
        cfg = RefinementConfig(threshold=0.5, n_max=4)
        got, rep = refine(g, t, clf, cfg, features=features)

        scorer = make_scorer(clf, features)
        mid, frep = filter_edges(g, scorer, cfg.threshold, t.labels)
        want, arep = add_edges(mid, scorer, cfg.n_max, cfg.threshold)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_targets, want.col_targets)
        assert rep.edges_removed == frep.edges_removed
        assert rep.edges_added == arep.edges_added
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after
        assert rep.ratio_before == positive_ratio(g, t).graph_ratio
        assert rep.ratio_after == positive_ratio(got, t).graph_ratio

    @pytest.mark.parametrize("kind", ["trained", "oracle"])
    def test_filter_ratio_counts_the_kept_pairs(self, kind):
        """On an undirected, fully labeled graph a filter-only pass keeps both
        directions of each input pair that scores at or above the threshold, so
        the refined graph holds 2 tp same-label edges among 2 (tp + fp), as
        the report counts them."""
        g, t = synth(n=400, c=4, d=16, homophily=0.4, avg_degree=8.0, feature_sep=4.0, seed=2)
        rcfg = RefinementConfig(threshold=0.5, do_add=False)
        if kind == "trained":
            features = edge_input_features(g, t, EdgeFeatureConfig())
            cfg = TrainConfig(proj_dim=8, hidden_widths=(8,), num_sampled=400)
            clf = train(build_pairs(g, t, cfg), features, cfg)
            refined, rep = refine(g, t, clf, rcfg, features=features)
        else:
            scorer = oracle_scorer(t, OracleClassifier(target_p=0.8, target_q=0.3, seed=1))
            refined, rep = refine(g, t, scorer, rcfg)
        tp, fp, fn, tn = (rep.filter_counts[cell] for cell in ("tp", "fp", "fn", "tn"))
        assert tp > 0 and fp > 0 and fn + tn > 0
        assert tp + fp + fn + tn == unordered_pairs(g.edge_sources(), g.col_targets, g.num_nodes)[0].size
        after = positive_ratio(refined, t)
        assert (after.positive_edges, after.counted_edges) == (2 * tp, 2 * (tp + fp))
        assert rep.ratio_after == tp / (tp + fp)

    def test_memory_is_bounded(self):
        # the refined graph and the added pairs; the scorer's node projection; and the
        # filter's one pass over the edge list at 64 bytes an edge: its sources, pair keys,
        # their sort and the scores. At n = 4000 this traces about 2.6 MB; a whole-graph
        # two-hop product, and the add pass's lists kept to its end, make it 4.3 MB
        n, cfg = 4000, TrainConfig(proj_dim=16, hidden_widths=(16,), epochs=5, num_sampled=4000)
        g, t = synth(n=n, c=4, d=16, homophily=0.4, avg_degree=8.0, feature_sep=4.0, seed=0)
        clf = train(build_pairs(g, t, cfg), t.features, cfg)
        (refined, rep), peak = traced_peak(refine, g, t, clf, RefinementConfig(n_max=10), t.features)
        assert rep.edges_removed > 0 and rep.edges_added > 0
        out = refined.row_offsets.nbytes + refined.col_targets.nbytes + rep.added_pairs.nbytes
        bound = out + n * cfg.proj_dim * 8 + g.num_edges * 64
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MB over {bound / 2**20:.2f} MB"

    def test_classifier_without_features_is_refused(self):
        g, t = self.graph()
        clf = init_classifier(4, TrainConfig(proj_dim=4, hidden_widths=(6,), seed=3))
        with pytest.raises(ValueError, match="scores pairs over features"):
            refine(g, t, clf, RefinementConfig())

    @pytest.mark.parametrize("do_filter,do_add,counted", [(True, True, 4), (True, False, 2),
                                                          (False, True, 2), (False, False, 2)])
    def test_each_degree_histogram_is_counted_once(self, monkeypatch, do_filter, do_add, counted):
        """The report reuses the first stage's input histogram and the last
        stage's output one; ``refine`` counts its own only when no stage runs."""
        g, t = self.graph()
        calls = []
        degree_hist = refinement._degree_hist
        monkeypatch.setattr(refinement, "_degree_hist", lambda graph: calls.append(graph) or degree_hist(graph))
        got, rep = refine(g, t, label_scorer(t.labels), RefinementConfig(do_filter=do_filter, do_add=do_add))
        assert len(calls) == counted
        assert (rep.degree_hist_before, rep.degree_hist_after) == (degree_hist(g), degree_hist(got))

    def test_callable_scorer_accepted(self):
        g, t = self.graph()
        got, rep = refine(g, t, label_scorer(t.labels),
                          RefinementConfig(do_add=False))
        assert rep.ratio_after == 1.0

    def test_rejects_other_classifier_types(self):
        g, t = self.graph()
        with pytest.raises(TypeError, match="EdgeClassifier or a pair-scorer"):
            refine(g, t, 42)

    def test_no_op_config(self):
        g, t = self.graph()
        got, rep = refine(g, t, label_scorer(t.labels),
                          RefinementConfig(do_filter=False, do_add=False))
        assert np.array_equal(got.col_targets, g.col_targets)
        assert rep.edges_removed == 0 and rep.edges_added == 0
        assert rep.ratio_before == rep.ratio_after

    def test_filter_runs_before_add(self):
        # dropping 1-2 severs the only two-hop path from 0 to 2
        g = undirected_graph(3, [(0, 1), (1, 2)])
        t = NodeTable(features=np.zeros((3, 2)), labels=np.array([0, 1, 0], dtype=np.int64),
                      num_classes=2, split=np.zeros(3, dtype=np.int8))
        scores = {(0, 1): 0.9, (1, 2): 0.1, (0, 2): 0.95}
        got, rep = refine(g, t, dict_scorer(scores), RefinementConfig(n_max=5))
        assert rep.edges_added == 0
        assert 2 not in got.neighbors(0)

        kept = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.95}
        got2, rep2 = refine(g, t, dict_scorer(kept), RefinementConfig(n_max=5))
        assert 2 in got2.neighbors(0)
        assert rep2.added_precision == 1.0

    def test_unknown_labels_give_nan_ratios(self):
        g = path_graph(4)
        t = NodeTable(features=np.zeros((4, 2)), labels=np.full(4, -1, dtype=np.int64),
                      num_classes=2, split=np.zeros(4, dtype=np.int8))
        _, rep = refine(g, t, dict_scorer({}, default=1.0), RefinementConfig(n_max=8))
        assert math.isnan(rep.ratio_before) and math.isnan(rep.ratio_after)
        assert math.isnan(rep.added_precision)
        d = rep.to_dict()
        assert d["ratio_before"] is None and d["added_precision"] is None
        assert rep.edges_added > 0  # scores ignore labels, additions still happen

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_edge_counts_add_up_on_drawn_graphs(self, data):
        """``before - removed + added == after`` holds on one-way edge lists
        too, where the reverse of an added pair may already be stored."""
        g = draw_graph(data, max_nodes=8, max_pairs=16)  # dense: two-hop pairs often stored one way
        t = draw_table(data, g.num_nodes)
        cfg = RefinementConfig(threshold=data.draw(st.sampled_from([0.0, 0.5, 0.75]), label="threshold"),
                               n_max=data.draw(st.integers(1, 4), label="n_max"),
                               do_filter=data.draw(st.booleans(), label="filter"))
        scorer = coarse_hash_scorer(data.draw(st.integers(0, 99), label="seed"))
        got, rep = refine(g, t, scorer, cfg)
        assert (rep.edges_before, rep.edges_after) == (g.num_edges, got.num_edges)
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans(), st.booleans())
    def test_report_composes_its_stage_reports(self, data, do_filter, do_add):
        """``refine``'s report reads the input and output graphs, the filter
        stage's ``edges_removed`` and the add stage's ``added_pairs``."""
        g = draw_graph(data, max_nodes=8, max_pairs=16)
        t = draw_table(data, g.num_nodes)
        cfg = RefinementConfig(threshold=data.draw(st.sampled_from([0.0, 0.5, 0.75]), label="threshold"),
                               n_max=data.draw(st.integers(1, 4), label="n_max"),
                               do_filter=do_filter, do_add=do_add)
        scorer = coarse_hash_scorer(data.draw(st.integers(0, 99), label="seed"))
        got, rep = refine(g, t, scorer, cfg)

        def hist(graph):
            degs = graph.nonself_degrees()
            return np.bincount(degs).tolist() if degs.size else []

        filtered, removed, counts = g, 0, None
        if do_filter:
            filtered, filter_rep = filter_edges(g, scorer, cfg.threshold, t.labels)
            removed, counts = filter_rep.edges_removed, filter_rep.filter_counts
        added = np.zeros((0, 2), dtype=np.int64)
        if do_add:
            _, add_rep = add_edges(filtered, scorer, cfg.n_max, cfg.threshold)
            added = add_rep.added_pairs
        assert (rep.edges_before, rep.degree_hist_before) == (g.num_edges, hist(g))
        assert (rep.edges_after, rep.degree_hist_after) == (got.num_edges, hist(got))
        assert rep.edges_removed == removed and rep.filter_counts == counts
        assert np.array_equal(rep.added_pairs, added) and rep.added_pairs.shape == added.shape
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after

    @pytest.mark.parametrize("report,skipped,extra", [
        (RefinementReport(edges_before=1, edges_removed=0, edges_added=0, edges_after=1),
         {"added_pairs"}, set()),
        (PropositionReport(), set(), {"passed"}),
    ])
    def test_report_dict_keys_are_the_fields(self, report, skipped, extra):
        """A field added to a report is serialized with no second edit."""
        names = {f.name for f in dataclasses.fields(report)}
        assert set(report.to_dict()) == (names - skipped) | extra

    def test_report_dict_round_trips_finite_values(self):
        rep = RefinementReport(edges_before=10, edges_removed=2, edges_added=4,
                               edges_after=12, ratio_before=0.5, ratio_after=0.75,
                               degree_hist_before=[0, 2], degree_hist_after=[0, 1, 1],
                               added_precision=1.0)
        d = rep.to_dict()
        assert d["ratio_after"] == 0.75 and d["added_precision"] == 1.0
        assert d["degree_hist_after"] == [0, 1, 1]
        assert "added_pairs" not in d


class TestOracleFilter:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            OracleClassifier(mode="drop")
        with pytest.raises(ValueError, match="target_p"):
            OracleClassifier(target_p=1.5)
        g, t = synth(n=20, c=2, d=2, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=0)
        t_unknown = NodeTable(features=t.features,
                              labels=np.where(np.arange(20) == 0, -1, t.labels),
                              num_classes=t.num_classes, split=t.split)
        with pytest.raises(ValueError, match="fully known"):
            oracle_scorer(t_unknown, OracleClassifier())

    def test_realized_error_rates(self):
        g, t = synth(n=500, c=3, d=2, homophily=0.5, avg_degree=8.0, feature_sep=1.0, seed=1)
        scorer = oracle_scorer(t, OracleClassifier(mode="filter", target_p=0.8,
                                                   target_q=0.2, seed=7))
        edges = g.edge_array()
        mask = edges[:, 0] < edges[:, 1]
        u, v = edges[mask, 0], edges[mask, 1]
        scores = scorer(u, v)
        same = t.labels[u] == t.labels[v]
        assert same.sum() > 300 and (~same).sum() > 300
        assert scores[same].mean() == pytest.approx(0.8, abs=0.05)
        assert scores[~same].mean() == pytest.approx(0.2, abs=0.05)

    def test_symmetric_and_seed_keyed(self):
        g, t = synth(n=100, c=2, d=2, homophily=0.5, avg_degree=6.0, feature_sep=1.0, seed=2)
        u = np.arange(0, 50, dtype=np.int64)
        v = np.arange(50, 100, dtype=np.int64)
        a = oracle_scorer(t, OracleClassifier(target_p=0.6, target_q=0.4, seed=3))
        assert np.array_equal(a(u, v), a(v, u))
        assert np.array_equal(a(u, v), a(u, v))
        b = oracle_scorer(t, OracleClassifier(target_p=0.6, target_q=0.4, seed=4))
        assert not np.array_equal(a(u, v), b(u, v))

    def test_ratio_monotone_in_target_p(self):
        g, t = synth(n=600, c=3, d=2, homophily=0.5, avg_degree=8.0, feature_sep=1.0, seed=5)
        ratios = []
        for p in (0.2, 0.5, 0.8, 1.0):
            oc = OracleClassifier(mode="filter", target_p=p, target_q=0.3, seed=0)
            _, rep = refine(g, t, oracle_scorer(t, oc), RefinementConfig(do_add=False))
            ratios.append(rep.ratio_after)
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0] + 0.2


def oracle_rank(scorer, g, threshold, n_max):
    """``rank(v, excluded, budget)``: the picks an add pass at ``threshold``
    takes from node ``v``'s pool of the add-mode oracle's queue for ``g``
    and ``n_max``."""
    ranked, p_pre = scorer.walk(g, n_max)

    def rank(v, excluded, budget):
        pool = ranked.queue[ranked.indptr[v]:ranked.indptr[v + 1]].tolist()
        return refinement._quota_walk(pool, int(ranked.lead[v]), p_pre, budget, set(excluded), threshold)

    return rank


class TestOracleAdd:
    def test_prefix_quota_exact(self):
        """Every prefix of the ranking holds round(p_pre * k) same-label picks."""
        labels = np.concatenate([np.zeros(21, dtype=np.int64),
                                 np.ones(21, dtype=np.int64)])  # node 0 + 20/20 pool, hub 41
        t = NodeTable(features=np.zeros((42, 2)), labels=labels, num_classes=2,
                      split=np.zeros(42, dtype=np.int8))
        g = undirected_graph(42, [(0, 41)] + [(41, j) for j in range(1, 41)])
        scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.5, seed=9))
        ranked = oracle_rank(scorer, g, 0.5, 2)(0, [], 40)  # node 0 has degree 1
        assert sorted(ranked) == list(range(1, 41))  # every step scores above 0.5
        same = (labels[ranked] == labels[0]).cumsum()
        for k in range(1, 41):
            assert same[k - 1] == math.floor(0.5 * k + 0.5)

    def spoke_graph(self):
        """Node 0 hangs off a hub whose other spokes form node 0's pool."""
        edges = [(0, 1)] + [(1, j) for j in range(2, 32)]
        g = undirected_graph(32, edges)
        labels = np.zeros(32, dtype=np.int64)
        labels[1] = 1
        labels[17:32] = 1  # pool of 30: 15 same as node 0, 15 different
        t = NodeTable(features=np.zeros((32, 2)), labels=labels, num_classes=2,
                      split=np.zeros(32, dtype=np.int8))
        return g, t

    def test_single_node_realizes_quota(self):
        g, t = self.spoke_graph()
        oc = OracleClassifier(mode="add", target_p_pre=0.75, seed=2)
        cfg = RefinementConfig(do_filter=False, n_max=5, threshold=0.5)
        _, rep = refine(g, t, oracle_scorer(t, oc), cfg)
        mine = rep.added_pairs[rep.added_pairs[:, 0] == 0]
        assert mine.shape[0] == 4  # degree 1, budget n_max - 1
        same = t.labels[mine[:, 1]] == t.labels[0]
        assert int(same.sum()) == math.floor(0.75 * 4 + 0.5)

    def test_precision_ordering(self):
        g, t = synth(n=300, c=3, d=2, homophily=0.5, avg_degree=3.0, feature_sep=1.0, seed=6)
        precisions = []
        for p in (0.2, 0.5, 0.9):
            oc = OracleClassifier(mode="add", target_p_pre=p, seed=1)
            cfg = RefinementConfig(do_filter=False, n_max=8, threshold=0.5)
            _, rep = refine(g, t, oracle_scorer(t, oc), cfg)
            precisions.append(rep.added_precision)
        assert precisions[0] < precisions[1] < precisions[2]

    def test_add_mode_rejects_mixed_pools(self):
        g, t = synth(n=20, c=2, d=2, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=0)
        scorer = oracle_scorer(t, OracleClassifier(mode="add"))
        with pytest.raises(ValueError, match="only through add_edges"):
            scorer(np.array([0, 1]), np.array([2, 3]))


def count_unit_uniform(monkeypatch):
    """Count the refinement module's ``unit_uniform`` calls; keep a weakref to each result."""
    calls = []

    def counted(*args):
        out = unit_uniform(*args)
        calls.append(weakref.ref(out))
        return out

    monkeypatch.setattr(refinement, "unit_uniform", counted)
    return calls


class TestOracleAddMatchesReference:
    """The add-mode oracle's walk ranks as the per-candidate quota loop scores."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scores_equal_quota_loop(self, data):
        num_same = data.draw(st.integers(0, 40), label="same")
        num_diff = data.draw(st.integers(0, 40), label="different")
        p_pre = data.draw(st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 0.7, 1.0]),
                                    st.floats(0.0, 1.0)), label="p_pre")
        oc = OracleClassifier(mode="add", target_p_pre=p_pre, seed=data.draw(st.integers(0, 99), label="seed"))
        n = num_same + num_diff
        # node 0 scores a pool of ascending ids drawn from 1..2n+1; in an add
        # pass its two-hop pool also holds ids the pass has excluded
        total = 2 * n + 2
        hub = total  # links node 0 to each id of that two-hop pool
        pool = np.asarray(sorted(data.draw(st.sets(st.integers(1, total - 1), min_size=n, max_size=n),
                                           label="pool")), dtype=np.int64)
        order = np.asarray(data.draw(st.permutations(range(n)), label="labels"), dtype=np.int64)
        labels = np.full(total + 1, 1, dtype=np.int64)
        labels[0] = 0
        labels[pool[order[:num_same]]] = 0
        t = NodeTable(features=np.zeros((total + 1, 1)), labels=labels, num_classes=2,
                      split=np.zeros(total + 1, dtype=np.int8))
        scorer = oracle_scorer(t, oc)
        reference = reference_oracle_add_scorer(t, oc)
        want = reference(np.zeros(n, dtype=np.int64), pool) if n else np.zeros(0)

        excluded = np.setdiff1d(np.arange(1, total), pool)
        full = np.union1d(pool, excluded[:data.draw(st.integers(0, excluded.size), label="excluded")])
        g = undirected_graph(total + 1, [(0, hub)] + [(hub, int(w)) for w in full])
        threshold = data.draw(st.sampled_from([0.5, 0.6, 0.9]), label="threshold")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lagraph.graph.POOL_ROWS", data.draw(st.sampled_from([1, 7, 16384]), label="block"))
            rank = oracle_rank(scorer, g, threshold, 2)  # every node but the hub has degree 1

        def ranked(cand, scores):
            keep = scores >= threshold
            return cand[keep][np.lexsort((cand[keep], -scores[keep]))].tolist()

        # the pass excludes the pool entries outside `pool`, and a node (the hub) outside the pool
        budget = data.draw(st.integers(1, n + 1), label="budget")
        assert rank(0, np.setdiff1d(full, pool).tolist() + [hub], budget) == ranked(pool, want)[:budget]
        # at threshold 0.5 every step is kept: the whole pool in descending score
        rank_all = oracle_rank(scorer, g, 0.5, 2)
        assert rank_all(0, np.setdiff1d(full, pool).tolist(), n) == pool[np.argsort(-want)].tolist()
        if full.size:
            other = int(full[0])
            other_pool = np.setdiff1d(np.union1d([0], full), [other])
            other_scores = reference(np.full(other_pool.size, other), other_pool)
            assert rank(other, [], other_pool.size) == ranked(other_pool, other_scores)

    def test_a_shared_queue_serves_only_its_graph_and_seed(self, monkeypatch):
        g, t = synth(n=300, c=3, d=2, homophily=0.5, avg_degree=3.0, feature_sep=1.0, seed=6)
        edges = g.edge_array()
        one_way = Graph.from_edges(g.num_nodes, edges[edges[:, 0] % 3 != 0], add_self_loops=False)
        builds = []
        ranked_pools = refinement._ranked_pools
        monkeypatch.setattr(refinement, "_ranked_pools",
                            lambda graph, *args: builds.append(graph) or ranked_pools(graph, *args))
        shared = {}
        for graph, p_pre, seed in [(g, 0.3, 2), (g, 0.8, 2), (one_way, 0.6, 2), (one_way, 0.6, 3)]:
            oc = OracleClassifier(mode="add", target_p_pre=p_pre, seed=seed)
            assert_same_oracle_additions(graph, t, oc, 6, 0.5)
            assert_same_additions(graph, oracle_scorer(t, oc, _shared=shared), 6, 0.5,
                                  reference_oracle_add_scorer(t, oc))
        # each unshared pass builds its own queue; the shared passes build one per (graph, seed)
        assert [b is g for b in builds] == [True, True, True, False, False, False, False]

    def test_a_shared_queue_serves_only_its_n_max(self, monkeypatch):
        g, t = synth(n=300, c=3, d=2, homophily=0.5, avg_degree=3.0, feature_sep=1.0, seed=6)
        builds = []
        ranked_pools = refinement._ranked_pools
        monkeypatch.setattr(refinement, "_ranked_pools",
                            lambda graph, order, n_max: builds.append(n_max) or ranked_pools(graph, order, n_max))
        shared = {}
        oc = OracleClassifier(mode="add", target_p_pre=0.6, seed=2)
        for n_max in (6, 6, 3, 3, 6):
            assert_same_additions(g, oracle_scorer(t, oc, _shared=shared), n_max, 0.5,
                                  reference_oracle_add_scorer(t, oc))
        assert builds == [6, 3, 6]

    def test_pools_at_or_over_n_max_are_empty(self):
        g, t = synth(n=300, c=3, d=2, homophily=0.5, avg_degree=6.0, feature_sep=1.0, seed=6)
        edges = g.edge_array()
        one_way = Graph.from_edges(g.num_nodes, edges[edges[:, 0] % 3 != 0], add_self_loops=False)
        for graph in (g, one_way):
            mirror = graph.both_ways()
            degrees, whole = mirror.nonself_degrees(), np.diff(reference_two_hop_pools(mirror)[0])
            for n_max in (1, 3, 6, int(degrees.max()) + 1):
                oc = OracleClassifier(mode="add", target_p_pre=0.6, seed=n_max)
                ranked, _ = oracle_scorer(t, oc).walk(graph, n_max)
                under = degrees < n_max
                assert np.array_equal(np.diff(ranked.indptr), np.where(under, whole, 0))
                assert not ranked.lead[~under].any() and ranked.queue.size == whole[under].sum()
                assert_same_oracle_additions(graph, t, oc, n_max, 0.5)


class TestAddPassKeys:
    """One ``add_edges`` pass hashes the oracle's keys per block of the two-hop scan."""

    def graph(self):
        return synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)

    @pytest.mark.parametrize("block", [1, 7, 1000, 16384])
    def test_hash_calls_bounded_by_blocks(self, block, monkeypatch):
        g, t = self.graph()
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", block)
        calls = count_unit_uniform(monkeypatch)
        _, rep = add_edges(g, oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7)), 6, 0.5)
        assert rep.edges_added > 0
        assert 1 <= len(calls) <= math.ceil(g.num_nodes / block)

    def test_no_pool_or_key_array_outlives_the_pass(self, monkeypatch):
        g, t = self.graph()
        pool_refs = []

        def pools(graph):
            for block in two_hop_blocks(graph):
                pool_refs.extend(weakref.ref(a) for a in block)
                yield block

        monkeypatch.setattr(refinement, "two_hop_blocks", pools)
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", 100)
        key_refs = count_unit_uniform(monkeypatch)
        scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7))
        add_edges(g, scorer, 6, 0.5)
        gc.collect()
        assert len(pool_refs) == 2 * math.ceil(g.num_nodes / 100) and key_refs
        assert all(ref() is None for ref in pool_refs + key_refs)

    def test_no_queue_outlives_a_pass_that_raises(self, monkeypatch):
        g, t = self.graph()
        queues, walks = [], []
        quota_walk = refinement._quota_walk
        scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7))

        class Queue(refinement._PoolQueue):
            def __init__(self, *args):
                super().__init__(*args)
                queues.append(weakref.ref(self))

        def failing_walk(*args):
            walks.append(args)
            if len(walks) == 3:
                raise RuntimeError("walk failed")
            return quota_walk(*args)

        monkeypatch.setattr(refinement, "_PoolQueue", Queue)
        monkeypatch.setattr(refinement, "_quota_walk", failing_walk)
        with pytest.raises(RuntimeError, match="walk failed"):
            add_edges(g, scorer, 6, 0.5)
        gc.collect()
        assert len(queues) == 1 and queues[0]() is None
