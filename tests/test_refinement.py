"""Edge filtering, greedy edge addition, and the combined refine pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagraph import (
    EdgeFeatureConfig,
    NodeTable,
    OracleClassifier,
    RefinementConfig,
    RefinementReport,
    add_edges,
    edge_input_features,
    filter_edges,
    oracle_scorer,
    positive_ratio,
    refine,
    synth,
    unit_uniform,
)
from lagraph.edge_classifier import TrainConfig, init_classifier, make_scorer

from conftest import draw_graph, draw_table, path_graph, reference_add_edges, undirected_graph


def dict_scorer(table, default=0.0):
    """Score unordered pairs from an explicit table."""
    def scorer(u, v):
        u, v = np.asarray(u), np.asarray(v)
        return np.array([table.get((min(a, b), max(a, b)), default)
                         for a, b in zip(u.tolist(), v.tolist())])
    return scorer


def label_scorer(labels):
    labels = np.asarray(labels)
    return lambda u, v: (labels[np.asarray(u)] == labels[np.asarray(v)]).astype(np.float64)


class TestFilterEdges:
    def test_perfect_scorer_purifies(self):
        g, t = synth(n=200, c=3, d=2, homophily=0.5, avg_degree=6.0, feature_sep=1.0, seed=0)
        assert positive_ratio(g, t).graph_ratio < 0.9
        refined, rep = filter_edges(g, label_scorer(t.labels), threshold=0.5)
        assert positive_ratio(refined, t).graph_ratio == 1.0
        edges = refined.edge_array()
        nonself = edges[:, 0] != edges[:, 1]
        assert np.all(t.labels[edges[nonself, 0]] == t.labels[edges[nonself, 1]])
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after

    def test_zero_threshold_keeps_everything(self):
        g = path_graph(6)
        refined, rep = filter_edges(g, dict_scorer({}, default=0.0), threshold=0.0)
        assert np.array_equal(refined.row_offsets, g.row_offsets)
        assert np.array_equal(refined.col_targets, g.col_targets)
        assert rep.edges_removed == 0

    def test_both_directions_dropped_together(self):
        g = undirected_graph(4, [(0, 1), (1, 2), (2, 3)])
        refined, rep = filter_edges(g, dict_scorer({(0, 1): 0.9, (1, 2): 0.1, (2, 3): 0.9}), 0.5)
        assert rep.edges_removed == 2
        assert not refined.has_edge(1, 2) and not refined.has_edge(2, 1)
        assert refined.has_edge(0, 1) and refined.has_edge(1, 0)

    def test_self_loops_survive_any_threshold(self):
        g = path_graph(4)
        refined, _ = filter_edges(g, dict_scorer({}, default=0.0), threshold=1.0)
        for v in range(4):
            assert refined.has_edge(v, v)
        assert refined.num_edges == 4


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
            assert refined.has_edge(a, b) == expected

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


def coarse_hash_scorer(seed):
    """Symmetric per-pair scores on a grid of quarters, so ties are common."""
    def scorer(u, v):
        return np.floor(4.0 * unit_uniform(seed, np.minimum(u, v), np.maximum(u, v))) / 4.0
    return scorer


def assert_same_additions(g, scorer, n_max, threshold):
    got, report = add_edges(g, scorer, n_max, threshold)
    want, want_pairs = reference_add_edges(g, scorer, n_max, threshold)
    assert report.added_pairs.dtype == want_pairs.dtype
    assert np.array_equal(report.added_pairs, want_pairs)
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_targets, want.col_targets)
    assert got.has_self_loops == want.has_self_loops


class TestAddEdgesMatchesPerNodeLoop:
    """``add_edges`` slices each pool from one CSR; the added pairs, their
    order and the refined graph must be those of the per-node loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_per_pair_scorer(self, data):
        g = draw_graph(data)
        scorer = coarse_hash_scorer(data.draw(st.integers(0, 99), label="seed"))
        assert_same_additions(g, scorer, data.draw(st.integers(1, 4), label="n_max"),
                              data.draw(st.sampled_from([0.0, 0.5, 0.75]), label="threshold"))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_add_mode_oracle(self, data):
        g = draw_graph(data)
        t = draw_table(data, g.num_nodes, allow_unknown=False)
        oc = OracleClassifier(mode="add", target_p_pre=data.draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
                              seed=data.draw(st.integers(0, 99), label="seed"))
        assert_same_additions(g, oracle_scorer(t, oc), data.draw(st.integers(1, 4), label="n_max"), 0.5)

    def test_synthetic_graph(self):
        g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
        assert_same_additions(g, coarse_hash_scorer(3), 6, 0.5)
        assert_same_additions(g, oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7)), 6, 0.5)


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
        mid, frep = filter_edges(g, scorer, cfg.threshold)
        want, arep = add_edges(mid, scorer, cfg.n_max, cfg.threshold)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_targets, want.col_targets)
        assert rep.edges_removed == frep.edges_removed
        assert rep.edges_added == arep.edges_added
        assert rep.edges_before - rep.edges_removed + rep.edges_added == rep.edges_after
        assert rep.ratio_before == positive_ratio(g, t).graph_ratio
        assert rep.ratio_after == positive_ratio(got, t).graph_ratio

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
        assert not got.has_edge(0, 2)

        kept = {(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.95}
        got2, rep2 = refine(g, t, dict_scorer(kept), RefinementConfig(n_max=5))
        assert got2.has_edge(0, 2)
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


class TestOracleAdd:
    def test_prefix_quota_exact(self):
        """Every prefix of the ranking holds round(p_pre * k) same-label picks."""
        labels = np.concatenate([np.zeros(21, dtype=np.int64),
                                 np.ones(20, dtype=np.int64)])  # node 0 + 20/20 pool
        t = NodeTable(features=np.zeros((41, 2)), labels=labels, num_classes=2,
                      split=np.zeros(41, dtype=np.int8))
        scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.5, seed=9))
        v = np.arange(1, 41, dtype=np.int64)
        scores = scorer(np.zeros(40, dtype=np.int64), v)
        assert scores.min() > 0.5 and scores.max() <= 1.0
        ranked = v[np.argsort(-scores)]
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
        with pytest.raises(ValueError, match="one candidate pool"):
            scorer(np.array([0, 1]), np.array([2, 3]))
