"""TSV loading and saving, the synthetic generator, and graph degradation."""

import logging
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lagraph.data import (
    _RAW_BLOCK,
    DataFormatError,
    _edge_budget,
    _Pcg64Draws,
    check_synth_args,
    degrade,
    l1_normalize,
    load,
    save,
    synth,
)
from lagraph.graph import NodeTable, positive_ratio

from conftest import reference_synth, traced_peak

NODES_TSV = """\
# id\tlabel\tsplit\tfeatures
0\t0\ttrain\t1.0,2.0
1\t0\tval\t0.5,0.5
2\t1\ttest\t-1.0,1.0
3\t1\ttest\t0.0,0.0
4\t-1\ttest\t3.0,1.0
"""

EDGES_TSV = """\
# duplicate line below exercises dedup
0\t1
0\t2
1\t3
3\t4
0\t1
"""


@pytest.fixture
def dataset(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(NODES_TSV)
    edges.write_text(EDGES_TSV)
    return nodes, edges


class TestLoad:
    def test_csr_hand_checked(self, dataset):
        g, t = load(*dataset)
        assert g.row_offsets.tolist() == [0, 3, 6, 8, 11, 13]
        assert g.col_targets.tolist() == [0, 1, 2, 0, 1, 3, 0, 2, 1, 3, 4, 3, 4]
        assert t.labels.tolist() == [0, 0, 1, 1, -1]
        assert t.num_classes == 2
        assert t.split.tolist() == [0, 1, 2, 2, 2]

    def test_l1_normalization(self, dataset):
        g, t = load(*dataset)
        assert t.features[0].tolist() == [1.0 / 3.0, 2.0 / 3.0]
        assert t.features[3].tolist() == [0.0, 0.0]  # zero row passes through
        g2, t2 = load(*dataset, normalize=False)
        assert t2.features[0].tolist() == [1.0, 2.0]

    def test_duplicate_count_logged(self, dataset, caplog):
        with caplog.at_level(logging.INFO, logger="lagraph.data"):
            load(*dataset)
        assert "removed 2 duplicate directed edges" in caplog.text

    def test_directed_mode(self, dataset):
        g, _ = load(*dataset, undirected=False)
        assert 1 in g.neighbors(0) and 0 not in g.neighbors(1)

    def test_explicit_num_classes(self, dataset):
        _, t = load(*dataset, num_classes=5)
        assert t.num_classes == 5
        with pytest.raises(DataFormatError, match="label 1 >= num_classes 1"):
            load(*dataset, num_classes=1)

    def test_shuffled_ids_are_reordered(self, tmp_path):
        nodes = tmp_path / "n.tsv"
        edges = tmp_path / "e.tsv"
        nodes.write_text("1\t1\ttest\t5.0\n0\t0\ttrain\t7.0\n")
        edges.write_text("0\t1\n")
        _, t = load(nodes, edges, normalize=False)
        assert t.features[:, 0].tolist() == [7.0, 5.0]
        assert t.labels.tolist() == [0, 1]


class TestLoadErrors:
    def write(self, tmp_path, nodes=NODES_TSV, edges=EDGES_TSV):
        n, e = tmp_path / "n.tsv", tmp_path / "e.tsv"
        n.write_text(nodes)
        e.write_text(edges)
        return n, e

    def test_wrong_field_count_names_line(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\n")
        with pytest.raises(DataFormatError, match=r":1: expected 4 tab-separated fields"):
            load(*paths)

    def test_bad_split_tag(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\tholdout\t1.0\n")
        with pytest.raises(DataFormatError, match=r":1: unknown split tag"):
            load(*paths)

    def test_bad_feature_value(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0,zz\n")
        with pytest.raises(DataFormatError, match=r":1: malformed feature list"):
            load(*paths)

    @pytest.mark.parametrize("feats", ["1.0,nan", "inf,1.0", "1.0,-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, feats):
        paths = self.write(tmp_path, nodes=f"0\t0\ttrain\t1.0,2.0\n1\t0\ttest\t{feats}\n")
        with pytest.raises(DataFormatError, match=r":2: non-finite feature value"):
            load(*paths)

    def test_inconsistent_feature_dim(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0,2.0\n1\t0\ttest\t1.0\n")
        with pytest.raises(DataFormatError, match=r":2: feature dim 1 != 2"):
            load(*paths)

    def test_non_contiguous_ids(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0\n2\t0\ttest\t1.0\n")
        with pytest.raises(DataFormatError, match="0-based and contiguous"):
            load(*paths)

    def test_repeated_id_names_both_lines(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0\n# note\n1\t0\ttest\t1.0\n0\t1\tval\t1.0\n")
        with pytest.raises(DataFormatError, match=r"n\.tsv:4: node id 0 repeats line 1; node ids must be 0-based"):
            load(*paths)

    @pytest.mark.parametrize("ids,missing", [([0, 2], 1), ([1, 2], 0), ([3, 0, 1], 2), ([-1, 0, 1], 2)])
    def test_gap_in_ids_names_the_first_missing_id(self, tmp_path, ids, missing):
        paths = self.write(tmp_path, nodes="".join(f"{i}\t0\ttrain\t1.0\n" for i in ids))
        with pytest.raises(DataFormatError, match=f"0-based and contiguous; no line has node id {missing}$"):
            load(*paths)

    def test_edge_out_of_range_names_line(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0\n", edges="0\t9\n")
        with pytest.raises(DataFormatError, match=r":1: endpoint out of range"):
            load(*paths)

    def test_edge_bad_field_count(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t0\ttrain\t1.0\n", edges="0 1\n")
        with pytest.raises(DataFormatError, match=r":1: expected 'u<TAB>v'"):
            load(*paths)

    def test_empty_node_file(self, tmp_path):
        paths = self.write(tmp_path, nodes="# nothing\n")
        with pytest.raises(DataFormatError, match="no node records"):
            load(*paths)

    def test_negative_label_below_unknown(self, tmp_path):
        paths = self.write(tmp_path, nodes="0\t-3\ttrain\t1.0\n", edges="")
        with pytest.raises(DataFormatError, match="label must be -1 or a class id"):
            load(*paths)

    def test_negative_label_names_line(self, tmp_path):
        # checked as the line is read, before the ids are known to be contiguous
        paths = self.write(tmp_path, nodes="1\t0\ttrain\t1.0\n5\t-2\ttest\t1.0\n", edges="")
        with pytest.raises(DataFormatError, match=r"n\.tsv:2: node 5: label must be -1 or a class id, got -2"):
            load(*paths)


class TestSaveRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        g, t = synth(n=60, c=3, d=5, homophily=0.7, avg_degree=4.0, feature_sep=2.0, seed=3)
        save(g, t, tmp_path / "n.tsv", tmp_path / "e.tsv")
        g2, t2 = load(tmp_path / "n.tsv", tmp_path / "e.tsv", normalize=False)
        assert g2.row_offsets.tolist() == g.row_offsets.tolist()
        assert g2.col_targets.tolist() == g.col_targets.tolist()
        assert np.array_equal(t2.features, t.features)  # repr() is lossless
        assert np.array_equal(t2.labels, t.labels)
        assert np.array_equal(t2.split, t.split)
        assert t2.num_classes == t.num_classes


class TestL1Normalize:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(10, 4))
        out = l1_normalize(x)
        assert np.allclose(np.abs(out).sum(axis=1), 1.0)

    def test_zero_rows_pass(self):
        out = l1_normalize(np.zeros((2, 3)))
        assert np.array_equal(out, np.zeros((2, 3)))


class TestSynth:
    def test_reproducible(self):
        g1, t1 = synth(n=50, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=9)
        g2, t2 = synth(n=50, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=9)
        assert np.array_equal(g1.col_targets, g2.col_targets)
        assert np.array_equal(t1.features, t2.features)
        g3, _ = synth(n=50, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=10)
        assert not np.array_equal(g1.col_targets, g3.col_targets)

    def test_memory_is_bounded(self):
        # the graph and node table it returns; one raw block of the generator, _RAW_BLOCK
        # Python ints at 40 bytes each with their list slot; and the set of placed edge
        # keys, at 128 bytes a key, room for its table to grow. n = 4000 traces about
        # 4.3 MB; keeping a list of pair tuples beside the keys traces about 7.8 MB
        (g, t), peak = traced_peak(synth, 4000, 4, 16, 0.4, 8.0, 4.0, 0)
        out = sum(a.nbytes for a in (g.row_offsets, g.col_targets, t.features, t.labels, t.split))
        bound = out + _RAW_BLOCK * 40 + _edge_budget(4000, 8.0)[0] * 128
        assert peak <= bound, f"traced peak {peak / 2**20:.2f} MB over {bound / 2**20:.2f} MB"

    def test_homophily_law_of_large_numbers(self):
        g, t = synth(n=5000, c=4, d=2, homophily=0.5, avg_degree=8.0, feature_sep=1.0, seed=0)
        rep = positive_ratio(g, t)
        assert abs(rep.graph_ratio - 0.5) < 0.03

    def test_homophily_one_gives_ratio_one(self):
        g, t = synth(n=300, c=3, d=2, homophily=1.0, avg_degree=6.0, feature_sep=1.0, seed=1)
        assert positive_ratio(g, t).graph_ratio == 1.0

    def test_split_fractions_per_class(self):
        _, t = synth(n=1000, c=4, d=2, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=2)
        for cls in range(4):
            members = t.labels == cls
            size = members.sum()
            n_train = (members & t.split_mask("train")).sum()
            n_val = (members & t.split_mask("val")).sum()
            assert n_train == round(0.1 * size)
            assert n_val == round(0.1 * size)

    def test_balanced_labels(self):
        _, t = synth(n=1002, c=3, d=2, homophily=0.5, avg_degree=4.0, feature_sep=1.0, seed=4)
        assert np.bincount(t.labels, minlength=3).tolist() == [334, 334, 334]

    def test_feature_separation_scales(self):
        # class-mean RMS distance concentrates near feature_sep for large d
        _, t = synth(n=4000, c=2, d=400, homophily=0.5, avg_degree=2.0, feature_sep=6.0, seed=5)
        mu0 = t.features[t.labels == 0].mean(axis=0)
        mu1 = t.features[t.labels == 1].mean(axis=0)
        # estimated mean distance includes noise/sqrt(n_c) inflation, modest at these sizes
        assert abs(np.linalg.norm(mu0 - mu1) - 6.0) < 1.2

    def test_negative_zero_separation_is_zero(self):
        a = synth(n=30, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=-0.0, seed=0)[1]
        b = synth(n=30, c=3, d=4, homophily=0.5, avg_degree=4.0, feature_sep=0.0, seed=0)[1]
        assert np.array_equal(a.features, b.features)

    def test_degree_past_every_pair_builds_the_complete_graph(self):
        # n * avg_degree overflows to inf; the budget is capped at all pairs before rounding
        g, _ = synth(n=12, c=3, d=2, homophily=0.5, avg_degree=1e308, feature_sep=1.0, seed=0)
        assert g.nonself_degrees().tolist() == [11] * 12

    def test_mean_degree_near_target(self):
        g, _ = synth(n=2000, c=2, d=2, homophily=0.5, avg_degree=8.0, feature_sep=1.0, seed=6)
        assert g.nonself_degrees().mean() == pytest.approx(8.0, abs=0.01)

    @pytest.mark.parametrize("kw", [
        dict(n=2, c=3), dict(c=0), dict(d=0), dict(homophily=1.5),
        dict(avg_degree=0.5), dict(feature_sep=-1.0),
        # more edges than the homophily leaves pairs for
        dict(c=20, homophily=1.0), dict(c=1, homophily=0.0),
        dict(homophily=0.0, avg_degree=10.5), dict(homophily=1.0, avg_degree=9.5),
        dict(n=2000, c=1000, homophily=1.0, avg_degree=8.0),
        # too few same-class draws expected in the attempt cap
        dict(n=2000, c=1, homophily=1e-9, avg_degree=8.0),
        dict(n=200, c=1, homophily=0.004, avg_degree=8.0),
        dict(n=200, c=200, homophily=1.0 - 1e-9, avg_degree=8.0),
    ])
    def test_validation(self, kw):
        base = dict(n=20, c=2, d=3, homophily=0.5, avg_degree=3.0, feature_sep=1.0, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            synth(**base)

    def test_infeasible_homophily_names_target_and_allowed_pairs(self):
        with pytest.raises(ValueError, match="edge target 8000 exceeds the 1000 same-class pairs"):
            check_synth_args(n=2000, c=1000, d=2, homophily=1.0, avg_degree=8.0, feature_sep=1.0)
        with pytest.raises(ValueError, match="edge target 21 exceeds the 20 cross-class pairs"):
            check_synth_args(n=9, c=2, d=2, homophily=0.0, avg_degree=14 / 3, feature_sep=1.0)

    def test_degrade_k_bound_is_what_degrade_can_wire(self):
        # 10 nodes in 3 classes of 4, 3 and 3: a node of the class of 4 has 6 others
        args = dict(n=10, c=3, d=2, homophily=0.5, avg_degree=2.0, feature_sep=1.0)
        check_synth_args(**args, degrade_k=6)
        with pytest.raises(ValueError, match="degrade_k must be <= 6, the different-label nodes"):
            check_synth_args(**args, degrade_k=7)
        g, t = synth(**args, seed=0)
        degrade(g, t, 6, seed=0)
        with pytest.raises(ValueError, match="only 6 different-label nodes, need 7"):
            degrade(g, t, 7, seed=0)
        with pytest.raises(ValueError, match="degrade_k must be <= 0"):
            check_synth_args(n=5, c=1, d=2, homophily=1.0, avg_degree=2.0, feature_sep=1.0, degrade_k=1)

    def test_unlikely_homophily_names_the_expected_draws(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="edge target 8000 exceeds the 0 cross-class pairs by 8000, "
                                             "which need same-class draws; homophily 1e-09 expects "
                                             "0.001601 of those in the generator's 1601000 attempts"):
            synth(n=2000, c=1, d=2, homophily=1e-9, avg_degree=8.0, feature_sep=1.0, seed=0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [3, 50])
    def test_one_class_near_the_rule_builds_on_every_seed_or_is_refused(self, n):
        """A config just above the feasibility bound builds on seeds 0-9; one
        that only expects as many same-class draws as edges is refused, as the
        draws lost to self partners and repeated pairs leave it short."""
        args = dict(n=n, c=1, d=2, avg_degree=8.0, feature_sep=1.0)

        def feasible(homophily):
            try:
                check_synth_args(homophily=homophily, **args)
            except ValueError:
                return False
            return True

        target, cap = _edge_budget(n, 8.0)
        assert not feasible(1.0001 * target / cap)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
        for seed in range(10):
            g, _ = synth(homophily=hi, seed=seed, **args)
            assert g.nonself_degrees().sum() == 2 * target

    @pytest.mark.parametrize("n, homophily", [(2000, 0.4), (200, 0.01)])
    def test_one_class_builds_at_a_reachable_homophily(self, n, homophily):
        args = dict(n=n, c=1, d=2, homophily=homophily, avg_degree=8.0, feature_sep=1.0, seed=0)
        g, t = synth(**args)
        g_ref, t_ref = reference_synth(**args)
        assert g.nonself_degrees().sum() == 8 * n
        assert np.array_equal(g.row_offsets, g_ref.row_offsets)
        assert np.array_equal(g.col_targets, g_ref.col_targets)
        assert np.array_equal(t.features.view(np.uint64), t_ref.features.view(np.uint64))
        assert np.array_equal(t.split, t_ref.split)

    @pytest.mark.parametrize("homophily, avg_degree", [(0.0, 10.0), (1.0, 9.0)])
    def test_homophily_extremes_fill_every_allowed_pair(self, homophily, avg_degree):
        # 20 nodes in two classes of 10: 100 cross-class pairs, 90 same-class
        g, t = synth(n=20, c=2, d=2, homophily=homophily, avg_degree=avg_degree,
                     feature_sep=1.0, seed=3)
        edges = g.edge_array()
        edges = edges[edges[:, 0] < edges[:, 1]]
        same = t.labels[edges[:, 0]] == t.labels[edges[:, 1]]
        assert edges.shape[0] == (100 if homophily == 0.0 else 90)
        assert same.all() if homophily == 1.0 else not same.any()

    @settings(max_examples=40, deadline=2000)
    @given(n=st.integers(1, 300), c=st.integers(1, 6), d=st.integers(1, 4),
           homophily=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.1, 0.9)),
           avg_degree=st.floats(1.0, 12.0), feature_sep=st.floats(0.0, 4.0),
           seed=st.integers(0, 2**63))
    def test_matches_the_per_call_generator(self, n, c, d, homophily, avg_degree, feature_sep, seed):
        args = dict(n=n, c=c, d=d, homophily=homophily, avg_degree=avg_degree, feature_sep=feature_sep)
        try:
            check_synth_args(**args)
        except ValueError:
            assume(False)
        g, t = synth(**args, seed=seed)
        g_ref, t_ref = reference_synth(**args, seed=seed)
        assert np.array_equal(g.row_offsets, g_ref.row_offsets)
        assert np.array_equal(g.col_targets, g_ref.col_targets)
        assert np.array_equal(t.features.view(np.uint64), t_ref.features.view(np.uint64))
        assert np.array_equal(t.labels, t_ref.labels)
        assert np.array_equal(t.split, t_ref.split)


def _replay(ops, seed, prime=False):
    """Run ``ops`` (a bound ``k`` for ``integers(k)``, ``None`` for ``random()``)
    on a generator and on a stream over an equal one; return both generators
    after the stream's ``finish``."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if prime:  # leaves the high half of a word in the uint32 buffer
        assert rng.integers(7) == twin.integers(7)
        assert twin.bit_generator.state["has_uint32"] == 1
    draws = _Pcg64Draws(twin)
    for i, k in enumerate(ops):
        got = draws.random() if k is None else draws.integers(k)
        want = rng.random() if k is None else int(rng.integers(k))
        assert got == want and type(got) is type(want), (i, k)
    draws.finish()
    return rng, twin


class TestPcg64Draws:
    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("ops", [
        [2**31 + 1] * 300,  # about half of all draws rejected
        [2] * 300,
        [2**32] * 301,  # odd count: ends with the buffer full
        [1] * 20 + [5, 1, None, 1],
        [None, 3, 2**31 + 1, None, 1, 2**32, 16000, None, 2, 97, 2**31 + 1, 5] * 60,
    ], ids=["k=2^31+1", "k=2", "k=2^32", "k=1", "mixed"])
    def test_draws_and_final_state_match_the_generator(self, ops, prime):
        for seed in (0, 1, 41):
            rng, twin = _replay(ops, seed, prime)
            assert twin.bit_generator.state == rng.bit_generator.state
            assert np.array_equal(twin.normal(size=5), rng.normal(size=5))
            assert np.array_equal(twin.integers(1000, size=5), rng.integers(1000, size=5))

    def test_runs_across_blocks(self, monkeypatch):
        ops = [None] * 65530 + [3, None, 2**31 + 1, 7] * 10  # crosses the first 65,536-word block
        rng, twin = _replay(ops, seed=5)
        assert twin.bit_generator.state == rng.bit_generator.state
        monkeypatch.setattr("lagraph.data._RAW_BLOCK", 3)  # a boundary every third word
        mixed = [None, 3, 2**31 + 1, 1, 2**32, None, 16000] * 40
        rng, twin = _replay(mixed, seed=6, prime=True)
        assert twin.bit_generator.state == rng.bit_generator.state
        assert rng.normal() == twin.normal()

    @pytest.mark.parametrize("k", [3, 16001, 2**31 + 1, 2**32 - 1])
    def test_lemire_rejects_exactly_below_its_threshold(self, k):
        # buffer the uint32 whose product with k leaves exactly `left` in the low
        # 32 bits: below the threshold the draw is redone, at it the draw is kept
        threshold = (2**32 - k) % k
        for left in (threshold - 1, threshold):
            rng, twin = np.random.default_rng(k), np.random.default_rng(k)
            for g in (rng, twin):
                state = g.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, left * pow(k, -1, 2**32) % 2**32
                g.bit_generator.state = state
            draws = _Pcg64Draws(twin)
            assert [draws.integers(k) for _ in range(3)] == [int(rng.integers(k)) for _ in range(3)]
            draws.finish()
            assert twin.bit_generator.state == rng.bit_generator.state

    def test_bounds_above_2_to_the_32_are_refused(self):
        with pytest.raises(ValueError, match="exceeds 2\\*\\*32"):
            _Pcg64Draws(np.random.default_rng(0)).integers(2**32 + 1)


class TestDegrade:
    def setup_method(self):
        self.g, self.t = synth(n=120, c=3, d=2, homophily=0.9, avg_degree=4.0,
                               feature_sep=1.0, seed=7)

    def test_new_edges_are_cross_label_and_symmetric(self):
        g2 = degrade(self.g, self.t, k=2, seed=0)
        before = {(int(u), int(v)) for u, v in self.g.edge_array()}
        after = {(int(u), int(v)) for u, v in g2.edge_array()}
        assert before <= after  # nothing removed
        new = after - before
        assert new
        for u, v in new:
            if u != v:
                assert self.t.labels[u] != self.t.labels[v]
            assert (v, u) in new or (v, u) in before

    def test_each_node_gains_k_chosen_partners(self):
        g2 = degrade(self.g, self.t, k=3, seed=1)
        # every node has at least k different-label neighbors afterwards
        for v in range(g2.num_nodes):
            nb = g2.neighbors(v)
            nb = nb[nb != v]
            diff = (self.t.labels[nb] != self.t.labels[v]).sum()
            assert diff >= 3

    def test_ratio_drops(self):
        r0 = positive_ratio(self.g, self.t).graph_ratio
        r1 = positive_ratio(degrade(self.g, self.t, k=3, seed=2), self.t).graph_ratio
        assert r1 < r0 - 0.2

    def test_reproducible(self):
        a = degrade(self.g, self.t, k=2, seed=5)
        b = degrade(self.g, self.t, k=2, seed=5)
        assert np.array_equal(a.col_targets, b.col_targets)

    def test_k_too_large_names_node(self):
        g, t = synth(n=6, c=2, d=2, homophily=0.5, avg_degree=2.0, feature_sep=1.0, seed=0)
        with pytest.raises(ValueError, match=r"node \d+: only \d+ different-label nodes, need 5"):
            degrade(g, t, k=5, seed=0)

    def test_requires_known_labels(self):
        t = self.t
        labels = t.labels.copy()
        labels[0] = -1
        t2 = NodeTable(features=t.features, labels=labels, num_classes=t.num_classes, split=t.split)
        with pytest.raises(ValueError, match="fully labeled"):
            degrade(self.g, t2, k=1, seed=0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            degrade(self.g, self.t, k=0, seed=0)
