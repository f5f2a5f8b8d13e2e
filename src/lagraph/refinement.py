"""Graph refinement driven by a pair scorer.

Filtering drops every non-self edge whose unordered pair scores below the
threshold (both directions go together; self loops stay). Adding walks nodes
in ascending id order and, while a node's non-self degree is under ``n_max``,
connects it to its highest-scoring distance-two candidates. Edges added this
way count against the active node only; the passive endpoint may exceed
``n_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .edge_classifier import EdgeClassifier, make_scorer
from .graph import Graph, NodeTable, positive_ratio, two_hop_pools, unordered_pairs
# bound for the benchmark tracer (perfbench/spans.py wraps this module's name); unused here
from .graph import two_hop_candidates  # noqa: F401
from .hashing import unit_uniform
from .propagation import EdgeFeatureConfig, edge_input_features

PairScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RefinementConfig:
    threshold: float = 0.5
    n_max: int = 6
    do_filter: bool = True
    do_add: bool = True

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.do_add and self.n_max < 1:
            raise ValueError("n_max must be >= 1 when adding is enabled")


@dataclass
class RefinementReport:
    """Bookkeeping for one refinement pass.

    Edge counts are directed and include self loops, so
    ``edges_before - edges_removed + edges_added == edges_after`` exactly.
    Ratios are NaN when labels were unavailable; ``added_precision`` is the
    same-label fraction among added pairs (NaN when nothing was added).
    """

    edges_before: int
    edges_removed: int
    edges_added: int
    edges_after: int
    ratio_before: float = float("nan")
    ratio_after: float = float("nan")
    degree_hist_before: list[int] = field(default_factory=list)
    degree_hist_after: list[int] = field(default_factory=list)
    added_precision: float = float("nan")
    added_pairs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def to_dict(self) -> dict:
        def opt(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "edges_before": self.edges_before,
            "edges_removed": self.edges_removed,
            "edges_added": self.edges_added,
            "edges_after": self.edges_after,
            "ratio_before": opt(self.ratio_before),
            "ratio_after": opt(self.ratio_after),
            "degree_hist_before": list(self.degree_hist_before),
            "degree_hist_after": list(self.degree_hist_after),
            "added_precision": opt(self.added_precision),
        }


def _degree_hist(g: Graph) -> list[int]:
    degs = g.nonself_degrees()
    return np.bincount(degs).tolist() if degs.size else []


def filter_edges(g: Graph, scorer: PairScorer, threshold: float) -> tuple[Graph, RefinementReport]:
    """Drop non-self edges whose unordered pair scores under ``threshold``."""
    edges = g.edge_array()
    pu, pv, nonself, inverse = unordered_pairs(edges, g.num_nodes)
    keep = np.ones(edges.shape[0], dtype=bool)
    if pu.size:
        scores = np.asarray(scorer(pu, pv), dtype=np.float64)
        if scores.shape != pu.shape:
            raise ValueError("scorer must return one score per pair")
        keep[nonself] = (scores >= threshold)[inverse]
    refined = Graph.from_edges(g.num_nodes, edges[keep], add_self_loops=False)
    report = RefinementReport(
        edges_before=g.num_edges,
        edges_removed=int(np.count_nonzero(~keep)),
        edges_added=0,
        edges_after=refined.num_edges,
        degree_hist_before=_degree_hist(g),
        degree_hist_after=_degree_hist(refined),
    )
    return refined, report


def add_edges(g: Graph, scorer: PairScorer, n_max: int, threshold: float) -> tuple[Graph, RefinementReport]:
    """Connect nodes to their best-scoring distance-two candidates.

    Nodes are visited in ascending id order. A node keeps adding its
    highest-scoring eligible candidates (ties broken by ascending id) until
    its non-self degree reaches ``n_max``. Candidates come from the input
    graph; edges created earlier in the pass are skipped, not re-added.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degrees = g.nonself_degrees().astype(np.int64)
    indptr, pools = two_hop_pools(g)
    added_adj: list[set[int]] = [set() for _ in range(g.num_nodes)]
    added: list[tuple[int, int]] = []
    for v in range(g.num_nodes):
        if degrees[v] >= n_max:
            continue
        cand = pools[indptr[v]:indptr[v + 1]].astype(np.int64)
        if added_adj[v]:
            cand = cand[~np.isin(cand, np.fromiter(added_adj[v], dtype=np.int64))]
        if cand.size == 0:
            continue
        scores = np.asarray(scorer(np.full(cand.shape[0], v, dtype=np.int64), cand), dtype=np.float64)
        if scores.shape != cand.shape:
            raise ValueError("scorer must return one score per pair")
        eligible = scores >= threshold
        cand = cand[eligible]
        scores = scores[eligible]
        order = np.lexsort((cand, -scores))
        for w in cand[order]:
            if degrees[v] >= n_max:
                break
            w = int(w)
            added.append((v, w))
            added_adj[v].add(w)
            added_adj[w].add(v)
            degrees[v] += 1
            degrees[w] += 1
    if added:
        arr = np.asarray(added, dtype=np.int64)
        new_edges = np.concatenate([g.edge_array(), arr, arr[:, ::-1]], axis=0)
    else:
        arr = np.zeros((0, 2), dtype=np.int64)
        new_edges = g.edge_array()
    refined = Graph.from_edges(g.num_nodes, new_edges, add_self_loops=False)
    report = RefinementReport(
        edges_before=g.num_edges,
        edges_removed=0,
        edges_added=2 * arr.shape[0],
        edges_after=refined.num_edges,
        degree_hist_before=_degree_hist(g),
        degree_hist_after=_degree_hist(refined),
        added_pairs=arr,
    )
    return refined, report


def refine(g: Graph, t: NodeTable, classifier, cfg: RefinementConfig = RefinementConfig(),
           features: np.ndarray | None = None,
           feature_cfg: EdgeFeatureConfig = EdgeFeatureConfig()) -> tuple[Graph, RefinementReport]:
    """Filter then add edges, scoring pairs with a classifier or callable.

    ``classifier`` is either an :class:`EdgeClassifier` (scored over
    ``features``, which default to ``edge_input_features`` of the input
    graph) or a pair-scorer callable. Both stages share one feature matrix
    computed on the input graph.
    """
    if isinstance(classifier, EdgeClassifier):
        if features is None:
            features = edge_input_features(g, t, feature_cfg)
        scorer = make_scorer(classifier, features)
    elif callable(classifier):
        scorer = classifier
    else:
        raise TypeError("classifier must be an EdgeClassifier or a pair-scorer callable")

    before = positive_ratio(g, t)
    hist_before = _degree_hist(g)
    current = g
    removed = 0
    added_count = 0
    added_pairs = np.zeros((0, 2), dtype=np.int64)
    if cfg.do_filter:
        current, rep = filter_edges(current, scorer, cfg.threshold)
        removed = rep.edges_removed
    if cfg.do_add:
        current, rep = add_edges(current, scorer, cfg.n_max, cfg.threshold)
        added_count = rep.edges_added
        added_pairs = rep.added_pairs
    after = positive_ratio(current, t)

    precision = float("nan")
    if added_pairs.shape[0]:
        known = t.known_mask()
        ok = known[added_pairs[:, 0]] & known[added_pairs[:, 1]]
        if np.any(ok):
            same = t.labels[added_pairs[ok, 0]] == t.labels[added_pairs[ok, 1]]
            precision = float(np.count_nonzero(same) / np.count_nonzero(ok))

    report = RefinementReport(
        edges_before=g.num_edges,
        edges_removed=removed,
        edges_added=added_count,
        edges_after=current.num_edges,
        ratio_before=before.graph_ratio,
        ratio_after=after.graph_ratio,
        degree_hist_before=hist_before,
        degree_hist_after=_degree_hist(current),
        added_precision=precision,
        added_pairs=added_pairs,
    )
    return current, report


@dataclass(frozen=True)
class OracleClassifier:
    """Label-peeking scorer with controllable error rates.

    ``filter`` mode emits positive scores for same-label pairs with
    probability ``target_p`` and for different-label pairs with probability
    ``target_q``, keyed per unordered pair. ``add`` mode ranks a node's
    candidate pool so that greedy addition realizes a same-label precision
    close to ``target_p_pre`` at every prefix (drifting only when one label
    pool runs dry; the realized value is reported by ``refine``).
    """

    mode: str = "filter"
    target_p: float = 1.0
    target_q: float = 0.0
    target_p_pre: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("filter", "add"):
            raise ValueError("mode must be 'filter' or 'add'")
        for name in ("target_p", "target_q", "target_p_pre"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def oracle_scorer(t: NodeTable, oc: OracleClassifier) -> PairScorer:
    """Build the pair scorer for an :class:`OracleClassifier`."""
    if not t.known_mask().all():
        raise ValueError("oracle scoring requires fully known labels")
    labels = t.labels

    if oc.mode == "filter":

        def scorer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            draw = unit_uniform(oc.seed, lo, hi)
            target = np.where(labels[u] == labels[v], oc.target_p, oc.target_q)
            return (draw < target).astype(np.float64)

        return scorer

    def scorer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if np.unique(u).shape[0] > 1:
            raise ValueError("add-mode oracle scores one candidate pool at a time")
        node = int(u[0])
        same = labels[v] == labels[node]
        shuffle_key = unit_uniform(oc.seed, np.full(v.shape[0], node, dtype=np.int64), v)
        pos_queue = np.flatnonzero(same)[np.argsort(shuffle_key[same], kind="stable")]
        neg_queue = np.flatnonzero(~same)[np.argsort(shuffle_key[~same], kind="stable")]
        n = v.shape[0]
        ranks = np.empty(n, dtype=np.int64)
        pi = ni = taken_pos = 0
        for i in range(n):
            quota = math.floor(oc.target_p_pre * (i + 1) + 0.5)
            want_pos = taken_pos < quota
            if want_pos and pi < pos_queue.shape[0]:
                ranks[i] = pos_queue[pi]
                pi += 1
                taken_pos += 1
            elif ni < neg_queue.shape[0]:
                ranks[i] = neg_queue[ni]
                ni += 1
            else:
                ranks[i] = pos_queue[pi]
                pi += 1
                taken_pos += 1
        # rank r -> score in (0.5, 1]; every candidate clears a 0.5 threshold
        scores = np.empty(n, dtype=np.float64)
        scores[ranks] = 1.0 - (np.arange(n, dtype=np.float64) + 1.0) / (2.0 * (n + 1.0))
        return scores

    return scorer
