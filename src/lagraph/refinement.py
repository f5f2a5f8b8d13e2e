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

# pool entries whose add-mode oracle keys one unit_uniform call hashes
KEY_BLOCK = 16384


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

    A scorer may carry a ``prepare(indptr, pools)`` function attribute. It
    receives every node's candidate pool as one CSR before the first pool
    is scored and ``(None, None)`` when the pass ends, however it ends; the
    scorer is still called once per pool.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degrees = g.nonself_degrees().astype(np.int64)
    indptr, pools = two_hop_pools(g)
    added_adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    mark = np.zeros(g.num_nodes, dtype=bool)
    added: list[tuple[int, int]] = []
    prepare = getattr(scorer, "prepare", None)
    if prepare is not None:
        prepare(indptr, pools)
    try:
        for v in range(g.num_nodes):
            if degrees[v] >= n_max:
                continue
            cand = pools[indptr[v]:indptr[v + 1]].astype(np.int64)
            if added_adj[v]:
                mark[added_adj[v]] = True
                cand = cand[~mark[cand]]
                mark[added_adj[v]] = False
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
                added_adj[v].append(w)
                added_adj[w].append(v)
                degrees[v] += 1
                degrees[w] += 1
    finally:
        if prepare is not None:
            prepare(None, None)
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


class _QuotaPattern:
    """Where the add-mode oracle takes each candidate, from (#same, pool size).

    The ideal ranking holds ``floor(p_pre * k + 0.5)`` same-label candidates
    among its first ``k``; since ``p_pre <= 1`` that count grows by 0 or 1
    per step, so step ``k`` takes from the same-label queue exactly when it
    grows. Once one queue runs dry, every later step takes from the other.
    The cumulative arrays cover the largest pool scored so far.
    """

    def __init__(self, p_pre: float):
        self.p_pre = p_pre
        self._grow(64)

    def _grow(self, size: int) -> None:
        self.same_taken = np.floor(self.p_pre * np.arange(size + 1, dtype=np.float64) + 0.5).astype(np.int64)
        self.diff_taken = np.arange(size + 1, dtype=np.int64) - self.same_taken
        grows = np.diff(self.same_taken).astype(bool)
        self.same_steps = np.flatnonzero(grows)
        self.diff_steps = np.flatnonzero(~grows)

    def steps(self, num_same: int, n: int) -> np.ndarray:
        """The step of each queue entry: the same-label queue, then the other."""
        if n >= self.same_taken.shape[0]:
            self._grow(max(n, 2 * (self.same_taken.shape[0] - 1)))
        dry = min(int(self.same_taken.searchsorted(num_same)), int(self.diff_taken.searchsorted(n - num_same)))
        same_before = int(self.same_taken[dry])
        rest = np.arange(dry, n, dtype=np.int64)
        if same_before == num_same:
            return np.concatenate([self.same_steps[:same_before], self.diff_steps[:dry - same_before], rest])
        return np.concatenate([self.same_steps[:same_before], rest, self.diff_steps[:dry - same_before]])


class _PoolKeys:
    """Shuffle keys of one add pass's pool entries.

    Keys are hashed ``KEY_BLOCK`` entries at a time, going ahead from the
    node being scored to the end of a pool, and looked up by candidate id.
    """

    def __init__(self, seed: int, indptr: np.ndarray, pools: np.ndarray):
        self.seed, self.indptr, self.pools = seed, indptr, pools
        self.first = self.stop = 0  # nodes whose pool keys are held
        self.keys = np.zeros(0, dtype=np.float64)

    def lookup(self, node: int, cand: np.ndarray) -> np.ndarray | None:
        """Keys of ``cand`` (ascending) in ``node``'s pool; None when one is not in it."""
        if not 0 <= node < self.indptr.shape[0] - 1:
            return None
        if not self.first <= node < self.stop:
            self._hash_from(node)
        lo, hi = int(self.indptr[node]), int(self.indptr[node + 1])
        pool = self.pools[lo:hi]
        if pool.shape[0] == 0:
            return None
        pos = np.minimum(pool.searchsorted(cand), pool.shape[0] - 1)
        if not (pool[pos] == cand).all():
            return None
        return self.keys[lo - int(self.indptr[self.first]) + pos]

    def _hash_from(self, node: int) -> None:
        indptr = self.indptr
        lo = int(indptr[node])
        stop = int(np.searchsorted(indptr, lo + KEY_BLOCK))
        stop = min(max(stop, node + 1), indptr.shape[0] - 1)
        hi = int(indptr[stop])
        owners = np.repeat(np.arange(node, stop, dtype=np.int64), np.diff(indptr[node:stop + 1]))
        self.keys = unit_uniform(self.seed, owners, self.pools[lo:hi])
        self.first, self.stop = node, stop


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

    quota = _QuotaPattern(oc.target_p_pre)
    pass_keys: _PoolKeys | None = None  # set by prepare for one add_edges pass

    def scorer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        n = v.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        if np.any(u != u[0]):
            raise ValueError("add-mode oracle scores one candidate pool at a time")
        node = int(u[0])
        keys = pass_keys.lookup(node, v) if pass_keys is not None else None
        if keys is None:
            keys = unit_uniform(oc.seed, u, v)
        same = labels[v] == labels[node]
        queues = np.lexsort((keys, ~same))  # same-label queue, then different-label queue
        # step r -> score in (0.5, 1]; every candidate clears a 0.5 threshold
        step_scores = 1.0 - (np.arange(n, dtype=np.float64) + 1.0) / (2.0 * (n + 1.0))
        scores = np.empty(n, dtype=np.float64)
        scores[queues] = step_scores[quota.steps(int(np.count_nonzero(same)), n)]
        return scores

    def prepare(indptr: np.ndarray | None, pools: np.ndarray | None) -> None:
        nonlocal pass_keys
        pass_keys = None if indptr is None else _PoolKeys(oc.seed, indptr, pools)

    scorer.prepare = prepare
    return scorer
