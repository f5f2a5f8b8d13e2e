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

# Scores pairs (u[i], v[i]). A scorer must score each pair on its own, not
# depending on the other pairs of the call: filtering scores every edge in one
# call, and adding scores blocks of whole two-hop pools once, before its loop.
PairScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]

# pool entries (rounded up to whole pools) an add pass scores, or the add-mode
# oracle hashes and sorts, at a time
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
    refined = Graph.from_sorted(g.num_nodes, edges[keep, 0], edges[keep, 1])
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

    The scorer is called before the loop, once per pair of the pool of each
    node whose non-self degree starts under ``n_max``, on blocks of whole
    pools (see :func:`_pool_ranker`); it must score each pair independently
    of the others in the call. A scorer may instead carry a
    ``walk(g, threshold)`` function attribute, as the add-mode oracle does.
    It returns ``rank(v, excluded, budget)``: a list of the first
    ``budget`` candidates, in order, that scoring ``v``'s pool without
    ``excluded`` would rank at or above ``threshold``. The pass then takes its
    candidates from ``rank`` and never calls the scorer.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    degrees = g.nonself_degrees()
    walk = getattr(scorer, "walk", None)
    rank = walk(g, threshold) if walk is not None else _pool_ranker(g, scorer, threshold, degrees < n_max)
    degrees = degrees.tolist()
    n = g.num_nodes
    added_adj: list[list[int]] = [[] for _ in range(n)]
    active: list[int] = []
    passive: list[int] = []
    for v in range(n):
        if degrees[v] >= n_max:
            continue
        picks = rank(v, added_adj[v], n_max - degrees[v])
        active += [v] * len(picks)
        passive += picks
        added_adj[v] += picks
        degrees[v] += len(picks)
        for w in picks:
            added_adj[w].append(v)
            degrees[w] += 1
    arr = np.empty((len(active), 2), dtype=np.int64)
    arr[:, 0], arr[:, 1] = active, passive
    # both directions of each added pair; one may already be an edge of a one-way edge list
    keys = np.sort(np.concatenate([g.edge_sources() * n + g.col_targets,
                                   arr[:, 0] * n + arr[:, 1], arr[:, 1] * n + arr[:, 0]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    refined = Graph.from_sorted(n, keys // n, keys % n)
    report = RefinementReport(
        edges_before=g.num_edges,
        edges_removed=0,
        edges_added=refined.num_edges - g.num_edges,
        edges_after=refined.num_edges,
        degree_hist_before=_degree_hist(g),
        degree_hist_after=_degree_hist(refined),
        added_pairs=arr,
    )
    return refined, report


def _pool_blocks(indptr: np.ndarray):
    """Blocks of whole pools of a pool CSR, ``KEY_BLOCK`` entries or more each
    (only the last may hold fewer), skipping blocks without entries.

    Yields ``(node, stop, lo, hi, owners)``: the pools of nodes
    ``node..stop-1`` are entries ``lo:hi``, and ``owners`` (int64) holds the
    node of each entry.
    """
    n = indptr.shape[0] - 1
    node = 0
    while node < n:
        lo = int(indptr[node])
        stop = min(max(int(np.searchsorted(indptr, lo + KEY_BLOCK)), node + 1), n)
        hi = int(indptr[stop])
        if hi > lo:
            owners = np.repeat(np.arange(node, stop, dtype=np.int64), np.diff(indptr[node:stop + 1]))
            yield node, stop, lo, hi, owners
        node = stop


def _pool_ranker(g: Graph, scorer: PairScorer, threshold: float, active: np.ndarray):
    """``rank`` for a plain pair scorer, which scores the pools of the
    ``active`` nodes once, before the pass.

    Pools are scored a block of whole pools at a time (:func:`_pool_blocks`).
    Each node's candidates that score at or above ``threshold`` are kept in
    one int32 queue ordered by (node, -score, id), with per-node offsets;
    no score is kept. Dropping the excluded nodes keeps the order of the
    rest, so ``rank`` walks the node's slice and skips them, which is the
    ranking of the pool scored without them.
    """
    indptr, pools = two_hop_pools(g)
    sizes = np.diff(indptr)
    pools = pools[np.repeat(active, sizes)]  # the pools of the active nodes, as one CSR
    indptr = np.concatenate(([0], np.cumsum(sizes * active)))
    queue = np.empty_like(pools)
    counts = np.zeros(g.num_nodes + 1, dtype=np.int64)
    end = 0
    for node, stop, lo, hi, owners in _pool_blocks(indptr):
        cand = pools[lo:hi].astype(np.int64)
        scores = np.asarray(scorer(owners, cand), dtype=np.float64)
        if scores.shape != cand.shape:
            raise ValueError("scorer must return one score per pair")
        keep = scores >= threshold
        owners, cand, scores = owners[keep], cand[keep], scores[keep]
        # a pool is ascending, and the sort is stable, so equal scores keep ascending ids
        queue[end:end + cand.size] = cand[np.lexsort((-scores, owners))]
        end += cand.size
        counts[node + 1:stop + 1] = np.bincount(owners - node, minlength=stop - node)
    offsets = np.cumsum(counts).tolist()

    def rank(v: int, excluded: list[int], budget: int) -> list[int]:
        ranked = queue[offsets[v]:offsets[v + 1]].tolist()
        if not excluded:
            return ranked[:budget]
        skip = set(excluded)
        picks = []
        for w in ranked:
            if w not in skip:
                picks.append(w)
                if len(picks) == budget:
                    break
        return picks

    return rank


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


def _quota_walk(queue: list[int], num_same: int, p_pre: float, steps: int, skip: set[int]) -> list[int]:
    """The first ``steps`` picks of the add-mode oracle's ranking of one pool.

    ``queue`` holds the pool's ``num_same`` same-label entries, then the
    others, each in shuffle-key order; entries in ``skip`` are passed over.
    The ideal ranking holds ``floor(p_pre * k + 0.5)`` same-label picks among
    its first ``k``. Since ``p_pre <= 1`` that count grows by 0 or 1 per
    step, so step ``r`` takes from the same-label queue when it grows and
    that queue is not dry, and from the other queue otherwise. Once one
    queue runs dry, every later step takes from the other.
    """
    picks = []
    si, di, end = 0, num_same, len(queue)
    for r in range(steps):
        while si < num_same and queue[si] in skip:
            si += 1
        while di < end and queue[di] in skip:
            di += 1
        grows = math.floor(p_pre * (r + 1) + 0.5) > math.floor(p_pre * r + 0.5)
        if si < num_same and (grows or di == end):
            picks.append(queue[si])
            si += 1
        elif di < end:
            picks.append(queue[di])
            di += 1
        else:
            break
    return picks


class _AddQueue:
    """Every two-hop pool of one graph in the add-mode oracle's queue order.

    Node ``v``'s slice of ``queue`` (laid out like :func:`two_hop_pools`)
    holds its ``num_same[v]`` same-label candidates, then the others, each
    sorted by the shuffle key (ties by ascending id). A key depends only on
    (seed, node, candidate), and dropping candidates keeps the order of the
    rest, so one queue serves every ``p_pre`` and every set of exclusions.
    Keys are hashed and sorted ``KEY_BLOCK`` pool entries (whole pools) at
    a time; no key is kept, only the queue, its ``indptr`` and the counts.
    """

    def __init__(self, g: Graph, labels: np.ndarray, seed: int):
        indptr, pools = two_hop_pools(g)
        self.graph, self.labels, self.seed, self.indptr = g, labels, seed, indptr
        self.queue = np.empty_like(pools)
        self.num_same = np.zeros(g.num_nodes, dtype=np.int32)
        for node, stop, lo, hi, owners in _pool_blocks(indptr):
            cand = pools[lo:hi]
            same = labels[cand] == labels[owners]
            self.queue[lo:hi] = cand[np.lexsort((unit_uniform(seed, owners, cand), ~same, owners))]
            self.num_same[node:stop] = np.bincount(owners[same] - node, minlength=stop - node)

    def built_for(self, g: Graph, labels: np.ndarray, seed: int) -> bool:
        return self.graph is g and self.labels is labels and self.seed == seed

    def ranker(self, p_pre: float, threshold: float):
        """The ``rank(v, excluded, budget)`` of one ``add_edges`` pass.

        Step ``r`` of a pool of ``n`` kept candidates scores
        ``1 - (r + 1) / (2 (n + 1))``, in (0.5, 1), and the pass stops at
        the first step that scores under ``threshold``.
        """
        indptr, num_same, queue = self.indptr.tolist(), self.num_same.tolist(), self.queue

        def rank(v: int, excluded: list[int], budget: int) -> list[int]:
            pool = queue[indptr[v]:indptr[v + 1]].tolist()
            skip = set(excluded)
            if threshold > 0.5:  # a lower threshold keeps every step, as each scores above 0.5
                n = len(pool) - len(skip.intersection(pool))  # the candidates the pool keeps
                steps = 0
                while steps < budget and 1.0 - (steps + 1.0) / (2.0 * (n + 1.0)) >= threshold:
                    steps += 1
                budget = steps
            return _quota_walk(pool, num_same[v], p_pre, budget, skip)

        return rank


def oracle_scorer(t: NodeTable, oc: OracleClassifier, _shared: dict | None = None) -> PairScorer:
    """Build the pair scorer for an :class:`OracleClassifier`.

    An add-mode scorer ranks pools only through its ``walk`` attribute,
    which ranks ``add_edges`` passes from one sorted queue per graph (see
    :class:`_AddQueue`); a direct call raises. Add-mode scorers built with
    one ``_shared`` dict, for the same table and seed, share that queue: the
    first pass on a graph leaves it there for the others.
    """
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
        raise ValueError("the add-mode oracle ranks pools only through add_edges")

    def walk(g: Graph, threshold: float):
        store = {} if _shared is None else _shared
        queue = store.get("queue")
        if queue is None or not queue.built_for(g, labels, oc.seed):
            queue = store["queue"] = _AddQueue(g, labels, oc.seed)
        return queue.ranker(oc.target_p_pre, threshold)

    scorer.walk = walk
    return scorer
