"""Graph refinement driven by a pair scorer.

Filtering drops every non-self edge whose unordered pair scores below the
threshold (both directions go together; self loops stay). Adding reads the
graph both ways, as the edge classifier's pairs do: it walks nodes in
ascending id order and, while a node's non-self degree is under ``n_max``,
connects it to its highest-scoring distance-two candidates. Edges added this
way count against the active node only; the passive endpoint may exceed
``n_max``. Both kinds of scorer rank the pools into one queue, walked by
one pick loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .edge_classifier import EdgeClassifier, make_scorer, pair_quality
from .graph import Graph, NodeTable, positive_ratio, two_hop_blocks, unordered_pairs
from .hashing import unit_uniform
# bound for the benchmark tracer (perfbench/spans.py wraps these module names); unused here
from .graph import two_hop_candidates  # noqa: F401
from .propagation import edge_input_features  # noqa: F401

# Scores pairs (u[i], v[i]) of integer node ids. A scorer must score each pair
# on its own, not depending on the other pairs of the call: filtering scores
# every edge in one call, and adding scores the two-hop pools of one block of
# nodes (int32 ids) a call, before its loop.
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
    same-label fraction among added pairs with both labels known (NaN when
    there are none).
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
        """The fields but ``added_pairs``, NaN written as None."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "added_pairs"}
        return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in out.items()}


def _degree_hist(g: Graph) -> list[int]:
    degs = g.nonself_degrees()
    return np.bincount(degs).tolist() if degs.size else []


def _report(before: Graph, after: Graph, removed: int = 0, added_pairs: np.ndarray | None = None,
            hists: tuple[list[int], list[int]] | None = None) -> RefinementReport:
    """The edge counts and degree histograms of going from ``before`` to
    ``after`` by removing ``removed`` edges and adding ``added_pairs``;
    ``hists``, when given, are the two graphs' histograms, already counted."""
    hist_before, hist_after = hists or (_degree_hist(before), _degree_hist(after))
    return RefinementReport(
        edges_before=before.num_edges,
        edges_removed=removed,
        edges_added=after.num_edges - before.num_edges + removed,
        edges_after=after.num_edges,
        degree_hist_before=hist_before,
        degree_hist_after=hist_after,
        added_pairs=np.zeros((0, 2), dtype=np.int64) if added_pairs is None else added_pairs,
    )


def filter_edges(g: Graph, scorer: PairScorer, threshold: float) -> tuple[Graph, RefinementReport]:
    """Drop non-self edges whose unordered pair scores under ``threshold``."""
    sources, targets = g.edge_sources(), g.col_targets
    pu, pv, nonself, inverse = unordered_pairs(sources, targets, g.num_nodes)
    keep = np.ones(g.num_edges, dtype=bool)
    if pu.size:
        scores = np.asarray(scorer(pu, pv), dtype=np.float64)
        if scores.shape != pu.shape:
            raise ValueError("scorer must return one score per pair")
        keep[nonself] = (scores >= threshold)[inverse]
    refined = Graph.from_sorted(g.num_nodes, sources[keep], targets[keep])
    return refined, _report(g, refined, removed=int(np.count_nonzero(~keep)))


def add_edges(g: Graph, scorer: PairScorer, n_max: int, threshold: float) -> tuple[Graph, RefinementReport]:
    """Connect nodes to their best-scoring distance-two candidates.

    The pass reads ``g.both_ways()``: pools are the two-hop candidates of the
    graph with every edge mirrored, and ``n_max`` bounds the non-self degree
    there. Nodes are visited in ascending id order. A node keeps adding its
    highest-scoring eligible candidates (ties broken by ascending id) until
    that degree reaches ``n_max``. Candidates come from the input graph;
    edges created earlier in the pass are skipped, not re-added. A candidate
    shares no edge with its node either way, so both directions of each
    added pair are new edges of the refined graph.

    The scorer is called before the loop, once per pair of the pool of each
    node whose degree starts under ``n_max``, one block of nodes a call (see
    :func:`_ranked_pools`); it must score each pair independently of the
    others in the call. A scorer may instead carry a ``walk(g, n_max)``
    function attribute, as the add-mode oracle does. It returns
    ``(queue, p_pre)``: ``g``'s ranked pools, those of the nodes under
    ``n_max`` at least, and the share of leading entries to take (see
    :func:`_quota_walk`), where step ``r`` of a pool of ``m`` remaining
    candidates scores ``1 - (r + 1) / (2 (m + 1))``. The pass then never
    calls the scorer.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    walk = getattr(scorer, "walk", None)
    if walk is not None:
        (ranked, p_pre), cut = walk(g, n_max), threshold
    else:
        def order(owners: np.ndarray, cand: np.ndarray):
            scores = np.asarray(scorer(owners, cand), dtype=np.float64)
            if scores.shape != cand.shape:
                raise ValueError("scorer must return one score per pair")
            kept = np.flatnonzero(scores >= threshold)
            # a pool is ascending, and the sort is stable, so equal scores keep ascending ids
            kept = kept[np.lexsort((-scores[kept], owners[kept]))]
            return kept, kept  # all leading: the walk takes each pool in (-score, id) order

        ranked, p_pre, cut = _ranked_pools(g, order, n_max), 1.0, 0.0
    degrees, indptr, lead = ranked.degrees.tolist(), ranked.indptr.tolist(), ranked.lead.tolist()
    n = g.num_nodes
    # each node is walked once, in id order, so a walk changes only the degrees and
    # exclusions of the nodes it picks; it picks at most n_max - its starting degree
    arr = np.empty((int(np.maximum(n_max - ranked.degrees, 0).sum()), 2), dtype=np.int64)
    added_adj: list[list[int]] = [[] for _ in range(n)]
    k = 0
    for v in range(n):
        if degrees[v] >= n_max:
            continue
        pool = ranked.queue[indptr[v]:indptr[v + 1]].tolist()
        picks = _quota_walk(pool, lead[v], p_pre, n_max - degrees[v], set(added_adj[v]), cut)
        arr[k:k + len(picks), 0], arr[k:k + len(picks), 1] = v, picks
        k += len(picks)
        for w in picks:
            added_adj[w].append(v)
            degrees[w] += 1
    arr.resize((k, 2), refcheck=False)  # no view of it is held
    del ranked, degrees, indptr, lead, added_adj  # the pass's lists go before the new graph
    keys = np.concatenate([g.edge_sources() * n + g.col_targets,
                           arr[:, 0] * n + arr[:, 1], arr[:, 1] * n + arr[:, 0]])
    keys.sort()  # in place, not into a second array of every edge key
    refined = Graph.from_sorted(n, keys // n, keys % n)
    return refined, _report(g, refined, added_pairs=arr)


@dataclass(frozen=True)
class _PoolQueue:
    """The ranked two-hop pools of one graph read both ways.

    Node ``v``'s slice ``queue[indptr[v]:indptr[v + 1]]`` (int32) holds its
    ``lead[v]`` leading candidates, then the rest, each part in the order an
    add pass takes it; ``degrees`` holds each node's non-self degree in the
    mirrored graph. Dropping candidates keeps the order of the rest, so one
    queue serves every set of exclusions.
    """

    indptr: np.ndarray
    queue: np.ndarray
    lead: np.ndarray
    degrees: np.ndarray


def _ranked_pools(g: Graph, order, n_max: int) -> _PoolQueue:
    """The :class:`_PoolQueue` of ``g``, ranked one :func:`two_hop_blocks`
    block at a time, with only the pools of nodes whose degree is under
    ``n_max``: the others are left empty.

    ``order(owners, cand)`` ranks one block's pool entries: it returns the
    indices of the entries to keep, in queue order (owners ascending), and an
    index or mask of the leading ones. Nothing of a block outlives it but its
    slice of the queue and its counts.
    """
    mirror = g.both_ways()
    degrees = mirror.nonself_degrees()
    blocks = two_hop_blocks(mirror)
    del mirror  # the scan holds its own adjacency
    active = degrees < n_max
    queue = [np.zeros(0, dtype=np.int32)]
    counts = np.zeros(g.num_nodes + 1, dtype=np.int64)
    lead = np.zeros(g.num_nodes, dtype=np.int64)
    for owners, cand in blocks:
        keep = active[owners]
        owners, cand = owners[keep], cand[keep]
        if owners.size:
            kept, leading = order(owners, cand)
            queue.append(cand[kept])
            counts[1:] += np.bincount(owners[kept], minlength=g.num_nodes)
            lead += np.bincount(owners[leading], minlength=g.num_nodes)
    return _PoolQueue(np.cumsum(counts), np.concatenate(queue), lead, degrees)


def refine(g: Graph, t: NodeTable, classifier, cfg: RefinementConfig = RefinementConfig(),
           features: np.ndarray | None = None) -> tuple[Graph, RefinementReport]:
    """Filter then add edges, scoring pairs with a classifier or callable.

    ``classifier`` is either an :class:`EdgeClassifier`, scored over the
    edge input ``features`` of the input graph by both stages, or a
    pair-scorer callable.
    """
    if isinstance(classifier, EdgeClassifier):
        if features is None:
            raise ValueError("an EdgeClassifier scores pairs over features; none were given")
        scorer = make_scorer(classifier, features)
    elif callable(classifier):
        scorer = classifier
    else:
        raise TypeError("classifier must be an EdgeClassifier or a pair-scorer callable")

    before = positive_ratio(g, t)
    current, stages = g, []
    if cfg.do_filter:
        current, rep = filter_edges(current, scorer, cfg.threshold)
        stages.append(rep)
    if cfg.do_add:
        current, rep = add_edges(current, scorer, cfg.n_max, cfg.threshold)
        stages.append(rep)
    # the first stage counted the input graph's histogram and the last the output's
    first, last = (stages[0], stages[-1]) if stages else (_report(g, g),) * 2
    report = _report(g, current, first.edges_removed, last.added_pairs,
                     (first.degree_hist_before, last.degree_hist_after))
    report.ratio_before, report.ratio_after = before.graph_ratio, positive_ratio(current, t).graph_ratio
    pairs, known = report.added_pairs, t.known_mask()
    ok = known[pairs[:, 0]] & known[pairs[:, 1]]
    same = t.labels[pairs[ok, 0]] == t.labels[pairs[ok, 1]]
    report.added_precision = pair_quality(np.ones_like(same), same).p_pre
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


def _quota_walk(pool: list[int], num_lead: int, p_pre: float, steps: int, skip: set[int],
                cut: float) -> list[int]:
    """The first ``steps`` picks of one ranked pool, or fewer.

    ``pool`` holds ``num_lead`` leading entries, then the others, each in the
    order they are taken; entries in ``skip`` are passed over. The ideal
    ranking holds ``floor(p_pre * k + 0.5)`` leading picks among its first
    ``k``. Since ``p_pre <= 1`` that count grows by 0 or 1 per step, so step
    ``r`` takes a leading entry when it grows and some are left, and another
    entry otherwise. Once one part runs dry, every later step takes from the
    other. A ``cut`` over 0.5 ends the walk at the first step ``r`` whose
    score ``1 - (r + 1) / (2 (m + 1))`` is under it, ``m`` being the pool's
    entries outside ``skip``: the add-mode oracle's scores, all in (0.5, 1).
    """
    if cut > 0.5:
        m = len(pool) - len(skip.intersection(pool))
        r = 0
        while r < steps and 1.0 - (r + 1.0) / (2.0 * (m + 1.0)) >= cut:
            r += 1
        steps = r
    if not skip and num_lead in (0, len(pool)):  # one part, nothing passed over: the pool in order
        return pool[:steps]
    picks = []
    si, di, end = 0, num_lead, len(pool)
    for r in range(steps):
        while si < num_lead and pool[si] in skip:
            si += 1
        while di < end and pool[di] in skip:
            di += 1
        grows = math.floor(p_pre * (r + 1) + 0.5) > math.floor(p_pre * r + 0.5)
        if si < num_lead and (grows or di == end):
            picks.append(pool[si])
            si += 1
        elif di < end:
            picks.append(pool[di])
            di += 1
        else:
            break
    return picks


def oracle_scorer(t: NodeTable, oc: OracleClassifier, _shared: dict | None = None) -> PairScorer:
    """Build the pair scorer for an :class:`OracleClassifier`.

    An add-mode scorer ranks pools only through its ``walk`` attribute; a
    direct call raises. Its queue puts each node's same-label candidates
    first, then the others, each part sorted by a shuffle key that depends
    only on (seed, node, candidate), ties by ascending id; so one queue
    serves every ``p_pre``. Add-mode scorers built with one ``_shared`` dict,
    for the same table and seed, share that queue: the first pass on a graph
    at an ``n_max`` leaves it there for the others.
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

    def order(owners: np.ndarray, cand: np.ndarray):
        same = labels[cand] == labels[owners]
        return np.lexsort((unit_uniform(oc.seed, owners, cand), ~same, owners)), same

    def walk(g: Graph, n_max: int) -> tuple[_PoolQueue, float]:
        store = {} if _shared is None else _shared
        built_for = store.get("built_for", (None, None, None, None))
        if built_for[0] is not g or built_for[1] is not labels or built_for[2:] != (oc.seed, n_max):
            store["built_for"], store["queue"] = (g, labels, oc.seed, n_max), _ranked_pools(g, order, n_max)
        return store["queue"], oc.target_p_pre

    scorer.walk = walk
    return scorer
