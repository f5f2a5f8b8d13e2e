"""Dataset io (TSV node/edge files), synthetic benchmark generator, and
homophily degradation."""

from __future__ import annotations

import logging
import math

import numpy as np

from .graph import (
    Graph,
    NodeTable,
    SPLIT_CODES,
    SPLIT_NAMES,
    UNKNOWN_LABEL,
)

logger = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised when a node or edge file violates the expected format."""


def _parse_nodes(path, num_classes):
    ids, lines, labels, splits, feats = [], [], [], [], []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
            try:
                node_id = int(parts[0])
                label = int(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer id or label") from exc
            if label < UNKNOWN_LABEL:
                raise DataFormatError(f"{path}:{lineno}: node {node_id}: label must be -1 or a class id, "
                                      f"got {label}")
            if parts[2] not in SPLIT_CODES:
                raise DataFormatError(f"{path}:{lineno}: unknown split tag {parts[2]!r}")
            try:
                row = [float(x) for x in parts[3].split(",")]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: malformed feature list") from exc
            if not all(map(math.isfinite, row)):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise DataFormatError(f"{path}:{lineno}: feature dim {len(row)} != {dim}")
            ids.append(node_id)
            lines.append(lineno)
            labels.append(label)
            splits.append(SPLIT_CODES[parts[2]])
            feats.append(row)
    if not ids:
        raise DataFormatError(f"{path}: no node records")
    n = len(ids)
    order = np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")
    ids_arr = np.asarray(ids, dtype=np.int64)[order]
    repeats = np.flatnonzero(np.diff(ids_arr) == 0)
    if repeats.size:
        first, again = lines[order[repeats[0]]], lines[order[repeats[0] + 1]]
        raise DataFormatError(f"{path}:{again}: node id {ids_arr[repeats[0]]} repeats line {first}; "
                              "node ids must be 0-based and contiguous")
    if ids_arr[0] != 0 or ids_arr[-1] != n - 1:
        missing = int(np.setdiff1d(np.arange(n), ids_arr)[0])
        raise DataFormatError(f"{path}: node ids must be 0-based and contiguous; no line has node id {missing}")
    labels_arr = np.asarray(labels, dtype=np.int64)[order]
    known = labels_arr != UNKNOWN_LABEL
    if num_classes is None:
        num_classes = int(labels_arr[known].max()) + 1 if known.any() else 1
    elif known.any() and int(labels_arr[known].max()) >= num_classes:
        bad = int(np.flatnonzero(known & (labels_arr >= num_classes))[0])
        raise DataFormatError(f"{path}: node {bad}: label {int(labels_arr[bad])} >= num_classes {num_classes}")
    features = np.asarray(feats, dtype=np.float64)[order]
    split_arr = np.asarray(splits, dtype=np.int8)[order]
    return features, labels_arr, split_arr, num_classes


def _parse_edges(path, num_nodes):
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'u<TAB>v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer endpoint") from exc
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise DataFormatError(f"{path}:{lineno}: endpoint out of range [0, {num_nodes})")
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def load(node_file_path, edge_file_path, *, undirected: bool = True,
         normalize: bool = True, num_classes: int | None = None) -> tuple[Graph, NodeTable]:
    """Load a dataset from ``nodes.tsv`` and ``edges.tsv``.

    Node lines are ``id<TAB>label<TAB>split<TAB>f1,f2,...,fd`` with label -1
    for unknown and split one of train/val/test. Edge lines are ``u<TAB>v``;
    ``#`` starts a comment. Edges are mirrored when ``undirected`` is set,
    deduplicated (the removed count is logged), and self loops are added
    exactly once. Features are L1-normalized per row unless ``normalize`` is
    off; zero rows are left untouched. A NaN or infinite feature value is
    rejected with its file and line.
    """
    features, labels, split, num_classes = _parse_nodes(node_file_path, num_classes)
    n = features.shape[0]
    pairs = _parse_edges(edge_file_path, n)
    if undirected and pairs.size:
        pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    candidates = pairs.shape[0] + n
    g = Graph.from_edges(n, pairs, add_self_loops=True)
    dupes = candidates - g.num_edges
    if dupes:
        logger.info("load: removed %d duplicate directed edges", dupes)
    if normalize:
        features = l1_normalize(features)
    t = NodeTable(features=features, labels=labels, num_classes=num_classes, split=split)
    return g, t


def l1_normalize(features: np.ndarray) -> np.ndarray:
    """Scale each row to unit L1 norm; all-zero rows pass through."""
    features = np.asarray(features, dtype=np.float64)
    norms = np.abs(features).sum(axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return features / safe


def save(g: Graph, t: NodeTable, node_file_path, edge_file_path) -> None:
    """Write a dataset back to TSV.

    Feature values are rendered with ``repr`` so a reload parses the exact
    same float64. Self loops are omitted from the edge file (the loader puts
    them back); every other directed edge is written.
    """
    if g.num_nodes != t.num_nodes:
        raise ValueError("graph and node table disagree on node count")
    with open(node_file_path, "w", encoding="utf-8") as fh:
        for v in range(t.num_nodes):
            feats = ",".join(repr(float(x)) for x in t.features[v])
            fh.write(f"{v}\t{int(t.labels[v])}\t{SPLIT_NAMES[int(t.split[v])]}\t{feats}\n")
    edges = g.edge_array()
    nonself = edges[edges[:, 0] != edges[:, 1]]
    with open(edge_file_path, "w", encoding="utf-8") as fh:
        for u, v in nonself:
            fh.write(f"{int(u)}\t{int(v)}\n")


def check_synth_args(n: int, c: int, d: int, homophily: float, avg_degree: float,
                     feature_sep: float, degrade_k: int = 0) -> None:
    """Raise ``ValueError`` unless :func:`synth` can build the graph the arguments
    describe and :func:`degrade` can give each node ``degrade_k`` more neighbors."""
    if n < c or c < 1:
        raise ValueError("need n >= c >= 1")
    if d < 1:
        raise ValueError("feature dim must be >= 1")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    if avg_degree < 1.0:
        raise ValueError("avg_degree must be >= 1")
    if feature_sep < 0.0:
        raise ValueError("feature_sep must be non-negative")
    # An attempt draws a same-class partner with probability ``homophily``, else
    # a cross-class one. Edges beyond the pairs of one kind need draws of the
    # other. The draws of that kind expected within the attempt cap must exceed
    # the draws that placing them takes on average by four standard deviations
    # of the difference (binomial draw count, geometric waits).
    small, big = divmod(n, c)  # balanced classes: n % c of them hold one node more
    if degrade_k > (others := n - small - (big > 0)):  # the largest class holds small + (big > 0)
        raise ValueError(f"degrade_k must be <= {others}, the different-label nodes of the largest class")
    same = (c - big) * (small * (small - 1) // 2) + big * (small * (small + 1) // 2)
    cross = n * (n - 1) // 2 - same
    target, cap = _edge_budget(n, avg_degree)
    for kind, chance, pairs, other, other_pairs in (
            ("same-class", homophily, same, "cross-class", cross),
            ("cross-class", 1.0 - homophily, cross, "same-class", same)):
        needed = target - other_pairs
        if needed <= 0:
            continue
        # coupon collector: with i pairs of the kind placed, a draw of the kind
        # places a new one with chance p (a same-class draw is its own node with
        # chance c / n), so it takes a geometric number of draws, mean 1 / p
        keep = 1.0 - c / n if kind == "same-class" else 1.0
        mean = var = 0.0
        for i in range(needed):
            p = keep * (pairs - i) / pairs
            mean += 1.0 / p
            var += (1.0 - p) / (p * p)
        expected = chance * cap
        if expected - mean < 4.0 * math.sqrt(expected * (1.0 - chance) + var):
            raise ValueError(f"edge target {target} exceeds the {other_pairs} {other} pairs by {needed}, "
                             f"which need {kind} draws; homophily {homophily:g} expects "
                             f"{expected:.4g} of those in the generator's {cap} attempts, against "
                             f"{mean:.4g} on average to place them (self partners and repeated "
                             f"pairs included) plus four standard deviations")


def _edge_budget(n: int, avg_degree: float) -> tuple[int, int]:
    """Undirected non-self edges :func:`synth` places, ``n * avg_degree / 2`` capped at
    all pairs, and the placement attempts it makes before it gives up."""
    target = int(round(min(n * avg_degree / 2.0, n * (n - 1) // 2)))  # an overflow to inf caps too
    return target, 200 * target + 1000


def _edge_keys(rng: np.random.Generator, labels: np.ndarray, c: int, homophily: float,
               target: int, cap: int) -> np.ndarray:
    """Keys ``a * n + b`` (``a < b``) of the ``target`` pairs :func:`synth` places,
    in placement order.

    Each attempt draws a uniform node ``u``, a same-class coin, another class
    and a partner in the chosen class. It places ``{u, partner}`` unless the
    partner is ``u``, the pair is placed already, or ``c`` is 1 and the coin
    asks for another class. Attempts come in batches of generator draws; the
    attempts of a batch past ``cap`` are drawn but not made, so the draws do
    not depend on ``cap``.
    """
    n = labels.size
    by_class = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=c)
    starts = np.cumsum(sizes) - sizes
    placed = np.zeros(0, dtype=np.int64)
    attempts = 0
    while placed.size < target:
        if attempts >= cap:
            raise RuntimeError("synth: edge sampling failed to place the requested edges")
        m = max(4096, 2 * (target - placed.size))
        u = rng.integers(n, size=m)
        coin = rng.random(m) < homophily
        cls = rng.integers(max(c - 1, 1), size=m)  # the other class, skipping u's own
        cls = np.where(coin, labels[u], cls + (cls >= labels[u])) % c  # % c keeps c = 1's void cross draws in range
        w = by_class[starts[cls] + rng.integers(sizes[cls])]
        made = (u != w) & (coin | (c > 1)) & (np.arange(m) < cap - attempts)
        attempts += m
        keys = (np.minimum(u, w) * n + np.maximum(u, w))[made]
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]  # first attempt of each, in order
        keys = keys[~np.isin(keys, placed)][:target - placed.size]
        placed = np.concatenate([placed, keys])
    return placed


def synth(n: int, c: int, d: int, homophily: float, avg_degree: float,
          feature_sep: float, seed: int) -> tuple[Graph, NodeTable]:
    """Generate a homophily-controlled benchmark graph.

    Class proportions are balanced; each undirected edge connects a same-class
    pair with probability ``homophily``. Features are per-class spherical
    Gaussians with unit noise whose class means sit ``feature_sep`` apart in
    RMS distance. Splits are 10/10/80 train/val/test within each class.

    Args:
        n: node count (``n >= c``).
        c: class count.
        d: feature dimension.
        homophily: probability an edge joins a same-class pair, in [0, 1].
        avg_degree: target mean non-self degree, at least 1.
        feature_sep: RMS distance between class means, non-negative.
        seed: RNG seed; the output is a pure function of the arguments.

    Returns:
        ``(Graph, NodeTable)`` with symmetric edges and self loops.
    """
    check_synth_args(n, c, d, homophily, avg_degree, feature_sep)
    rng = np.random.default_rng(seed)

    labels = np.arange(n, dtype=np.int64) % c
    rng.shuffle(labels)

    a, b = np.divmod(_edge_keys(rng, labels, c, homophily, *_edge_budget(n, avg_degree)), n)
    g = Graph.from_edges(n, np.concatenate([np.stack([a, b], axis=1), np.stack([b, a], axis=1)]),
                         add_self_loops=True)

    scale = abs(feature_sep) / np.sqrt(2.0 * d)  # -0.0 passes the check, but numpy refuses its sign
    means = rng.normal(0.0, scale, size=(c, d))
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    split = np.full(n, SPLIT_CODES["test"], dtype=np.int8)
    for cls in range(c):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        size = idx.shape[0]
        n_train = max(1, int(round(0.1 * size)))
        n_val = max(1, int(round(0.1 * size)))
        if n_train + n_val >= size:
            n_train = max(1, size - 2) if size >= 3 else 1
            n_val = 1 if size >= 2 else 0
        split[idx[:n_train]] = SPLIT_CODES["train"]
        split[idx[n_train:n_train + n_val]] = SPLIT_CODES["val"]

    t = NodeTable(features=features, labels=labels, num_classes=c, split=split)
    return g, t


def degrade(g: Graph, t: NodeTable, k: int, seed: int) -> Graph:
    """Lower graph homophily by wiring each node to ``k`` different-label nodes.

    Every node gets ``k`` distinct uniformly sampled partners whose label
    differs from its own; edges go in both directions and duplicates with
    existing edges collapse. Requires fully known labels.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if t.num_nodes != g.num_nodes:
        raise ValueError("graph and node table disagree on node count")
    if not t.known_mask().all():
        raise ValueError("degrade requires a fully labeled node table")
    rng = np.random.default_rng(seed)
    members = [np.flatnonzero(t.labels != cls) for cls in range(t.num_classes)]
    added = []
    for v in range(g.num_nodes):
        pool = members[int(t.labels[v])]
        if pool.shape[0] < k:
            raise ValueError(f"node {v}: only {pool.shape[0]} different-label nodes, need {k}")
        chosen = rng.choice(pool, size=k, replace=False)
        for w in chosen:
            added.append((v, int(w)))
            added.append((int(w), v))
    new_edges = np.concatenate([g.edge_array(), np.asarray(added, dtype=np.int64)], axis=0)
    return Graph.from_edges(g.num_nodes, new_edges, add_self_loops=True)
