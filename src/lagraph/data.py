"""Dataset io (TSV node/edge files), synthetic benchmark generator, and
homophily degradation."""

from __future__ import annotations

import logging
import math
import operator

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


_RAW_BLOCK = 65536
_UINT32 = 1 << 32


class _Pcg64Draws:
    """Scalar ``integers(k)`` and ``random()`` draws of a PCG64 ``Generator``,
    served in plain Python arithmetic from ``random_raw`` blocks.

    Every draw equals the one the generator would return itself. This
    depends on NumPy's private bounded-integer and double algorithms, as
    written out below (checked against NumPy 2.4); the test suite compares
    the two directly, and its ``GOLDEN_DIGESTS`` are keyed by the NumPy
    build, so a NumPy that changes them shows there:

    - ``integers(k)`` for ``1 < k < 2**32`` is Lemire's method over PCG64's
      buffered ``next_uint32``: a fresh 64-bit word gives its low half and
      keeps its high half for the next draw; a product whose low 32 bits
      fall below ``(2**32 - k) % k`` is redrawn.
    - ``integers(1)`` is 0 and consumes nothing; ``integers(2**32)`` is one
      ``next_uint32``.
    - ``random()`` is ``(next_uint64 >> 11) * 2**-53`` on a fresh word; it
      leaves the uint32 buffer alone.

    :meth:`finish` puts the generator exactly where those draws would have
    left it, uint32 buffer included, so later draws continue the sequence.
    """

    def __init__(self, rng: np.random.Generator):
        self._bg = rng.bit_generator
        self._start = self._bg.state
        # PCG64's uint32 buffer; like NumPy, spending the half keeps its value
        self._has_half, self._half = self._start["has_uint32"], self._start["uinteger"]
        self._block = iter(())
        self._drawn = 0  # words in all blocks so far; the unused tail is the iterator's length hint

    def _word(self) -> int:
        try:
            return next(self._block)
        except StopIteration:
            self._block = iter(self._bg.random_raw(_RAW_BLOCK).tolist())
            self._drawn += _RAW_BLOCK
            return next(self._block)

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._word()
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        if k < _UINT32:
            if k == 1:
                return 0
            m = self._uint32() * k
            if (m & 0xFFFFFFFF) < k:
                threshold = (_UINT32 - k) % k
                while (m & 0xFFFFFFFF) < threshold:
                    m = self._uint32() * k
            return m >> 32
        if k == _UINT32:
            return self._uint32()
        raise ValueError(f"integers: bound {k} exceeds 2**32")

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def finish(self) -> None:
        bg = self._bg
        bg.state = self._start
        bg.advance(self._drawn - operator.length_hint(self._block))
        state = bg.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bg.state = state


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
    members = [np.flatnonzero(labels == cls) for cls in range(c)]

    target_edges, cap = _edge_budget(n, avg_degree)
    label_of = labels.tolist()
    pools = [m.tolist() for m in members]
    draws = _Pcg64Draws(rng)
    seen: set[int] = set()  # each placed pair a < b as its key a * n + b
    attempts = 0
    while len(seen) < target_edges:
        attempts += 1
        if attempts > cap:
            raise RuntimeError("synth: edge sampling failed to place the requested edges")
        u = draws.integers(n)
        lab = label_of[u]
        if draws.random() < homophily:
            pool = pools[lab]
        else:
            if c == 1:
                continue
            other = draws.integers(c - 1)
            other = other + 1 if other >= lab else other
            pool = pools[other]
        w = pool[draws.integers(len(pool))]
        if w == u:
            continue
        a, b = (u, w) if u < w else (w, u)
        key = a * n + b
        if key in seen:
            continue
        seen.add(key)
    draws.finish()
    a, b = np.divmod(np.fromiter(seen, dtype=np.int64, count=len(seen)), n)
    del draws  # its last raw block, before the edge arrays are sorted
    g = Graph.from_edges(n, np.concatenate([np.stack([a, b], axis=1), np.stack([b, a], axis=1)]),
                         add_self_loops=True)

    scale = abs(feature_sep) / np.sqrt(2.0 * d)  # -0.0 passes the check, but numpy refuses its sign
    means = rng.normal(0.0, scale, size=(c, d))
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    split = np.full(n, SPLIT_CODES["test"], dtype=np.int8)
    for cls in range(c):
        idx = members[cls].copy()
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
