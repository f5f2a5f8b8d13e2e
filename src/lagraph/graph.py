"""Sorted-CSR graph container, node metadata, and neighborhood metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array, eye_array

UNKNOWN_LABEL = -1

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_CODES = {"train": TRAIN, "val": VAL, "test": TEST}
SPLIT_NAMES = {code: name for name, code in SPLIT_CODES.items()}


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Directed adjacency in compressed sparse row form.

    ``row_offsets`` has length ``num_nodes + 1``; the targets of node ``v``
    are ``col_targets[row_offsets[v]:row_offsets[v + 1]]``, sorted strictly
    increasing so membership checks can binary-search. Arrays are read-only
    after construction. Undirected graphs store both directions explicitly.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_targets: np.ndarray
    has_self_loops: bool = True

    def __post_init__(self):
        n = self.num_nodes
        if n < 0:
            raise ValueError("num_nodes must be non-negative")
        offsets = np.asarray(self.row_offsets, dtype=np.int64)
        targets = np.asarray(self.col_targets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape[0] != n + 1:
            raise ValueError("row_offsets must have shape (num_nodes + 1,)")
        if offsets[0] != 0 or offsets[-1] != targets.shape[0]:
            raise ValueError("row_offsets must start at 0 and end at num_edges")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if targets.size and (targets.min() < 0 or targets.max() >= n):
            raise ValueError("col_targets contains node ids out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        if targets.size > 1:
            same_row = rows[1:] == rows[:-1]
            if np.any((targets[1:] <= targets[:-1]) & same_row):
                raise ValueError("col_targets must be strictly increasing within each row")
        loops = int(np.count_nonzero(rows == targets))
        if self.has_self_loops and loops != n:
            raise ValueError("has_self_loops set but some self loop is missing")
        object.__setattr__(self, "row_offsets", _frozen(offsets))
        object.__setattr__(self, "col_targets", _frozen(targets))

    @classmethod
    def from_edges(cls, num_nodes: int, edges, add_self_loops: bool = True) -> "Graph":
        """Build a graph from directed ``(u, v)`` pairs, deduplicating silently.

        Self loops for every node are appended when ``add_self_loops`` is set.
        """
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if add_self_loops:
            loops = np.arange(num_nodes, dtype=np.int64)
            pairs = np.concatenate([pairs, np.stack([loops, loops], axis=1)], axis=0)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        keep = np.ones(pairs.shape[0], dtype=bool)
        keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
        pairs = pairs[keep]
        return cls.from_sorted(num_nodes, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_sorted(cls, num_nodes: int, sources: np.ndarray, targets: np.ndarray) -> "Graph":
        """The graph of directed edges already sorted by (source, target), without repeats."""
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=num_nodes), out=offsets[1:])
        loops = int(np.count_nonzero(sources == targets))
        return cls(num_nodes, offsets, targets, has_self_loops=loops == num_nodes)

    @cached_property
    def adjacency(self) -> csr_array:
        """The unweighted adjacency as a scipy ``csr_array``, built on first use and kept."""
        n = self.num_nodes
        return csr_array((np.ones(self.num_edges), self.col_targets, self.row_offsets), shape=(n, n))

    def both_ways(self) -> "Graph":
        """The graph of every edge and its reverse."""
        n = self.num_nodes
        a = csr_array((np.ones(self.num_edges, dtype=bool), self.col_targets, self.row_offsets), shape=(n, n))
        both = (a + a.T).tocsr()  # canonical: rows sorted, no repeats
        return Graph(n, both.indptr, both.indices.copy(), self.has_self_loops)  # the sum's buffer fits both terms

    @property
    def num_edges(self) -> int:
        """Directed edge count, self loops included."""
        return int(self.col_targets.shape[0])

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_targets[self.row_offsets[v]:self.row_offsets[v + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def nonself_degrees(self) -> np.ndarray:
        degs = np.diff(self.row_offsets)
        rows = self.edge_sources()
        loops = np.bincount(rows[rows == self.col_targets], minlength=self.num_nodes)
        return degs - loops

    def edge_sources(self) -> np.ndarray:
        """Source node of each entry in ``col_targets``."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.row_offsets))

    def edge_array(self) -> np.ndarray:
        """All directed edges as an ``(E, 2)`` array in CSR order."""
        return np.stack([self.edge_sources(), self.col_targets], axis=1)


@dataclass(frozen=True)
class NodeTable:
    """Per-node features, labels, and split assignment.

    ``labels`` uses -1 for unknown; known labels lie in ``[0, num_classes)``.
    ``split`` holds the codes TRAIN/VAL/TEST.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        split = np.asarray(self.split, dtype=np.int8)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        n = feats.shape[0]
        if labels.shape != (n,) or split.shape != (n,):
            raise ValueError("features, labels, and split must agree on node count")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        known = labels != UNKNOWN_LABEL
        if np.any(labels[known] < 0) or np.any(labels[known] >= self.num_classes):
            raise ValueError("labels must be -1 or in [0, num_classes)")
        if split.size and (split.min() < TRAIN or split.max() > TEST):
            raise ValueError("split codes must be TRAIN, VAL, or TEST")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "split", _frozen(split))

    @property
    def num_nodes(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def split_mask(self, name: str) -> np.ndarray:
        if name not in SPLIT_CODES:
            raise ValueError(f"unknown split {name!r}; expected one of {sorted(SPLIT_CODES)}")
        return self.split == SPLIT_CODES[name]

    def known_mask(self) -> np.ndarray:
        return self.labels != UNKNOWN_LABEL


@dataclass(frozen=True)
class PositiveRatioReport:
    """Share of same-label neighbors over the whole graph.

    The ratio is NaN when no edge is counted. Self loops and edges touching a
    node whose label is unavailable never count.
    """

    graph_ratio: float
    positive_edges: int
    counted_edges: int


def positive_ratio(g: Graph, t: NodeTable) -> PositiveRatioReport:
    """Fraction of same-label directed edges among those counted."""
    if t.num_nodes != g.num_nodes:
        raise ValueError("graph and node table disagree on node count")
    known = t.known_mask()
    rows = g.edge_sources()
    cols = g.col_targets
    counted = (rows != cols) & known[rows] & known[cols]
    pos = int(np.count_nonzero(counted & (t.labels[rows] == t.labels[cols])))
    tot = int(np.count_nonzero(counted))
    return PositiveRatioReport(graph_ratio=pos / tot if tot else float("nan"),
                               positive_edges=pos, counted_edges=tot)


def unordered_pairs(sources: np.ndarray, targets: np.ndarray, num_nodes: int) -> tuple[np.ndarray, ...]:
    """Each unordered non-self pair among directed edges ``sources[i] -> targets[i]``, once.

    Returns ``(lo, hi, nonself, inverse)``: the pairs as ``lo < hi``, sorted
    by (lo, hi), whichever direction the edges store; the mask of the edges
    that are not self loops; and, for each of those edges, the index of its
    pair.
    """
    nonself = sources != targets
    keys = np.minimum(sources, targets)[nonself] * np.int64(num_nodes) + np.maximum(sources, targets)[nonself]
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq // num_nodes, uniq % num_nodes, nonself, inverse


def two_hop_candidates(g: Graph, v: int) -> np.ndarray:
    """Nodes at distance exactly two from ``v``, ascending, self loops ignored."""
    one_hop = g.neighbors(v)
    one_hop = one_hop[one_hop != v]
    if one_hop.size == 0:
        return np.zeros(0, dtype=np.int64)
    chunks = [g.neighbors(int(u)) for u in one_hop]
    cand = np.unique(np.concatenate(chunks))
    mask = ~np.isin(cand, one_hop)
    mask &= cand != v
    return cand[mask]


# nodes per block of the two-hop scan: at n = 16000 on a 2-core Xeon, holdout_pairs
# traced 8.0/8.5/9.5/11.6/21.9 MB at 512/1,024/2,048/4,096/16,384 rows (the last
# one whole-graph product) and took 103/91/91/86/90 ms
POOL_ROWS = 1024


def two_hop_blocks(g: Graph):
    """Every node's :func:`two_hop_candidates`, ``POOL_ROWS`` nodes at a time, as one
    int32 pair ``(owners, cand)`` per block: ``cand`` holds the block's pools, each
    ascending, in ascending node order, and ``owners`` the node of each entry. With
    ``A`` the boolean adjacency without self loops, a block's pools are the entries of
    ``A[lo:hi] @ A`` outside ``A[lo:hi] + I[lo:hi]``. The scan holds only ``A``, not
    ``g``, once it starts."""
    n = g.num_nodes
    sources = g.edge_sources()
    nonself = sources != g.col_targets
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(sources[nonself], minlength=n), out=indptr[1:])
    a = csr_array((np.ones(int(indptr[-1]), dtype=bool), g.col_targets[nonself].astype(np.int32), indptr),
                  shape=(n, n))
    del g, sources, nonself
    for lo in range(0, n, POOL_ROWS):
        rows = a[lo:lo + POOL_ROWS]
        pools = rows @ a > rows + eye_array(rows.shape[0], n, k=lo, dtype=bool, format="csr")
        pools.sort_indices()
        # unnamed, so a caller that drops or filters the owners frees them
        yield (np.repeat(np.arange(lo, lo + rows.shape[0], dtype=np.int32), np.diff(pools.indptr)),
               pools.indices.astype(np.int32, copy=False))
