"""Sparse feature propagation over the graph.

One step replaces each node's row with an aggregate over its neighbor rows
(self loop included). ``row-mean`` divides by degree, so k-step outputs stay
inside the convex hull of the inputs; ``symmetric`` scales both endpoints by
inverse square-root degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .graph import Graph, NodeTable

NORMS = ("row-mean", "symmetric")


@dataclass(frozen=True)
class PropagationConfig:
    k: int = 2
    norm: str = "row-mean"
    max_k: int = 8

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if self.max_k < 0:
            raise ValueError("max_k must be non-negative")
        if not 0 <= self.k <= self.max_k:
            raise ValueError(f"k must lie in [0, {self.max_k}]")


def _check_inputs(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ValueError("feature matrix must have one row per node")
    if not g.has_self_loops:
        raise ValueError("propagation requires a graph with self loops")
    return x


def gather_sum(g: Graph, x: np.ndarray) -> np.ndarray:
    """Row v of the result sums ``x`` over the targets of v."""
    n = g.num_nodes
    adjacency = csr_array((np.ones(g.num_edges), g.col_targets, g.row_offsets), shape=(n, n))
    return adjacency @ x


def propagate(g: Graph, x: np.ndarray, cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Apply ``cfg.k`` normalized aggregation steps to the rows of ``x``."""
    out = _check_inputs(g, x).copy()
    if cfg.k == 0:
        return out
    deg = g.out_degrees().astype(np.float64)
    if cfg.norm == "row-mean":
        for _ in range(cfg.k):
            out = gather_sum(g, out) / deg[:, None]
    else:
        scale = 1.0 / np.sqrt(deg)
        for _ in range(cfg.k):
            out = scale[:, None] * gather_sum(g, out * scale[:, None])
    return out


def transpose(g: Graph) -> Graph:
    """Graph with every directed edge reversed."""
    edges = g.edge_array()
    return Graph.from_edges(g.num_nodes, edges[:, ::-1], add_self_loops=False)


def binary_power(g: Graph, x: np.ndarray, k: int) -> np.ndarray:
    """k unnormalized aggregation steps (plain adjacency powers times x)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = _check_inputs(g, x).copy()
    for _ in range(k):
        out = gather_sum(g, out)
    return out


@dataclass(frozen=True)
class EdgeFeatureConfig:
    """How node inputs for the edge classifier are produced.

    ``k=0`` means raw features. ``binary`` switches from normalized
    aggregation to plain adjacency powers.
    """

    k: int = 2
    norm: str = "row-mean"
    binary: bool = False

    def __post_init__(self):
        PropagationConfig(k=self.k, norm=self.norm)


def edge_input_features(g: Graph, t: NodeTable, cfg: EdgeFeatureConfig = EdgeFeatureConfig()) -> np.ndarray:
    """Node representations fed to the edge classifier; defaults to two
    row-mean aggregation steps over the node features."""
    if cfg.binary:
        return binary_power(g, t.features, cfg.k)
    return propagate(g, t.features, PropagationConfig(k=cfg.k, norm=cfg.norm))
