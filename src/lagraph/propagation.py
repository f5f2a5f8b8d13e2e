"""Sparse feature propagation over the graph.

One step replaces each node's row with an aggregate over its neighbor rows
(self loop included). ``row-mean`` divides by degree, so k-step outputs stay
inside the convex hull of the inputs; ``symmetric`` scales both endpoints by
inverse square-root degree. :func:`aggregation` is the one place that builds
the normalized step for SGC and GCN, and for GCN backprop the step restricted
to the labeled rows with its adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeTable

NORMS = ("row-mean", "symmetric")
MAX_K = 8


@dataclass(frozen=True)
class PropagationConfig:
    k: int = 2
    norm: str = "row-mean"

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if not 0 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in [0, {MAX_K}]")


def _check_inputs(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ValueError("feature matrix must have one row per node")
    return x


def gather_sum(g: Graph, x: np.ndarray) -> np.ndarray:
    """Row v of the result sums ``x`` over the targets of v."""
    return g.adjacency @ x


def transpose(g: Graph) -> Graph:
    """Graph with every directed edge reversed."""
    edges = g.edge_array()
    return Graph.from_edges(g.num_nodes, edges[:, ::-1], add_self_loops=False)


def aggregation(g: Graph, norm: str, rows=None):
    """The normalized aggregation step of ``g`` and ``None``; or, given sorted
    distinct output ``rows``, that step restricted to them (bit-identical to
    those rows of the full step) and its adjoint, which maps ``len(rows)``
    rows back to n through the reversed graph's columns ``rows``."""
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    if not g.has_self_loops:
        raise ValueError("propagation requires a graph with self loops")
    deg = g.out_degrees().astype(np.float64)
    out_deg, step, adjoint = deg, lambda x: gather_sum(g, x), None
    if rows is not None:
        rows = np.asarray(rows)
        if (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer) or np.any(rows[1:] <= rows[:-1])
                or rows.size and not 0 <= rows[0] <= rows[-1] < g.num_nodes):
            raise ValueError("rows must be sorted distinct node ids in a 1-D integer array")
        out_deg, step = deg[rows], g.adjacency[rows].__matmul__
        adjoint = transpose(g).adjacency[:, rows].__matmul__
    if norm == "row-mean":

        def agg(x):
            return step(x) / out_deg[:, None]

        def agg_t(y):
            return adjoint(y / out_deg[:, None])

    else:  # symmetric
        scale = 1.0 / np.sqrt(deg)
        out_scale = 1.0 / np.sqrt(out_deg)

        def agg(x):
            return out_scale[:, None] * step(x * scale[:, None])

        def agg_t(y):
            return scale[:, None] * adjoint(y * out_scale[:, None])

    return agg, None if adjoint is None else agg_t


def propagate(g: Graph, x: np.ndarray, cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Apply ``cfg.k`` normalized aggregation steps to the rows of ``x``."""
    agg, _ = aggregation(g, cfg.norm)
    out = _check_inputs(g, x).copy()
    for _ in range(cfg.k):
        out = agg(out)
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
    if not cfg.binary:
        return propagate(g, t.features, PropagationConfig(k=cfg.k, norm=cfg.norm))
    if not g.has_self_loops:
        raise ValueError("propagation requires a graph with self loops")
    out = _check_inputs(g, t.features).copy()
    for _ in range(cfg.k):
        out = gather_sum(g, out)
    return out
