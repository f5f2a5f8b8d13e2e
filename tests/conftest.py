"""Shared builders and independent oracles for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from lagraph import Graph, NodeTable, PairSet, two_hop_candidates
from lagraph.edge_classifier import ONE_HOP, SAMPLED, TWO_HOP, _sample_pairs


def undirected_graph(num_nodes, pairs, add_self_loops=True):
    """Build a Graph from undirected pair list, mirroring both directions."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if arr.size:
        arr = np.concatenate([arr, arr[:, ::-1]], axis=0)
    return Graph.from_edges(num_nodes, arr, add_self_loops=add_self_loops)


def draw_graph(data, max_nodes=40, max_pairs=120):
    """A hypothesis-drawn graph on 1..``max_nodes`` nodes.

    Edges are one-directional or mirrored, and self loops sit on every node,
    on none, or on the few nodes a drawn pair happens to loop on.
    """
    n = data.draw(st.integers(1, max_nodes), label="nodes")
    node = st.integers(0, n - 1)
    pairs = np.asarray(data.draw(st.lists(st.tuples(node, node), max_size=max_pairs), label="pairs"),
                       dtype=np.int64).reshape(-1, 2)
    if data.draw(st.booleans(), label="mirrored"):
        pairs = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
    return Graph.from_edges(n, pairs, add_self_loops=data.draw(st.booleans(), label="self loops"))


def draw_table(data, n, allow_unknown=True):
    """A hypothesis-drawn node table: labels (some unknown if allowed) and splits."""
    c = data.draw(st.integers(1, 3), label="classes")
    low = -1 if allow_unknown else 0
    labels = data.draw(st.lists(st.integers(low, c - 1), min_size=n, max_size=n), label="labels")
    split = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="split")
    return NodeTable(features=np.zeros((n, 1)), labels=np.asarray(labels, dtype=np.int64),
                     num_classes=c, split=np.asarray(split, dtype=np.int8))


def dense_adjacency(g):
    """0/1 adjacency matrix straight from the CSR arrays."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    for v in range(g.num_nodes):
        a[v, g.neighbors(v)] = 1.0
    return a


def path_graph(n):
    return undirected_graph(n, [(i, i + 1) for i in range(n - 1)])


def flatten_params(arrays):
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def write_back(arrays, flat):
    """Scatter a flat vector into the given arrays in place."""
    off = 0
    for a in arrays:
        size = a.size
        a.ravel()[:] = flat[off:off + size]
        off += size
    assert off == flat.size


def central_difference(f, arrays, coords, step=1e-5):
    """Central finite differences of scalar f() at selected flat coordinates.

    ``arrays`` are the live parameter arrays f reads; they are restored
    afterwards.
    """
    base = flatten_params(arrays)
    grads = {}
    for idx in coords:
        bumped = base.copy()
        bumped[idx] = base[idx] + step
        write_back(arrays, bumped)
        hi = f()
        bumped[idx] = base[idx] - step
        write_back(arrays, bumped)
        lo = f()
        grads[idx] = (hi - lo) / (2.0 * step)
    write_back(arrays, base)
    return grads


def assert_gradients_match(analytic_flat, fd_grads, rel_tol=1e-4):
    for idx, fd in fd_grads.items():
        an = analytic_flat[idx]
        denom = max(abs(an), abs(fd), 1e-8)
        assert abs(an - fd) / denom < rel_tol, (
            f"coordinate {idx}: analytic {an!r} vs finite-difference {fd!r}")


def reference_build_pairs(g, t, cfg):
    """``build_pairs`` as a per-node loop over ``two_hop_candidates``."""
    train = t.split_mask("train") & t.known_mask()
    edges = g.edge_array()
    mask = (edges[:, 0] < edges[:, 1]) & train[edges[:, 0]] & train[edges[:, 1]]
    one_hop = edges[mask]
    us, vs, prov = [one_hop[:, 0]], [one_hop[:, 1]], [np.full(one_hop.shape[0], ONE_HOP, dtype=np.int8)]
    if cfg.include_two_hop:
        for v in np.flatnonzero(train):
            cand = two_hop_candidates(g, int(v))
            cand = cand[(cand > v) & train[cand]]
            if cand.size:
                us.append(np.full(cand.shape[0], v, dtype=np.int64))
                vs.append(cand)
                prov.append(np.full(cand.shape[0], TWO_HOP, dtype=np.int8))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    if cfg.num_sampled > 0:
        su, sv = _sample_pairs(np.flatnonzero(train), u, v, cfg.num_sampled, cfg.seed)
        if su.size:
            u = np.concatenate([u, su])
            v = np.concatenate([v, sv])
            prov.append(np.full(su.shape[0], SAMPLED, dtype=np.int8))
    if u.size == 0:
        raise ValueError("no eligible training pairs (need train-train edges)")
    labels = (t.labels[u] == t.labels[v]).astype(np.int64)
    return PairSet(u=u, v=v, labels=labels, provenance=np.concatenate(prov))


def reference_holdout_pairs(g, t, include_two_hop=True):
    """``holdout_pairs`` as a per-node loop over ``two_hop_candidates``."""
    known = t.known_mask()
    train = t.split_mask("train")
    edges = g.edge_array()
    mask = (edges[:, 0] < edges[:, 1]) & known[edges[:, 0]] & known[edges[:, 1]]
    mask &= ~(train[edges[:, 0]] & train[edges[:, 1]])
    one_hop = edges[mask]
    us, vs, prov = [one_hop[:, 0]], [one_hop[:, 1]], [np.full(one_hop.shape[0], ONE_HOP, dtype=np.int8)]
    if include_two_hop:
        for v in range(g.num_nodes):
            if not known[v]:
                continue
            cand = two_hop_candidates(g, v)
            cand = cand[(cand > v) & known[cand]]
            keep = cand if not train[v] else cand[~train[cand]]
            if keep.size:
                us.append(np.full(keep.shape[0], v, dtype=np.int64))
                vs.append(keep)
                prov.append(np.full(keep.shape[0], TWO_HOP, dtype=np.int8))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    if u.size == 0:
        raise ValueError("no eligible held-out pairs")
    labels = (t.labels[u] == t.labels[v]).astype(np.int64)
    return PairSet(u=u, v=v, labels=labels, provenance=np.concatenate(prov))


def reference_add_edges(g, scorer, n_max, threshold):
    """``add_edges`` as a per-node loop over ``two_hop_candidates``; returns
    the refined graph and the added ``(active, passive)`` pairs."""
    degrees = g.nonself_degrees().astype(np.int64)
    added_adj = [set() for _ in range(g.num_nodes)]
    added = []
    for v in range(g.num_nodes):
        if degrees[v] >= n_max:
            continue
        cand = two_hop_candidates(g, v)
        if added_adj[v]:
            cand = cand[~np.isin(cand, np.fromiter(added_adj[v], dtype=np.int64))]
        if cand.size == 0:
            continue
        scores = np.asarray(scorer(np.full(cand.shape[0], v, dtype=np.int64), cand), dtype=np.float64)
        eligible = scores >= threshold
        cand = cand[eligible]
        scores = scores[eligible]
        for w in cand[np.lexsort((cand, -scores))]:
            if degrees[v] >= n_max:
                break
            w = int(w)
            added.append((v, w))
            added_adj[v].add(w)
            added_adj[w].add(v)
            degrees[v] += 1
            degrees[w] += 1
    arr = np.asarray(added, dtype=np.int64).reshape(-1, 2)
    edges = np.concatenate([g.edge_array(), arr, arr[:, ::-1]], axis=0)
    return Graph.from_edges(g.num_nodes, edges, add_self_loops=False), arr


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
