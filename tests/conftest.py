"""Shared builders and independent oracles for the test suite."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import csr_array, eye_array

from lagraph.graph import SPLIT_CODES, Graph, NodeTable, two_hop_candidates
from lagraph.edge_classifier import (
    ONE_HOP,
    SAMPLED,
    TWO_HOP,
    PairSet,
    _forward,
    _sigmoid,
    _weighted_bce,
    pair_weights,
)
from lagraph.hashing import unit_uniform


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


def reference_gather_sum(g, x):
    """``gather_sum`` with a new ``csr_array`` built from the CSR arrays on every call."""
    n = g.num_nodes
    return csr_array((np.ones(g.num_edges), g.col_targets, g.row_offsets), shape=(n, n)) @ x


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


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the result and the most bytes ``tracemalloc``
    saw allocated at once during the call, the result included."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_two_hop_pools(g):
    """Every node's two-hop pool from one whole-graph sparse product: with
    ``A`` the boolean adjacency without self loops, the entries of ``A @ A``
    outside ``A + I``, as a CSR ``(indptr, indices)``."""
    n = g.num_nodes
    sources = g.edge_sources()
    nonself = sources != g.col_targets
    a = csr_array((np.ones(int(nonself.sum()), dtype=bool), (sources[nonself], g.col_targets[nonself])),
                  shape=(n, n))
    pools = (a @ a) > (a + eye_array(n, dtype=bool, format="csr"))
    pools.sort_indices()
    return pools.indptr, pools.indices


def mirrored(g):
    """``g`` with the reverse of every edge added: the undirected graph
    ``build_pairs`` and ``holdout_pairs`` read, one-way edge lists included."""
    edges = g.edge_array()
    return Graph.from_edges(g.num_nodes, np.concatenate([edges, edges[:, ::-1]]), add_self_loops=False)


def reference_build_pairs(g, t, cfg):
    """``build_pairs`` as a per-node loop over ``two_hop_candidates`` of the
    mirrored graph."""
    train = t.split_mask("train") & t.known_mask()
    g = mirrored(g)
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
        su, sv = reference_sample_pairs(np.flatnonzero(train), u, v, cfg.num_sampled, cfg.seed)
        if su.size:
            u = np.concatenate([u, su])
            v = np.concatenate([v, sv])
            prov.append(np.full(su.shape[0], SAMPLED, dtype=np.int8))
    if u.size == 0:
        raise ValueError("no eligible training pairs (need train-train edges)")
    labels = (t.labels[u] == t.labels[v]).astype(np.int64)
    return PairSet(u=u, v=v, labels=labels, provenance=np.concatenate(prov))


def reference_sample_pairs(train_ids, used_u, used_v, count, seed):
    """``_sample_pairs`` as a per-draw loop over each batch of
    ``rng.integers``, keeping each new unordered pair in a set."""
    n_train = train_ids.size
    total = n_train * (n_train - 1) // 2
    pos = {int(i): k for k, i in enumerate(train_ids)}
    used = {(pos[int(a)], pos[int(b)]) for a, b in zip(used_u, used_v)}
    budget = min(count, total - len(used))
    rng = np.random.default_rng(seed + 2)
    chosen = []
    seen = set(used)
    while len(chosen) < budget:
        draw = rng.integers(0, n_train, size=(2 * (budget - len(chosen)) + 8, 2))
        for a, b in draw:
            if a == b:
                continue
            key = (int(min(a, b)), int(max(a, b)))
            if key in seen:
                continue
            seen.add(key)
            chosen.append(key)
            if len(chosen) == budget:
                break
    if not chosen:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.asarray(chosen, dtype=np.int64)
    return train_ids[idx[:, 0]], train_ids[idx[:, 1]]


def reference_holdout_pairs(g, t, include_two_hop=True):
    """``holdout_pairs`` as a per-node loop over ``two_hop_candidates`` of the
    mirrored graph."""
    known = t.known_mask()
    train = t.split_mask("train")
    g = mirrored(g)
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


def reference_score_pairs(clf, features, u, v):
    """``score_pairs`` as one forward pass over every pair, each endpoint's
    row projected on its own."""
    return _sigmoid(_forward(clf, features[np.asarray(u)], features[np.asarray(v)])[0])


def reference_final_loss(clf, features, pairs, class_weighting):
    """``train``'s final loss as one forward pass over every training pair."""
    logits = _forward(clf, features[pairs.u], features[pairs.v])[0]
    return _weighted_bce(logits, pairs.labels.astype(np.float64), pair_weights(pairs, class_weighting))


def reference_add_edges(g, scorer, n_max, threshold):
    """``add_edges`` as a per-node loop over ``two_hop_candidates`` of the
    mirrored graph; returns the refined graph (``g``'s edges plus both
    directions of each added pair) and the added ``(active, passive)`` pairs."""
    both = mirrored(g)
    degrees = both.nonself_degrees().astype(np.int64)
    added_adj = [set() for _ in range(g.num_nodes)]
    added = []
    for v in range(g.num_nodes):
        if degrees[v] >= n_max:
            continue
        cand = two_hop_candidates(both, v)
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


def reference_oracle_add_scorer(t, oc):
    """The add-mode ``oracle_scorer`` as one hash per call and a per-candidate
    quota loop; ``t`` must have fully known labels."""
    labels = t.labels

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


def reference_synth(n, c, d, homophily, avg_degree, feature_sep, seed):
    """``synth`` with its edge loop drawing straight from ``rng.integers`` and
    ``rng.random``, one NumPy call per scalar draw."""
    rng = np.random.default_rng(seed)

    labels = np.arange(n, dtype=np.int64) % c
    rng.shuffle(labels)
    members = [np.flatnonzero(labels == cls) for cls in range(c)]

    target_edges = int(round(n * avg_degree / 2.0))
    max_undirected = n * (n - 1) // 2
    target_edges = min(target_edges, max_undirected)
    seen: set[int] = set()
    pairs: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < target_edges:
        attempts += 1
        if attempts > 200 * target_edges + 1000:
            raise RuntimeError("synth: edge sampling failed to place the requested edges")
        u = int(rng.integers(n))
        lab = int(labels[u])
        if rng.random() < homophily:
            pool = members[lab]
        else:
            if c == 1:
                continue
            other = int(rng.integers(c - 1))
            other = other + 1 if other >= lab else other
            pool = members[other]
        w = int(pool[rng.integers(pool.shape[0])])
        if w == u:
            continue
        a, b = (u, w) if u < w else (w, u)
        key = a * n + b
        if key in seen:
            continue
        seen.add(key)
        pairs.append((a, b))
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    both = np.concatenate([arr, arr[:, ::-1]], axis=0) if arr.size else arr
    g = Graph.from_edges(n, both, add_self_loops=True)

    scale = feature_sep / np.sqrt(2.0 * d)
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
