"""Same-label edge classifier.

Scores a node pair with a learned projection followed by a small MLP over
symmetric pair features: the elementwise absolute difference, sum, and
product of the two projected embeddings. Trained with class-weighted binary
cross-entropy by mini-batch gradient descent; all gradients are derived and
implemented here by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, NodeTable, two_hop_blocks
# bound for the benchmark tracer (perfbench/spans.py wraps this module's name); unused here
from .graph import two_hop_candidates  # noqa: F401

ONE_HOP, TWO_HOP, SAMPLED = 0, 1, 2

# pairs per block of every pass over pairs (scoring, train's final loss): the head holds
# 9 * proj_dim float64 a pair, 1.2 MB a block at the CLI's proj_dim 16, inside a 2 MB L2;
# held-out scoring at n = 16000 ran fastest at 512-1,024, 1.2-1.8x slower at 1,536-16,384
SCORE_BLOCK = 1_024


@dataclass(frozen=True)
class PairSet:
    """Node pairs with same-label targets, 10 bytes a pair.

    ``u`` and ``v`` hold int32 node ids. ``labels`` (int8) is 1 where the
    endpoints share a class. ``provenance`` (int8) tags each pair as ONE_HOP,
    TWO_HOP, or SAMPLED. Every value is checked before it is narrowed.
    """

    u: np.ndarray
    v: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        u = _narrow(self.u, np.int32, 0, np.iinfo(np.int32).max, "pair node ids")
        v = _narrow(self.v, np.int32, 0, np.iinfo(np.int32).max, "pair node ids")
        labels = _narrow(self.labels, np.int8, 0, 1, "pair labels")
        prov = _narrow(self.provenance, np.int8, ONE_HOP, SAMPLED, "pair provenance")
        if not (u.shape == v.shape == labels.shape == prov.shape):
            raise ValueError("pair arrays must share one shape")
        if np.any(u == v):
            raise ValueError("self pairs are not allowed")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", prov)

    def __len__(self) -> int:
        return int(self.u.shape[0])


def _narrow(values, dtype, lo: int, hi: int, what: str) -> np.ndarray:
    """``values`` as ``dtype``, checked first: each must be an integer in ``[lo, hi]``."""
    a = np.asarray(values)
    if ((a >= lo) & (a <= hi)).all():
        out = a.astype(dtype, copy=False)
        if (out == a).all():
            return out
    raise ValueError(f"{what} must be integers in [{lo}, {hi}]")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for edge classifier training.

    ``epochs`` is a fixed budget with no stopping rule. The loss settles
    within a few epochs and then bounces, and a long budget lets momentum
    carry a gradient spike to a divergence."""

    proj_dim: int = 64
    hidden_widths: tuple[int, ...] = (32,)
    learning_rate: float = 0.1
    momentum: float = 0.9
    # seeds failing the benchmark's quality gate at 5/10/20/40/100 epochs, of 220 (CLI pipeline
    # n = 1000 and 16000, GCN ablation n = 2000): 1/1/2/3/9, 6 of the 9 diverged; fewest, then shortest
    epochs: int = 5
    batch_size: int = 256
    seed: int = 0
    class_weighting: str = "balanced"  # or "none"
    include_two_hop: bool = True
    num_sampled: int = 0

    def __post_init__(self):
        if self.proj_dim < 1:
            raise ValueError("proj_dim must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.num_sampled < 0:
            raise ValueError("num_sampled must be >= 0")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.class_weighting not in ("balanced", "none"):
            raise ValueError("class_weighting must be 'balanced' or 'none'")


@dataclass
class EdgeClassifier:
    """Trained pair scorer: projection matrix plus MLP layers.

    ``layers`` lists ``(W, b)`` pairs; every layer but the last is followed
    by ReLU, the last maps to a single logit.
    ``loss_history[e]`` is epoch e's mean batch loss, each batch weighted by
    its pair count and taken before that batch's step.
    ``final_loss`` is the full-batch loss of the trained parameters.
    """

    proj: np.ndarray
    layers: list[tuple[np.ndarray, np.ndarray]]
    final_loss: float = float("nan")
    loss_history: np.ndarray = field(default_factory=lambda: np.zeros(0))


def build_pairs(g: Graph, t: NodeTable, cfg: TrainConfig) -> PairSet:
    """Training pairs among train-split nodes.

    Takes every non-self edge with both endpoints in train, plus (when
    ``cfg.include_two_hop``) every train-train pair at distance exactly two.
    With ``cfg.num_sampled`` > 0, augments them with up to that many uniformly
    sampled train-train pairs not already present (fewer when the pool runs
    out). Each unordered pair appears once; labels compare node classes.
    """
    train = t.split_mask("train") & t.known_mask()
    u, v, labels, prov = _structural_pairs(g, t.labels, cfg.include_two_hop, lambda a, b: train[a] & train[b])
    if cfg.num_sampled > 0:
        su, sv = _sample_pairs(np.flatnonzero(train), u, v, cfg.num_sampled, cfg.seed)
        u = np.concatenate([u, su])
        v = np.concatenate([v, sv])
        labels = np.concatenate([labels, (t.labels[su] == t.labels[sv]).view(np.int8)])
        prov = np.concatenate([prov, np.full(su.shape[0], SAMPLED, dtype=np.int8)])
    if u.size == 0:
        raise ValueError("no eligible training pairs (need train-train edges)")
    return PairSet(u=u, v=v, labels=labels, provenance=prov)


def _structural_pairs(g: Graph, labels: np.ndarray, include_two_hop: bool, eligible) -> tuple[np.ndarray, ...]:
    """``(u, v, same, provenance)`` of the pairs ``u < v`` that ``eligible(u, v)``
    keeps: those joined by an edge, then (with ``include_two_hop``) those at
    distance exactly two, each part ordered by u, then v, and kept and labeled
    (``same`` where ``labels`` match) block by block. Both read
    :meth:`Graph.both_ways`, so an edge joins its pair whichever way it is stored."""
    def blocks(g):  # a generator, so neither a block nor the mirror outlives its turn
        yield g.edge_sources(), g.col_targets
        yield from two_hop_blocks(g) if include_two_hop else ()  # no name here keeps a block alive

    columns = [[], [], [], []]
    for a, b in blocks(g.both_ways()):
        tag = TWO_HOP if columns[0] else ONE_HOP  # the edges come first
        keep = (a < b) & eligible(a, b)
        a, b = a[keep].astype(np.int32, copy=False), b[keep].astype(np.int32, copy=False)
        parts = a, b, (labels[a] == labels[b]).view(np.int8), np.full(a.size, tag, np.int8)
        for column, part in zip(columns, parts):
            column.append(part)
    # a column's parts go once it is joined, so at most one column is held twice
    return tuple(np.concatenate(columns.pop(0)) for _ in range(4))


def _sample_pairs(train_ids: np.ndarray, used_u: np.ndarray, used_v: np.ndarray,
                  count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform unordered train-train pairs, excluding self and ``used`` pairs
    (each ``used_u < used_v``, both in ``train_ids``, which is ascending)."""
    n_train = train_ids.size
    total = n_train * (n_train - 1) // 2
    seen = np.unique(np.searchsorted(train_ids, used_u) * n_train + np.searchsorted(train_ids, used_v))
    budget = min(count, total - seen.size)
    rng = np.random.default_rng(seed + 2)
    chosen = np.zeros(0, dtype=np.int64)  # keys lo * n_train + hi of train_ids positions
    # rejection rounds; each draws a batch so the common case needs one pass
    while chosen.size < budget:
        draw = rng.integers(0, n_train, size=(2 * (budget - chosen.size) + 8, 2))
        lo, hi = draw.min(axis=1), draw.max(axis=1)
        keys = (lo * n_train + hi)[lo != hi]
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]  # first draw of each, in draw order
        keys = keys[~np.isin(keys, seen)][:budget - chosen.size]
        chosen, seen = np.concatenate([chosen, keys]), np.concatenate([seen, keys])
    return train_ids[chosen // n_train], train_ids[chosen % n_train]  # chosen is empty when n_train is 0


def holdout_pairs(g: Graph, t: NodeTable, include_two_hop: bool = True) -> PairSet:
    """Labeled pairs at distance <= 2 with at least one non-train endpoint."""
    known = t.known_mask()
    train = t.split_mask("train")
    u, v, labels, prov = _structural_pairs(g, t.labels, include_two_hop,
                                           lambda a, b: known[a] & known[b] & ~(train[a] & train[b]))
    if u.size == 0:
        raise ValueError("no eligible held-out pairs")
    return PairSet(u=u, v=v, labels=labels, provenance=prov)


def init_classifier(feature_dim: int, cfg: TrainConfig) -> EdgeClassifier:
    """Seeded init: every matrix is uniform on +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(cfg.seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    proj = uniform(feature_dim, (feature_dim, cfg.proj_dim))
    widths = [3 * cfg.proj_dim, *cfg.hidden_widths, 1]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        layers.append((uniform(fan_in, (fan_in, fan_out)), np.zeros(fan_out)))
    return EdgeClassifier(proj=proj, layers=layers)


def _head(clf: EdgeClassifier, eu: np.ndarray, ev: np.ndarray):
    """Logits of the MLP over the pair features of projected embeddings.

    Returns ``(logits, (diff, pre_acts, hiddens))``; the second item holds
    what backprop reads.
    """
    diff = eu - ev
    z = np.concatenate([np.abs(diff), eu + ev, eu * ev], axis=1)
    h = z
    pre_acts = []
    hiddens = [z]
    for W, b in clf.layers[:-1]:
        s = h @ W + b
        pre_acts.append(s)
        h = np.maximum(s, 0.0)
        hiddens.append(h)
    W_out, b_out = clf.layers[-1]
    logits = (h @ W_out + b_out)[:, 0]
    return logits, (diff, pre_acts, hiddens)


def _forward(clf: EdgeClassifier, xu: np.ndarray, xv: np.ndarray):
    eu = xu @ clf.proj
    ev = xv @ clf.proj
    logits, (diff, pre_acts, hiddens) = _head(clf, eu, ev)
    return logits, (eu, ev, np.sign(diff), pre_acts, hiddens)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    # exp(-logit) overflows to inf below about -709, where 1/(1+inf) is the exact limit 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


def pair_weights(pairset: PairSet, class_weighting: str) -> np.ndarray:
    """Per-pair loss weights; 'balanced' equalizes the two class masses."""
    n = len(pairset)
    w = np.ones(n)
    if class_weighting == "balanced":
        pos = int(pairset.labels.sum())
        neg = n - pos
        if pos == 0 or neg == 0:
            raise ValueError("balanced weighting needs both pair classes present")
        w = np.where(pairset.labels == 1, n / (2.0 * pos), n / (2.0 * neg))
    return w


def _weighted_bce(logits: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    # bce via logits: softplus(o) - y*o
    w_bce = w * (np.logaddexp(0.0, logits) - y * logits)
    return float(w_bce.sum() / w_bce.shape[0])


def loss_and_grad(clf: EdgeClassifier, features: np.ndarray, pairset: PairSet,
                  weights: np.ndarray, idx: np.ndarray | None = None):
    """Weighted BCE over the (sub)batch and its gradient in every parameter.

    Returns ``(loss, grad_proj, grad_layers)`` where ``grad_layers`` mirrors
    ``clf.layers``. The loss is the weighted mean over the selected pairs.
    """
    if idx is None:
        idx = np.arange(len(pairset))
    u = pairset.u[idx]
    v = pairset.v[idx]
    y = pairset.labels[idx].astype(np.float64)
    w = weights[idx]
    xu = features[u]
    xv = features[v]
    logits, (eu, ev, sgn, pre_acts, hiddens) = _forward(clf, xu, xv)
    batch = float(idx.shape[0])
    loss = _weighted_bce(logits, y, w)
    probs = _sigmoid(logits)
    delta = (w * (probs - y) / batch)[:, None]

    grad_layers: list[tuple[np.ndarray, np.ndarray]] = [None] * len(clf.layers)
    W_out, _ = clf.layers[-1]
    grad_layers[-1] = (hiddens[-1].T @ delta, delta.sum(axis=0))
    gh = delta @ W_out.T
    for i in range(len(clf.layers) - 2, -1, -1):
        gs = gh * (pre_acts[i] > 0.0)
        grad_layers[i] = (hiddens[i].T @ gs, gs.sum(axis=0))
        gh = gs @ clf.layers[i][0].T
    p = clf.proj.shape[1]
    g_abs, g_sum, g_prod = gh[:, :p], gh[:, p:2 * p], gh[:, 2 * p:]
    g_eu = g_abs * sgn + g_sum + g_prod * ev
    g_ev = -g_abs * sgn + g_sum + g_prod * eu
    grad_proj = xu.T @ g_eu + xv.T @ g_ev
    return loss, grad_proj, grad_layers


def train(pairset: PairSet, features: np.ndarray, cfg: TrainConfig = TrainConfig()) -> EdgeClassifier:
    """Fit the classifier on a pair set over the given node features.

    Mini-batch gradient descent with optional momentum; per-epoch order is
    drawn from the seeded generator, so identical configs reproduce the
    trained parameters bit for bit. Raises on a single-class pair set and
    aborts with diagnostics, the largest feature and parameter magnitudes
    among them, if a batch loss goes non-finite.
    """
    if len(pairset) == 0:
        raise ValueError("empty pair set")
    if np.unique(pairset.labels).shape[0] < 2:
        raise ValueError("pair set holds a single class; cannot train a discriminator")
    features = np.asarray(features, dtype=np.float64)
    clf = init_classifier(features.shape[1], cfg)
    weights = pair_weights(pairset, cfg.class_weighting)
    rng = np.random.default_rng(cfg.seed + 1)
    n = len(pairset)
    batch = min(cfg.batch_size, n)

    params = [clf.proj, *(a for layer in clf.layers for a in layer)]
    vels = [np.zeros_like(p) for p in params]
    history = []
    # an overflow makes a batch loss non-finite (by the next batch, or the
    # final loss, at the latest), which the checks report; numpy's warnings
    # would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch):
                idx = perm[start:start + batch]
                loss, g_proj, g_layers = loss_and_grad(clf, features, pairset, weights, idx)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged: non-finite loss at epoch {epoch}, "
                        f"batch offset {start} (lr={cfg.learning_rate}, "
                        f"largest |feature| {np.abs(features).max():.3g}, "
                        f"largest |parameter| {np.abs(np.concatenate(params, axis=None)).max():.3g})")
                total += loss * idx.shape[0]
                for p, vel, grad in zip(params, vels, [g_proj, *(g for layer in g_layers for g in layer)]):
                    vel *= cfg.momentum
                    vel -= cfg.learning_rate * grad
                    p += vel
            history.append(total / n)
        logits = np.empty(n)
        for start in range(0, n, SCORE_BLOCK):
            block = slice(start, start + SCORE_BLOCK)
            logits[block] = _forward(clf, features[pairset.u[block]], features[pairset.v[block]])[0]
        clf.final_loss = _weighted_bce(logits, pairset.labels.astype(np.float64), weights)
    if not np.isfinite(clf.final_loss):
        raise RuntimeError(f"training diverged: non-finite loss after the last step (lr={cfg.learning_rate})")
    clf.loss_history = np.asarray(history)
    return clf


def score_pairs(clf: EdgeClassifier, features: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Probability that each pair ``(u[i], v[i])`` is same-label; symmetric
    in ``u`` and ``v``. The one-call form of :func:`make_scorer`."""
    return make_scorer(clf, features)(u, v)


def make_scorer(clf: EdgeClassifier, features: np.ndarray):
    """Adapt a classifier to the vectorized pair-scorer callable; every node
    is projected once, here, not on each call. The scorer runs the head over
    ``SCORE_BLOCK`` pairs at a time so memory does not grow with the pair count."""
    emb = np.asarray(features, dtype=np.float64) @ clf.proj

    def scorer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u, v = np.asarray(u), np.asarray(v)
        out = np.empty(u.shape[0])
        for start in range(0, u.shape[0], SCORE_BLOCK):
            stop = start + SCORE_BLOCK
            # the backprop cache is dropped at once, not kept into the next block
            out[start:stop] = _sigmoid(_head(clf, emb[u[start:stop]], emb[v[start:stop]])[0])
        return out

    return scorer


@dataclass(frozen=True)
class ClassifierQuality:
    """Confusion-derived rates at a fixed threshold.

    ``p`` is the true positive rate, ``q`` the false positive rate, and
    ``p_pre`` the precision among predicted positives. Undefined cells are
    NaN, never silent zeros; raw counts are always present.
    """

    p: float
    q: float
    p_pre: float
    tp: int
    fp: int
    fn: int
    tn: int


def quality_from_counts(tp: int, fp: int, fn: int, tn: int) -> ClassifierQuality:
    pos = tp + fn
    neg = fp + tn
    pred_pos = tp + fp
    p = tp / pos if pos else float("nan")
    q = fp / neg if neg else float("nan")
    p_pre = tp / pred_pos if pred_pos else float("nan")
    return ClassifierQuality(p=p, q=q, p_pre=p_pre, tp=tp, fp=fp, fn=fn, tn=tn)


def pair_quality(predicted: np.ndarray, same: np.ndarray) -> ClassifierQuality:
    """Confusion rates of boolean pair predictions against same-label truth."""
    tp = int(np.count_nonzero(predicted & same))
    pred_pos, pos = int(np.count_nonzero(predicted)), int(np.count_nonzero(same))
    return quality_from_counts(tp, pred_pos - tp, pos - tp, predicted.shape[0] - pred_pos - pos + tp)


def evaluate_quality(clf: EdgeClassifier, labeled_pairs: PairSet, features: np.ndarray,
                     threshold: float) -> ClassifierQuality:
    """Confusion rates of the classifier on labeled pairs, a pair predicted
    same-label when it scores at or above ``threshold``; counted 64 blocks of
    ``SCORE_BLOCK`` at a time, each pair scored in the block one call would use."""
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, len(labeled_pairs), 64 * SCORE_BLOCK):
        part = slice(start, start + 64 * SCORE_BLOCK)
        q = pair_quality(score_pairs(clf, features, labeled_pairs.u[part], labeled_pairs.v[part]) >= threshold,
                         labeled_pairs.labels[part] == 1)
        counts += (q.tp, q.fp, q.fn, q.tn)
    return quality_from_counts(*counts.tolist())
