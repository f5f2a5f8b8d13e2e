"""Node classifiers trained on the (possibly refined) graph.

Two architectures: a linear softmax layer over k-step propagated features,
and a two-layer network that aggregates, transforms with ReLU, aggregates
again, and classifies. Both train full-batch with plain gradient descent,
cross-entropy loss on the train split, and L2 weight decay on the weight
matrices; gradients are hand-derived, including the transpose-aggregation
step the two-layer model needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeTable
from .propagation import NORMS, PropagationConfig, gather_sum, propagate, transpose


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.2
    epochs: int = 200
    weight_decay: float = 5e-5
    hidden_width: int = 16
    seed: int = 0
    norm: str = "row-mean"
    early_stop: bool = False
    patience: int = 30

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class SgcModel:
    weights: np.ndarray
    bias: np.ndarray
    k: int
    norm: str = "row-mean"


@dataclass
class GcnModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    norm: str = "row-mean"


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(y.shape[0]), y]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _train_targets(t: NodeTable) -> tuple[np.ndarray, np.ndarray]:
    idx = np.flatnonzero(t.split_mask("train") & t.known_mask())
    if idx.size == 0:
        raise ValueError("no labeled train nodes")
    return idx, t.labels[idx]


def sgc_loss_and_grad(model: SgcModel, z_train: np.ndarray, y_train: np.ndarray,
                      weight_decay: float):
    """Cross-entropy (+ L2 on weights) and its gradient for the linear model."""
    n = y_train.shape[0]
    logits = z_train @ model.weights + model.bias
    probs = _softmax(logits)
    loss = _cross_entropy(probs, y_train) + 0.5 * weight_decay * float(np.sum(model.weights ** 2))
    delta = probs.copy()
    delta[np.arange(n), y_train] -= 1.0
    delta /= n
    grad_w = z_train.T @ delta + weight_decay * model.weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def _val_accuracy(pred_fn, t: NodeTable) -> float:
    mask = t.split_mask("val") & t.known_mask()
    if not np.any(mask):
        raise ValueError("early stopping needs a labeled val split")
    pred = pred_fn()
    return float(np.mean(pred[mask] == t.labels[mask]))


def sgc_fit(g: Graph, t: NodeTable, cfg: FitConfig = FitConfig(), k: int = 2) -> SgcModel:
    """Fit the linear model on k-step propagated features.

    Deterministic given ``cfg.seed``; propagation is computed once up front.
    """
    z = propagate(g, t.features, PropagationConfig(k=k, norm=cfg.norm))
    idx, y = _train_targets(t)
    z_train = z[idx]
    rng = np.random.default_rng(cfg.seed)
    d = t.feature_dim
    model = SgcModel(weights=_uniform_init(rng, d, (d, t.num_classes)),
                     bias=np.zeros(t.num_classes), k=k, norm=cfg.norm)
    best = None
    best_acc = -1.0
    stale = 0
    for _ in range(cfg.epochs):
        loss, grad_w, grad_b = sgc_loss_and_grad(model, z_train, y, cfg.weight_decay)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: non-finite loss (lr={cfg.learning_rate})")
        model.weights = model.weights - cfg.learning_rate * grad_w
        model.bias = model.bias - cfg.learning_rate * grad_b
        if cfg.early_stop:
            acc = _val_accuracy(lambda: np.argmax(z @ model.weights + model.bias, axis=1), t)
            if acc > best_acc:
                best_acc = acc
                best = (model.weights.copy(), model.bias.copy())
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if cfg.early_stop and best is not None:
        model.weights, model.bias = best
    return model


def _aggregators(g: Graph, norm: str):
    deg = g.out_degrees().astype(np.float64)
    gt = transpose(g)
    if norm == "row-mean":

        def agg(x):
            return gather_sum(g, x) / deg[:, None]

        def agg_t(x):
            return gather_sum(gt, x / deg[:, None])

    else:
        scale = 1.0 / np.sqrt(deg)

        def agg(x):
            return scale[:, None] * gather_sum(g, x * scale[:, None])

        def agg_t(x):
            return scale[:, None] * gather_sum(gt, x * scale[:, None])

    return agg, agg_t


def gcn_forward(model: GcnModel, g: Graph, x: np.ndarray) -> np.ndarray:
    """Logits of the two-layer model for every node."""
    agg, _ = _aggregators(g, model.norm)
    h = np.maximum(agg(x) @ model.w1 + model.b1, 0.0)
    return agg(h) @ model.w2 + model.b2


def gcn_loss_and_grad(model: GcnModel, g: Graph, t: NodeTable, weight_decay: float):
    """Loss and parameter gradients; backprop crosses both aggregation steps
    via the transposed operator."""
    agg, agg_t = _aggregators(g, model.norm)
    idx, y = _train_targets(t)
    n = idx.shape[0]
    a1 = agg(t.features)
    s1 = a1 @ model.w1 + model.b1
    h1 = np.maximum(s1, 0.0)
    a2 = agg(h1)
    logits = a2 @ model.w2 + model.b2
    probs = _softmax(logits[idx])
    loss = _cross_entropy(probs, y)
    loss += 0.5 * weight_decay * float(np.sum(model.w1 ** 2) + np.sum(model.w2 ** 2))

    g_logits = np.zeros_like(logits)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    g_logits[idx] = delta / n
    grad_w2 = a2.T @ g_logits + weight_decay * model.w2
    grad_b2 = g_logits.sum(axis=0)
    g_h1 = agg_t(g_logits @ model.w2.T)
    g_s1 = g_h1 * (s1 > 0.0)
    grad_w1 = a1.T @ g_s1 + weight_decay * model.w1
    grad_b1 = g_s1.sum(axis=0)
    return loss, grad_w1, grad_b1, grad_w2, grad_b2


def gcn_fit(g: Graph, t: NodeTable, cfg: FitConfig = FitConfig(learning_rate=0.05)) -> GcnModel:
    """Fit the two-layer model full-batch; deterministic given ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    d, h, c = t.feature_dim, cfg.hidden_width, t.num_classes
    model = GcnModel(w1=_uniform_init(rng, d, (d, h)), b1=np.zeros(h),
                     w2=_uniform_init(rng, h, (h, c)), b2=np.zeros(c), norm=cfg.norm)
    best = None
    best_acc = -1.0
    stale = 0
    for _ in range(cfg.epochs):
        loss, gw1, gb1, gw2, gb2 = gcn_loss_and_grad(model, g, t, cfg.weight_decay)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: non-finite loss (lr={cfg.learning_rate})")
        model.w1 = model.w1 - cfg.learning_rate * gw1
        model.b1 = model.b1 - cfg.learning_rate * gb1
        model.w2 = model.w2 - cfg.learning_rate * gw2
        model.b2 = model.b2 - cfg.learning_rate * gb2
        if cfg.early_stop:
            acc = _val_accuracy(lambda: np.argmax(gcn_forward(model, g, t.features), axis=1), t)
            if acc > best_acc:
                best_acc = acc
                best = (model.w1.copy(), model.b1.copy(), model.w2.copy(), model.b2.copy())
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if cfg.early_stop and best is not None:
        model.w1, model.b1, model.w2, model.b2 = best
    return model


def predict(model, g: Graph, t: NodeTable) -> np.ndarray:
    """Predicted class per node; ties resolve to the lowest class id."""
    if isinstance(model, SgcModel):
        z = propagate(g, t.features, PropagationConfig(k=model.k, norm=model.norm))
        logits = z @ model.weights + model.bias
    elif isinstance(model, GcnModel):
        logits = gcn_forward(model, g, t.features)
    else:
        raise TypeError("model must be SgcModel or GcnModel")
    # argmax returns the first (lowest) index among ties
    return np.argmax(logits, axis=1).astype(np.int64)


def accuracy(pred: np.ndarray, t: NodeTable, split: str) -> float:
    """Fraction correct over the labeled nodes of a split."""
    pred = np.asarray(pred, dtype=np.int64)
    if pred.shape != t.labels.shape:
        raise ValueError("prediction length must match node count")
    mask = t.split_mask(split) & t.known_mask()
    if not np.any(mask):
        raise ValueError(f"split {split!r} has no labeled nodes")
    return float(np.mean(pred[mask] == t.labels[mask]))
