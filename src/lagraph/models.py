"""Node classifiers trained on the (possibly refined) graph.

Two architectures: a linear softmax layer over k-step propagated features,
and a two-layer network that aggregates, transforms with ReLU, aggregates
again, and classifies. Both train full-batch with plain gradient descent,
cross-entropy loss on the train split, and L2 weight decay on the weight
matrices; gradients are hand-derived. The two-layer model's epochs run the
second aggregation, and backprop through its adjoint, for the labeled train
rows only, the only logits the loss reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph, NodeTable
from .propagation import NORMS, PropagationConfig, _check_inputs, aggregation, propagate
# bound for the benchmark tracer (perfbench/spans.py wraps this module's names); unused here
from .propagation import gather_sum, transpose  # noqa: F401


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


def _descend(model, fields: tuple[str, ...], t: NodeTable, cfg: FitConfig, loss_and_grad, logits):
    """Full-batch gradient descent on the named ``fields`` of ``model``.

    ``loss_and_grad()`` returns the loss and one gradient per field. With
    ``cfg.early_stop``, training stops after ``cfg.patience`` epochs without
    a gain in the val accuracy of ``logits()``, and the best epoch's fields
    are restored.
    """
    val = t.split_mask("val") & t.known_mask()
    best = None
    best_acc = -1.0
    stale = 0
    for _ in range(cfg.epochs):
        # an overflowing step makes the next loss (or predict's logits) non-finite, which raises
        with np.errstate(over="ignore", invalid="ignore"):
            loss, *grads = loss_and_grad()
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss (lr={cfg.learning_rate})")
            for name, grad in zip(fields, grads):
                setattr(model, name, getattr(model, name) - cfg.learning_rate * grad)
        if cfg.early_stop:
            if not np.any(val):
                raise ValueError("early stopping needs a labeled val split")
            acc = float(np.mean(np.argmax(logits(), axis=1)[val] == t.labels[val]))
            if acc > best_acc:
                best_acc = acc
                best = [getattr(model, name).copy() for name in fields]
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if best is not None:
        for name, value in zip(fields, best):
            setattr(model, name, value)
    return model


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
    return _descend(model, ("weights", "bias"), t, cfg,
                    lambda: sgc_loss_and_grad(model, z_train, y, cfg.weight_decay),
                    lambda: z @ model.weights + model.bias)


@dataclass(frozen=True)
class _GcnInputs:
    """What every epoch of one fit shares: the aggregation step, that step
    restricted to the labeled train nodes and its adjoint, those nodes and
    their labels, the first-layer aggregate of the features, and ``work``."""

    agg: Callable[[np.ndarray], np.ndarray]
    agg_train: Callable[[np.ndarray], np.ndarray]
    agg_train_t: Callable[[np.ndarray], np.ndarray]
    idx: np.ndarray
    y: np.ndarray
    a1: np.ndarray
    # written over by each epoch, not allocated: s1, relu(s1) and a2 (n, h),
    # and the logits' gradient (n, c); the last two are zero off the train rows
    work: tuple[np.ndarray, ...]


def _gcn_inputs(g: Graph, t: NodeTable, norm: str, h: int) -> _GcnInputs:
    agg, _ = aggregation(g, norm)
    a1 = agg(_check_inputs(g, t.features))  # before ``rows=`` indexes the adjacency by node id
    idx, y = _train_targets(t)
    n = g.num_nodes
    # work last, so the restricted step's temporaries are freed before it is allocated
    return _GcnInputs(agg, *aggregation(g, norm, rows=idx), idx, y, a1,
                      (*np.zeros((3, n, h)), np.zeros((n, t.num_classes))))


def _gcn_logits(model: GcnModel, agg, a1: np.ndarray) -> np.ndarray:
    """Logits of every node, given the first-layer aggregate ``a1``."""
    return agg(np.maximum(a1 @ model.w1 + model.b1, 0.0)) @ model.w2 + model.b2


def gcn_forward(model: GcnModel, g: Graph, x: np.ndarray) -> np.ndarray:
    """Logits of the two-layer model for every node."""
    agg, _ = aggregation(g, model.norm)
    return _gcn_logits(model, agg, agg(_check_inputs(g, x)))


def gcn_loss_and_grad(model: GcnModel, g: Graph, t: NodeTable, weight_decay: float,
                      _inputs: _GcnInputs | None = None):
    """Loss and parameter gradients.

    The loss reads only the labeled train rows' logits, so the second
    aggregation and its adjoint run over those rows alone. Their logits
    product, and the ``w2`` gradient's reduction over rows, still run at n
    rows, zero elsewhere: BLAS can round a row, or order a sum, differently
    at another row count, and these must match the full-row pass to the bit
    on any kernel.

    ``_inputs`` is what :func:`gcn_fit` prepares once per fit; without it
    they are derived from ``g``, ``t`` and ``model.norm`` on every call.
    """
    inputs = _gcn_inputs(g, t, model.norm, model.w1.shape[1]) if _inputs is None else _inputs
    idx, y, a1 = inputs.idx, inputs.y, inputs.a1
    s1, h1, full, g_full = inputs.work  # full and g_full stay zero off the train rows
    m = idx.shape[0]
    np.matmul(a1, model.w1, out=s1)
    s1 += model.b1
    a2 = inputs.agg_train(np.maximum(s1, 0.0, out=h1))
    full[idx] = a2
    probs = _softmax((full @ model.w2)[idx] + model.b2)
    loss = _cross_entropy(probs, y)
    loss += 0.5 * weight_decay * float(np.sum(model.w1 ** 2) + np.sum(model.w2 ** 2))

    delta = probs
    delta[np.arange(m), y] -= 1.0
    delta /= m
    g_full[idx] = delta
    grad_w2 = full.T @ g_full + weight_decay * model.w2
    grad_b2 = delta.sum(axis=0)
    g_h1 = inputs.agg_train_t(delta @ model.w2.T)
    g_s1 = np.multiply(g_h1, s1 > 0.0, out=g_h1)
    grad_w1 = a1.T @ g_s1 + weight_decay * model.w1
    grad_b1 = g_s1.sum(axis=0)
    return loss, grad_w1, grad_b1, grad_w2, grad_b2


def gcn_fit(g: Graph, t: NodeTable, cfg: FitConfig = FitConfig(learning_rate=0.05)) -> GcnModel:
    """Fit the two-layer model full-batch; deterministic given ``cfg.seed``.

    The aggregation step, its restriction to the train nodes and that
    restriction's adjoint (one transpose of ``g``), the train targets and the
    first-layer aggregate are built once and shared by every epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    d, h, c = t.feature_dim, cfg.hidden_width, t.num_classes
    model = GcnModel(w1=_uniform_init(rng, d, (d, h)), b1=np.zeros(h),
                     w2=_uniform_init(rng, h, (h, c)), b2=np.zeros(c), norm=cfg.norm)
    inputs = _gcn_inputs(g, t, cfg.norm, h)
    return _descend(model, ("w1", "b1", "w2", "b2"), t, cfg,
                    lambda: gcn_loss_and_grad(model, g, t, cfg.weight_decay, _inputs=inputs),
                    lambda: _gcn_logits(model, inputs.agg, inputs.a1))


def predict(model, g: Graph, t: NodeTable) -> np.ndarray:
    """Predicted class per node; ties resolve to the lowest class id. Raises
    when a logit is not finite, as after a last step that diverged."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite logits raise below
        if isinstance(model, SgcModel):
            z = propagate(g, t.features, PropagationConfig(k=model.k, norm=model.norm))
            logits = z @ model.weights + model.bias
        elif isinstance(model, GcnModel):
            logits = gcn_forward(model, g, t.features)
        else:
            raise TypeError("model must be SgcModel or GcnModel")
    if not np.isfinite(logits).all():
        raise RuntimeError("training diverged: non-finite logits")
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
