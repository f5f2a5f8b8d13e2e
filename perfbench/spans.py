"""Spans recorded around the public functions of each ``lagraph`` module.

A :class:`Tracer` replaces module attributes with timing wrappers, keeps one
span per call in memory and puts every original back on :meth:`restore`.
Wrappers go on the names the callers look up: ``lagraph.cli`` binds
``train``, ``refine`` and friends with ``from ... import``, so the wrapper
for ``edge_classifier.train`` must replace ``lagraph.cli.train``, not
``lagraph.edge_classifier.train``. Nothing inside the package changes.

:func:`layer_metrics` turns the spans of one CLI invocation into the
per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "cli.run"

# Span tuple layout: (id, name, parent id or -1, start s, end s, seed, counters).
ID, NAME, PARENT, START, END, SEED, COUNTS = range(7)

Measure = Callable[[tuple, dict, object], dict]


def _len_result(args, kwargs, result) -> dict:
    return {"out": len(result)}


def _synth_sizes(args, kwargs, result) -> dict:
    g, _ = result
    return {"nodes": g.num_nodes, "edges": g.num_edges}


def _gather_bytes(args, kwargs, result) -> dict:
    # computed, not measured: gathered rows + index array + output rows, float64/int64
    g = args[0]
    width = result.shape[1] if result.ndim == 2 else 1
    return {"bytes": 8 * (g.num_edges * width + g.num_edges + g.num_nodes * width)}


def _graph_identity() -> Measure:
    """Counts each graph object the first time it is transposed."""
    seen: dict[int, weakref.ref] = {}

    def measure(args, kwargs, result) -> dict:
        g = args[0] if args else kwargs["g"]
        ref = seen.get(id(g))
        if ref is not None and ref() is g:
            return {"distinct": 0}
        seen[id(g)] = weakref.ref(g)
        return {"distinct": 1}

    return measure


def _loss_rows(args, kwargs, result) -> dict:
    pairset = args[2] if len(args) > 2 else kwargs["pairset"]
    idx = args[4] if len(args) > 4 else kwargs.get("idx")
    # train applies the gradient of index batches only; the idx=None pass
    # computes a full-batch gradient just to log the epoch loss
    rows = len(pairset) if idx is None else len(idx)
    return {"rows": rows, "grad_used_rows": 0 if idx is None else rows}


def _train_pairs(args, kwargs, result) -> dict:
    return {"pairs": len(args[0] if args else kwargs["pairset"])}


def _pairs_in(args, kwargs, result) -> dict:
    # score_pairs(clf, features, u, v) and scorer(u, v) both take u before v
    u = args[-2] if len(args) >= 2 else kwargs["u"]
    return {"pairs": len(u)}


def _refine_edges(args, kwargs, result) -> dict:
    _, report = result
    return {"edges_removed": report.edges_removed, "edges_added": report.edges_added}


def _added_pairs(args, kwargs, result) -> dict:
    _, report = result
    return {"added_pairs": int(report.added_pairs.shape[0])}


def _mc_trials(args, kwargs, result) -> dict:
    return {"trials": result.trials}


def _grid_points(args, kwargs, result) -> dict:
    return {"points": (result.filter_points + result.filter_boundary_points
                       + result.add_points + result.add_boundary_points)}


def _draws(args, kwargs, result) -> dict:
    return {"draws": int(result.size)}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``attr`` may be dotted (``Graph.from_edges``) to reach a class attribute.
    ``returns`` names the span of the pair scorer that the wrapped factory
    returns; the scorer is wrapped in turn and its spans count pairs.
    """

    module: str
    attr: str
    span: str
    measure: Measure | None = None
    returns: str | None = None


def targets() -> list[Target]:
    """Every wrapped attribute; fresh per tracer because some counters keep state."""
    transpose_identity = _graph_identity()
    return [
        Target("lagraph.data", "synth", "data.synth", _synth_sizes),
        Target("lagraph.graph", "Graph.from_edges", "graph.from_edges"),
        Target("lagraph.edge_classifier", "two_hop_candidates", "graph.two_hop_candidates", _len_result),
        Target("lagraph.refinement", "two_hop_candidates", "graph.two_hop_candidates", _len_result),
        Target("lagraph.cli", "positive_ratio", "graph.positive_ratio"),
        Target("lagraph.refinement", "positive_ratio", "graph.positive_ratio"),
        Target("lagraph.cli", "edge_input_features", "propagation.edge_input_features"),
        Target("lagraph.refinement", "edge_input_features", "propagation.edge_input_features"),
        Target("lagraph.propagation", "propagate", "propagation.propagate"),
        Target("lagraph.models", "propagate", "propagation.propagate"),
        Target("lagraph.propagation", "gather_sum", "propagation.gather_sum", _gather_bytes),
        Target("lagraph.models", "gather_sum", "propagation.gather_sum", _gather_bytes),
        Target("lagraph.propagation", "transpose", "propagation.transpose", transpose_identity),
        Target("lagraph.models", "transpose", "propagation.transpose", transpose_identity),
        Target("lagraph.cli", "build_pairs", "edge_classifier.build_pairs", _len_result),
        Target("lagraph.cli", "train", "edge_classifier.train", _train_pairs),
        Target("lagraph.edge_classifier", "loss_and_grad", "edge_classifier.loss_and_grad", _loss_rows),
        Target("lagraph.cli", "holdout_pairs", "edge_classifier.holdout_pairs", _len_result),
        Target("lagraph.cli", "evaluate_quality", "edge_classifier.evaluate_quality"),
        Target("lagraph.edge_classifier", "score_pairs", "edge_classifier.score_pairs", _pairs_in),
        Target("lagraph.refinement", "make_scorer", "edge_classifier.make_scorer",
               returns="refinement.scorer"),
        Target("lagraph.cli", "oracle_scorer", "refinement.oracle_scorer", returns="refinement.scorer"),
        Target("lagraph.cli", "refine", "refinement.refine", _refine_edges),
        Target("lagraph.refinement", "filter_edges", "refinement.filter_edges"),
        Target("lagraph.refinement", "add_edges", "refinement.add_edges", _added_pairs),
        Target("lagraph.refinement", "unit_uniform", "hashing.unit_uniform", _draws),
        Target("lagraph.theory", "unit_uniform", "hashing.unit_uniform", _draws),
        Target("lagraph.cli", "sgc_fit", "models.sgc_fit"),
        Target("lagraph.cli", "gcn_fit", "models.gcn_fit"),
        Target("lagraph.models", "sgc_loss_and_grad", "models.sgc_loss_and_grad"),
        Target("lagraph.models", "gcn_loss_and_grad", "models.gcn_loss_and_grad"),
        Target("lagraph.cli", "predict", "models.predict"),
        Target("lagraph.cli", "accuracy", "models.accuracy"),
        Target("lagraph.cli", "check_propositions", "theory.check_propositions", _grid_points),
        Target("lagraph.cli", "mc_aggregate", "theory.mc_aggregate", _mc_trials),
        Target("lagraph.cli", "write_csv", "cli.write_csv"),
    ]


def lookup(target: Target) -> tuple[object, str, object]:
    """The object holding the wrapped attribute, its name, and its current value.

    A class attribute is read from the class ``__dict__``, so a classmethod
    comes back as the descriptor itself.
    """
    holder = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, name, holder.__dict__[name] if isinstance(holder, type) else getattr(holder, name)


class Tracer:
    """Wraps lagraph functions and records one span per call.

    ``seed`` follows the last ``seed=`` keyword seen by a wrapped call
    (``data.synth`` and ``theory.mc_aggregate`` receive one per seed), so
    every span carries the experiment seed it ran under.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.seed: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure: Measure | None = None, returns: str | None = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if isinstance(kwargs.get("seed"), int):
                self.seed = kwargs["seed"]
            span_id, parent, seed = len(spans), stack[-1] if stack else -1, self.seed
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[span_id] = (span_id, name, parent, start, time.perf_counter(), seed, {"raised": 1})
                raise
            end = time.perf_counter()
            stack.pop()
            counts = measure(args, kwargs, result) if measure is not None else None
            spans[span_id] = (span_id, name, parent, start, end, seed, counts)
            if returns is not None:
                result = self.wrap(returns, result, _pairs_in)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every attribute in :func:`targets` with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in targets():
            holder, name, original = lookup(target)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(target.span, original.__func__, target.measure,
                                                    target.returns))
            else:
                replacement = self.wrap(target.span, original, target.measure, target.returns)
            self._saved.append((holder, name, original))
            setattr(holder, name, replacement)

    def restore(self) -> None:
        """Put every original attribute back, in reverse order of installation."""
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON, one ``[id, name, parent, start, end, seed, counts]`` per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "seed", "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def read_spans(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


PER_LAYER: dict[str, str] = {
    "data.synth.calls": "count",
    "data.synth.s": "s",
    "data.nodes": "count",
    "data.edges": "count",
    "graph.two_hop_candidates.calls": "count",
    "graph.two_hop_candidates.s": "s",
    "graph.two_hop_candidates.out": "count",
    "graph.from_edges.calls": "count",
    "graph.from_edges.s": "s",
    "graph.positive_ratio.s": "s",
    "propagation.propagate.calls": "count",
    "propagation.propagate.s": "s",
    "propagation.gather_sum.calls": "count",
    "propagation.gather_sum.s": "s",
    "propagation.gather_sum.bytes": "bytes-computed",
    "propagation.transpose.calls": "count",
    "propagation.transpose.s": "s",
    "propagation.transpose.distinct": "count",
    "propagation.transpose.reuse_ratio": "ratio",
    "edge_classifier.build_pairs.s": "s",
    "edge_classifier.train_pairs": "count",
    "edge_classifier.train.s": "s",
    "edge_classifier.loss_and_grad.calls": "count",
    "edge_classifier.loss_and_grad.s": "s",
    "edge_classifier.loss_and_grad.rows": "count",
    "edge_classifier.grad_used_rows": "count",
    "edge_classifier.grad_used_ratio": "ratio",
    "edge_classifier.holdout_pairs.s": "s",
    "edge_classifier.holdout_pairs": "count",
    "edge_classifier.evaluate_quality.s": "s",
    "edge_classifier.score_pairs.calls": "count",
    "edge_classifier.score_pairs.pairs": "count",
    "edge_classifier.score_pairs.s": "s",
    "refinement.refine.calls": "count",
    "refinement.refine.s": "s",
    "refinement.filter_edges.s": "s",
    "refinement.add_edges.s": "s",
    "refinement.scorer.calls": "count",
    "refinement.scorer.pairs": "count",
    "refinement.scorer.s": "s",
    "refinement.edges_removed": "count",
    "refinement.edges_added": "count",
    "refinement.add_pairs": "count",
    "refinement.add_candidates": "count",
    "refinement.add_accept_ratio": "ratio",
    "models.sgc_fit.calls": "count",
    "models.sgc_fit.s": "s",
    "models.gcn_fit.calls": "count",
    "models.gcn_fit.s": "s",
    "models.sgc_loss_and_grad.s": "s",
    "models.gcn_loss_and_grad.s": "s",
    "models.predict.s": "s",
    "models.epochs": "count",
    "theory.mc_aggregate.calls": "count",
    "theory.mc_aggregate.s": "s",
    "theory.mc_trials": "count",
    "theory.check_propositions.s": "s",
    "theory.grid_points": "count",
    "hashing.unit_uniform.calls": "count",
    "hashing.unit_uniform.s": "s",
    "hashing.unit_uniform.draws": "count",
    "cli.write_csv.s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.covered_s": "s",
    "trace.coverage": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

# ratio metric -> (numerator metric, denominator metric)
RATIOS: dict[str, tuple[str, str]] = {
    "propagation.transpose.reuse_ratio": ("propagation.transpose.distinct", "propagation.transpose.calls"),
    "edge_classifier.grad_used_ratio": ("edge_classifier.grad_used_rows", "edge_classifier.loss_and_grad.rows"),
    "refinement.add_accept_ratio": ("refinement.add_pairs", "refinement.add_candidates"),
    "trace.coverage": ("trace.covered_s", "trace.wall_s"),
    "trace.overhead_ratio": ("trace.wall_s", "trace.untraced_wall_s"),
}

# span name -> {counter key: metric name}
_COUNTERS: dict[str, dict[str, str]] = {
    "data.synth": {"nodes": "data.nodes", "edges": "data.edges"},
    "graph.two_hop_candidates": {"out": "graph.two_hop_candidates.out"},
    "propagation.gather_sum": {"bytes": "propagation.gather_sum.bytes"},
    "propagation.transpose": {"distinct": "propagation.transpose.distinct"},
    "edge_classifier.train": {"pairs": "edge_classifier.train_pairs"},
    "edge_classifier.loss_and_grad": {"rows": "edge_classifier.loss_and_grad.rows",
                                      "grad_used_rows": "edge_classifier.grad_used_rows"},
    "edge_classifier.holdout_pairs": {"out": "edge_classifier.holdout_pairs"},
    "edge_classifier.score_pairs": {"pairs": "edge_classifier.score_pairs.pairs"},
    "refinement.scorer": {"pairs": "refinement.scorer.pairs"},
    "refinement.refine": {"edges_removed": "refinement.edges_removed",
                          "edges_added": "refinement.edges_added"},
    "refinement.add_edges": {"added_pairs": "refinement.add_pairs"},
    "theory.mc_aggregate": {"trials": "theory.mc_trials"},
    "theory.check_propositions": {"points": "theory.grid_points"},
    "hashing.unit_uniform": {"draws": "hashing.unit_uniform.draws"},
}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was counted (the base is reported beside it)."""
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation.

    ``.calls`` counts spans, ``.s`` sums self time (span time minus the time
    of its direct child spans), and counters are summed over spans. The root
    span wraps the experiment function; time under it that no layer span
    covers is ``cli.self_s``.
    """
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + (s[END] - s[START])
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    metrics = {name: 0.0 for name in PER_LAYER}
    for s in spans:
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (s[END] - s[START]) - child_time.get(s[ID], 0.0)
        for key, metric in _COUNTERS.get(name, {}).items():
            if s[COUNTS] and key in s[COUNTS]:
                metrics[metric] += s[COUNTS][key]
        if name == "refinement.scorer" and s[PARENT] >= 0 and by_id[s[PARENT]][NAME] == "refinement.add_edges":
            metrics["refinement.add_candidates"] += s[COUNTS]["pairs"] if s[COUNTS] else 0
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = float(calls.get(base, 0))
        elif kind == "s" and base in calls:
            metrics[metric] = self_s[base]
    metrics["models.epochs"] = float(calls.get("models.sgc_loss_and_grad", 0)
                                     + calls.get("models.gcn_loss_and_grad", 0))

    roots = [s for s in spans if s[NAME] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root = roots[0]
    wall = root[END] - root[START]
    metrics["trace.wall_s"] = wall
    metrics["trace.covered_s"] = child_time.get(root[ID], 0.0)
    metrics["cli.self_s"] = wall - metrics["trace.covered_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    for name, (num, den) in RATIOS.items():
        metrics[name] = ratio(metrics[num], metrics[den])
    return metrics
