"""Experiment driver.

Subcommands: ``pipeline`` (baseline vs refined-graph model), ``ablation``
(filter/add arms), ``sweep`` (oracle scorer quality grids), ``degrade``
(lower homophily first), ``theory`` (closed-form checks plus Monte Carlo
sweep), and ``synth`` (emit a generated dataset as TSV).

All commands read a JSON config, apply flag overrides, and emit CSV with a
fixed schema plus a config-hash column. Given one config and seed list the
metrics CSV bytes are identical across reruns; wall-clock timings go to a
separate ``*_timings.csv`` sidecar that carries no such guarantee.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import data
from .edge_classifier import (
    TrainConfig,
    build_pairs,
    evaluate_quality,
    holdout_pairs,
    train,
)
from .graph import Graph, NodeTable, positive_ratio
from .models import FitConfig, accuracy, gcn_fit, predict, sgc_fit
from .propagation import EdgeFeatureConfig, PropagationConfig, edge_input_features
from .refinement import OracleClassifier, RefinementConfig, oracle_scorer, refine
from .theory import (
    GaussianMixtureParams,
    NeighborhoodSpec,
    check_propositions,
    e_add,
    e_filter,
    e_origin,
    mc_aggregate,
)

METRICS_HEADER = ("experiment", "arm", "seed", "ratio_before", "ratio_after",
                  "p", "q", "p_pre", "acc_train", "acc_val", "acc_test", "config_hash")
TIMINGS_HEADER = ("experiment", "arm", "seed", "wall_ms", "config_hash")
NUMERIC_COLUMNS = ("ratio_before", "ratio_after", "p", "q", "p_pre",
                   "acc_train", "acc_val", "acc_test")

OUTPUT_DIR_ENV = "LAGRAPH_OUTPUT_DIR"

DEFAULT_CONFIG: dict = {
    "dataset": {
        "kind": "synth",
        "n": 1000,
        "c": 4,
        "d": 16,
        "homophily": 0.4,
        "avg_degree": 8.0,
        "feature_sep": 4.0,
        "nodes_path": None,
        "edges_path": None,
        "undirected": True,
        "normalize": True,
    },
    # k=0 scores pairs on raw features: classifier mistakes then do not
    # track the propagated features the node model aggregates
    "edge_features": {"k": 0, "norm": "row-mean", "binary": False},
    "edge_classifier": {
        "proj_dim": 16,
        "hidden_widths": [16],
        "learning_rate": 0.1,
        "momentum": 0.9,
        "epochs": 100,
        "batch_size": 256,
        "class_weighting": "balanced",
        "include_two_hop": True,
        "num_sampled": 4000,
        "threshold": 0.5,
    },
    "refinement": {"threshold": 0.5, "n_max": 10, "do_filter": True, "do_add": True},
    "scorer": {
        "kind": "trained",
        "mode": "filter",
        "target_p": 1.0,
        "target_q": 0.0,
        "target_p_pre": 1.0,
    },
    "model": {
        "kind": "sgc",
        "k": 2,
        "learning_rate": 0.2,
        "epochs": 200,
        "weight_decay": 5e-5,
        "hidden_width": 16,
        "norm": "row-mean",
        "early_stop": False,
        "patience": 30,
    },
    "seeds": [0, 1, 2, 3, 4],
    "output_dir": None,
    "degrade_k": 0,
    "sweep": {"kind": "p_minus_q", "values": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]},
    "dump_refined": False,
    "theory_trials": 20000,
}


class ConfigError(ValueError):
    """Raised for malformed experiment configs."""


def _merge(defaults, override, path="config"):
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: expected an object")
    merged = {}
    for key, default_val in defaults.items():
        if key in override and isinstance(default_val, dict) and default_val:
            merged[key] = _merge(default_val, override[key], f"{path}.{key}")
        elif key in override:
            merged[key] = override[key]
        else:
            merged[key] = default_val
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return merged


_COERCE = {int: int, float: float, bool: bool,
           tuple[int, ...]: lambda v: tuple(int(w) for w in v)}


def _build(cls, section: dict, path: str, **fixed):
    """Instantiate config dataclass ``cls`` from the keys of a config section
    that name its fields, each coerced to the field's declared type.

    ``fixed`` supplies fields the section does not carry. Coercion and
    ``__post_init__`` errors become a :class:`ConfigError` naming the section.
    """
    hints = typing.get_type_hints(cls)
    try:
        kwargs = {f.name: _COERCE.get(hints[f.name], lambda v: v)(section[f.name])
                  for f in dataclasses.fields(cls) if f.name in section}
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings plus the hash of their JSON form."""

    dataset: dict
    edge_features: EdgeFeatureConfig
    edge_classifier: TrainConfig
    refinement: RefinementConfig
    fit: FitConfig
    scorer: dict
    model: dict
    seeds: tuple[int, ...]
    output_dir: str
    degrade_k: int
    sweep: dict
    dump_refined: bool
    theory_trials: int
    resolved: dict
    config_hash: str


def config_from_dict(raw: dict, output_dir_flag: str | None = None) -> ExperimentConfig:
    resolved = _merge(DEFAULT_CONFIG, raw)
    out = output_dir_flag or resolved["output_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "out"
    resolved["output_dir"] = out
    # hash covers everything that shapes the numbers; where they land does not
    hashed = {k: v for k, v in resolved.items() if k != "output_dir"}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    cfg_hash = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    ds = resolved["dataset"]
    if ds["kind"] not in ("synth", "files"):
        raise ConfigError("dataset.kind must be 'synth' or 'files'")
    if ds["kind"] == "files" and not (ds["nodes_path"] and ds["edges_path"]):
        raise ConfigError("dataset.kind 'files' needs nodes_path and edges_path")
    if ds["kind"] == "synth":
        try:
            data.check_synth_args(**_synth_args(ds))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    scorer, model = resolved["scorer"], resolved["model"]
    if scorer["kind"] not in ("trained", "oracle"):
        raise ConfigError("scorer.kind must be 'trained' or 'oracle'")
    if scorer["kind"] == "oracle":
        _build(OracleClassifier, scorer, "scorer")
    if model["kind"] not in ("sgc", "gcn"):
        raise ConfigError("model.kind must be 'sgc' or 'gcn'")
    if model["kind"] == "sgc":
        _build(PropagationConfig, model, "model")
    seeds = tuple(int(s) for s in resolved["seeds"])
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    return ExperimentConfig(
        dataset=ds,
        edge_features=_build(EdgeFeatureConfig, resolved["edge_features"], "edge_features"),
        edge_classifier=_build(TrainConfig, resolved["edge_classifier"], "edge_classifier"),
        refinement=_build(RefinementConfig, resolved["refinement"], "refinement"),
        fit=_build(FitConfig, model, "model"),
        scorer=scorer,
        model=model,
        seeds=seeds,
        output_dir=out,
        degrade_k=int(resolved["degrade_k"]),
        sweep=resolved["sweep"],
        dump_refined=bool(resolved["dump_refined"]),
        theory_trials=int(resolved["theory_trials"]),
        resolved=resolved,
        config_hash=cfg_hash,
    )


def _deep_update(base: dict, override: dict) -> dict:
    """Write ``override`` into ``base``, descending into sections both hold."""
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def load_config(path: str | None, output_dir_flag: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON config at ``path`` (if any), merge flag ``overrides``
    into it key by key, and resolve the result against the defaults."""
    raw: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    return config_from_dict(_deep_update(raw, overrides or {}), output_dir_flag)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.10g}"
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def append_summary_rows(rows: list[dict]) -> list[dict]:
    """Add per-(experiment, arm) mean and std rows over numeric columns."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["experiment"], row["arm"]), []).append(row)
    out = list(rows)
    for (experiment, arm), members in groups.items():
        base = {"experiment": experiment, "arm": arm, "config_hash": members[0]["config_hash"]}
        mean_row = dict(base, seed="mean")
        std_row = dict(base, seed="std")
        for col in NUMERIC_COLUMNS:
            vals = np.asarray([float("nan") if m[col] is None else float(m[col]) for m in members])
            with np.errstate(invalid="ignore"):
                finite = vals[~np.isnan(vals)]
            mean_row[col] = float(finite.mean()) if finite.size else float("nan")
            std_row[col] = float(finite.std()) if finite.size else float("nan")
        out.append(mean_row)
        out.append(std_row)
    return out


def _synth_args(ds: dict) -> dict:
    """The ``data.synth`` arguments of a ``dataset`` section, seed excepted."""
    return {"n": int(ds["n"]), "c": int(ds["c"]), "d": int(ds["d"]),
            "homophily": float(ds["homophily"]), "avg_degree": float(ds["avg_degree"]),
            "feature_sep": float(ds["feature_sep"])}


def _load_dataset(cfg: ExperimentConfig, seed: int) -> tuple[Graph, NodeTable]:
    ds = cfg.dataset
    if ds["kind"] == "synth":
        return data.synth(**_synth_args(ds), seed=seed)
    return data.load(ds["nodes_path"], ds["edges_path"],
                     undirected=bool(ds["undirected"]), normalize=bool(ds["normalize"]))


def _fit_metrics(g: Graph, t: NodeTable, model_cfg: dict, fit: FitConfig) -> dict:
    if model_cfg["kind"] == "sgc":
        model = sgc_fit(g, t, fit, k=int(model_cfg["k"]))
    else:
        model = gcn_fit(g, t, fit)
    pred = predict(model, g, t)
    return {f"acc_{split}": accuracy(pred, t, split) for split in ("train", "val", "test")}


def _realized_filter_quality(g: Graph, t: NodeTable, scorer, threshold: float) -> tuple[float, float]:
    """Realized (p, q) of a scorer over the graph's non-self unordered edges."""
    edges = g.edge_array()
    mask = edges[:, 0] < edges[:, 1]
    u, v = edges[mask, 0], edges[mask, 1]
    known = t.known_mask()
    ok = known[u] & known[v]
    u, v = u[ok], v[ok]
    if u.size == 0:
        return float("nan"), float("nan")
    pred = np.asarray(scorer(u, v)) >= threshold
    same = t.labels[u] == t.labels[v]
    p = float(pred[same].mean()) if np.any(same) else float("nan")
    q = float(pred[~same].mean()) if np.any(~same) else float("nan")
    return p, q


def _oracle(g: Graph, t: NodeTable, oc: OracleClassifier, threshold: float):
    """Oracle pair scorer plus its quality columns: the realized (p, q) in
    filter mode, all NaN in add mode (p_pre comes from the refinement report)."""
    scorer = oracle_scorer(t, oc)
    p = q = float("nan")
    if oc.mode == "filter":
        p, q = _realized_filter_quality(g, t, scorer, threshold)
    return scorer, {"p": p, "q": q, "p_pre": float("nan")}


def _scorer_for_seed(cfg: ExperimentConfig, g: Graph, t: NodeTable, seed: int):
    """The configured scorer as ``(scorer_or_classifier, features, quality_cols)``.

    A trained scorer reports its held-out p/q/p_pre; features are None for
    oracles, which read labels instead.
    """
    if cfg.scorer["kind"] == "oracle":
        oc = _build(OracleClassifier, cfg.scorer, "scorer", seed=seed)
        scorer, cols = _oracle(g, t, oc, cfg.refinement.threshold)
        return scorer, None, cols
    tc = dataclasses.replace(cfg.edge_classifier, seed=seed)
    features = edge_input_features(g, t, cfg.edge_features)
    clf = train(build_pairs(g, t, tc), features, tc)
    quality = evaluate_quality(clf, holdout_pairs(g, t, tc.include_two_hop), features)
    return clf, features, {"p": quality.p, "q": quality.q, "p_pre": quality.p_pre}


def _describe(exc: BaseException) -> str:
    """``module.Class: message``, the form of every failure and error line."""
    return f"{exc.__class__.__module__}.{exc.__class__.__qualname__}: {exc}"


def _row(experiment, arm, seed, cfg, ratio_before, ratio_after, quality_cols, metrics) -> dict:
    row = {"experiment": experiment, "arm": arm, "seed": str(seed),
           "ratio_before": ratio_before, "ratio_after": ratio_after,
           "p": float("nan"), "q": float("nan"), "p_pre": float("nan"),
           "acc_train": float("nan"), "acc_val": float("nan"), "acc_test": float("nan"),
           "config_hash": cfg.config_hash}
    row.update(quality_cols)
    row.update(metrics)
    return row


class _ArmRunner:
    """Collects rows, timings, reports, and failures across arms."""

    def __init__(self, cfg: ExperimentConfig, experiment: str):
        self.cfg = cfg
        self.experiment = experiment
        self.rows: list[dict] = []
        self.timings: list[dict] = []
        self.reports: dict[str, dict] = {}
        self.failures: list[str] = []

    def fail(self, arm: str, seed: int, exc: Exception) -> None:
        self.failures.append(f"{self.experiment}/{arm}/seed{seed}: {_describe(exc)}")

    def run(self, arm: str, seed: int, fn) -> None:
        start = time.perf_counter()
        try:
            row = fn()
        except Exception as exc:  # noqa: BLE001 - arm failures are enumerated
            self.fail(arm, seed, exc)
            return
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.rows.append(row)
        self.timings.append({"experiment": self.experiment, "arm": arm, "seed": str(seed),
                             "wall_ms": wall_ms, "config_hash": self.cfg.config_hash})

    def finalize(self) -> int:
        out_dir = self.cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        rows = append_summary_rows(self.rows)
        metrics_path = os.path.join(out_dir, f"{self.experiment}.csv")
        write_csv(metrics_path, METRICS_HEADER, rows)
        write_csv(os.path.join(out_dir, f"{self.experiment}_timings.csv"), TIMINGS_HEADER, self.timings)
        if self.reports:
            report_path = os.path.join(out_dir, f"{self.experiment}_refinement.json")
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(self.reports, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"{self.experiment}: wrote {metrics_path} ({len(self.rows)} arm rows)")
        if self.failures:
            for failure in self.failures:
                print(f"FAILED {failure}", file=sys.stderr)
            return 1
        return 0


def _run_experiment(cfg: ExperimentConfig, experiment: str, arm_names, make_arms,
                    degrade_k: int = 0) -> tuple[list[dict], int]:
    """The one experiment loop behind ``pipeline``, ``degrade``, ``ablation`` and ``sweep``.

    Per seed: build the dataset (wiring ``degrade_k`` different-label
    neighbors per node when >= 1), fit the origin arm on it, then refine and
    fit each arm that ``make_arms(g, t, seed)`` returns as
    ``(arm, RefinementConfig, scorer, features, quality_cols)``. If
    ``make_arms`` raises, every name in ``arm_names`` fails for that seed.
    """
    runner = _ArmRunner(cfg, experiment)
    for seed in cfg.seeds:
        try:
            g, t = _load_dataset(cfg, seed)
            if degrade_k >= 1:
                g = data.degrade(g, t, degrade_k, seed)
        except Exception as exc:  # noqa: BLE001
            runner.fail("dataset", seed, exc)
            continue
        fit = dataclasses.replace(cfg.fit, seed=seed)
        ratio = positive_ratio(g, t).graph_ratio
        runner.run("origin", seed,
                   lambda: _row(experiment, "origin", seed, cfg, ratio, ratio, {},
                                _fit_metrics(g, t, cfg.model, fit)))
        try:
            arms = make_arms(g, t, seed)
        except Exception as exc:  # noqa: BLE001
            for arm in arm_names:
                runner.fail(arm, seed, exc)
            continue
        for arm, rcfg, scorer, features, cols in arms:
            def refined_arm():
                refined, report = refine(g, t, scorer, rcfg, features=features,
                                         feature_cfg=cfg.edge_features)
                runner.reports[f"seed{seed}/{arm}"] = report.to_dict()
                metrics = _fit_metrics(refined, t, cfg.model, fit)
                if cfg.dump_refined:
                    base = os.path.join(cfg.output_dir, f"{experiment}_{arm}_seed{seed}")
                    os.makedirs(cfg.output_dir, exist_ok=True)
                    data.save(refined, t, base + ".nodes.tsv", base + ".edges.tsv")
                p_pre = cols["p_pre"]
                if rcfg.do_add and math.isnan(p_pre):
                    p_pre = report.added_precision
                return _row(experiment, arm, seed, cfg, report.ratio_before,
                            report.ratio_after, dict(cols, p_pre=p_pre), metrics)

            runner.run(arm, seed, refined_arm)
    code = runner.finalize()
    return runner.rows, code


def _check_filter_scorer(cfg: ExperimentConfig) -> None:
    """Reject an add-mode oracle for a run whose arms filter: it scores one
    candidate pool at a time and cannot score the edges of the graph."""
    if cfg.scorer["kind"] == "oracle" and cfg.scorer["mode"] == "add":
        raise ConfigError("scorer: an add-mode oracle cannot score the filter stage")


def run_pipeline(cfg: ExperimentConfig, experiment: str = "pipeline",
                 degrade_k: int | None = None) -> tuple[list[dict], int]:
    """Baseline model on the input graph vs the same model on the refined one."""
    if cfg.refinement.do_filter:
        _check_filter_scorer(cfg)

    def arms(g, t, seed):
        scorer, features, cols = _scorer_for_seed(cfg, g, t, seed)
        return [("refined", cfg.refinement, scorer, features, cols)]

    k = cfg.degrade_k if degrade_k is None else degrade_k
    return _run_experiment(cfg, experiment, ("refined",), arms, k)


def run_degradation(cfg: ExperimentConfig, k: int | None = None) -> tuple[list[dict], int]:
    """Pipeline on a graph degraded with k different-label neighbors per node."""
    k = cfg.degrade_k if k is None else k
    return run_pipeline(cfg, experiment=f"degrade_k{k}", degrade_k=k)


ABLATION_ARMS = (
    ("filter", True, False),
    ("add", False, True),
    ("filter_add", True, True),
)


def run_ablation(cfg: ExperimentConfig) -> tuple[list[dict], int]:
    """origin / filter-only / add-only / filter+add, sharing one classifier per seed."""
    _check_filter_scorer(cfg)

    def arms(g, t, seed):
        scorer, features, cols = _scorer_for_seed(cfg, g, t, seed)
        return [(arm, dataclasses.replace(cfg.refinement, do_filter=do_filter, do_add=do_add),
                 scorer, features, cols) for arm, do_filter, do_add in ABLATION_ARMS]

    return _run_experiment(cfg, "ablation", [arm for arm, _, _ in ABLATION_ARMS], arms)


def run_oracle_sweep(cfg: ExperimentConfig, sweep: dict | None = None) -> tuple[list[dict], int]:
    """Refine with oracle scorers over a quality grid and train the model.

    ``p_minus_q`` sweeps a filter-only oracle with p = (1+v)/2, q = (1-v)/2;
    ``p_pre`` sweeps an add-only oracle at the given precision targets.
    """
    sweep = sweep or cfg.sweep
    kind = sweep.get("kind", "p_minus_q")
    if kind not in ("p_minus_q", "p_pre"):
        raise ConfigError("sweep.kind must be 'p_minus_q' or 'p_pre'")
    values = [float(x) for x in sweep.get("values", DEFAULT_CONFIG["sweep"]["values"])]
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError("sweep values must lie in [0, 1]")
    if kind == "p_pre" and cfg.refinement.threshold > 0.5:
        raise ConfigError("p_pre sweep needs refinement.threshold <= 0.5 (oracle ranks in (0.5, 1])")
    short = "pmq" if kind == "p_minus_q" else "ppre"
    names = [f"{short}={value:.2f}" for value in values]

    def arms(g, t, seed):
        filtering = kind == "p_minus_q"
        rcfg = dataclasses.replace(cfg.refinement, do_filter=filtering, do_add=not filtering)
        out = []
        for arm, value in zip(names, values):
            if filtering:
                oc = OracleClassifier(mode="filter", target_p=(1.0 + value) / 2.0,
                                      target_q=(1.0 - value) / 2.0, seed=seed)
            else:
                oc = OracleClassifier(mode="add", target_p_pre=value, seed=seed)
            scorer, cols = _oracle(g, t, oc, rcfg.threshold)
            out.append((arm, rcfg, scorer, None, cols))
        return out

    return _run_experiment(cfg, f"sweep_{short}", names, arms)


THEORY_SWEEP_HEADER = ("mode", "n_plus", "n_minus", "n_added", "p", "q", "p_pre",
                       "mu_plus", "mu_minus", "sigma2", "tau", "analytic",
                       "mc_mean", "mc_std_error", "mc_misclassification",
                       "mc_misclassification_std_error", "mc_conditional_mean",
                       "gap", "config_hash")


def run_theory(cfg: ExperimentConfig) -> int:
    """Check the expectation inequalities on the full grid and emit a CSV
    comparing closed forms against Monte Carlo."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    start = time.perf_counter()
    report = check_propositions()
    elapsed = time.perf_counter() - start
    prop_path = os.path.join(cfg.output_dir, "theory_propositions.json")
    with open(prop_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    gm = GaussianMixtureParams(mu_plus=1.0, mu_minus=-1.0, sigma2=1.0, tau=0.0)
    seed = cfg.seeds[0]
    trials = cfg.theory_trials
    rows = []

    def base_row(mode, spec, analytic, res, p=None, q=None, p_pre=None):
        return {"mode": mode, "n_plus": spec.n_plus, "n_minus": spec.n_minus,
                "n_added": spec.n_added, "p": p, "q": q, "p_pre": p_pre,
                "mu_plus": gm.mu_plus, "mu_minus": gm.mu_minus, "sigma2": gm.sigma2,
                "tau": gm.tau, "analytic": analytic, "mc_mean": res.mean_estimate,
                "mc_std_error": res.std_error,
                "mc_misclassification": res.misclassification_rate,
                "mc_misclassification_std_error": res.misclassification_std_error,
                "mc_conditional_mean": res.conditional_mean,
                "gap": res.conditional_mean - res.mean_estimate,
                "config_hash": cfg.config_hash}

    for n_plus in (1, 3, 5):
        for n_minus in (1, 3, 5):
            spec = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus)
            res = mc_aggregate(spec, gm, mode="origin", trials=trials, seed=seed)
            rows.append(base_row("origin", spec, e_origin(spec, gm), res))
            for p, q in ((0.9, 0.1), (0.7, 0.3)):
                res = mc_aggregate(spec, gm, mode="filter", trials=trials, seed=seed, p=p, q=q)
                rows.append(base_row("filter", spec, e_filter(spec, gm, p, q), res, p=p, q=q))
            spec_add = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus, n_added=4)
            for p_pre in (0.25, 0.75):
                res = mc_aggregate(spec_add, gm, mode="add", trials=trials, seed=seed, p_pre=p_pre)
                rows.append(base_row("add", spec_add, e_add(spec_add, gm, p_pre), res, p_pre=p_pre))

    sweep_path = os.path.join(cfg.output_dir, "theory_sweep.csv")
    write_csv(sweep_path, THEORY_SWEEP_HEADER, rows)
    status = "PASS" if report.passed else "FAIL"
    print(f"theory: propositions {status} "
          f"({report.filter_points + report.add_points} strict points, "
          f"boundary errs {report.filter_boundary_max_err:.2e}/{report.add_boundary_max_err:.2e}, "
          f"{elapsed:.2f}s); wrote {prop_path} and {sweep_path}")
    return 0 if report.passed else 1


def run_synth_export(cfg: ExperimentConfig) -> int:
    """Generate one synthetic dataset and write it as nodes/edges TSV."""
    if cfg.dataset["kind"] != "synth":
        raise ConfigError("synth command needs dataset.kind == 'synth'")
    os.makedirs(cfg.output_dir, exist_ok=True)
    seed = cfg.seeds[0]
    g, t = _load_dataset(cfg, seed)
    nodes_path = os.path.join(cfg.output_dir, "nodes.tsv")
    edges_path = os.path.join(cfg.output_dir, "edges.tsv")
    data.save(g, t, nodes_path, edges_path)
    ratio = positive_ratio(g, t).graph_ratio
    print(f"synth: {g.num_nodes} nodes, {g.num_edges} directed edges "
          f"(ratio {ratio:.4f}, seed {seed}); wrote {nodes_path} and {edges_path}")
    return 0


def _add_common_flags(sub):
    sub.add_argument("--config", default=None, help="JSON config path")
    sub.add_argument("--seeds", default=None, help="comma-separated seed list, e.g. 0,1,2")
    sub.add_argument("--output-dir", default=None, help=f"output directory (default: config, then ${OUTPUT_DIR_ENV}, then ./out)")
    sub.add_argument("--dataset", default=None,
                     help="dataset override: 'synth' or 'NODES.tsv:EDGES.tsv'")


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    if args.seeds is not None:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",") if s != ""]
    if args.dataset is not None:
        if args.dataset == "synth":
            overrides["dataset"] = {"kind": "synth"}
        else:
            if ":" not in args.dataset:
                raise ConfigError("--dataset expects 'synth' or 'NODES:EDGES'")
            nodes_path, edges_path = args.dataset.rsplit(":", 1)
            overrides["dataset"] = {"kind": "files", "nodes_path": nodes_path,
                                    "edges_path": edges_path}
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lagraph",
                                     description="label-aware graph refinement experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("pipeline", "ablation", "sweep", "degrade", "theory", "synth"):
        sub = subs.add_parser(name)
        _add_common_flags(sub)
        if name == "sweep":
            sub.add_argument("--kind", choices=("p_minus_q", "p_pre"), default=None)
            sub.add_argument("--values", default=None, help="comma-separated grid values in [0, 1]")
        if name == "degrade":
            sub.add_argument("--k", type=int, default=None, help="different-label neighbors per node")
        if name == "theory":
            sub.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
    args = parser.parse_args(argv)

    try:
        overrides = _overrides_from_args(args)
        if args.command == "sweep":
            sweep_over = {}
            if args.kind is not None:
                sweep_over["kind"] = args.kind
            if args.values is not None:
                sweep_over["values"] = [float(v) for v in args.values.split(",") if v != ""]
            if sweep_over:
                overrides["sweep"] = sweep_over
        if args.command == "degrade" and args.k is not None:
            overrides["degrade_k"] = args.k
        if args.command == "theory" and args.trials is not None:
            overrides["theory_trials"] = args.trials
        cfg = load_config(args.config, args.output_dir, overrides)
    except (ValueError, OSError) as exc:  # ConfigError and JSONDecodeError included
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2

    try:
        if args.command == "pipeline":
            _, code = run_pipeline(cfg)
        elif args.command == "ablation":
            _, code = run_ablation(cfg)
        elif args.command == "sweep":
            _, code = run_oracle_sweep(cfg)
        elif args.command == "degrade":
            _, code = run_degradation(cfg)
        elif args.command == "theory":
            code = run_theory(cfg)
        else:
            code = run_synth_export(cfg)
    except ConfigError as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
