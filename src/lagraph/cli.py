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
    pair_quality,
    train,
)
from .graph import Graph, NodeTable, positive_ratio, unordered_pairs
from .models import FitConfig, accuracy, gcn_fit, predict, sgc_fit
from .propagation import EdgeFeatureConfig, PropagationConfig, edge_input_features
from .refinement import OracleClassifier, RefinementConfig, oracle_scorer, refine
from .theory import MC_BLOCK_ROWS, SWEEP_MIXTURE, check_propositions, mc_aggregate, sweep_passes

METRICS_HEADER = ("experiment", "arm", "seed", "ratio_before", "ratio_after",
                  "p", "q", "p_pre", "acc_train", "acc_val", "acc_test", "config_hash")
TIMINGS_HEADER = ("experiment", "arm", "seed", "wall_ms", "config_hash")
NUMERIC_COLUMNS = ("ratio_before", "ratio_after", "p", "q", "p_pre",
                   "acc_train", "acc_val", "acc_test")

OUTPUT_DIR_ENV = "LAGRAPH_OUTPUT_DIR"


def _defaults(*classes) -> dict:
    """The field defaults of config dataclasses, ``seed`` left out: each run
    sets the seed itself."""
    return {f.name: f.default for cls in classes for f in dataclasses.fields(cls)
            if f.name != "seed"}


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
    "edge_features": {**_defaults(EdgeFeatureConfig), "k": 0},
    "edge_classifier": {**_defaults(TrainConfig),
                        "proj_dim": 16, "hidden_widths": [16], "num_sampled": 4000},
    "refinement": {**_defaults(RefinementConfig), "n_max": 10},
    "scorer": {"kind": "trained", **_defaults(OracleClassifier)},
    "model": {"kind": "sgc", **_defaults(PropagationConfig, FitConfig)},
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
    """``override`` over ``defaults``, section by section; unknown keys raise."""
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


def _coerce(kind, value):
    """The one coercion rule for typed config values: a bool takes a JSON
    boolean or 0/1, an int rejects a boolean and a fractional part, a float
    rejects a boolean and a non-finite value (JSON's NaN and Infinity), a tuple
    of ints takes only a list (a string is not read as its characters), a
    float or a tuple of ints converts, and any other type passes through."""
    if kind is bool:
        if value not in (0, 1):  # False == 0 and True == 1
            raise ValueError(f"expected true, false, 0 or 1, got {value!r}")
        return bool(value)
    if kind is int:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, bool):
            raise ValueError(f"expected a number, got {value!r}")
        if not math.isfinite(value := float(value)):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    if kind == tuple[int, ...]:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list of integers, got {value!r}")
        return tuple(_coerce(int, v) for v in value)
    return value


def _coerced(values: dict, types: dict, path: str) -> dict:
    """``values`` with each key that ``types`` names coerced to its type;
    a value that does not fit raises a :class:`ConfigError` naming ``path``."""
    out = dict(values)
    for key in [k for k in values if k in types]:
        try:
            out[key] = _coerce(types[key], values[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from exc
    return out


def _typed(cls, section: dict, path: str) -> dict:
    """``section`` with each key that names a field of config dataclass
    ``cls`` coerced to the field's declared type."""
    return _coerced(section, typing.get_type_hints(cls), path)


def _build(cls, section: dict, path: str, **fixed):
    """Instantiate config dataclass ``cls`` from the keys of a config section
    that name its fields, each coerced to the field's declared type.

    ``fixed`` supplies fields the section does not carry. ``__post_init__``
    errors become a :class:`ConfigError` naming the section.
    """
    typed = _typed(cls, section, path)
    kwargs = {f.name: typed[f.name] for f in dataclasses.fields(cls) if f.name in typed}
    try:
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_DATASET_TYPES = {key: type(val) for key, val in DEFAULT_CONFIG["dataset"].items()}
_SCALAR_TYPES = {"seeds": tuple[int, ...], "degrade_k": int, "dump_refined": bool,
                 "theory_trials": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings plus the hash of their JSON form."""

    dataset: dict
    edge_features: EdgeFeatureConfig
    edge_classifier: TrainConfig
    refinement: RefinementConfig
    fit: FitConfig
    scorer: OracleClassifier | None  # None: each seed trains its classifier
    model: dict
    seeds: tuple[int, ...]
    output_dir: str
    degrade_k: int
    sweep: dict
    dump_refined: bool
    theory_trials: int
    config_hash: str


def config_from_dict(raw: dict, output_dir_flag: str | None = None) -> ExperimentConfig:
    resolved = _merge(DEFAULT_CONFIG, raw)
    out = output_dir_flag or resolved["output_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "out"
    ds = _coerced(resolved["dataset"], _DATASET_TYPES, "dataset")
    if ds["kind"] not in ("synth", "files"):
        raise ConfigError("dataset.kind must be 'synth' or 'files'")
    if ds["kind"] == "files" and not (ds["nodes_path"] and ds["edges_path"]):
        raise ConfigError("dataset.kind 'files' needs nodes_path and edges_path")
    _check_synth(ds)
    scorer, model, oracle = resolved["scorer"], resolved["model"], None
    if scorer["kind"] not in ("trained", "oracle"):
        raise ConfigError("scorer.kind must be 'trained' or 'oracle'")
    if scorer["kind"] == "oracle":
        scorer = _typed(OracleClassifier, scorer, "scorer")
        oracle = _build(OracleClassifier, scorer, "scorer")
    if model["kind"] not in ("sgc", "gcn"):
        raise ConfigError("model.kind must be 'sgc' or 'gcn'")
    if model["kind"] == "sgc":
        model = _typed(PropagationConfig, model, "model")
        _build(PropagationConfig, model, "model")
    scalars = _coerced(resolved, _SCALAR_TYPES, "config")
    if not scalars["seeds"]:
        raise ConfigError("seeds must be non-empty")
    if len(set(scalars["seeds"])) != len(scalars["seeds"]):
        raise ConfigError("seeds must be distinct")
    if min(scalars["seeds"]) < 0:
        raise ConfigError("seeds must be non-negative")
    if max(scalars["seeds"]) >= 2**64:
        raise ConfigError("seeds must be below 2**64")
    if scalars["degrade_k"] < 0:
        raise ConfigError("degrade_k must be >= 0")
    if scalars["theory_trials"] < 2:
        raise ConfigError("theory_trials must be >= 2")
    values = resolved["sweep"]["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.values must be a non-empty list, got {values!r}")
    try:
        sweep = dict(resolved["sweep"], values=[_coerce(float, v) for v in values])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    classes = {"edge_features": EdgeFeatureConfig, "edge_classifier": TrainConfig, "refinement": RefinementConfig}
    sections = {name: _typed(cls, resolved[name], name) for name, cls in classes.items()}
    model = _typed(FitConfig, model, "model")
    # hash covers everything that shapes the numbers, as coerced; where they land does not
    hashed = {**{k: v for k, v in scalars.items() if k != "output_dir"},
              "dataset": ds, "scorer": scorer, "model": model, "sweep": sweep, **sections}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(
        dataset=ds,
        **{name: _build(cls, sections[name], name) for name, cls in classes.items()},
        fit=_build(FitConfig, model, "model"),
        scorer=oracle,
        model=model,
        seeds=scalars["seeds"],
        output_dir=out,
        degrade_k=scalars["degrade_k"],
        sweep=sweep,
        dump_refined=scalars["dump_refined"],
        theory_trials=scalars["theory_trials"],
        config_hash=hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12],
    )


def load_config(path: str | None, output_dir_flag: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON config at ``path`` (if any), resolve it against the
    defaults, and merge flag ``overrides`` over that key by key."""
    raw: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    return config_from_dict(_merge(_merge(DEFAULT_CONFIG, raw), overrides or {}),
                            output_dir_flag)


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


def write_json(path, record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
            finite = vals[~np.isnan(vals)]
            mean_row[col] = float(finite.mean()) if finite.size else float("nan")
            std_row[col] = float(finite.std()) if finite.size else float("nan")
        out.append(mean_row)
        out.append(std_row)
    return out


def _synth_args(ds: dict) -> dict:
    """The ``data.synth`` arguments of a ``dataset`` section, seed excepted."""
    return {key: ds[key] for key in ("n", "c", "d", "homophily", "avg_degree", "feature_sep")}


def _check_synth(ds: dict, degrade_k: int = 0) -> None:
    """Refuse a synth ``dataset`` section, degraded by ``degrade_k``, that ``data`` cannot build."""
    try:
        if ds["kind"] == "synth":
            data.check_synth_args(**_synth_args(ds), degrade_k=degrade_k)
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def _load_dataset(cfg: ExperimentConfig, seed: int) -> tuple[Graph, NodeTable]:
    ds = cfg.dataset
    if ds["kind"] == "synth":
        return data.synth(**_synth_args(ds), seed=seed)
    return data.load(ds["nodes_path"], ds["edges_path"],
                     undirected=ds["undirected"], normalize=ds["normalize"])


def _fit_metrics(g: Graph, t: NodeTable, model_cfg: dict, fit: FitConfig) -> dict:
    if model_cfg["kind"] == "sgc":
        model = sgc_fit(g, t, fit, k=int(model_cfg["k"]))
    else:
        model = gcn_fit(g, t, fit)
    pred = predict(model, g, t)
    return {f"acc_{split}": accuracy(pred, t, split) for split in ("train", "val", "test")}


def _oracle(g: Graph, t: NodeTable, oc: OracleClassifier, threshold: float, shared: dict | None = None):
    """The oracle's ``(scorer, None, quality_cols)``: no features, as it reads
    labels. The columns hold, in filter mode, the (p, q) it realizes at
    ``threshold`` over the pairs ``filter_edges`` scores; in add mode all NaN
    (p_pre comes from the refinement report). Add-mode scorers given one
    ``shared`` dict share one sorted queue per graph."""
    scorer = oracle_scorer(t, oc, _shared=shared)
    cols = {"p": float("nan"), "q": float("nan"), "p_pre": float("nan")}
    if oc.mode == "filter":
        u, v, _, _ = unordered_pairs(g.edge_sources(), g.col_targets, g.num_nodes)
        quality = pair_quality(scorer(u, v) >= threshold, t.labels[u] == t.labels[v])
        cols.update(p=quality.p, q=quality.q)
    return scorer, None, cols


def _trained(cfg: ExperimentConfig, g: Graph, t: NodeTable, seed: int):
    """The seed's classifier as ``(classifier, features, quality_cols)``: its
    held-out p/q/p_pre, counted at ``refinement.threshold`` like every other rate."""
    tc = dataclasses.replace(cfg.edge_classifier, seed=seed)
    features = edge_input_features(g, t, cfg.edge_features)
    clf = train(build_pairs(g, t, tc), features, tc)
    quality = evaluate_quality(clf, holdout_pairs(g, t, tc.include_two_hop), features,
                               cfg.refinement.threshold)
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


def _run_experiment(cfg: ExperimentConfig, experiment: str,
                    arms: list[tuple[str, RefinementConfig, OracleClassifier | None]],
                    degrade_k: int = 0) -> tuple[list[dict], int]:
    """The one experiment loop behind ``pipeline``, ``degrade``, ``ablation`` and ``sweep``.

    Per seed: build the dataset (wiring ``degrade_k`` different-label
    neighbors per node when >= 1), fit the origin arm, build every arm's
    scorer, then refine and fit each arm. Arms without an oracle share the
    seed's classifier, whose loss curve goes to ``*_training.json``. If a
    scorer cannot be built, every arm fails for that seed."""
    if any(rcfg.do_filter and oc is not None and oc.mode == "add" for _, rcfg, oc in arms):
        # it ranks pools only through add_edges and cannot score the edges of the graph
        raise ConfigError("scorer: an add-mode oracle cannot score the filter stage")
    ds = cfg.dataset
    if ds["kind"] == "synth" and ds["n"] <= 2 * ds["c"]:  # a class of two nodes splits into train and val
        raise ConfigError(f"dataset: n = {ds['n']} <= 2c = {2 * ds['c']} leaves every class at most "
                          "two nodes, so the test split is empty")
    rows, timings, failures = [], [], []
    sidecars = {"refinement": {}, "training": {}}

    def fail(arm, seed, exc):
        failures.append(f"{experiment}/{arm}/seed{seed}: {_describe(exc)}")

    def run(arm, seed, fn):
        start = time.perf_counter()
        try:
            row = fn()
        except Exception as exc:  # noqa: BLE001 - arm failures are enumerated
            fail(arm, seed, exc)
            return
        timings.append({"experiment": experiment, "arm": arm, "seed": str(seed),
                        "wall_ms": (time.perf_counter() - start) * 1000.0,
                        "config_hash": cfg.config_hash})
        rows.append(row)

    # one function call per seed, so what a seed builds (graph, scorers, an
    # add-mode oracle's queue) is freed before the next seed's dataset
    def run_seed(seed):
        try:
            g, t = _load_dataset(cfg, seed)
            if degrade_k >= 1:
                g = data.degrade(g, t, degrade_k, seed)
        except Exception as exc:  # noqa: BLE001
            fail("dataset", seed, exc)
            return
        fit = dataclasses.replace(cfg.fit, seed=seed)
        ratio = positive_ratio(g, t).graph_ratio
        run("origin", seed, lambda: _row(experiment, "origin", seed, cfg, ratio, ratio, {},
                                         _fit_metrics(g, t, cfg.model, fit)))
        try:
            trained = _trained(cfg, g, t, seed) if any(oc is None for _, _, oc in arms) else None
            shared = {}  # the add-mode oracles of a seed sort its pools once
            scorers = [trained if oc is None else
                       _oracle(g, t, dataclasses.replace(oc, seed=seed), rcfg.threshold, shared)
                       for _, rcfg, oc in arms]
        except Exception as exc:  # noqa: BLE001
            for arm, _, _ in arms:
                fail(arm, seed, exc)
            return
        if trained:
            sidecars["training"][f"seed{seed}"] = {"final_loss": float(trained[0].final_loss),
                                                   "loss_history": trained[0].loss_history.tolist()}
        for (arm, rcfg, _), (scorer, features, cols) in zip(arms, scorers):
            def refined_arm():
                refined, report = refine(g, t, scorer, rcfg, features=features)
                sidecars["refinement"][f"seed{seed}/{arm}"] = report.to_dict()
                metrics = _fit_metrics(refined, t, cfg.model, fit)
                if cfg.dump_refined:
                    base = os.path.join(cfg.output_dir, f"{experiment}_{arm}_seed{seed}")
                    data.save(refined, t, base + ".nodes.tsv", base + ".edges.tsv")
                p_pre = cols["p_pre"]
                if rcfg.do_add and math.isnan(p_pre):
                    p_pre = report.added_precision
                return _row(experiment, arm, seed, cfg, report.ratio_before,
                            report.ratio_after, dict(cols, p_pre=p_pre), metrics)

            run(arm, seed, refined_arm)

    os.makedirs(cfg.output_dir, exist_ok=True)  # an unusable directory fails before any seed runs
    for seed in cfg.seeds:
        run_seed(seed)
    metrics_path = os.path.join(cfg.output_dir, f"{experiment}.csv")
    write_csv(metrics_path, METRICS_HEADER, append_summary_rows(rows))
    write_csv(os.path.join(cfg.output_dir, f"{experiment}_timings.csv"), TIMINGS_HEADER, timings)
    for suffix, sidecar in sidecars.items():
        if sidecar:
            write_json(os.path.join(cfg.output_dir, f"{experiment}_{suffix}.json"), sidecar)
    print(f"{experiment}: wrote {metrics_path} ({len(rows)} arm rows)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return rows, 1 if failures else 0


def _stages(cfg: ExperimentConfig, do_filter: bool, do_add: bool) -> RefinementConfig:
    """``cfg.refinement`` with the given stages on; an ``n_max`` that cannot add is refused."""
    stages = {**dataclasses.asdict(cfg.refinement), "do_filter": do_filter, "do_add": do_add}
    return _build(RefinementConfig, stages, "refinement")


def run_pipeline(cfg: ExperimentConfig, experiment: str = "pipeline",
                 degrade_k: int | None = None) -> tuple[list[dict], int]:
    """Baseline model on the input graph vs the same model on the refined one."""
    k = cfg.degrade_k if degrade_k is None else degrade_k
    _check_synth(cfg.dataset, k)
    return _run_experiment(cfg, experiment, [("refined", cfg.refinement, cfg.scorer)], k)


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
    return _run_experiment(cfg, "ablation", [(arm, _stages(cfg, do_filter, do_add), cfg.scorer)
                                             for arm, do_filter, do_add in ABLATION_ARMS])


def run_oracle_sweep(cfg: ExperimentConfig) -> tuple[list[dict], int]:
    """Refine with oracle scorers over a quality grid and train the model.

    ``p_minus_q`` sweeps a filter-only oracle with p = (1+v)/2, q = (1-v)/2;
    ``p_pre`` sweeps an add-only oracle at the given precision targets.
    """
    kind, values = cfg.sweep["kind"], cfg.sweep["values"]
    if kind not in ("p_minus_q", "p_pre"):
        raise ConfigError("sweep.kind must be 'p_minus_q' or 'p_pre'")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError("sweep values must lie in [0, 1]")
    if kind == "p_pre" and cfg.refinement.threshold > 0.5:
        raise ConfigError("p_pre sweep needs refinement.threshold <= 0.5 (oracle ranks in (0.5, 1])")
    filtering = kind == "p_minus_q"
    short = "pmq" if filtering else "ppre"
    names = [f"{short}={value:.2f}" for value in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep.values: arm names collide: {names}")
    rcfg = _stages(cfg, filtering, not filtering)
    oracles = [OracleClassifier(mode="filter", target_p=(1.0 + v) / 2.0, target_q=(1.0 - v) / 2.0)
               if filtering else OracleClassifier(mode="add", target_p_pre=v) for v in values]
    return _run_experiment(cfg, f"sweep_{short}", [(name, rcfg, oc) for name, oc in zip(names, oracles)])


THEORY_SWEEP_HEADER = ("mode", "n_plus", "n_minus", "n_added", "p", "q", "p_pre",
                       "mu_plus", "mu_minus", "sigma2", "tau", "analytic",
                       "mc_mean", "mc_std_error", "mc_misclassification",
                       "mc_misclassification_std_error", "mc_conditional_mean",
                       "gap", "config_hash")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_pass(shared, gm, trials: int, seed: int) -> list:
    """The ``McResult`` of each arm of one ``theory.sweep_passes`` pass, in arm order."""
    return [mc_aggregate(arm.spec, gm, mode=arm.mode, trials=trials, seed=seed,
                         p=arm.p, q=arm.q, p_pre=arm.p_pre, shared=shared)
            for arm in shared.arms]


def _forked_sweep(cpus: int, gm, trials: int, seed: int) -> list:
    """``(arms, results)`` of each sweep pass, in sweep order, each pass
    computed whole in one forked worker, one worker per CPU and pass."""
    import concurrent.futures
    import multiprocessing

    import scipy.special  # noqa: F401 -- loaded once here, so no worker imports it

    passes = list(sweep_passes())  # the parent's copies never hold arrays
    largest_first = sorted(passes, key=lambda s: s.arms[0].spec.n_plus + s.arms[0].spec.n_minus,
                           reverse=True)
    # fork, not spawn: a spawned worker imports numpy, scipy and lagraph again, which
    # took the 20,000-trial sweep from 0.1 s to 0.6 s on a 2-vCPU Xeon
    pool = concurrent.futures.ProcessPoolExecutor(min(cpus, len(passes)),
                                                  mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {s: pool.submit(_sweep_pass, s, gm, trials, seed) for s in largest_first}
        return [(s.arms, futures[s].result()) for s in passes]
    finally:
        pool.shutdown(cancel_futures=True)


def run_theory(cfg: ExperimentConfig) -> int:
    """Check the expectation inequalities on the full grid and emit a CSV
    comparing closed forms against Monte Carlo over ``theory.sweep_passes``.
    From 2 usable CPUs and ``2 * MC_BLOCK_ROWS`` trials on, the passes run on
    forked workers; the bytes are the same, as each pass runs whole in one
    process."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    start = time.perf_counter()
    report = check_propositions()
    elapsed = time.perf_counter() - start
    prop_path = os.path.join(cfg.output_dir, "theory_propositions.json")
    write_json(prop_path, report.to_dict())

    gm, seed, trials = SWEEP_MIXTURE, cfg.seeds[0], cfg.theory_trials
    cpus = _usable_cpus()
    if cpus >= 2 and trials >= 2 * MC_BLOCK_ROWS:
        swept = _forked_sweep(cpus, gm, trials, seed)
    else:
        swept = [(shared.arms, _sweep_pass(shared, gm, trials, seed)) for shared in sweep_passes()]
    rows = []
    for arms, results in swept:
        for arm, res in zip(arms, results):
            rows.append({"mode": arm.mode, "n_plus": arm.spec.n_plus, "n_minus": arm.spec.n_minus,
                         "n_added": arm.spec.n_added, "p": arm.p, "q": arm.q,
                         "p_pre": arm.p_pre, "mu_plus": gm.mu_plus, "mu_minus": gm.mu_minus,
                         "sigma2": gm.sigma2, "tau": gm.tau, "analytic": arm.analytic(gm),
                         "mc_mean": res.mean_estimate, "mc_std_error": res.std_error,
                         "mc_misclassification": res.misclassification_rate,
                         "mc_misclassification_std_error": res.misclassification_std_error,
                         "mc_conditional_mean": res.conditional_mean,
                         "gap": res.conditional_mean - res.mean_estimate,
                         "config_hash": cfg.config_hash})

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
    """The config keys the flags set, shaped like a config file."""
    overrides: dict = {"sweep": {}}
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
    if getattr(args, "kind", None) is not None:
        overrides["sweep"]["kind"] = args.kind
    if getattr(args, "values", None) is not None:
        overrides["sweep"]["values"] = [float(v) for v in args.values.split(",") if v != ""]
    if getattr(args, "k", None) is not None:
        overrides["degrade_k"] = args.k
    if getattr(args, "trials", None) is not None:
        overrides["theory_trials"] = args.trials
    return overrides


def main(argv=None) -> int:
    # looked up when main runs, so a replaced module attribute is the one called
    runs = {"pipeline": run_pipeline, "ablation": run_ablation, "sweep": run_oracle_sweep,
            "degrade": run_degradation, "theory": run_theory, "synth": run_synth_export}
    parser = argparse.ArgumentParser(prog="lagraph",
                                     description="label-aware graph refinement experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in runs:
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
        cfg = load_config(args.config, args.output_dir, _overrides_from_args(args))
    except (ValueError, OSError) as exc:  # ConfigError and JSONDecodeError included
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2
    try:
        result = runs[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2
    # theory and synth return the exit code, the experiments (rows, exit code)
    return result if isinstance(result, int) else result[1]


if __name__ == "__main__":
    sys.exit(main())
