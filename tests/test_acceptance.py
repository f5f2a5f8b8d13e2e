"""Acceptance gate: one test per release criterion.

Each test prints a single ``PASS criterion N`` line with the measured
numbers once its assertions hold; the test id doubles as the pass/fail
line under ``pytest -v``. Expensive experiment runs are shared through
module-scoped fixtures.
"""

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import stats

from lagraph.cli import config_from_dict, run_ablation, run_oracle_sweep, run_pipeline, run_theory
from lagraph.edge_classifier import PairSet, TrainConfig, init_classifier, loss_and_grad, pair_weights
from lagraph.graph import NodeTable
from lagraph.models import GcnModel, SgcModel, gcn_loss_and_grad, sgc_loss_and_grad
from lagraph.theory import (
    GaussianMixtureParams,
    NeighborhoodSpec,
    check_propositions,
    e_add,
    e_filter,
    e_origin,
    mc_aggregate,
)

from conftest import (
    assert_gradients_match,
    central_difference,
    flatten_params,
    undirected_graph,
)

SUITE_SEED = 4
GM = GaussianMixtureParams(mu_plus=1.0, mu_minus=-1.0, sigma2=1.0, tau=0.0)

CORA_NODES = os.environ.get("LAGRAPH_CORA_NODES")
CORA_EDGES = os.environ.get("LAGRAPH_CORA_EDGES")
CORA_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "cora.json")

# sha256 prefixes of the byte-stable outputs the fixtures below write, plus a
# 5,000-trial ``run_theory``, keyed by the libraries whose arithmetic they
# depend on. A change that moves a digit updates its row here and says why.
GOLDEN_DIGESTS = {
    ("numpy 2.4.6", "scipy 1.17.1", "scipy-openblas 0.3.31.188.0"): {
        "ablation.csv": "540e082f88494cdb",
        "ablation_refinement.json": "cd735839b77da433",
        "ablation_training.json": "18ebe9dcfde4c236",
        "pipeline.csv": "c5a58698b6c0b17d",
        "pipeline_refinement.json": "a203a6441862cacd",
        "pipeline_training.json": "18ebe9dcfde4c236",
        "sweep_pmq.csv": "53aa1ad9e2ed63a8",
        "sweep_pmq_refinement.json": "2e61d4291369f2af",
        "sweep_ppre.csv": "5b5194bf49d19dd7",
        "sweep_ppre_refinement.json": "3439c0dd35f970d8",
        "theory_propositions.json": "8b1675963d156de7",
        "theory_sweep.csv": "82d069789700a017",
    },
}
GOLDEN_PATTERNS = ("*.csv", "*_refinement.json", "*_training.json", "theory_propositions.json")

# The same for GCN outputs, which the runs above never reach: a row-mean
# ``ablation`` over seeds 0 and 1 and a symmetric-norm ``pipeline`` at seed 0,
# both on the n = 400 synth graph.
GCN_RUNS = {
    "ablation": (run_ablation, {"model": {"kind": "gcn"}, "seeds": [0, 1]}),
    "pipeline": (run_pipeline, {"model": {"kind": "gcn", "norm": "symmetric"}, "seeds": [0]}),
}
GCN_GOLDEN_DIGESTS = {
    ("numpy 2.4.6", "scipy 1.17.1", "scipy-openblas 0.3.31.188.0"): {
        "ablation.csv": "ccbbd87101fd0b33",
        "ablation_refinement.json": "c1cc89e7b9b7f3c9",
        "ablation_training.json": "d39df6f7b3941a3c",
        "pipeline.csv": "c2633be1f280d1a5",
        "pipeline_refinement.json": "d019969e0bc4a4e2",
        "pipeline_training.json": "97bf424d312d4a2a",
    },
}


@pytest.fixture(scope="module")
def propositions():
    start = time.perf_counter()
    report = check_propositions()
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def benchmark_pipeline(tmp_path_factory):
    cfg = config_from_dict({}, str(tmp_path_factory.mktemp("pipeline")))
    start = time.perf_counter()
    rows, code = run_pipeline(cfg)
    return rows, code, time.perf_counter() - start, cfg.output_dir


@pytest.fixture(scope="module")
def benchmark_ablation(tmp_path_factory):
    cfg = config_from_dict({}, str(tmp_path_factory.mktemp("ablation")))
    rows, code = run_ablation(cfg)
    return rows, code, cfg.output_dir


@pytest.fixture(scope="module")
def benchmark_sweeps(tmp_path_factory):
    out, dirs = {}, []
    for kind in ("p_minus_q", "p_pre"):
        cfg = config_from_dict({"sweep": {"kind": kind}}, str(tmp_path_factory.mktemp(kind)))
        rows, code = run_oracle_sweep(cfg)
        assert code == 0
        out[kind] = rows
        dirs.append(cfg.output_dir)
    return out, dirs


# Absolute floors on the 5-seed mean test accuracy of the default config's
# origin and refined (filter + add) arms, the SGC read 0.7488 and 0.8660 less
# 0.01. A gain over the origin grows when the origin learns less: at 100 and
# 50 node-model epochs the origin read 0.743 and 0.727, refined 0.868 and 0.869.
ORIGIN_ACC_FLOOR = 0.739
REFINED_ACC_FLOOR = 0.856


def assert_accuracy_floors(acc_origin, acc_refined):
    assert acc_origin >= ORIGIN_ACC_FLOOR, f"origin mean acc {acc_origin:.4f} < {ORIGIN_ACC_FLOOR}"
    assert acc_refined >= REFINED_ACC_FLOOR, f"refined mean acc {acc_refined:.4f} < {REFINED_ACC_FLOOR}"


def arm_means(rows, column):
    """Mean of a column per non-origin arm, ordered by arm name."""
    arms = sorted({r["arm"] for r in rows} - {"origin"})
    means = []
    for arm in arms:
        vals = [r[column] for r in rows if r["arm"] == arm]
        means.append(float(np.mean(vals)))
    return arms, means


def test_criterion_1_filter_inequality_grid(propositions):
    report, elapsed = propositions
    assert report.filter_points == 38_000
    assert report.filter_boundary_points == 2_000
    assert report.filter_violations == []
    assert report.filter_boundary_max_err <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 1: filtering beats the original aggregate on all "
          f"{report.filter_points} off-boundary grid points; boundary err "
          f"{report.filter_boundary_max_err:.2e} <= 1e-12; {elapsed:.3f}s < 1s")


def test_criterion_2_addition_inequality_grid(propositions):
    report, elapsed = propositions
    assert report.add_points + report.add_boundary_points == 21_000
    assert report.add_violations == []
    assert report.add_boundary_max_err <= 1e-12
    assert elapsed < 1.0
    print(f"PASS criterion 2: addition beats the original aggregate exactly when "
          f"p_pre > r on all {report.add_points} off-boundary points; boundary err "
          f"{report.add_boundary_max_err:.2e} <= 1e-12; {elapsed:.3f}s < 1s")


def test_criterion_3_monte_carlo_agrees_with_closed_forms():
    rng = np.random.default_rng(SUITE_SEED)
    max_z = 0.0
    ratio_devs = []
    for i in range(20):
        mode = ("origin", "filter", "add")[int(rng.integers(0, 3))]
        n_plus, n_minus = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        kwargs = {}
        n_added = 0
        if mode == "filter":
            kwargs = {"p": float(rng.uniform(0.05, 1.0)), "q": float(rng.uniform(0.05, 1.0))}
        elif mode == "add":
            n_added = int(rng.integers(1, 11))
            kwargs = {"p_pre": float(rng.uniform(0.0, 1.0))}
        spec = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus, n_added=n_added)
        if mode == "origin":
            analytic = e_origin(spec, GM)
        elif mode == "filter":
            analytic = e_filter(spec, GM, kwargs["p"], kwargs["q"])
        else:
            analytic = e_add(spec, GM, kwargs["p_pre"])
        mc_seed = int(rng.integers(0, 2**31))
        res = mc_aggregate(spec, GM, mode=mode, trials=100_000, seed=mc_seed, **kwargs)
        z = abs(res.mean_estimate - analytic) / res.std_error
        assert z <= 3.0, f"point {i} ({mode}, {spec}): |z| = {z:.3f} > 3"
        max_z = max(max_z, z)
        if i < 3:
            res2 = mc_aggregate(spec, GM, mode=mode, trials=200_000, seed=mc_seed, **kwargs)
            ratio = res.std_error / res2.std_error
            assert math.sqrt(2) * 0.9 <= ratio <= math.sqrt(2) * 1.1
            ratio_devs.append(abs(ratio / math.sqrt(2) - 1.0))
    print(f"PASS criterion 3: 20 random points within 3 SE at 1e5 trials "
          f"(worst |z| = {max_z:.2f}); doubling trials scales SE by sqrt(2) "
          f"within {max(ratio_devs):.2%} (limit 10%)")


def test_criterion_4_finite_difference_gradients():
    rng = np.random.default_rng(SUITE_SEED)

    # edge classifier
    features = rng.normal(size=(12, 5))
    u = np.repeat(np.arange(6), 2)
    v = (u + 1 + np.arange(12) % 5) % 12
    pairs = PairSet(u=u, v=v, labels=(np.arange(12) % 2).astype(np.int64),
                    provenance=np.zeros(12, dtype=np.int8))
    clf = init_classifier(5, TrainConfig(proj_dim=4, hidden_widths=(6,), seed=1))
    weights = pair_weights(pairs, "balanced")
    arrays = [clf.proj] + [a for layer in clf.layers for a in layer]
    _, g_proj, g_layers = loss_and_grad(clf, features, pairs, weights)
    flat = flatten_params([g_proj] + [a for layer in g_layers for a in layer])
    coords = rng.choice(flat.size, size=20, replace=False)
    fd = central_difference(lambda: loss_and_grad(clf, features, pairs, weights)[0],
                            arrays, coords)
    assert_gradients_match(flat, fd, rel_tol=1e-4)

    # linear node model
    z = rng.normal(size=(15, 4))
    y = rng.integers(0, 3, size=15).astype(np.int64)
    sgc = SgcModel(weights=rng.normal(size=(4, 3)), bias=rng.normal(size=3), k=2)
    _, gw, gb = sgc_loss_and_grad(sgc, z, y, 0.01)
    flat = flatten_params([gw, gb])
    coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
    fd = central_difference(lambda: sgc_loss_and_grad(sgc, z, y, 0.01)[0],
                            [sgc.weights, sgc.bias], coords)
    assert_gradients_match(flat, fd, rel_tol=1e-4)

    # two-layer node model
    n = 12
    pairs_graph = [(i, (i + 1) % n) for i in range(n)] + [(0, 5), (2, 8), (3, 9)]
    g = undirected_graph(n, pairs_graph)
    t = NodeTable(features=rng.normal(size=(n, 3)),
                  labels=rng.integers(0, 2, size=n).astype(np.int64), num_classes=2,
                  split=np.where(np.arange(n) % 2 == 0, 0, 2).astype(np.int8))
    gcn = GcnModel(w1=rng.normal(size=(3, 5)), b1=rng.normal(size=5),
                   w2=rng.normal(size=(5, 2)), b2=rng.normal(size=2))
    grads = gcn_loss_and_grad(gcn, g, t, 0.01)[1:]
    flat = flatten_params(list(grads))
    coords = rng.choice(flat.size, size=20, replace=False)
    fd = central_difference(lambda: gcn_loss_and_grad(gcn, g, t, 0.01)[0],
                            [gcn.w1, gcn.b1, gcn.w2, gcn.b2], coords)
    assert_gradients_match(flat, fd, rel_tol=1e-4)

    print("PASS criterion 4: analytic gradients match central differences "
          "(rel err < 1e-4 on 20 random coordinates for the edge classifier "
          "and both node models)")


def test_criterion_5_synthetic_end_to_end(benchmark_pipeline):
    rows, code, elapsed, _ = benchmark_pipeline
    assert code == 0
    refined = [r for r in rows if r["arm"] == "refined"]
    origin = [r for r in rows if r["arm"] == "origin"]
    assert len(refined) == 5 and len(origin) == 5

    worst_pq = min(r["p"] - r["q"] for r in refined)
    assert worst_pq >= 0.3, f"held-out p - q dropped to {worst_pq:.3f} on some seed"
    worst_gain = min(r["ratio_after"] - r["ratio_before"] for r in refined)
    assert worst_gain >= 0.10, f"ratio gain dropped to {worst_gain:.3f} on some seed"

    acc_refined = float(np.mean([r["acc_test"] for r in refined]))
    acc_origin = float(np.mean([r["acc_test"] for r in origin]))
    assert acc_refined >= acc_origin + 0.03, (
        f"refined {acc_refined:.4f} vs origin {acc_origin:.4f}")
    assert_accuracy_floors(acc_origin, acc_refined)
    assert elapsed < 120.0
    print(f"PASS criterion 5: over 5 seeds held-out p-q >= {worst_pq:.3f} (need 0.3), "
          f"ratio gain >= {worst_gain:.3f} (need 0.10), test acc {acc_origin:.4f} -> "
          f"{acc_refined:.4f} (+{acc_refined - acc_origin:.4f}, need +0.03; floors "
          f"{ORIGIN_ACC_FLOOR} and {REFINED_ACC_FLOOR}), {elapsed:.1f}s < 120s")


def test_criterion_6_accuracy_tracks_scorer_quality(benchmark_sweeps):
    rows_by_kind, _ = benchmark_sweeps
    pmq_rows = rows_by_kind["p_minus_q"]
    arms, accs = arm_means(pmq_rows, "acc_test")
    _, ps = arm_means(pmq_rows, "p")
    _, qs = arm_means(pmq_rows, "q")
    gaps = [p - q for p, q in zip(ps, qs)]
    rho_pmq = float(stats.spearmanr(gaps, accs).statistic)
    assert rho_pmq >= 0.9, f"Spearman(acc, p-q) = {rho_pmq:.3f}"

    ppre_rows = rows_by_kind["p_pre"]
    arms, accs = arm_means(ppre_rows, "acc_test")
    _, pres = arm_means(ppre_rows, "p_pre")
    rho_ppre = float(stats.spearmanr(pres, accs).statistic)
    assert rho_ppre >= 0.9, f"Spearman(acc, p_pre) = {rho_ppre:.3f}"
    print(f"PASS criterion 6: Spearman(acc, p-q) = {rho_pmq:.3f} and "
          f"Spearman(acc, p_pre) = {rho_ppre:.3f} over 5-seed sweep grids (need 0.9)")


def test_criterion_7_stages_compose(benchmark_ablation):
    rows, code, _ = benchmark_ablation
    assert code == 0
    means = {}
    for arm in ("filter", "add", "filter_add"):
        means[arm] = float(np.mean([r["acc_test"] for r in rows if r["arm"] == arm]))
    floor = max(means["filter"], means["add"]) - 0.01
    assert means["filter_add"] >= floor, f"{means}"
    acc_origin = float(np.mean([r["acc_test"] for r in rows if r["arm"] == "origin"]))
    assert_accuracy_floors(acc_origin, means["filter_add"])
    # reported, not gated: how far each seed's compose margin sits from its seed noise
    acc = {(r["arm"], r["seed"]): r["acc_test"] for r in rows}
    diffs = [acc["filter_add", s] - max(acc["filter", s], acc["add", s])
             for s in sorted({r["seed"] for r in rows})]
    print(f"PASS criterion 7: filter+add mean acc {means['filter_add']:.4f} >= "
          f"max(filter {means['filter']:.4f}, add {means['add']:.4f}) - 0.01 over 5 seeds; "
          f"origin {acc_origin:.4f} >= {ORIGIN_ACC_FLOOR}, filter+add >= {REFINED_ACC_FLOOR}; "
          f"per-seed filter+add - max(filter, add): {', '.join(f'{d:+.4f}' for d in diffs)} "
          f"(mean {np.mean(diffs):+.4f}, SD {np.std(diffs, ddof=1):.4f})")


@pytest.mark.skipif(not (CORA_NODES and CORA_EDGES),
                    reason="citation dataset not supplied "
                           "(set LAGRAPH_CORA_NODES and LAGRAPH_CORA_EDGES)")
def test_criterion_8_citation_benchmark(tmp_path):
    with open(CORA_CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["dataset"] = {"kind": "files", "nodes_path": CORA_NODES, "edges_path": CORA_EDGES}
    raw["seeds"] = [0]
    cfg = config_from_dict(raw, str(tmp_path / "cora"))
    start = time.perf_counter()
    rows, code = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    assert code == 0
    origin = next(r for r in rows if r["arm"] == "origin")
    refined = next(r for r in rows if r["arm"] == "refined")
    assert abs(origin["acc_test"] - 0.8210) <= 0.03
    assert refined["acc_test"] >= origin["acc_test"]
    assert abs(origin["ratio_before"] - 0.85) <= 0.02
    assert refined["ratio_after"] >= refined["ratio_before"]
    assert elapsed < 300.0
    print(f"PASS criterion 8: citation origin acc {origin['acc_test']:.4f} "
          f"(0.8210 +- 0.03), refined {refined['acc_test']:.4f} >= origin, ratio "
          f"{refined['ratio_before']:.4f} -> {refined['ratio_after']:.4f}, "
          f"{elapsed:.0f}s < 300s")


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    raw = {"seeds": [0, 1]}
    outputs = []
    for name in ("a", "b"):
        cfg = config_from_dict(raw, str(tmp_path / name))
        _, code = run_pipeline(cfg)
        assert code == 0
        outputs.append((tmp_path / name / "pipeline.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print(f"PASS criterion 9: metrics CSV reruns are byte-identical "
          f"({len(outputs[0])} bytes)")


def numeric_fingerprint() -> tuple[str, str, str]:
    """numpy, scipy and the BLAS numpy was built against, by name and version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 can only print its build config
        blas = {}
    return (f"numpy {np.__version__}", f"scipy {scipy.__version__}",
            f"{blas.get('name')} {blas.get('version')}")


def test_golden_output_digests(benchmark_pipeline, benchmark_ablation, benchmark_sweeps,
                               tmp_path):
    fingerprint = numeric_fingerprint()
    if fingerprint not in GOLDEN_DIGESTS:
        pytest.skip(f"no golden digests for {fingerprint}: output bytes depend on the "
                    "numpy, scipy and BLAS builds")
    theory_cfg = config_from_dict({"theory_trials": 5_000}, str(tmp_path / "theory"))
    assert run_theory(theory_cfg) == 0
    dirs = [benchmark_pipeline[3], benchmark_ablation[2], *benchmark_sweeps[1],
            theory_cfg.output_dir]
    got = assert_digests(dirs, GOLDEN_DIGESTS[fingerprint], "outputs")
    print(f"PASS golden outputs: {len(got)} files byte-identical to the table for "
          f"{', '.join(fingerprint)}")


def assert_digests(dirs, want: dict, what: str) -> dict:
    """sha256 prefixes of the golden files under ``dirs``, asserted equal to ``want``."""
    paths = {p for d in dirs for pattern in GOLDEN_PATTERNS for p in Path(d).glob(pattern)
             if not p.name.endswith("_timings.csv")}
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
           for p in sorted(paths)}
    moved = [f"{name}: {want.get(name)} → {got.get(name)}"
             for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert got == want, f"{what} moved: " + "; ".join(moved)
    return got


def test_golden_gcn_output_digests(tmp_path):
    fingerprint = numeric_fingerprint()
    if fingerprint not in GCN_GOLDEN_DIGESTS:
        pytest.skip(f"no golden GCN digests for {fingerprint}: output bytes depend on the "
                    "numpy, scipy and BLAS builds")
    dirs = []
    for name, (run, raw) in GCN_RUNS.items():
        cfg = config_from_dict({**raw, "dataset": {"n": 400}}, str(tmp_path / name))
        assert run(cfg)[1] == 0
        dirs.append(cfg.output_dir)
    got = assert_digests(dirs, GCN_GOLDEN_DIGESTS[fingerprint], "GCN outputs")
    print(f"PASS golden GCN outputs: {len(got)} files byte-identical to the table for "
          f"{', '.join(fingerprint)}")
