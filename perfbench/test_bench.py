"""Checks of the benchmark itself, at smoke size.

    PYTHONPATH=src python -m pytest perfbench -q

Each smoke run starts real CLI processes, so the module takes about a minute.
"""

import dataclasses
import json
import os
import re

import pytest

import bench
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMOKE = {
    "pipeline_sgc_16k": {"dataset": {"n": 300}, "edge_classifier": {"epochs": 5, "num_sampled": 200},
                         "model": {"epochs": 20}},
    "ablation_gcn_2k": {"dataset": {"n": 300}, "edge_classifier": {"epochs": 5, "num_sampled": 200},
                        "model": {"kind": "gcn", "epochs": 20}},
    "sweep_ppre_4k": {"dataset": {"n": 300}, "model": {"epochs": 20}},
    "theory_mc": {},
}


def smoke(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    flags = ("--trials", "2000") if w.command == "theory" else w.flags
    return dataclasses.replace(w, config=SMOKE[name], flags=flags)


def _wrapped_attributes():
    return [spans.lookup(target) for target in spans.targets()]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    names = [*bench.END_TO_END, *spans.PER_LAYER, *bench.QUALITY_UNITS, *bench.WORKLOADS]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for num, den in spans.RATIOS.values():
        assert num in spans.PER_LAYER and den in spans.PER_LAYER


def test_tracer_restores_every_original_after_a_traced_run(tmp_path):
    import lagraph.cli as cli

    before = _wrapped_attributes()
    cfg = cli.config_from_dict({**SMOKE["ablation_gcn_2k"], "seeds": [0]}, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.train is not before[[n for _, n, _ in before].index("train")][2]
        rows, code = tracer.wrap(spans.ROOT_SPAN, cli.run_ablation)(cfg)
    finally:
        tracer.restore()
    assert code == 0
    for (owner, name, original), (_, _, now) in zip(before, _wrapped_attributes()):
        assert now is original, f"{owner.__name__}.{name} not restored"
    metrics = spans.layer_metrics(tracer.spans, untraced_wall_s=1.0)
    assert metrics["models.gcn_fit.calls"] == 4
    assert metrics["propagation.transpose.distinct"] == 4
    assert metrics["trace.coverage"] > 0.9
    assert {s[spans.SEED] for s in tracer.spans if s[spans.NAME] != spans.ROOT_SPAN} == {0}


def test_tracer_restores_when_the_run_raises():
    import lagraph.cli as cli
    from lagraph import PairSet

    empty = PairSet(u=[], v=[], labels=[], provenance=[])
    before = _wrapped_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError, match="empty pair set"):
            cli.train(empty, [[0.0]])
    finally:
        tracer.restore()
    assert tracer.spans[0][spans.COUNTS] == {"raised": 1}
    for (_, _, original), (_, _, now) in zip(before, _wrapped_attributes()):
        assert now is original


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    untraced = bench.run_workload(smoke(name), seed=0, seconds=0, trace=False)
    assert untraced["errors"] == [] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == set(bench.END_TO_END)
    assert all(v > 0 for v in untraced["metrics"].values())
    assert len(untraced["samples"]["wall_s"]) == bench.MIN_RUNS
    assert len(untraced["samples"]["setup_s"]) == bench.SETUP_LAUNCHES + bench.MIN_RUNS
    env = untraced["env"]
    for key in ("git_commit", "source_sha256", "python", "numpy", "scipy", "blas", "blas_threads",
                "nproc", "seeds", "dataset_n"):
        assert key in env
    expected_quality = {"pipeline_sgc_16k": {"acc_test_gain", "ratio_gain", "p_minus_q"},
                        "ablation_gcn_2k": {"acc_test_gain", "ratio_gain", "p_minus_q", "compose_margin"},
                        "sweep_ppre_4k": {"acc_test_gain", "ratio_gain", "spearman_acc_p_pre"},
                        "theory_mc": {"mc_max_abs_z", "mc_z_bound"}}[name]
    assert set(untraced["quality"]) == expected_quality

    traced = bench.run_workload(smoke(name), seed=0, seconds=0, trace=True)
    assert traced["errors"] == []
    assert set(traced["metrics"]) == set(spans.PER_LAYER)
    assert traced["metrics"]["trace.coverage"] > 0.9
    assert [inv for inv in os.listdir(os.path.join(bench.OUT, name)) if inv.startswith("trace")]
