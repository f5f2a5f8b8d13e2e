"""Config handling, CSV output contracts, and the experiment subcommands."""

import ast
import csv
import dataclasses
import gc
import json
import math
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import lagraph.cli as cli
from lagraph import refinement
from lagraph.data import load, save, synth
from lagraph.edge_classifier import (
    build_pairs,
    evaluate_quality,
    holdout_pairs,
    loss_and_grad,
    pair_weights,
    train,
)
from lagraph.propagation import edge_input_features
from lagraph.graph import Graph, NodeTable
from lagraph.refinement import OracleClassifier, filter_edges
from lagraph.cli import (
    DEFAULT_CONFIG,
    METRICS_HEADER,
    OUTPUT_DIR_ENV,
    TIMINGS_HEADER,
    ConfigError,
    ExperimentConfig,
    _merge,
    append_summary_rows,
    config_from_dict,
    load_config,
    main,
    run_ablation,
    run_degradation,
    run_oracle_sweep,
    run_pipeline,
    write_csv,
)


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def fast_config(**override):
    """Small dataset and short training so subcommand tests stay quick."""
    base = {
        "dataset": {"n": 100, "c": 3, "d": 6, "homophily": 0.5,
                    "avg_degree": 6.0, "feature_sep": 3.0},
        "edge_classifier": {"proj_dim": 8, "hidden_widths": [8],
                            "epochs": 15, "num_sampled": 200},
        "model": {"epochs": 40},
        "seeds": [0],
    }
    return _merge(_merge(DEFAULT_CONFIG, base), override)


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestMerge:
    def test_nested_override(self):
        merged = _merge(DEFAULT_CONFIG, {"dataset": {"n": 7}, "degrade_k": 2})
        assert merged["dataset"]["n"] == 7
        assert merged["dataset"]["c"] == DEFAULT_CONFIG["dataset"]["c"]
        assert merged["degrade_k"] == 2
        assert merged is not DEFAULT_CONFIG and DEFAULT_CONFIG["dataset"]["n"] == 1000

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match=r"config\.dataset: unknown keys \['m'\]"):
            _merge(DEFAULT_CONFIG, {"dataset": {"m": 1}})
        with pytest.raises(ConfigError, match="unknown keys"):
            _merge(DEFAULT_CONFIG, {"typo": True})

    def test_scalar_for_section(self):
        with pytest.raises(ConfigError, match="expected an object"):
            _merge(DEFAULT_CONFIG, {"dataset": 5})


class TestConfigResolution:
    def test_output_dir_precedence(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert config_from_dict({}).output_dir == "out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from_env")
        assert config_from_dict({}).output_dir == "from_env"
        assert config_from_dict({"output_dir": "from_cfg"}).output_dir == "from_cfg"
        assert config_from_dict({"output_dir": "from_cfg"}, "from_flag").output_dir == "from_flag"

    def test_hash_ignores_output_dir(self):
        a = config_from_dict({"output_dir": "x"})
        b = config_from_dict({"output_dir": "y"})
        assert a.config_hash == b.config_hash
        c = config_from_dict({"seeds": [9]})
        assert c.config_hash != a.config_hash
        assert len(a.config_hash) == 12

    def test_hash_of_defaults_is_pinned(self):
        # the defaults are read from the config dataclasses; a changed default
        # or a removed key moves every hash, so it must be a deliberate change
        assert config_from_dict({}).config_hash == "e89aa55e470f"
        assert config_from_dict({"dataset": {"n": 16000}}).config_hash == "894aa3a11b74"

    def test_hash_covers_coerced_values(self):
        typed = config_from_dict({"model": {"epochs": 7}, "seeds": [1, 2]})
        assert config_from_dict({"model": {"epochs": "7"}, "seeds": [1.0, "2"]}).config_hash == typed.config_hash
        assert config_from_dict({"model": {"epochs": 8}, "seeds": [1, 2]}).config_hash != typed.config_hash

    def test_sweep_values_hash_as_coerced(self):
        as_float = config_from_dict({"sweep": {"values": [1.0]}})
        as_int = config_from_dict({"sweep": {"values": [1]}})
        assert as_int.config_hash == as_float.config_hash == "b6e247a83662"
        assert as_int.sweep["values"] == [1.0] and isinstance(as_int.sweep["values"][0], float)
        assert config_from_dict({"sweep": {"values": ["1"]}}).config_hash == as_float.config_hash

    @pytest.mark.parametrize("raw,match", [
        ({"dataset": {"kind": "csv"}}, "dataset.kind"),
        ({"dataset": {"kind": "files"}}, "needs nodes_path"),
        ({"scorer": {"kind": "psychic"}}, "scorer.kind"),
        ({"model": {"kind": "tree"}}, "model.kind"),
        ({"seeds": []}, "seeds"),
        ({"model": {"learning_rate": -1}}, "model: learning_rate"),
        ({"model": {"k": 99}}, "model: k must lie"),
        ({"scorer": {"kind": "oracle", "mode": "bogus"}}, "scorer: mode"),
        ({"scorer": {"kind": "oracle", "target_q": 2.0}}, "scorer: target_q"),
        ({"edge_classifier": {"hidden_widths": 16}}, "edge_classifier"),
        ({"refinement": {"threshold": "high"}}, "refinement"),
        ({"dataset": {"n": 2, "c": 4}}, "dataset: need n >= c >= 1"),
        ({"theory_trials": 1}, "theory_trials must be >= 2"),
        ({"refinement": {"do_filter": "false"}}, "refinement: do_filter: expected true"),
        ({"edge_classifier": {"epochs": 2.7}}, "edge_classifier: epochs: expected an integer"),
        ({"dump_refined": "no"}, "dump_refined: expected true"),
        ({"dataset": {"undirected": "no"}}, "dataset: undirected: expected true"),
        ({"degrade_k": -1}, "degrade_k must be >= 0"),
        ({"seeds": [0, 0]}, "seeds must be distinct"),
        ({"seeds": [-1]}, "seeds must be non-negative"),
        ({"refinement": {"n_max": True}}, "refinement: n_max: expected an integer, got True"),
        ({"seeds": [0, True]}, "config: seeds: expected an integer, got True"),
        ({"edge_classifier": {"hidden_widths": [False]}},
         "edge_classifier: hidden_widths: expected an integer, got False"),
        ({"refinement": {"threshold": False}}, "refinement: threshold: expected a number, got False"),
        ({"model": {"learning_rate": True}}, "model: learning_rate: expected a number, got True"),
        ({"dataset": {"homophily": True}}, "dataset: homophily: expected a number, got True"),
        ({"scorer": {"kind": "oracle", "target_p_pre": True}},
         "scorer: target_p_pre: expected a number, got True"),
        ({"dataset": {"avg_degree": math.inf}}, "dataset: avg_degree: expected a finite number, got inf"),
        ({"dataset": {"feature_sep": math.nan}}, "dataset: feature_sep: expected a finite number, got nan"),
        ({"model": {"learning_rate": math.inf}}, "model: learning_rate: expected a finite number, got inf"),
        ({"edge_classifier": {"learning_rate": math.nan}},
         "edge_classifier: learning_rate: expected a finite number, got nan"),
        ({"refinement": {"threshold": -math.inf}}, "refinement: threshold: expected a finite number, got -inf"),
        ({"edge_classifier": {"momentum": 5}}, r"edge_classifier: momentum must lie in \[0, 1\)"),
        ({"edge_classifier": {"momentum": -0.5}}, r"edge_classifier: momentum must lie in \[0, 1\)"),
        ({"edge_classifier": {"learning_rate": 0}}, "edge_classifier: learning_rate must be positive"),
        ({"seeds": [0, 2**64]}, r"seeds must be below 2\*\*64"),
        ({"seeds": "12"}, "config: seeds: expected a list of integers, got '12'"),
        ({"edge_classifier": {"hidden_widths": "16"}},
         "edge_classifier: hidden_widths: expected a list of integers, got '16'"),
    ])
    def test_validation(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_sections_build_their_configs(self):
        cfg = config_from_dict({"edge_classifier": {"hidden_widths": [8, "4"]},
                                "model": {"epochs": "7", "early_stop": 1}})
        assert cfg.edge_classifier.hidden_widths == (8, 4)
        assert cfg.fit.epochs == 7 and cfg.fit.early_stop is True
        assert cfg.fit.learning_rate == DEFAULT_CONFIG["model"]["learning_rate"]
        # an unused scorer section is not checked: a trained scorer builds no oracle
        assert config_from_dict({"scorer": {"mode": "bogus"}}).scorer is None
        oracle = config_from_dict({"scorer": {"kind": "oracle", "target_p": "0.9"}}).scorer
        assert oracle == OracleClassifier(mode="filter", target_p=0.9)

    def test_load_config_file_and_overrides(self, tmp_path):
        path = write_json(tmp_path, {"seeds": [3, 4], "degrade_k": 1})
        cfg = load_config(path, None, {"degrade_k": 5})
        assert cfg.seeds == (3, 4)
        assert cfg.degrade_k == 5
        assert cfg.edge_classifier.proj_dim == DEFAULT_CONFIG["edge_classifier"]["proj_dim"]

    def test_flag_overrides_merge_into_sections(self, tmp_path):
        path = write_json(tmp_path, {"dataset": {"n": 200}})
        cfg = load_config(path, None, {"dataset": {"kind": "synth"}})
        assert cfg.dataset["kind"] == "synth" and cfg.dataset["n"] == 200

    @pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_resolve(self, path):
        cfg = load_config(str(path), None, {"dataset": {"kind": "synth", "n": 100}})
        assert cfg.dataset["kind"] == "synth" and len(cfg.config_hash) == 12


class TestCsvWriting:
    def test_formatting_contract(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"a": 0.123456789012, "b": float("nan"), "c": "x"},
                {"a": 2.0, "b": None, "c": "y"}]
        write_csv(path, ("a", "b", "c"), rows)
        text = path.read_bytes().decode("utf-8")
        assert text == "a,b,c\n0.123456789,nan,x\n2,nan,y\n"
        assert "\r" not in text

    def test_summary_rows_skip_nan(self):
        def row(seed, acc):
            r = {"experiment": "e", "arm": "a", "seed": seed, "config_hash": "h"}
            for col in ("ratio_before", "ratio_after", "p", "q", "p_pre",
                        "acc_train", "acc_val"):
                r[col] = float("nan")
            r["acc_test"] = acc
            return r

        out = append_summary_rows([row("0", 0.5), row("1", 0.7), row("2", float("nan"))])
        assert len(out) == 5
        mean = next(r for r in out if r["seed"] == "mean")
        std = next(r for r in out if r["seed"] == "std")
        assert mean["acc_test"] == pytest.approx(0.6)
        assert std["acc_test"] == pytest.approx(0.1)
        assert math.isnan(mean["p"])

    def test_summary_groups_by_arm(self):
        rows = []
        for arm in ("origin", "refined"):
            r = {"experiment": "e", "arm": arm, "seed": "0", "config_hash": "h"}
            for col in ("ratio_before", "ratio_after", "p", "q", "p_pre",
                        "acc_train", "acc_val", "acc_test"):
                r[col] = 1.0 if arm == "origin" else 0.0
            rows.append(r)
        out = append_summary_rows(rows)
        means = {r["arm"]: r for r in out if r["seed"] == "mean"}
        assert means["origin"]["acc_test"] == 1.0
        assert means["refined"]["acc_test"] == 0.0


class TestPipelineCommand:
    def test_end_to_end_files_and_schema(self, tmp_path):
        cfg_path = write_json(tmp_path, fast_config(seeds=[0, 1]))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out)]) == 0

        text = (out / "pipeline.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(METRICS_HEADER)
        rows = read_rows(out / "pipeline.csv")
        data_rows = [r for r in rows if r["seed"] not in ("mean", "std")]
        assert {(r["arm"], r["seed"]) for r in data_rows} == {
            ("origin", "0"), ("origin", "1"), ("refined", "0"), ("refined", "1")}
        assert len(rows) == 4 + 4  # plus mean/std per arm
        for r in data_rows:
            assert 0.0 <= float(r["acc_test"]) <= 1.0
            assert len(r["config_hash"]) == 12

        timings = read_rows(out / "pipeline_timings.csv")
        assert list(timings[0].keys()) == list(TIMINGS_HEADER)
        assert len(timings) == 4
        assert all(float(r["wall_ms"]) > 0 for r in timings)

        reports = json.loads((out / "pipeline_refinement.json").read_text(encoding="utf-8"))
        assert set(reports) == {"seed0/refined", "seed1/refined"}
        rep = reports["seed0/refined"]
        assert rep["edges_before"] - rep["edges_removed"] + rep["edges_added"] == rep["edges_after"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_json(tmp_path, fast_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out1)]) == 0
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out2)]) == 0
        assert (out1 / "pipeline.csv").read_bytes() == (out2 / "pipeline.csv").read_bytes()
        assert ((out1 / "pipeline_refinement.json").read_bytes()
                == (out2 / "pipeline_refinement.json").read_bytes())

    @pytest.mark.filterwarnings("error")
    def test_default_budget_trains_the_seeds_100_epochs_diverged_on(self, tmp_path, capsys):
        # at 100 epochs the default classifier diverged on each of these seeds, at epochs 41-93
        out = tmp_path / "o"
        assert main(["pipeline", "--seeds", "7,15,22,29", "--output-dir", str(out)]) == 0
        assert "FAILED" not in capsys.readouterr().err
        assert [r["seed"] for r in read_rows(out / "pipeline.csv") if r["arm"] == "refined"] == [
            "7", "15", "22", "29", "mean", "std"]

    def test_perfect_graph_unchanged_by_oracle_filter(self, tmp_path):
        raw = fast_config(
            dataset={"homophily": 1.0},
            scorer={"kind": "oracle", "mode": "filter", "target_p": 1.0, "target_q": 0.0},
            refinement={"do_add": False},
        )
        cfg = config_from_dict(raw, str(tmp_path / "o"))
        rows, code = run_pipeline(cfg)
        assert code == 0
        by_arm = {r["arm"]: r for r in rows}
        assert by_arm["refined"]["ratio_before"] == 1.0
        assert by_arm["refined"]["ratio_after"] == 1.0
        # nothing was filtered, so both arms trained on the same graph
        assert by_arm["refined"]["acc_test"] == by_arm["origin"]["acc_test"]

    def test_missing_dataset_fails_with_module_qualified_error(self, tmp_path, capsys):
        raw = fast_config()
        raw["dataset"] = {"kind": "files", "nodes_path": "no_such.tsv",
                         "edges_path": "missing.tsv"}
        cfg_path = write_json(tmp_path, raw)
        code = main(["pipeline", "--config", cfg_path, "--output-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED pipeline/dataset/seed0: builtins.FileNotFoundError" in err
        # the CSV is still written, holding only the header
        assert (tmp_path / "o" / "pipeline.csv").read_text(encoding="utf-8").startswith(
            ",".join(METRICS_HEADER))

    def test_dump_refined_writes_tsvs(self, tmp_path):
        cfg = config_from_dict(fast_config(dump_refined=True), str(tmp_path / "o"))
        _, code = run_pipeline(cfg)
        assert code == 0
        nodes = tmp_path / "o" / "pipeline_refined_seed0.nodes.tsv"
        edges = tmp_path / "o" / "pipeline_refined_seed0.edges.tsv"
        g, t = load(nodes, edges, normalize=False)
        assert g.num_nodes == 100


    def test_training_sidecar_is_byte_identical(self, tmp_path):
        cfg_path = write_json(tmp_path, fast_config(seeds=[0, 1]))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out1)]) == 0
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out2)]) == 0
        sidecar = out1 / "pipeline_training.json"
        assert sidecar.read_bytes() == (out2 / "pipeline_training.json").read_bytes()
        curves = json.loads(sidecar.read_text(encoding="utf-8"))
        assert set(curves) == {"seed0", "seed1"}
        cfg = load_config(cfg_path)
        for seed in cfg.seeds:
            # the sidecar holds the loss of the classifier the run trained, over all its pairs
            g, t = cli._load_dataset(cfg, seed)
            clf, features, _ = cli._trained(cfg, g, t, seed)
            pairs = build_pairs(g, t, dataclasses.replace(cfg.edge_classifier, seed=seed))
            weights = pair_weights(pairs, cfg.edge_classifier.class_weighting)
            curve = curves[f"seed{seed}"]
            assert curve["loss_history"] == clf.loss_history.tolist() and len(curve["loss_history"]) == 15
            assert curve["final_loss"] == loss_and_grad(clf, features, pairs, weights)[0]
        header = (out1 / "pipeline.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(METRICS_HEADER)

    def test_oracle_scorer_writes_no_training_sidecar(self, tmp_path):
        raw = fast_config(scorer={"kind": "oracle", "mode": "filter", "target_p": 0.9, "target_q": 0.1})
        _, code = run_pipeline(config_from_dict(raw, str(tmp_path / "o")))
        assert code == 0
        assert (tmp_path / "o" / "pipeline.csv").exists()
        assert not (tmp_path / "o" / "pipeline_training.json").exists()


class TestRealizedFilterQuality:
    """The oracle's realized (p, q) is measured on the pairs ``filter_edges``
    scores, whichever direction the edges are stored in."""

    def one_way_graph(self):
        # edges stored one way only, each as (hi, lo)
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        t = NodeTable(features=np.zeros((4, 1)), labels=np.array([0, 1, 0, 0]), num_classes=2,
                      split=np.array([0, 0, 1, 2], dtype=np.int8))
        return g, t

    def test_scores_the_pairs_filter_edges_scores(self, monkeypatch):
        g, t = self.one_way_graph()
        seen = []
        build = cli.oracle_scorer

        def recording_oracle(*args, **kwargs):
            inner = build(*args, **kwargs)

            def scorer(u, v):
                seen.append((u.tolist(), v.tolist()))
                return inner(u, v)

            return scorer

        monkeypatch.setattr(cli, "oracle_scorer", recording_oracle)
        scorer, features, cols = cli._oracle(g, t, OracleClassifier(mode="filter"), 0.5)
        assert features is None
        filter_edges(g, scorer, 0.5)
        assert (cols["p"], cols["q"]) == (1.0, 0.0) and math.isnan(cols["p_pre"])
        assert seen == [([0, 1], [2, 3])] * 2

    def test_one_way_tsv_reports_p_and_q(self, tmp_path):
        (tmp_path / "nodes.tsv").write_text(
            "0\t0\ttrain\t1,0\n1\t1\ttrain\t0,1\n2\t0\tval\t1,0\n3\t0\ttest\t1,1\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("3\t1\n2\t0\n", encoding="utf-8")
        raw = fast_config(
            dataset={"kind": "files", "nodes_path": str(tmp_path / "nodes.tsv"),
                     "edges_path": str(tmp_path / "edges.tsv"), "undirected": False},
            scorer={"kind": "oracle", "mode": "filter", "target_p": 1.0, "target_q": 0.0},
            refinement={"do_add": False})
        rows, code = run_pipeline(config_from_dict(raw, str(tmp_path / "o")))
        assert code == 0
        refined = next(r for r in rows if r["arm"] == "refined")
        assert (refined["p"], refined["q"]) == (1.0, 0.0)


class TestOneThreshold:
    """A trained scorer's p, q and p_pre are counted at ``refinement.threshold``,
    the threshold the filter and add passes run at."""

    def test_trained_rates_use_the_refinement_threshold(self, tmp_path):
        raw = {"dataset": {"n": 400}, "seeds": [0], "refinement": {"threshold": 0.7},
               "model": {"epochs": 20}, "edge_classifier": {"epochs": 20}}
        cfg = config_from_dict(raw, str(tmp_path / "o"))
        rows, code = run_pipeline(cfg)
        assert code == 0
        refined = next(r for r in rows if r["arm"] == "refined")
        g, t = cli._load_dataset(cfg, 0)
        tc = dataclasses.replace(cfg.edge_classifier, seed=0)
        features = edge_input_features(g, t, cfg.edge_features)
        clf = train(build_pairs(g, t, tc), features, tc)
        held = holdout_pairs(g, t, tc.include_two_hop)
        want = evaluate_quality(clf, held, features, 0.7)
        assert (refined["p"], refined["q"], refined["p_pre"]) == (want.p, want.q, want.p_pre)
        at_half = evaluate_quality(clf, held, features, 0.5)
        assert (want.p, want.q) != (at_half.p, at_half.q)

    def test_classifier_threshold_key_is_unknown(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path, {"edge_classifier": {"threshold": 0.7}})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config.edge_classifier: unknown keys ['threshold']" in err[0]
        assert not out.exists()


class TestOneWayEdgeList:
    """Training and held-out pairs read an edge list stored one way as if it
    held both directions."""

    def write_dataset(self, tmp_path):
        g, t = synth(n=60, c=3, d=6, homophily=0.6, avg_degree=5.0, feature_sep=3.0, seed=0)
        nodes, both = tmp_path / "nodes.tsv", tmp_path / "both.tsv"
        save(g, t, nodes, both)
        edges = g.edge_array()
        hi_lo = edges[edges[:, 0] > edges[:, 1]]
        assert hi_lo.shape[0] == 150
        one_way = tmp_path / "hi_lo.tsv"
        one_way.write_text("".join(f"{a}\t{b}\n" for a, b in hi_lo), encoding="utf-8")
        return nodes, one_way

    @pytest.mark.parametrize("two_hop", [False, True])
    def test_pairs_equal_the_undirected_load(self, tmp_path, two_hop):
        nodes, one_way = self.write_dataset(tmp_path)
        g1, t = load(nodes, one_way, undirected=False)
        g2, _ = load(nodes, one_way, undirected=True)
        assert g1.num_edges < g2.num_edges
        cfg = config_from_dict({"edge_classifier": {"include_two_hop": two_hop}}).edge_classifier
        for got, want in ((build_pairs(g1, t, cfg), build_pairs(g2, t, cfg)),
                          (holdout_pairs(g1, t, two_hop), holdout_pairs(g2, t, two_hop))):
            for name in ("u", "v", "labels", "provenance"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_one_way_pipeline_runs(self, tmp_path, capsys):
        nodes, one_way = self.write_dataset(tmp_path)
        raw = fast_config(dataset={"kind": "files", "nodes_path": str(nodes), "edges_path": str(one_way),
                                   "undirected": False},
                          edge_classifier={"include_two_hop": False})
        cfg_path = write_json(tmp_path, raw)
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(tmp_path / "o")]) == 0
        assert "FAILED" not in capsys.readouterr().err


class TestErrorExits:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path, {"mystery": 1})
        assert main(["pipeline", "--config", cfg_path]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_non_finite_number_in_the_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"dataset": {"avg_degree": Infinity}}', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: lagraph.cli.ConfigError: dataset: avg_degree: expected a finite number, got inf"]
        assert not out.exists()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["pipeline", "--config", str(path)]) == 2

    def test_bad_dataset_flag(self, capsys):
        assert main(["pipeline", "--dataset", "nodes_only"]) == 2
        assert "NODES:EDGES" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [{"scorer": {"kind": "oracle", "mode": "bogus"}},
                                         {"model": {"learning_rate": -1}}])
    def test_bad_scorer_or_model_exits_2_before_any_arm(self, tmp_path, capsys, section):
        cfg_path = write_json(tmp_path, fast_config(**section))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "synth"])
    @pytest.mark.parametrize("dataset, target, allowed", [
        ({"n": 2000, "c": 1000, "homophily": 1.0, "avg_degree": 8.0}, 8000, 1000),
        ({"n": 100, "c": 1, "homophily": 0.0}, 300, 0),
        ({"n": 2000, "c": 1, "homophily": 1e-9, "avg_degree": 8.0}, 8000, 0),
        # expects barely as many same-class draws as edges: self partners and repeats leave it short
        ({"n": 3, "c": 1, "homophily": 1.0001 * 3 / 1600, "avg_degree": 8.0}, 3, 0),
        ({"n": 50, "c": 1, "homophily": 1.0001 * 200 / 41000, "avg_degree": 8.0}, 200, 0),
    ])
    def test_infeasible_homophily_exits_2_before_any_arm(self, tmp_path, capsys, command,
                                                         dataset, target, allowed):
        cfg_path = write_json(tmp_path, fast_config(dataset=dataset))
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"edge target {target} exceeds the {allowed} " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "degrade", "ablation", "sweep"])
    def test_empty_test_split_exits_2_before_any_seed(self, tmp_path, capsys, command):
        cfg_path = write_json(tmp_path, fast_config(dataset={"n": 4, "c": 2}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: lagraph.cli.ConfigError: dataset: n = 4 <= 2c = 4 leaves every class "
                       "at most two nodes, so the test split is empty"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "degrade", "ablation"])
    def test_add_oracle_for_a_filter_stage_exits_2_before_any_arm(self, tmp_path, capsys, command):
        cfg_path = write_json(tmp_path, fast_config(scorer={"kind": "oracle", "mode": "add"}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: lagraph.cli.ConfigError: scorer: an add-mode oracle cannot score the filter stage"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ablation", "sweep"])
    def test_arm_that_cannot_add_exits_2_before_any_seed(self, tmp_path, capsys, monkeypatch, command):
        # n_max = 0 is valid for a config that does not add, but these commands' arms add
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        cfg_path = write_json(tmp_path, fast_config(refinement={"n_max": 0, "do_add": False},
                                                    sweep={"kind": "p_pre"}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: lagraph.cli.ConfigError: refinement: n_max must be >= 1 when adding is enabled"]
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("argv", [["theory", "--trials", "100"], ["sweep", "--kind", "p_pre"]])
    def test_seed_of_2_to_the_64_exits_2_before_writing(self, tmp_path, capsys, argv):
        # the draws key a seed as a uint64
        cfg_path = write_json(tmp_path, fast_config())
        out = tmp_path / "o"
        assert main([*argv, "--config", cfg_path, "--seeds", str(2**64), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: lagraph.cli.ConfigError: seeds must be below 2**64"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "ablation", "sweep", "synth"])
    def test_output_dir_under_a_file_exits_2_before_any_seed(self, tmp_path, capsys, monkeypatch, command):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        cfg_path = write_json(tmp_path, fast_config())
        assert main([command, "--config", cfg_path, "--output-dir", str(blocker / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert loads == []

    def test_add_oracle_without_filter_runs(self, tmp_path):
        raw = fast_config(scorer={"kind": "oracle", "mode": "add"},
                          refinement={"do_filter": False})
        cfg_path = write_json(tmp_path, raw)
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(tmp_path / "o")]) == 0

    def test_p_pre_sweep_threshold_guard(self, tmp_path, capsys):
        raw = fast_config(refinement={"threshold": 0.7},
                          sweep={"kind": "p_pre", "values": [0.5]})
        cfg_path = write_json(tmp_path, raw)
        code = main(["sweep", "--config", cfg_path, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_divergence_names_the_feature_scale(self, tmp_path, capsys):
        # binary adjacency powers reach 1.91e8 at k = 8 (raw features: 5.1)
        cfg_path = write_json(tmp_path, {"edge_features": {"k": 8, "binary": True},
                                         "dataset": {"n": 300}, "seeds": [0]})
        assert main(["pipeline", "--config", cfg_path, "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAILED pipeline/refined/seed0: builtins.RuntimeError: training diverged: non-finite loss "
            "at epoch 1, batch offset 256 (lr=0.1, largest |feature| 1.91e+08, "
            "largest |parameter| 7.33e+163)"]


class TestAblationCommand:
    def test_all_arms_present(self, tmp_path):
        cfg = config_from_dict(fast_config(), str(tmp_path / "o"))
        rows, code = run_ablation(cfg)
        assert code == 0
        assert {r["arm"] for r in rows} == {"origin", "filter", "add", "filter_add"}
        csv_rows = read_rows(tmp_path / "o" / "ablation.csv")
        assert {r["arm"] for r in csv_rows} == {"origin", "filter", "add", "filter_add"}
        filt = next(r for r in rows if r["arm"] == "filter")
        assert filt["ratio_after"] > filt["ratio_before"]

    def test_one_classifier_per_seed_serves_every_arm(self, tmp_path, monkeypatch):
        trained = []
        train = cli.train

        def counted_train(pairs, features, tc):
            clf = train(pairs, features, tc)
            trained.append((tc.seed, clf))
            return clf

        scored = []
        refine = cli.refine

        def recorded_refine(g, t, scorer, rcfg, features=None):
            scored.append(scorer)
            return refine(g, t, scorer, rcfg, features=features)

        monkeypatch.setattr(cli, "train", counted_train)
        monkeypatch.setattr(cli, "refine", recorded_refine)
        _, code = run_ablation(config_from_dict(fast_config(seeds=[0, 1]), str(tmp_path / "o")))
        assert code == 0
        assert [seed for seed, _ in trained] == [0, 1]
        shared = [clf for _, clf in trained for _ in cli.ABLATION_ARMS]
        assert len(scored) == 6 and all(got is want for got, want in zip(scored, shared))
        curves = json.loads((tmp_path / "o" / "ablation_training.json").read_text(encoding="utf-8"))
        assert set(curves) == {"seed0", "seed1"}

    @pytest.mark.filterwarnings("error")
    def test_a_diverged_classifier_fails_every_arm_of_its_seed(self, tmp_path, capsys):
        # the config of TestErrorExits.test_divergence_names_the_feature_scale
        cfg_path = write_json(tmp_path, {"edge_features": {"k": 8, "binary": True},
                                         "dataset": {"n": 300}, "seeds": [0]})
        out = tmp_path / "o"
        assert main(["ablation", "--config", cfg_path, "--output-dir", str(out)]) == 1
        reason = ("builtins.RuntimeError: training diverged: non-finite loss at epoch 1, batch offset 256 "
                  "(lr=0.1, largest |feature| 1.91e+08, largest |parameter| 7.33e+163)")
        assert capsys.readouterr().err.splitlines() == [
            f"FAILED ablation/{arm}/seed0: {reason}" for arm, _, _ in cli.ABLATION_ARMS]
        assert [(r["arm"], r["seed"]) for r in read_rows(out / "ablation.csv")] == [
            ("origin", "0"), ("origin", "mean"), ("origin", "std")]
        assert not (out / "ablation_training.json").exists()


class TestSweepCommand:
    def test_perfect_endpoint_purifies(self, tmp_path):
        raw = fast_config(sweep={"kind": "p_minus_q", "values": [0.0, 1.0]})
        cfg = config_from_dict(raw, str(tmp_path / "o"))
        rows, code = run_oracle_sweep(cfg)
        assert code == 0
        perfect = next(r for r in rows if r["arm"] == "pmq=1.00")
        assert perfect["ratio_after"] == 1.0
        assert perfect["p"] == 1.0 and perfect["q"] == 0.0
        chance = next(r for r in rows if r["arm"] == "pmq=0.00")
        assert abs(chance["ratio_after"] - chance["ratio_before"]) < 0.15

    def test_p_pre_sweep_reports_realized_precision(self, tmp_path):
        raw = fast_config(sweep={"kind": "p_pre", "values": [1.0]})
        cfg = config_from_dict(raw, str(tmp_path / "o"))
        rows, code = run_oracle_sweep(cfg)
        assert code == 0
        row = next(r for r in rows if r["arm"] == "ppre=1.00")
        # patched from the refinement report: the realized precision, which
        # drifts below the target only when a same-label pool runs dry
        assert not math.isnan(row["p_pre"])
        assert 0.8 < row["p_pre"] <= 1.0
        assert row["ratio_after"] > row["ratio_before"]

    def test_p_pre_arms_of_a_seed_share_one_sorted_queue(self, tmp_path, monkeypatch):
        """Each seed builds and hashes its pools once for its six add passes,
        every pass walks a queue built from its own graph, and no queue
        outlives its seed."""
        seeds, queues, current, built_from = [], [], {}, {}
        load_dataset, pools = cli._load_dataset, refinement.two_hop_blocks
        hash_keys, add_edges = refinement.unit_uniform, refinement.add_edges
        ranked_pools, oracle_scorer = refinement._ranked_pools, cli.oracle_scorer

        def seed_start(cfg, seed):
            gc.collect()
            seeds.append({"queues_alive": sum(ref() is not None for ref in queues),
                          "entries": [], "hashes": 0, "own_graph": []})
            return load_dataset(cfg, seed)

        def counted_pools(g):
            seeds[-1]["entries"].append(0)
            for owners, cand in pools(g):
                seeds[-1]["entries"][-1] += cand.size
                yield owners, cand

        def counted_hash(*args):
            seeds[-1]["hashes"] += 1
            return hash_keys(*args)

        def add_pass(g, *args):
            current["graph"] = g
            return add_edges(g, *args)

        def recorded_queue(g, *args):
            queue = ranked_pools(g, *args)
            assert isinstance(queue, refinement._PoolQueue)
            queues.append(weakref.ref(queue))
            built_from[id(queue)] = weakref.ref(g)
            return queue

        def scorer_of_record(t, oc, _shared=None):
            scorer = oracle_scorer(t, oc, _shared=_shared)
            walk = scorer.walk

            def walk_of_record(g, n_max):
                queue, p_pre = walk(g, n_max)
                seeds[-1]["own_graph"].append(built_from[id(queue)]() is current["graph"])
                return queue, p_pre

            scorer.walk = walk_of_record
            return scorer

        monkeypatch.setattr(cli, "_load_dataset", seed_start)
        monkeypatch.setattr(cli, "oracle_scorer", scorer_of_record)
        monkeypatch.setattr(refinement, "two_hop_blocks", counted_pools)
        monkeypatch.setattr(refinement, "unit_uniform", counted_hash)
        monkeypatch.setattr(refinement, "add_edges", add_pass)
        monkeypatch.setattr(refinement, "_ranked_pools", recorded_queue)
        monkeypatch.setattr("lagraph.graph.POOL_ROWS", 100)
        raw = fast_config(dataset={"n": 400}, seeds=[0, 1],
                          sweep={"kind": "p_pre", "values": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]})
        _, code = run_oracle_sweep(config_from_dict(raw, str(tmp_path / "o")))
        assert code == 0
        gc.collect()
        assert len(queues) == 2 and all(ref() is None for ref in queues)
        assert len(seeds) == 2
        for seed in seeds:
            assert seed["queues_alive"] == 0
            assert len(seed["entries"]) == 1 and seed["entries"][0] > 1000
            assert 1 <= seed["hashes"] <= math.ceil(400 / 100)
            assert seed["own_graph"] == [True] * 6

    def test_flag_overrides(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path, fast_config())
        out = tmp_path / "o"
        code = main(["sweep", "--config", cfg_path, "--output-dir", str(out),
                     "--kind", "p_minus_q", "--values", "1.0"])
        assert code == 0
        rows = read_rows(out / "sweep_pmq.csv")
        arms = {r["arm"] for r in rows}
        assert arms == {"origin", "pmq=1.00"}

    def test_kind_flag_keeps_config_values(self, tmp_path):
        cfg_path = write_json(tmp_path, fast_config(sweep={"values": [0.5]}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_path, "--output-dir", str(out), "--kind", "p_pre"]) == 0
        assert {r["arm"] for r in read_rows(out / "sweep_ppre.csv")} == {"origin", "ppre=0.50"}

    @pytest.mark.parametrize("values", [["x"], 0.5, [None], [True, False], [0.5, math.inf]])
    def test_malformed_values_exit_2_before_any_arm(self, tmp_path, capsys, values):
        cfg_path = write_json(tmp_path, fast_config(sweep={"values": values}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "ConfigError: sweep.values" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/sweep_*.csv"))

    @pytest.mark.parametrize("command", ["pipeline", "ablation", "degrade", "theory", "synth"])
    def test_every_command_refuses_malformed_values_at_load(self, tmp_path, capsys, command):
        cfg_path = write_json(tmp_path, fast_config(sweep={"values": ["x"]}))
        out = tmp_path / "o"
        assert main([command, "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "ConfigError: sweep.values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["p_minus_q", "p_pre"])
    def test_empty_values_exit_2_before_any_arm(self, tmp_path, capsys, kind):
        cfg_path = write_json(tmp_path, fast_config(sweep={"kind": kind, "values": []}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "ConfigError: sweep.values must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [[0.501, 0.502], [0.5, 0.5]])
    def test_colliding_arm_names_exit_2_before_any_arm(self, tmp_path, capsys, values):
        cfg_path = write_json(tmp_path, fast_config(sweep={"kind": "p_pre", "values": values}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "ConfigError: sweep.values: arm names collide" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_values_rejected(self, tmp_path):
        raw = fast_config(sweep={"kind": "p_minus_q", "values": [1.5]})
        cfg = config_from_dict(raw, str(tmp_path / "o"))
        with pytest.raises(ConfigError, match="values"):
            run_oracle_sweep(cfg)


class TestDegradeCommand:
    def test_k_zero_matches_pipeline(self, tmp_path):
        cfg1 = config_from_dict(fast_config(), str(tmp_path / "a"))
        pipe_rows, _ = run_pipeline(cfg1)
        cfg2 = config_from_dict(fast_config(), str(tmp_path / "b"))
        deg_rows, code = run_degradation(cfg2, k=0)
        assert code == 0
        assert (tmp_path / "b" / "degrade_k0.csv").exists()
        for a, b in zip(pipe_rows, deg_rows):
            assert a["experiment"] == "pipeline" and b["experiment"] == "degrade_k0"
            for col in METRICS_HEADER:
                if col == "experiment":
                    continue
                av, bv = a[col], b[col]
                assert av == bv or (isinstance(av, float) and math.isnan(av) and math.isnan(bv))

    @pytest.mark.parametrize("argv", [["degrade", "--k", "67"], ["pipeline"]])
    def test_unreachable_k_exits_2_before_any_arm(self, tmp_path, capsys, argv):
        # 100 nodes in 3 classes: the largest holds 34, so 66 nodes carry another label
        cfg_path = write_json(tmp_path, fast_config(degrade_k=67 if argv == ["pipeline"] else 0))
        out = tmp_path / "o"
        assert main([*argv, "--config", cfg_path, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "dataset: degrade_k must be <= 66, the different-label nodes" in err[0]
        assert not out.exists()

    def test_k_is_checked_by_the_commands_that_degrade(self, tmp_path):
        # a config loads whatever its degrade_k; ablation, sweep, theory and synth never read it
        cfg = config_from_dict(fast_config(degrade_k=67), str(tmp_path / "o"))
        assert cfg.degrade_k == 67
        with pytest.raises(ConfigError, match="degrade_k must be <= 66"):
            run_degradation(cfg)
        with pytest.raises(ConfigError, match="degrade_k must be <= 66"):
            run_pipeline(dataclasses.replace(cfg, degrade_k=0), degrade_k=67)
        assert not (tmp_path / "o").exists()

    def test_degradation_lowers_ratio(self, tmp_path):
        cfg = config_from_dict(fast_config(), str(tmp_path / "o"))
        rows, code = run_degradation(cfg, k=2)
        assert code == 0
        origin = next(r for r in rows if r["arm"] == "origin")
        refined = next(r for r in rows if r["arm"] == "refined")
        base = config_from_dict(fast_config(), str(tmp_path / "p"))
        clean_rows, _ = run_pipeline(base)
        clean_origin = next(r for r in clean_rows if r["arm"] == "origin")
        assert origin["ratio_before"] < clean_origin["ratio_before"]
        assert refined["ratio_after"] > origin["ratio_before"]


class TestSynthCommand:
    def test_export_then_reload_via_files_pipeline(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path, fast_config())
        out = tmp_path / "o"
        assert main(["synth", "--config", cfg_path, "--output-dir", str(out)]) == 0
        nodes, edges = out / "nodes.tsv", out / "edges.tsv"
        g, t = load(nodes, edges, normalize=False)
        assert g.num_nodes == 100 and t.num_classes == 3

        run_dir = tmp_path / "r"
        code = main(["pipeline", "--config", cfg_path, "--output-dir", str(run_dir),
                     "--dataset", f"{nodes}:{edges}", "--seeds", "0"])
        assert code == 0
        rows = read_rows(run_dir / "pipeline.csv")
        assert {r["arm"] for r in rows} == {"origin", "refined"}

    def test_synth_checks_kind_before_reading_files(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = main(["synth", "--output-dir", str(tmp_path / "o"),
                     "--dataset", f"{missing}/n.tsv:{missing}/e.tsv"])
        assert code == 2
        assert "synth" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_synth_requires_synth_dataset(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path, fast_config())
        out = tmp_path / "o"
        main(["synth", "--config", cfg_path, "--output-dir", str(out)])
        nodes, edges = out / "nodes.tsv", out / "edges.tsv"
        code = main(["synth", "--config", cfg_path, "--output-dir", str(tmp_path / "p"),
                     "--dataset", f"{nodes}:{edges}"])
        assert code == 2
        assert "synth" in capsys.readouterr().err


class TestTheoryCommand:
    def test_outputs_and_pass(self, tmp_path):
        cfg_path = write_json(tmp_path, {"theory_trials": 2000, "seeds": [0]})
        out = tmp_path / "o"
        assert main(["theory", "--config", cfg_path, "--output-dir", str(out)]) == 0
        props = json.loads((out / "theory_propositions.json").read_text(encoding="utf-8"))
        assert props["passed"] is True
        assert props["filter_points"] + props["filter_boundary_points"] == 20 * 20 * 100
        rows = read_rows(out / "theory_sweep.csv")
        assert len(rows) == 9 * 5  # 9 (n+, n-) combos x (origin + 2 filter + 2 add)
        for r in rows:
            gap = abs(float(r["analytic"]) - float(r["mc_mean"]))
            assert gap <= 5 * float(r["mc_std_error"])

    def test_trials_flag(self, tmp_path):
        out = tmp_path / "o"
        assert main(["theory", "--output-dir", str(out), "--trials", "500",
                     "--seeds", "1"]) == 0
        rows = read_rows(out / "theory_sweep.csv")
        assert len(rows) == 45

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["theory", "--output-dir", str(out), "--trials", "100",
                     "--seeds", str(2**64 - 1)]) == 0
        assert len(read_rows(out / "theory_sweep.csv")) == 45

    def test_one_trial_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["theory", "--output-dir", str(out), "--trials", "1"]) == 2
        assert "theory_trials must be >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestDispatch:
    """The benchmark times a run by replacing these module attributes, so
    ``main`` must look them up when it runs, not bind them at import."""

    @pytest.mark.parametrize("command,attr", [("pipeline", "run_pipeline"),
                                              ("ablation", "run_ablation"),
                                              ("sweep", "run_oracle_sweep"),
                                              ("theory", "run_theory")])
    def test_main_calls_the_current_module_attribute(self, tmp_path, monkeypatch, command, attr):
        calls = []

        def stub(*args, **kwargs):
            calls.append(args)
            return 0 if command == "theory" else ([], 0)

        monkeypatch.setattr(cli, attr, stub)
        assert main([command, "--output-dir", str(tmp_path), "--seeds", "3"]) == 0
        assert len(calls) == 1
        cfg = calls[0][0]
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.seeds == (3,) and cfg.output_dir == str(tmp_path)

    def test_every_function_the_benchmark_replaces_is_dispatched_at_call_time(self, tmp_path,
                                                                             monkeypatch):
        """``perfbench/child.py`` times a command by replacing the attribute its
        ``RUN_FUNCTIONS`` names; each must be what ``main`` then calls."""
        child = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text(encoding="utf-8")
        assigns = [node for node in ast.parse(child).body if isinstance(node, ast.Assign)]
        run_functions = next(ast.literal_eval(node.value) for node in assigns
                             if [target.id for target in node.targets] == ["RUN_FUNCTIONS"])
        assert run_functions
        for command, attr in run_functions.items():
            calls = []
            monkeypatch.setattr(cli, attr, lambda cfg, calls=calls, command=command:
                                calls.append(cfg) or (0 if command == "theory" else ([], 0)))
            assert main([command, "--output-dir", str(tmp_path), "--seeds", "3"]) == 0
            assert [cfg.seeds for cfg in calls] == [(3,)], command
