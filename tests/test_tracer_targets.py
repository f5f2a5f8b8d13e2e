"""Every lagraph attribute the benchmark tracer wraps still exists.

``perfbench/spans.py`` replaces module attributes by name, so a refactor
that drops or renames one breaks traced benchmark runs only. This test loads
the tracer's target list and resolves each entry.
"""

import ast
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import lagraph
from lagraph import refinement
from lagraph.data import synth
from lagraph.edge_classifier import TrainConfig, init_classifier, make_scorer
from lagraph.propagation import EdgeFeatureConfig, edge_input_features
from lagraph.refinement import OracleClassifier, add_edges, oracle_scorer

from conftest import reference_two_hop_pools

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"
PACKAGE = Path(lagraph.__file__).resolve().parent
TRACER_MARK = "bound for the benchmark tracer"


def load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = []
    for target in spans.targets():
        try:
            _, _, value = spans.lookup(target)
        except (AttributeError, KeyError, ImportError):
            missing.append(f"{target.module}.{target.attr}")
            continue
        assert callable(value) or isinstance(value, classmethod), f"{target.module}.{target.attr}"
    assert missing == []


def test_wrapped_add_oracle_keeps_its_walk_hook(monkeypatch):
    """The tracer's wrapper copies the scorer's function attributes, so
    ``add_edges`` through it still walks the oracle's sorted queue: keys are
    hashed per block of the two-hop scan and the scorer is never called."""
    g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
    scorer = oracle_scorer(t, OracleClassifier(mode="add", target_p_pre=0.7))
    tracer = load_spans().Tracer()
    wrapped = tracer.wrap("refinement.scorer", scorer)
    assert wrapped.walk is scorer.walk

    calls = []
    hash_keys = refinement.unit_uniform

    def counted(*args):
        calls.append(args)
        return hash_keys(*args)

    monkeypatch.setattr(refinement, "unit_uniform", counted)
    block = 100
    monkeypatch.setattr("lagraph.graph.POOL_ROWS", block)
    _, rep = add_edges(g, wrapped, 6, 0.5)
    assert rep.edges_added > 0 and not tracer.spans
    assert 1 <= len(calls) <= math.ceil(g.num_nodes / block)
    _, unwrapped = add_edges(g, scorer, 6, 0.5)
    assert np.array_equal(rep.added_pairs, unwrapped.added_pairs)


def test_wrapped_trained_scorer_spans_count_the_scored_entries():
    """A trained add pass calls the tracer-wrapped ``make_scorer`` scorer on
    blocks of pools under the ``add_edges`` span; the pairs of those spans are
    the pool entries of the nodes under ``n_max`` when the pass starts."""
    g, t = synth(n=400, c=4, d=4, homophily=0.4, avg_degree=8.0, feature_sep=1.0, seed=5)
    features = edge_input_features(g, t, EdgeFeatureConfig())
    clf = init_classifier(features.shape[1], TrainConfig(proj_dim=4, hidden_widths=(6,), seed=0))
    spans = load_spans()
    tracer = spans.Tracer()
    traced_add = tracer.wrap("refinement.add_edges", add_edges)
    scorer = tracer.wrap("edge_classifier.make_scorer", make_scorer, returns="refinement.scorer")(clf, features)
    _, rep = traced_add(g, scorer, 10, 0.497)

    by_id = {s[spans.ID]: s for s in tracer.spans}
    scored = [s for s in tracer.spans if s[spans.NAME] == "refinement.scorer"]
    assert scored and all(by_id[s[spans.PARENT]][spans.NAME] == "refinement.add_edges" for s in scored)
    indptr, _ = reference_two_hop_pools(g)
    entries = int(np.diff(indptr)[g.nonself_degrees() < 10].sum())
    assert sum(s[spans.COUNTS]["pairs"] for s in scored) == entries
    _, unwrapped = add_edges(g, make_scorer(clf, features), 10, 0.497)
    assert rep.edges_added > 0 and np.array_equal(rep.added_pairs, unwrapped.added_pairs)


def test_perfbench_package_imports_resolve():
    """Every ``from lagraph import X`` under ``perfbench/`` names a package
    attribute or a submodule, so trimming ``lagraph/__init__.py`` cannot
    break the benchmark's own tests."""
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "lagraph" and node.level == 0:
                imported += [(path.name, alias.name) for alias in node.names]
    assert ("test_bench.py", "PairSet") in imported
    missing = [(name, attr) for name, attr in imported
               if not hasattr(lagraph, attr) and importlib.util.find_spec(f"lagraph.{attr}") is None]
    assert missing == []


def tracer_bound_imports() -> list[tuple[str, str]]:
    """``(module, name)`` of each import that follows a line marked as bound
    for the benchmark tracer, up to the first line that is not an import."""
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        imports = {node.lineno: node for node in ast.walk(ast.parse("\n".join(lines)))
                   if isinstance(node, (ast.Import, ast.ImportFrom))}
        for number, line in enumerate(lines, start=1):
            if line.lstrip().startswith("#") and TRACER_MARK in line:
                while number + 1 in imports:
                    node = imports[number + 1]
                    bound += [(f"lagraph.{path.stem}", alias.asname or alias.name) for alias in node.names]
                    number = node.end_lineno
    return bound


def test_tracer_bound_imports_are_traced():
    """An import kept only for the tracer names a target it wraps, so one
    left behind when the tracer drops its target fails here."""
    bound = tracer_bound_imports()
    assert ("lagraph.refinement", "edge_input_features") in bound
    wrapped = {(target.module, target.attr) for target in load_spans().targets()}
    assert [name for name in bound if name not in wrapped] == []
