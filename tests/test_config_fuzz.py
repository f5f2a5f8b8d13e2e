"""Fuzz the config boundary: every drawn config runs, or is refused at load.

A ``pipeline``, ``ablation``, ``sweep`` or ``degrade`` run on a drawn
config must exit 0, or exit 2 with exactly one ``error:`` line before any
arm runs. Exit 1 is allowed only when every ``FAILED`` line names a
failure that depends on the drawn data, not on a value the config check
could have refused.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lagraph.cli import main

# failures a valid config can still meet on a small graph
DATA_DEPENDENT_FAILURES = (
    "has no labeled nodes",  # an empty split, as each class of n < 3 nodes leaves one
    "no eligible training pairs",
    "no eligible held-out pairs",
    "pair set holds a single class",
    "training diverged",
)

BASE = {
    "dataset": {"n": 60, "c": 3, "d": 4, "avg_degree": 4.0},
    "edge_classifier": {"proj_dim": 4, "hidden_widths": [4], "epochs": 2, "num_sampled": 100},
    "model": {"epochs": 2},
    "seeds": [0],
    "sweep": {"values": [0.0, 1.0]},
}

COMMANDS = ("pipeline", "ablation", "sweep", "degrade")

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BOOLS = st.booleans()


def ints(lo, hi):
    """An int field: a small in- or out-of-range integer, a fraction, a
    non-finite number or a boolean."""
    return st.one_of(st.integers(lo, hi), st.just(2.5), NON_FINITE, BOOLS)


def floats(lo, hi):
    """A float field: a number around [lo, hi], an extreme one, a
    non-finite one or a boolean."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([-1e308, 1e308]), NON_FINITE, BOOLS)


SEEDS = st.lists(st.integers(-2, 3), max_size=3)

FIELDS = {
    ("dataset", "n"): ints(-3, 60),
    ("dataset", "c"): ints(-1, 8),
    ("dataset", "d"): ints(-1, 6),
    ("dataset", "homophily"): floats(-0.5, 1.5),
    ("dataset", "avg_degree"): floats(-1.0, 12.0),
    ("dataset", "feature_sep"): floats(-1.0, 8.0),
    ("edge_features", "k"): ints(-1, 10),
    ("edge_features", "binary"): BOOLS,
    ("edge_classifier", "proj_dim"): ints(-1, 6),
    ("edge_classifier", "hidden_widths"): st.lists(ints(-1, 6), max_size=2),
    ("edge_classifier", "learning_rate"): floats(-1.0, 2.0),
    ("edge_classifier", "momentum"): floats(-0.5, 1.5),
    ("edge_classifier", "epochs"): ints(-1, 2),
    ("edge_classifier", "batch_size"): ints(-1, 300),
    ("edge_classifier", "include_two_hop"): BOOLS,
    ("edge_classifier", "num_sampled"): ints(-5, 60),
    ("refinement", "threshold"): floats(-0.5, 1.5),
    ("refinement", "n_max"): ints(-2, 12),
    ("refinement", "do_filter"): BOOLS,
    ("refinement", "do_add"): BOOLS,
    ("model", "kind"): st.sampled_from(["sgc", "gcn"]),
    ("model", "k"): ints(-1, 10),
    ("model", "learning_rate"): floats(-1.0, 2.0),
    ("model", "weight_decay"): floats(-1.0, 1.0),
    ("model", "hidden_width"): ints(-1, 8),
    ("model", "epochs"): ints(-1, 2),
    ("scorer", "kind"): st.sampled_from(["trained", "oracle"]),
    ("scorer", "mode"): st.sampled_from(["filter", "add"]),
    ("scorer", "target_p"): floats(-0.5, 1.5),
    ("scorer", "target_q"): floats(-0.5, 1.5),
    ("sweep", "kind"): st.sampled_from(["p_minus_q", "p_pre", "p"]),
    ("sweep", "values"): st.lists(floats(-0.5, 1.5), max_size=2),
    (None, "seeds"): SEEDS,
    (None, "degrade_k"): ints(-1, 2),
}


@st.composite
def configs(draw):
    raw = json.loads(json.dumps(BASE))
    for section, key in draw(st.lists(st.sampled_from(list(FIELDS)), min_size=1, max_size=4, unique=True)):
        value = draw(FIELDS[section, key], label=f"{section}.{key}")
        (raw if section is None else raw.setdefault(section, {}))[key] = value
    return raw


@settings(max_examples=25, deadline=2000)
@given(st.sampled_from(COMMANDS), configs())
def test_experiment_runs_or_is_refused_at_load(tmp_path_factory, command, raw):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # non-finite floats as NaN / Infinity
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--output-dir", str(work / "o")])
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    failed = [line for line in lines if line.startswith("FAILED")]
    if code == 2:
        assert len(errors) == 1 and not failed, lines
        assert not (work / "o").exists()
    elif code == 1:
        assert failed and not errors, lines
        assert all(any(reason in line for reason in DATA_DEPENDENT_FAILURES) for line in failed), lines
    else:
        assert code == 0 and not errors and not failed, lines
