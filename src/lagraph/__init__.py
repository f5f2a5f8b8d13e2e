"""Label-aware graph refinement for node classification.

An edge classifier scores node pairs; predicted different-label edges are
filtered out and predicted same-label two-hop neighbors are added, then a
graph model (SGC or GCN) is trained on the refined graph. A small theory
module checks the expectation identities behind the method, both in closed
form and by Monte Carlo.

Import each name from the module that defines it: ``lagraph.graph``,
``lagraph.data``, ``lagraph.edge_classifier``, ``lagraph.propagation``,
``lagraph.refinement``, ``lagraph.models``, ``lagraph.theory``,
``lagraph.hashing`` and ``lagraph.cli``.
"""

# kept for perfbench/test_bench.py, which imports PairSet from the package
from .edge_classifier import PairSet  # noqa: F401

__version__ = "0.1.0"
