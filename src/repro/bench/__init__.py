"""Benchmark harness reproducing the paper's tables and figures.

* :mod:`repro.bench.config` -- sizing knobs (scale, sample caps, query counts)
  with ``smoke`` / ``default`` / ``full`` presets.
* :mod:`repro.bench.harness` -- engine/dataset caching and query-batch runners.
* :mod:`repro.bench.experiments` -- one driver per table / figure (its
  ``EXPERIMENTS`` registry), each returning an
  :class:`~repro.bench.reporting.ExperimentResult`.
* :mod:`repro.bench.reporting` -- plain-text table formatting used by the
  benchmark scripts, the examples and the CLI.
"""

from repro.bench.config import BenchmarkConfig
from repro.bench.harness import BenchmarkHarness
from repro.bench.reporting import ExperimentResult, format_table
from repro.bench import experiments

__all__ = [
    "BenchmarkConfig",
    "BenchmarkHarness",
    "ExperimentResult",
    "format_table",
    "experiments",
]
