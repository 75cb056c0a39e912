"""Sizing configuration of the benchmark harness.

The paper runs on a C++ implementation over graphs with up to ten million
vertices; this pure-Python reproduction scales the instances down so the whole
table/figure suite finishes on a laptop while preserving the structural knobs
that drive the comparisons (density, degree skew, topic sparsity, tag-topic
density).  Three presets are provided:

* ``smoke``  -- minutes-long CI runs (used by ``pytest benchmarks/``),
* ``default`` -- a fuller sweep for interactive exploration,
* ``full``   -- the closest practical approximation of the paper's settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class BenchmarkConfig:
    """All knobs of one benchmark run.

    Attributes
    ----------
    datasets:
        Dataset profile names to include.
    scales:
        Per-dataset scale factor applied to the profile's default vertex count.
    queries_per_group:
        Number of query users drawn per out-degree group (the paper uses 100).
    k:
        Default number of tags per query.
    epsilon / delta:
        Default accuracy parameters (paper defaults: 0.7 / 1000).
    max_samples:
        Practical cap on per-tag-set online samples.
    index_samples:
        Number of RR-Graphs materialized by the offline indexes.
    methods:
        Methods compared by the efficiency/spread experiments.
    online_methods:
        Online sampling methods compared by Fig. 6 / Fig. 13.
    seed:
        Base random seed.
    """

    datasets: Tuple[str, ...] = ("lastfm", "diggs", "dblp", "twitter")
    scales: Dict[str, float] = field(
        default_factory=lambda: {"lastfm": 0.35, "diggs": 0.35, "dblp": 0.3, "twitter": 0.25}
    )
    queries_per_group: int = 3
    k: int = 2
    epsilon: float = 0.7
    delta: float = 1000.0
    max_samples: int = 200
    index_samples: int = 600
    methods: Tuple[str, ...] = (
        "rr",
        "mc",
        "lazy",
        "lazy-batched",
        "tim",
        "indexest",
        "indexest+",
        "delaymat",
    )
    online_methods: Tuple[str, ...] = ("mc", "rr", "lazy", "lazy-batched")
    seed: int = 2017

    def scale_of(self, dataset: str) -> float:
        """Scale factor for ``dataset`` (1.0 when not listed)."""
        return self.scales.get(dataset, 1.0)

    def with_overrides(self, **kwargs) -> "BenchmarkConfig":
        """A copy of the configuration with some fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def preset(cls, name: str = "smoke") -> "BenchmarkConfig":
        """One of the named presets (``smoke``, ``default``, ``full``)."""
        name = name.lower()
        if name == "smoke":
            return cls(
                datasets=("lastfm", "diggs"),
                scales={"lastfm": 0.2, "diggs": 0.15, "dblp": 0.1, "twitter": 0.08},
                queries_per_group=1,
                k=2,
                max_samples=100,
                index_samples=250,
            )
        if name == "default":
            return cls()
        if name == "full":
            return cls(
                scales={"lastfm": 1.0, "diggs": 1.0, "dblp": 1.0, "twitter": 1.0},
                queries_per_group=20,
                k=3,
                max_samples=2000,
                index_samples=5000,
            )
        raise InvalidParameterError(f"unknown preset {name!r}; use smoke, default or full")
