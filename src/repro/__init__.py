"""repro -- reproduction of "Discovering Your Selling Points: Personalized
Social Influential Tags Exploration" (Li, Tan, Fan, Zhang; SIGMOD 2017).

The top-level package re-exports the most commonly used entry points; see
``README.md`` for a quickstart and ``docs/architecture.md`` for the dataflow.

Typical usage::

    from repro import PitexEngine
    from repro.datasets import load_dataset

    dataset = load_dataset("lastfm", seed=7)
    engine = PitexEngine(dataset.graph, dataset.model, seed=7)
    result = engine.query(user=dataset.workload("mid", 1)[0], k=3, method="indexest+")
    print(result.describe())
"""

from repro.core.engine import PitexEngine, METHODS
from repro.core.query import PitexQuery, PitexResult
from repro.graph.digraph import TopicSocialGraph
from repro.sampling.base import SampleBudget
from repro.topics.model import TagTopicModel

__version__ = "1.0.0"

__all__ = [
    "PitexEngine",
    "PitexQuery",
    "PitexResult",
    "TopicSocialGraph",
    "TagTopicModel",
    "SampleBudget",
    "METHODS",
    "__version__",
]
