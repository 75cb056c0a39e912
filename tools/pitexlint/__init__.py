"""``pitexlint``: AST-based invariant checks for the PITEX reproduction.

The serving stack's correctness rests on three *conventions* that runtime
tests only catch when a test happens to exercise the offending path:

* **determinism** -- all randomness flows through seeded
  :class:`repro.utils.rng.RandomSource` streams; no direct numpy/stdlib RNG
  construction, no ``hash()``-derived seeds, no wall clock in compute paths;
* **freeze-safety** -- guard-wired classes (the graph, the offline indexes,
  the engine) never mutate shared state without a
  ``guard_check`` tripwire on the mutating method;
* **lock discipline** -- serve-layer classes that own a lock only write
  shared attributes while holding it.

``pitexlint`` enforces all three statically, at lint time::

    PYTHONPATH=tools python -m pitexlint src tests benchmarks

Findings print as ``file:line:col: RULE message``; ``--json report.json``
additionally writes a machine-readable report (uploaded as a CI artifact).
Intentional exceptions are suppressed inline with a mandatory reason::

    self._epochs[key] = epoch  # pitexlint: ignore[LCK001] -- _locked helper: caller holds self._lock

See ``tools/pitexlint/registry.py`` for the rule scopes and the guard-wired
class registry, and ``tools/pitexlint/fixtures/`` for one good and one bad
example per rule (both exercised by ``tests/test_pitexlint.py``).
"""

from pitexlint.core import Finding, LintReport, lint_file, lint_paths, lint_source

__version__ = "1.0.0"

__all__ = [
    "Finding",
    "LintReport",
    "lint_file",
    "lint_paths",
    "lint_source",
    "__version__",
]
