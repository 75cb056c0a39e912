"""Rule scopes and allowlists.

Everything path-shaped here is a *repo-relative posix path prefix* matched
against the file being linted (or against its ``# pitexlint: path=...``
override, which is how the fixture corpus emulates in-tree locations without
living in ``src/``).  Keeping the configuration in one module makes the
linter's policy reviewable at a glance and keeps the rule implementations
mechanical.
"""

from __future__ import annotations

# --------------------------------------------------------------------- rules
RULES = {
    "DET001": (
        "direct numpy RNG use; route randomness through "
        "repro.utils.rng.RandomSource / spawn_rng"
    ),
    "DET002": (
        "stdlib `random` module use; route randomness through "
        "repro.utils.rng.RandomSource (process-stable, spawnable streams)"
    ),
    "DET003": (
        "builtin hash() in seed/key derivation; hash() is randomized per "
        "process (PYTHONHASHSEED) -- use zlib.crc32/hashlib over a stable label"
    ),
    "DET004": (
        "wall clock time.time() in a compute path; use a caller-supplied "
        "timestamp, or repro.obs.clock.monotonic() for durations"
    ),
    "LCK001": (
        "lock-owning serve class writes shared state outside a `with "
        "<lock>` block"
    ),
    "OBS001": (
        "direct time.perf_counter() timing in the serving/core/index layer "
        "(or time.monotonic() in the serving layer); "
        "time through repro.obs.clock (Clock/monotonic) so spans and "
        "benchmarks share one clock seam (raw time.time() in the same "
        "modules is DET004)"
    ),
    "SUP001": "malformed pitexlint pragma (missing reason or unknown rule)",
    "PARSE001": "file could not be parsed",
}

# ---------------------------------------------------------------- rule scopes
# DET001/DET002/DET003 apply to library code; tests and benchmarks may build
# arbitrary adversarial inputs with whatever RNG they like.
DETERMINISM_SCOPE = ("src/repro/",)

# The one sanctioned numpy-RNG construction point: RandomSource itself.
NUMPY_RNG_ALLOW = ("src/repro/utils/rng.py",)

# DET004 applies to the deterministic compute core AND the serving/obs
# layers: since the obs subsystem landed, everything that legitimately needs
# a Unix timestamp routes through repro.obs.clock.wall_clock().
WALL_CLOCK_SCOPE = (
    "src/repro/sampling/",
    "src/repro/core/",
    "src/repro/index/",
    "src/repro/propagation/",
    "src/repro/serve/",
    "src/repro/obs/",
)
# The single sanctioned wall-clock home: obs.clock.wall_clock().  (This used
# to allowlist all of serve/store.py for its manifest timestamps; those now
# call wall_clock() instead.)
WALL_CLOCK_ALLOW = ("src/repro/obs/clock.py",)

LOCK_SCOPE = ("src/repro/serve/",)

# OBS001: serving/core/index modules must not grab time.perf_counter()
# directly -- durations flow through the obs clock seam, so trace spans,
# ServiceMetrics, build times and benchmarks are all timed by one swappable
# source.  (repro.obs.clock is outside the scope: it IS the sanctioned home.)
OBS_TIMER_SCOPE = ("src/repro/serve/", "src/repro/core/", "src/repro/index/")
# OBS001 also flags time.monotonic in the serving layer: queue waits, execute
# seconds and uptime there sit beside trace spans and must read their clock.
OBS_MONOTONIC_SCOPE = ("src/repro/serve/",)

# ------------------------------------------------------- determinism details
# numpy.random attributes whose direct use bypasses RandomSource.  Covers the
# generator factories, the legacy global-state samplers and explicit seeding.
NUMPY_RANDOM_ATTRS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "PCG64",
        "Philox",
        "SFC64",
        "MT19937",
        "SeedSequence",
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "geometric",
        "exponential",
        "poisson",
        "beta",
        "gamma",
        "dirichlet",
        "multinomial",
    }
)

# stdlib random attributes that draw from (or reseed) the module RNG.
STDLIB_RANDOM_ATTRS = frozenset(
    {
        "Random",
        "SystemRandom",
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)

# Container methods that mutate their receiver in place.
MUTATING_CONTAINER_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "move_to_end",
        "fill",
    }
)

# Substrings identifying a lock-ish `with` context expression (matched on the
# dotted source of the context manager, case-insensitive): `with self._lock`,
# `with self._condition` and `with gate.lock` all qualify.
LOCKISH_TOKENS = ("lock", "condition", "mutex", "semaphore", "_cv")

# threading constructors whose assignment marks an attribute as a lock.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def in_scope(path: str, prefixes: tuple) -> bool:
    """Whether ``path`` (repo-relative posix) falls under any prefix."""
    return any(path == p or path.startswith(p) for p in prefixes)
