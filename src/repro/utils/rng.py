"""Deterministic random-number management.

Every stochastic component in the library (graph generators, samplers, index
construction) accepts either an integer seed, a :class:`numpy.random.Generator`
or ``None``.  :class:`RandomSource` normalizes these inputs so results are
reproducible when a seed is supplied and independent streams can be spawned for
sub-components without correlated sequences.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, "RandomSource"]


#: The geometric draw of a zero probability: the edge never fires.
NEVER_FIRES = int(np.iinfo(np.int64).max)
#: Cap of an inverse-CDF geometric draw.  Tiny probabilities push
#: ``ln(1 - u) / ln(1 - p)`` past the int64 range (or to inf); 2^62 visits is
#: as good as never for any realistic sample budget.
GEOMETRIC_CAP = float(2**62)


def geometric_from_uniforms(uniforms: np.ndarray, log1mp: np.ndarray) -> np.ndarray:
    """Inverse-CDF geometric draws ``ceil(ln(1 - u) / ln(1 - p))`` as int64.

    ``log1mp`` holds ``ln(1 - p)`` per draw; ``-inf`` (``p >= 1``) divides to
    zero.  Draws are clamped into ``[1, 2^62]`` (a NaN quotient clamps to
    ``2^62``).  ``uniforms`` is used as scratch space and overwritten.
    """
    draws = np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    np.divide(draws, log1mp, out=draws)
    np.ceil(draws, out=draws)
    np.fmin(draws, GEOMETRIC_CAP, out=draws)
    np.fmax(draws, 1.0, out=draws)
    return draws.astype(np.int64)


def draw_geometric(
    generator: np.random.Generator, probabilities: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(draws, log1mp)``: one geometric draw per positive probability.

    The one geometric helper of the lazy kernels.  ``ln(1 - p)`` is computed
    once per entry and returned, so a schedule can keep it for its redraws.
    Entries with ``p >= 1`` draw 1 (``ln(1 - p) = -inf``) and consume no
    uniform; every other entry consumes one ``generator.random`` draw, in
    order.  Entries must be positive (see :meth:`RandomSource.geometric_array`
    for zeros).
    """
    certain = probabilities >= 1.0
    if not np.count_nonzero(certain):
        log1mp = np.log1p(-probabilities)
        return geometric_from_uniforms(generator.random(len(log1mp)), log1mp), log1mp
    uncertain = ~certain
    drawn = np.log1p(-probabilities[uncertain])
    log1mp = np.full(len(probabilities), -np.inf)
    log1mp[uncertain] = drawn
    draws = np.ones(len(probabilities), dtype=np.int64)
    draws[uncertain] = geometric_from_uniforms(generator.random(len(drawn)), drawn)
    return draws, log1mp


class RandomSource:
    """A thin, explicit wrapper around :class:`numpy.random.Generator`.

    The wrapper exists for three reasons:

    * normalizing the many seed types accepted by the public API,
    * providing the geometric / Bernoulli primitives used by the samplers with
      a single, well-tested implementation,
    * allowing deterministic child streams (``spawn``) so that, e.g., each
      RR-Graph drawn during index construction has its own reproducible stream.
    """

    __slots__ = ("_generator", "_seed")

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, RandomSource):
            self._generator = seed._generator
            self._seed = seed._seed
        elif isinstance(seed, np.random.Generator):
            self._generator = seed
            self._seed = None
        else:
            self._seed = seed
            self._generator = np.random.default_rng(seed)

    # ------------------------------------------------------------------ basic
    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was created with (``None`` if unknown)."""
        return self._seed if isinstance(self._seed, int) else None

    def spawn(self, salt: int = 0) -> "RandomSource":
        """Create an independent child stream.

        Child streams are derived from fresh entropy of the parent generator,
        mixed with ``salt`` so repeated calls with distinct salts give distinct
        but reproducible streams.
        """
        child_seed = int(self._generator.integers(0, 2**63 - 1)) ^ (salt * 0x9E3779B97F4A7C15 & (2**63 - 1))
        return RandomSource(child_seed)

    # -------------------------------------------------------------- primitives
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A single uniform draw in ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    def uniforms(self, size: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """A vector of uniform draws."""
        return self._generator.uniform(low, high, size=size)

    def bernoulli(self, probability: float) -> bool:
        """A single Bernoulli trial with success probability ``probability``."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self._generator.random() < probability)

    def geometric(self, probability: float) -> int:
        """Number of Bernoulli trials until (and including) the first success.

        Used by the lazy propagation sampler (Algorithm 2 / Lemma 6).  A zero
        probability returns a sentinel larger than any realistic sample count so
        the edge is never probed.
        """
        if probability >= 1.0:
            return 1
        if probability <= 0.0:
            return NEVER_FIRES
        return int(self._generator.geometric(probability))

    def geometrics(self, probability: float, size: int) -> np.ndarray:
        """A vector of geometric draws (see :meth:`geometric`)."""
        if probability >= 1.0:
            return np.ones(size, dtype=np.int64)
        if probability <= 0.0:
            return np.full(size, NEVER_FIRES, dtype=np.int64)
        return self._generator.geometric(probability, size=size).astype(np.int64)

    def geometric_array(self, probabilities: Sequence[float]) -> np.ndarray:
        """One geometric draw per (heterogeneous) success probability.

        The vectorized counterpart of calling :meth:`geometric` once per entry,
        via :func:`draw_geometric`; used by the lazy sampler to initialize a
        whole vertex schedule with a single batched draw.  Zero probabilities
        map to the never-fires sentinel, probabilities >= 1 fire on the first
        visit; neither consumes a uniform.
        """
        probs = np.asarray(probabilities, dtype=float)
        zeros = probs <= 0.0
        if not np.count_nonzero(zeros):
            return draw_geometric(self._generator, probs)[0]
        draws = np.full(probs.shape, NEVER_FIRES, dtype=np.int64)
        drawn = ~zeros
        draws[drawn] = draw_geometric(self._generator, probs[drawn])[0]
        return draws

    def uniforms_upto(self, highs: Sequence[float]) -> np.ndarray:
        """Per-entry uniform draws in ``[0, highs[i])``."""
        highs = np.asarray(highs, dtype=float)
        return self._generator.random(highs.shape) * highs

    def integer(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        return int(self._generator.integers(low, high))

    def choice(self, items: Sequence, size: Optional[int] = None, replace: bool = True):
        """Uniform choice from a sequence (delegates to numpy)."""
        indices = self._generator.choice(len(items), size=size, replace=replace)
        if size is None:
            return items[int(indices)]
        return [items[int(i)] for i in np.atleast_1d(indices)]

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Sample an index proportionally to non-negative ``weights``."""
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weighted_index requires at least one positive weight")
        return int(self._generator.choice(len(weights), p=weights / total))

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of ``range(n)``."""
        return self._generator.permutation(n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self._generator.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]

    def dirichlet(self, alphas: Iterable[float]) -> np.ndarray:
        """A Dirichlet draw, used by the synthetic topic generators."""
        return self._generator.dirichlet(np.asarray(list(alphas), dtype=float))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self._seed!r})"


def spawn_rng(seed: SeedLike, salt: int = 0) -> RandomSource:
    """Normalize ``seed`` into a :class:`RandomSource`, optionally salted.

    When ``seed`` is already a :class:`RandomSource` a *child* stream is
    spawned, so callers never accidentally share a stream with their caller.
    """
    source = RandomSource(seed)
    if isinstance(seed, RandomSource) or isinstance(seed, np.random.Generator):
        return source.spawn(salt)
    if salt:
        return source.spawn(salt)
    return source
