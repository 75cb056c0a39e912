"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import RandomSource, spawn_rng


def test_same_seed_gives_same_stream():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_seeds_give_different_streams():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_spawn_produces_independent_reproducible_children():
    parent_a = RandomSource(7)
    parent_b = RandomSource(7)
    child_a = parent_a.spawn(3)
    child_b = parent_b.spawn(3)
    assert [child_a.uniform() for _ in range(3)] == [child_b.uniform() for _ in range(3)]


def test_bernoulli_extremes():
    rng = RandomSource(0)
    assert rng.bernoulli(0.0) is False
    assert rng.bernoulli(1.0) is True


def test_bernoulli_frequency_close_to_probability():
    rng = RandomSource(123)
    draws = sum(rng.bernoulli(0.3) for _ in range(5000))
    assert 0.25 < draws / 5000 < 0.35


def test_geometric_zero_probability_is_effectively_never():
    rng = RandomSource(0)
    assert rng.geometric(0.0) > 10**12


def test_geometric_one_probability_is_immediate():
    rng = RandomSource(0)
    assert rng.geometric(1.0) == 1


def test_geometric_mean_matches_inverse_probability():
    rng = RandomSource(9)
    p = 0.2
    draws = rng.geometrics(p, 20000)
    assert abs(draws.mean() - 1.0 / p) < 0.3


def test_integer_within_bounds():
    rng = RandomSource(3)
    values = [rng.integer(2, 5) for _ in range(100)]
    assert all(2 <= v < 5 for v in values)


def test_weighted_index_respects_weights():
    rng = RandomSource(8)
    counts = np.zeros(3)
    for _ in range(6000):
        counts[rng.weighted_index([0.0, 1.0, 3.0])] += 1
    assert counts[0] == 0
    assert counts[2] > counts[1]


def test_weighted_index_rejects_all_zero_weights():
    rng = RandomSource(1)
    with pytest.raises(ValueError):
        rng.weighted_index([0.0, 0.0])


def test_choice_single_and_multiple():
    rng = RandomSource(5)
    items = ["a", "b", "c"]
    single = rng.choice(items)
    assert single in items
    several = rng.choice(items, size=2, replace=False)
    assert len(several) == 2
    assert len(set(several)) == 2


def test_shuffle_is_permutation():
    rng = RandomSource(4)
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_dirichlet_sums_to_one():
    rng = RandomSource(2)
    draw = rng.dirichlet([0.5] * 4)
    assert draw.shape == (4,)
    assert abs(draw.sum() - 1.0) < 1e-9


def test_spawn_rng_accepts_generator_and_source():
    generator = np.random.default_rng(3)
    source = spawn_rng(generator)
    assert isinstance(source, RandomSource)
    child = spawn_rng(source, salt=1)
    assert isinstance(child, RandomSource)
    assert child is not source


# ---------------------------------------------------------------------------
# SeedLike normalization: RandomSource accepts None / int / Generator /
# RandomSource, and each variant has a precise contract.
# ---------------------------------------------------------------------------


def test_seedlike_none_is_fresh_entropy():
    source = RandomSource(None)
    assert source.seed is None
    # Fresh OS entropy: two unseeded sources must not share a stream.
    other = RandomSource(None)
    assert [source.uniform() for _ in range(4)] != [other.uniform() for _ in range(4)]


def test_seedlike_int_matches_default_rng():
    source = RandomSource(42)
    assert source.seed == 42
    reference = np.random.default_rng(42)
    assert [source.uniform() for _ in range(5)] == [float(reference.uniform(0.0, 1.0)) for _ in range(5)]


def test_seedlike_generator_is_adopted_not_copied():
    generator = np.random.default_rng(5)
    source = RandomSource(generator)
    assert source.generator is generator
    assert source.seed is None  # the wrapper cannot know the generator's seed
    # Draws through the wrapper advance the adopted generator's stream.
    reference = np.random.default_rng(5)
    assert source.uniform() == float(reference.uniform(0.0, 1.0))
    assert float(generator.uniform(0.0, 1.0)) == float(reference.uniform(0.0, 1.0))


def test_seedlike_randomsource_shares_stream_and_seed():
    parent = RandomSource(11)
    view = RandomSource(parent)
    assert view.generator is parent.generator
    assert view.seed == parent.seed == 11
    # Interleaved draws consume one shared stream.
    reference = RandomSource(11)
    assert [parent.uniform(), view.uniform(), parent.uniform()] == [
        reference.uniform() for _ in range(3)
    ]


def test_spawn_rng_int_without_salt_is_the_root_stream():
    assert [spawn_rng(42).uniform() for _ in range(3)] == [RandomSource(42).uniform() for _ in range(3)]


def test_spawn_rng_from_source_never_aliases_the_parent():
    parent = RandomSource(6)
    child = spawn_rng(parent)  # even salt=0 must spawn, not share
    assert child.generator is not parent.generator
    assert [child.uniform() for _ in range(3)] != [RandomSource(6).uniform() for _ in range(3)]


def test_labeled_child_streams_are_deterministic_per_salt():
    salts = (1, 2, 97)
    first = {salt: RandomSource(7).spawn(salt).uniforms(4).tolist() for salt in salts}
    second = {salt: RandomSource(7).spawn(salt).uniforms(4).tolist() for salt in salts}
    assert first == second  # same parent seed + same label -> same child stream
    streams = list(first.values())
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert streams[i] != streams[j]  # distinct labels -> distinct streams


def test_child_streams_depend_on_parent_draw_position():
    fresh = RandomSource(7)
    advanced = RandomSource(7)
    advanced.uniform()  # spawn() folds in parent entropy, so position matters
    assert fresh.spawn(3).uniforms(4).tolist() != advanced.spawn(3).uniforms(4).tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 2017])
def test_uniforms_and_generator_random_draw_identical_bits(seed):
    # RR-Graph sampling draws its c(e) values with generator.random(n) in
    # place of uniforms(n); both must consume and return the same bits.
    via_uniforms, via_random = RandomSource(seed), RandomSource(seed)
    for size in (1, 2, 3, 17, 64, 1000, 5):
        a = via_uniforms.uniforms(size)
        b = via_random.generator.random(size)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # Interleaved scalar draws stay in step too.
        assert via_uniforms.integer(0, 100) == via_random.integer(0, 100)
