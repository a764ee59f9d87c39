"""Tests for seeded randomness helpers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rng import make_rng, sample_without_replacement, spread_sample


def test_same_seed_same_stream_reproduces():
    a = make_rng(42, "x").random(10)
    b = make_rng(42, "x").random(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1, "x").random(10)
    b = make_rng(2, "x").random(10)
    assert not np.array_equal(a, b)


def test_different_streams_differ():
    a = make_rng(42, "alpha").random(10)
    b = make_rng(42, "beta").random(10)
    assert not np.array_equal(a, b)


def test_empty_stream_is_valid():
    assert make_rng(0).random() is not None


def test_sample_without_replacement_distinct():
    rng = make_rng(0, "s")
    sample = sample_without_replacement(rng, 100, 30)
    assert len(sample) == 30
    assert len(set(sample)) == 30
    assert all(0 <= x < 100 for x in sample)


def test_sample_without_replacement_full_population():
    rng = make_rng(0, "s")
    sample = sample_without_replacement(rng, 10, 10)
    assert sorted(sample) == list(range(10))


def test_sample_without_replacement_k_zero():
    rng = make_rng(0, "s")
    assert sample_without_replacement(rng, 10, 0) == []


def test_sample_without_replacement_too_many_raises():
    rng = make_rng(0, "s")
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 5, 6)


def test_sample_without_replacement_covers_population():
    """Every element should be reachable (Floyd + shuffle has no holes)."""
    rng = make_rng(0, "s")
    seen = set()
    for _ in range(300):
        seen.update(sample_without_replacement(rng, 10, 3))
    assert seen == set(range(10))


def test_spread_sample_within_population():
    rng = make_rng(0, "s")
    out = spread_sample(rng, range(100, 120), 5)
    assert len(out) == 5
    assert len(set(out)) == 5
    assert all(100 <= x < 120 for x in out)


def test_spread_sample_oversubscribed_is_balanced():
    rng = make_rng(0, "s")
    out = spread_sample(rng, range(4), 10)
    assert len(out) == 10
    counts = {i: out.count(i) for i in range(4)}
    # 10 picks over 4 items: every item 2 or 3 times, never 0 or 4.
    assert set(counts.values()) <= {2, 3}


def test_spread_sample_exact_multiple():
    rng = make_rng(0, "s")
    out = spread_sample(rng, range(5), 15)
    assert all(out.count(i) == 3 for i in range(5))


def test_spread_sample_empty_population_raises():
    rng = make_rng(0, "s")
    with pytest.raises(ValueError):
        spread_sample(rng, [], 1)


def test_spread_sample_deterministic():
    a = spread_sample(make_rng(3, "t"), range(50), 20)
    b = spread_sample(make_rng(3, "t"), range(50), 20)
    assert a == b


def scalar_floyd(rng, population, k):
    """The reference: Floyd's loop with one scalar draw per step."""
    selected: set[int] = set()
    result = []
    for j in range(population - k, population):
        t = int(rng.integers(0, j + 1))
        if t in selected:
            t = j
        selected.add(t)
        result.append(t)
    rng.shuffle(result)
    return result


#: ``(population, k)`` with k often close to the population, where draws
#: repeat and Floyd substitutes.
SIZES = st.integers(1, 2000).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(st.integers(0, n), st.integers(max(0, n - 8), n)),
    )
)


@settings(max_examples=300, deadline=None)
@given(sizes=SIZES, seed=st.integers(0, 2**32 - 1))
@example(sizes=(2000, 2000), seed=0)
@example(sizes=(1, 1), seed=0)
@example(sizes=(7, 0), seed=0)
def test_sample_matches_scalar_floyd(sizes, seed):
    population, k = sizes
    rng, ref = make_rng(seed, "floyd"), make_rng(seed, "floyd")
    assert sample_without_replacement(rng, population, k) == scalar_floyd(
        ref, population, k
    )
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    sizes=SIZES,
    start=st.one_of(st.just(0), st.integers(1, 10_000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_spread_sample_over_a_range_matches_scalar_floyd(sizes, start, seed):
    n, k = sizes
    population = range(start, start + n)
    rng, ref = make_rng(seed, "spread"), make_rng(seed, "spread")
    out = spread_sample(rng, population, k)
    assert out == [population[i] for i in scalar_floyd(ref, n, k)]
    assert rng.bit_generator.state == ref.bit_generator.state
