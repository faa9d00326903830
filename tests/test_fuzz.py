"""The fuzz generators that write int rows against copies of the Fraction
bodies they replace: equal values, and the same draws from the RNG, so a
seed still gives the same instances."""

from fractions import Fraction

import numpy as np
import pytest

from stoptime import fuzz

BOUNDS = [fuzz.FuzzBounds(),
          fuzz.FuzzBounds(max_outcomes=1, max_grid_points=1, max_breaks=1,
                          max_denominator=1),
          fuzz.FuzzBounds(max_outcomes=4, max_grid_points=3, max_denominator=2),
          fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8, max_breaks=16,
                          max_denominator=97),
          fuzz.FuzzBounds(max_outcomes=32, max_grid_points=8, max_breaks=16,
                          max_denominator=1000)]


def seed_random_randomized(rng, space, bounds):
    """The Fraction body: path += (1 - path) * h per level."""
    def unit_fraction(max_den):
        den = int(rng.integers(1, max_den + 1))
        return Fraction(int(rng.integers(0, den + 1)), den)

    paths = {w: [] for w in space.outcomes}
    prev = {w: Fraction(0) for w in space.outcomes}
    for j in range(space.n_times):
        last = j == space.last_index
        for block in space.partitions[j]:
            h = Fraction(1) if last else unit_fraction(bounds.max_denominator)
            for w in block:
                value = prev[w] + (1 - prev[w]) * h
                paths[w].append(value)
                prev[w] = value
    return {w: tuple(row) for w, row in paths.items()}


def seed_random_process(rng, space, bounds, adapted=False):
    """The Fraction body: one Fraction over a denominator 1..8 per draw."""
    def draw():
        den = int(rng.integers(1, 9))
        return Fraction(int(rng.integers(-bounds.max_denominator,
                                         bounds.max_denominator + 1)), den)

    values = {w: [None] * space.n_times for w in space.outcomes}
    for j in range(space.n_times):
        if adapted:
            for block in space.partitions[j]:
                v = draw()
                for w in block:
                    values[w][j] = v
        else:
            for w in space.outcomes:
                values[w][j] = draw()
    return {w: tuple(row) for w, row in values.items()}


def _twin_rngs(seed):
    """A generator seeded with seed, and a twin to be set to its state."""
    rng = np.random.Generator(np.random.PCG64(seed))
    twin = np.random.Generator(np.random.PCG64())
    return rng, twin


@pytest.mark.parametrize("bounds", BOUNDS)
def test_random_randomized_matches_the_fraction_body(bounds):
    for seed in range(15):
        rng, twin = _twin_rngs(seed)
        space = fuzz.random_space(rng, bounds)
        twin.bit_generator.state = rng.bit_generator.state
        rho = fuzz.random_randomized(rng, space, bounds)
        expected = seed_random_randomized(twin, space, bounds)
        assert rho.paths == expected
        assert all(type(x) is Fraction for row in rho.paths.values()
                   for x in row)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("bounds", BOUNDS)
def test_random_process_matches_the_fraction_body(bounds):
    for seed in range(15):
        rng, twin = _twin_rngs(seed)
        space = fuzz.random_space(rng, bounds)
        for adapted in (False, True):
            twin.bit_generator.state = rng.bit_generator.state
            proc = fuzz.random_process(rng, space, bounds, adapted=adapted)
            expected = seed_random_process(twin, space, bounds, adapted)
            assert proc.values == expected
            assert rng.bit_generator.state == twin.bit_generator.state
