"""The fuzz generators that write int rows, or draw a table (or an
instance's four tables) in one broadcast call, against copies of the
Fraction and scalar-draw bodies they replace: equal values, and the same
draws from the RNG, so a seed still gives the same instances."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from stoptime import build_space, experiment, fuzz, mixed_of_randomized

BOUNDS = [fuzz.FuzzBounds(),
          fuzz.FuzzBounds(max_outcomes=1, max_grid_points=1, max_breaks=1,
                          max_denominator=1),
          fuzz.FuzzBounds(max_outcomes=4, max_grid_points=3, max_denominator=2),
          fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8, max_breaks=16,
                          max_denominator=97),
          fuzz.FuzzBounds(max_outcomes=32, max_grid_points=8, max_breaks=16,
                          max_denominator=1000),
          fuzz.FuzzBounds(max_denominator=2**63 - 1)]

# spaces of exactly 32 outcomes x 8 grid points: the seeds whose first
# random_space call at these bounds, drawn from 32 outcomes, has 8 points
EXACT_32x8 = fuzz.FuzzBounds(max_outcomes=32, max_grid_points=8,
                             max_breaks=16)

# _layout_digest(20) of the generators as first pinned
LAYOUT_SEED_7 = ("4cde290448cf10ce94a105532c3380a3"
                 "8674af07b1b3896474c21d1d8686308c")


def seed_random_space(rng, bounds, min_outcomes=1):
    """The scalar body: one rng.integers call per weight and grid step."""
    n = int(rng.integers(min_outcomes, bounds.max_outcomes + 1))
    outcomes = tuple(f"w{i + 1}" for i in range(n))
    weights = [int(rng.integers(1, bounds.max_denominator + 1))
               for _ in range(n)]
    probs = tuple(Fraction(x, sum(weights)) for x in weights)
    lo = min(2, bounds.max_grid_points) if bounds.max_grid_points > 1 else 1
    n_times = int(rng.integers(lo, bounds.max_grid_points + 1))
    grid = [Fraction(0)]
    for _ in range(n_times - 1):
        grid.append(grid[-1] + Fraction(
            int(rng.integers(1, bounds.max_denominator + 1)),
            bounds.max_denominator))
    partitions = [(frozenset(outcomes),)]
    for _ in range(n_times - 1):
        level = []
        for block in partitions[-1]:
            members = sorted(block)
            if len(members) >= 2 and rng.random() < 0.5:
                perm = [members[i] for i in rng.permutation(len(members))]
                cut = int(rng.integers(1, len(members)))
                level.append(frozenset(perm[:cut]))
                level.append(frozenset(perm[cut:]))
            else:
                level.append(block)
        partitions.append(tuple(level))
    return build_space(outcomes, probs, grid, partitions)


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


def seed_random_process(rng, space, bounds):
    """The Fraction body: one Fraction over a denominator 1..8 per draw."""
    def draw():
        den = int(rng.integers(1, 9))
        return Fraction(int(rng.integers(-bounds.max_denominator,
                                         bounds.max_denominator + 1)), den)

    values = {w: [None] * space.n_times for w in space.outcomes}
    for j in range(space.n_times):
        for w in space.outcomes:
            values[w][j] = draw()
    return {w: tuple(row) for w, row in values.items()}


def _twin_rngs(seed):
    """A generator seeded with seed, and a twin to be set to its state."""
    rng = np.random.Generator(np.random.PCG64(seed))
    twin = np.random.Generator(np.random.PCG64())
    return rng, twin


def _spaces(bounds, min_outcomes=1):
    """(rng, twin, space) for 15 seeds: the space drawn from rng, the twin
    to be set to rng's state before the draw under test."""
    for seed in range(15):
        rng, twin = _twin_rngs(seed)
        yield rng, twin, fuzz.random_space(rng, bounds, min_outcomes)


def _exact_32x8_spaces():
    found = 0
    for rng, twin, space in _spaces(EXACT_32x8, min_outcomes=32):
        if space.n_times == 8:
            found += 1
            yield rng, twin, space
    assert found


CASES = ([pytest.param(lambda b=b: _spaces(b), b, id=f"bounds{i}")
          for i, b in enumerate(BOUNDS)]
         + [pytest.param(_exact_32x8_spaces, EXACT_32x8, id="exact_32x8")])


@pytest.mark.parametrize("bounds", BOUNDS)
def test_random_space_matches_the_scalar_body(bounds):
    for seed in range(15):
        rng, twin = _twin_rngs(seed)
        twin.bit_generator.state = rng.bit_generator.state
        for min_outcomes in (1, bounds.max_outcomes):
            assert (fuzz.random_space(rng, bounds, min_outcomes)
                    == seed_random_space(twin, bounds, min_outcomes))
            assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("spaces, bounds", CASES)
def test_random_randomized_matches_the_fraction_body(spaces, bounds):
    for rng, twin, space in spaces():
        twin.bit_generator.state = rng.bit_generator.state
        rho = fuzz.random_randomized(rng, space, bounds)
        expected = seed_random_randomized(twin, space, bounds)
        assert rho.paths == expected
        assert all(type(x) is Fraction for row in rho.paths.values()
                   for x in row)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("spaces, bounds", CASES)
def test_random_process_matches_the_fraction_body(spaces, bounds):
    for rng, twin, space in spaces():
        twin.bit_generator.state = rng.bit_generator.state
        proc = fuzz._draw_tables(rng, space, bounds, 1)[0]
        expected = seed_random_process(twin, space, bounds)
        assert proc.values == expected
        assert rng.bit_generator.state == twin.bit_generator.state
        # int_dot reads these: a numpy.int64 would overflow silently
        assert all(type(x) is int for nums, d in proc.rows.values()
                   for x in (*nums, d))


@pytest.mark.parametrize("bounds", [fuzz.FuzzBounds(), EXACT_32x8],
                         ids=["default", "32x8"])
def test_random_instance_tables_are_four_random_process_calls(bounds):
    # random_instance draws reward, x, y and z in one broadcast call: the
    # pairs of four successive one-table draws, in their order, which
    # leave the generator where that call does
    for seed in range(50):
        rng, twin = _twin_rngs(seed)
        twin.bit_generator.state = rng.bit_generator.state
        inst = fuzz.random_instance(rng, bounds)
        space = fuzz.random_space(twin, bounds)  # the draws before the tables
        for _ in range(2):
            rho = fuzz.random_randomized(twin, space, bounds)
            fuzz.shuffle_sections(twin, space, mixed_of_randomized(space, rho),
                                  bounds.max_breaks)
        assert fuzz.random_pure(twin, space) == inst.pure
        for name in ("reward", "x", "y", "z"):
            table = fuzz._draw_tables(twin, space, bounds, 1)[0]
            assert getattr(inst, name) == table, (seed, name)
        assert rng.bit_generator.state == twin.bit_generator.state


def _layout_digest(n_instances: int) -> str:
    """SHA-256 of the generated sections' break_ints and values and of the
    paths' int rows over the first seed-7 campaign instances: the layout a
    law-preserving change of the generators would move, which the golden
    values, read from laws and payoffs, cannot see."""
    h = hashlib.sha256()
    config = experiment.ExperimentConfig(seed=7)
    for i in range(n_instances):
        inst, _ = experiment.draw(config, i)
        for mu in (inst.mixed, inst.mixed2):
            h.update(repr([(w, s.break_ints, s.values)
                           for w, s in mu.sections.items()]).encode())
        for rho in (inst.randomized, inst.randomized2):
            h.update(repr(list(rho.rows.items())).encode())
    return h.hexdigest()


def test_generator_layout_is_pinned():
    assert _layout_digest(20) == LAYOUT_SEED_7
