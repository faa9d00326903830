"""Random instance generation for the property and acceptance suites.

Instances are built so that they are valid by construction:

* spaces get a coarse root partition that is randomly refined level by
  level, so refinement always holds;
* cumulative stop paths are built from block-constant stop fractions per
  level, so adaptedness and monotonicity always hold;
* interval representations are derived from the paths and optionally
  rearranged by a measure-preserving shuffle of a common interval
  refinement, which changes the representation but not the stop law.

All randomness flows through a numpy Generator supplied by the caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .config import FuzzBounds
from .convert import delta_of_randomized, mixed_of_randomized
from .space import AdaptedProcess, FilteredSpace, build_space
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, common_refinement)


# lcm(1, ..., 8): random_process's values are ints over it
DRAW_DENOMINATOR = 840


@dataclass(frozen=True)
class Instance:
    """One fuzzed scenario: a space with an equivalent stopping-time
    family, an independent pure time, a reward, and game data."""

    space: FilteredSpace
    pure: PureST
    mixed: MixedST
    randomized: RandomizedST
    distribution: DistributionST
    reward: AdaptedProcess
    x: AdaptedProcess
    y: AdaptedProcess
    z: AdaptedProcess
    mixed2: MixedST
    randomized2: RandomizedST


def random_space(rng: np.random.Generator, bounds: FuzzBounds,
                 min_outcomes: int = 1) -> FilteredSpace:
    n = int(rng.integers(min_outcomes, bounds.max_outcomes + 1))
    outcomes = tuple(f"w{i + 1}" for i in range(n))

    # independent draws in one sized call each: the same stream as one
    # scalar call per entry
    m = bounds.max_denominator
    weights = rng.integers(1, m, size=n, endpoint=True).tolist()
    total = sum(weights)
    probs = tuple(Fraction(x, total) for x in weights)

    lo = min(2, bounds.max_grid_points)
    n_times = int(rng.integers(lo, bounds.max_grid_points + 1))
    steps = rng.integers(1, m, size=n_times - 1, endpoint=True).tolist()
    grid = [Fraction(t, m) for t in accumulate(steps, initial=0)]

    # coarse root, randomly refined one level at a time
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


def random_pure(rng: np.random.Generator, space: FilteredSpace) -> PureST:
    """Stop block by block: at each level, each still-running block stops
    with probability 1/2; everything still running stops at the horizon."""
    stop = {}
    for j in range(space.n_times):
        last = j == space.last_index
        for block in space.partitions[j]:
            running = [w for w in block if w not in stop]
            if running and (last or rng.random() < 0.5):
                for w in running:
                    stop[w] = j
    return PureST(stop)


def random_randomized(rng: np.random.Generator, space: FilteredSpace,
                      bounds: FuzzBounds) -> RandomizedST:
    """Build paths from block-constant per-level stop fractions num / den:
    1 - path is a / b, the running products of den - num and of den, and a
    row goes to from_rows, which reduces it, over its last b."""
    cells = {w: [] for w in space.outcomes}
    rest = {w: (1, 1) for w in space.outcomes}  # 1 - path = a / b
    for j in range(space.n_times):
        last = j == space.last_index
        for block in space.partitions[j]:
            if last:
                num, den = 1, 1
            else:
                den = int(rng.integers(1, bounds.max_denominator + 1))
                num = int(rng.integers(0, den + 1))
            for w in block:
                a, b = rest[w]
                rest[w] = a, b = a * (den - num), b * den
                cells[w].append((a, b))
    rows = {}
    for w, row in cells.items():
        d = row[-1][1]
        rows[w] = [(b - a) * (d // b) for a, b in row], d
    return RandomizedST.from_rows(rows)


def shuffle_sections(rng: np.random.Generator, space: FilteredSpace,
                     mu: MixedST, max_breaks: int) -> MixedST:
    """Rearrange the common interval refinement of all sections with one
    shared permutation.  This preserves the stop law and joint
    measurability; skipped when it would exceed the break budget."""
    cuts, d, starts = common_refinement(mu.sections)
    n = len(cuts) - 1
    if not 2 <= n <= max_breaks:
        return mu
    perm = rng.permutation(n).tolist()
    ends = tuple(accumulate((cuts[i + 1] - cuts[i] for i in perm),
                            initial=0))
    return MixedST({w: RStepFunction((ends, d), tuple(
        s.values[bisect_right(starts[w], i) - 1] for i in perm))
        for w, s in mu.sections.items()})


def random_process(rng: np.random.Generator, space: FilteredSpace,
                   bounds: FuzzBounds) -> AdaptedProcess:
    """A bounded rational table, not adapted: each value a numerator over
    a denominator from 1 to 8, as an int over DRAW_DENOMINATOR.  The (den,
    num) pairs of all n outcomes come level by level from one broadcast
    call, the stream of one scalar call per entry, so row i is drawn[i::n]."""
    m, n = bounds.max_denominator, len(space.outcomes)
    k = n * space.n_times
    draws = rng.integers([1, -m] * k, [8, m] * k, endpoint=True).tolist()
    drawn = [num * (DRAW_DENOMINATOR // den)
             for den, num in zip(draws[::2], draws[1::2])]
    return AdaptedProcess.from_rows(
        {w: (drawn[i::n], DRAW_DENOMINATOR)
         for i, w in enumerate(space.outcomes)})


def random_instance(rng: np.random.Generator,
                    bounds: FuzzBounds = FuzzBounds(),
                    min_outcomes: int = 1) -> Instance:
    space = random_space(rng, bounds, min_outcomes=min_outcomes)
    rho = random_randomized(rng, space, bounds)
    delta = delta_of_randomized(space, rho)
    mu = shuffle_sections(rng, space, mixed_of_randomized(space, rho),
                          bounds.max_breaks)
    rho2 = random_randomized(rng, space, bounds)
    mu2 = shuffle_sections(rng, space, mixed_of_randomized(space, rho2),
                           bounds.max_breaks)
    return Instance(
        space=space,
        pure=random_pure(rng, space),
        mixed=mu,
        randomized=rho,
        distribution=delta,
        reward=random_process(rng, space, bounds),
        x=random_process(rng, space, bounds),
        y=random_process(rng, space, bounds),
        z=random_process(rng, space, bounds),
        mixed2=mu2,
        randomized2=rho2,
    )


def corrupt_mixed(space: FilteredSpace, mu: MixedST):
    """Break joint measurability of one section, when the filtration has a
    multi-outcome block strictly before the horizon.  Returns the mutated
    time or None when no such block exists."""
    for j, block, _, _ in space._shared_blocks[:1]:  # the earliest, by level
        if j < space.last_index:
            w, mate = sorted(block)[:2]
            bad = space.last_index if min(mu.sections[mate].values) <= j else 0
            return MixedST({**mu.sections, w: RStepFunction.constant(bad)})
    return None
