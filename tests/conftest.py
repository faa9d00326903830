import dataclasses
import re
from bisect import bisect_right
from fractions import Fraction

import pytest

from stoptime import build_space, demo, fuzz
from stoptime.serialize import InputError
from stoptime.space import AdaptedProcess, Violation
from stoptime.times import (DistributionST, MixedST, PureST, RStepFunction,
                            _section_violations, validate_pure)


def coin_space_coarse():
    """The coin space with no information at time 0 (one block)."""
    return build_space(
        outcomes=("w1", "w2"), probs=(Fraction(1, 2),) * 2, grid=(0, 1),
        partitions=((frozenset({"w1", "w2"}),),
                    (frozenset({"w1"}), frozenset({"w2"}))))


def coin_mixed_flipped():
    """The coin's stop law; the second outcome uses the opposite half of
    [0,1], so the coarse space tells the two sections apart."""
    section = RStepFunction(((0, 1, 2), 2), (0, 1))
    flipped = RStepFunction(((0, 1, 2), 2), (1, 0))
    return MixedST({"w1": section, "w2": flipped})


def split(inst):
    """inst with every outcome w split into twins w + "a" and w + "b" of
    P(w)/2 each, both in every block of w: time and process rows copied,
    mass rows halved.  Nothing tells the twins apart, so every verdict,
    payoff and game value must survive the split."""
    space = inst.space
    twins = {w: (w + "a", w + "b") for w in space.outcomes}

    def copied(table):
        return {t: table[w] for w in space.outcomes for t in twins[w]}

    def rows(table):
        return type(table)._of_canonical(copied(table.rows))

    return fuzz.Instance(
        space=build_space(
            outcomes=[t for w in space.outcomes for t in twins[w]],
            probs=[p / 2 for p in space.probs for _ in "ab"],
            grid=space.grid,
            partitions=[[[t for w in block for t in twins[w]]
                         for block in part] for part in space.partitions]),
        pure=PureST(copied(inst.pure.stop_index)),
        mixed=MixedST(copied(inst.mixed.sections)),
        randomized=rows(inst.randomized),
        distribution=DistributionST.from_rows(
            {t: (nums, 2 * d) for t, (nums, d)
             in copied(inst.distribution.rows).items()}),
        reward=rows(inst.reward), x=rows(inst.x), y=rows(inst.y),
        z=rows(inst.z), mixed2=MixedST(copied(inst.mixed2.sections)),
        randomized2=rows(inst.randomized2))


def refine(inst, j):
    """inst with a grid time inserted after t_j (t_j + 1 after the last
    time) whose partition is level j's: stop indices and section values
    above j go up by one, path, process and game rows repeat entry j, and
    mass rows get a 0 at j + 1.  Nothing is learned at the new time and
    nothing stops there, so every verdict, payoff and game value must
    survive the refinement."""
    space = inst.space
    grid = space.grid
    added = (grid[j] + grid[j + 1]) / 2 if j + 1 < len(grid) else grid[j] + 1

    def later(i):
        return i + (i > j)

    def rows(table, entry=None):
        return type(table)._of_canonical({
            w: ((*nums[:j + 1], nums[j] if entry is None else entry,
                 *nums[j + 1:]), d) for w, (nums, d) in table.rows.items()})

    def shifted(mu):
        return MixedST({w: RStepFunction(s.break_ints, tuple(map(later,
                                                                 s.values)))
                        for w, s in mu.sections.items()})

    return fuzz.Instance(
        space=build_space(
            outcomes=space.outcomes, probs=space.probs,
            grid=[*grid[:j + 1], added, *grid[j + 1:]],
            partitions=[*space.partitions[:j + 1], space.partitions[j],
                        *space.partitions[j + 1:]]),
        pure=PureST({w: later(i) for w, i in inst.pure.stop_index.items()}),
        mixed=shifted(inst.mixed), randomized=rows(inst.randomized),
        distribution=rows(inst.distribution, 0), reward=rows(inst.reward),
        x=rows(inst.x), y=rows(inst.y), z=rows(inst.z),
        mixed2=shifted(inst.mixed2), randomized2=rows(inst.randomized2))


def permute(inst, order):
    """inst on a space listing its outcomes in order (a permutation of their
    indices) and each level's blocks in reverse: the times and tables are
    unchanged, so no verdict, payoff or game value may read either order."""
    space = inst.space
    return dataclasses.replace(inst, space=build_space(
        outcomes=[space.outcomes[i] for i in order],
        probs=[space.probs[i] for i in order], grid=space.grid,
        partitions=[part[::-1] for part in space.partitions]))


@pytest.fixture
def coin_space():
    return demo.coin_space()


@pytest.fixture(name="coin_space_coarse")
def coin_space_coarse_fixture():
    return coin_space_coarse()


@pytest.fixture
def coin_mixed():
    return demo.coin_mixed()


@pytest.fixture(name="coin_mixed_flipped")
def coin_mixed_flipped_fixture():
    return coin_mixed_flipped()


@pytest.fixture
def coin_randomized():
    return demo.coin_randomized()


@pytest.fixture
def coin_delta():
    return demo.coin_uniform_delta()


def F(x):
    return Fraction(x)


def time_process(space) -> AdaptedProcess:
    """The deterministic process whose value at t_j is t_j."""
    return AdaptedProcess({w: tuple(space.grid) for w in space.outcomes})


# The seed's Fraction readers of a section, which the library now reads as
# ints over the breaks' denominator; test modules import them as oracles.

def at(process, outcome, grid_index: int) -> Fraction:
    """One entry of a process (any CanonicalRows table) as a Fraction."""
    nums, d = process.rows[outcome]
    return Fraction(nums[grid_index], d)


def mass_of_index(s, index: int) -> Fraction:
    """Lebesgue measure of {r : value(r) == index}."""
    return sum((s.breaks[i + 1] - s.breaks[i]
                for i, v in enumerate(s.values) if v == index), Fraction(0))


def le_intervals(s, index: int) -> tuple:
    """{r : value(r) <= index} as a sorted tuple of disjoint [a, b) pairs."""
    out = []
    for i, v in enumerate(s.values):
        if v <= index:
            a, b = s.breaks[i], s.breaks[i + 1]
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return tuple(out)


def interval_intersection_measure(xs, ys) -> Fraction:
    """Measure of the intersection of two sorted disjoint interval unions."""
    total = Fraction(0)
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if b > a:
            total += b - a
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def symmetric_difference_measure(xs, ys) -> Fraction:
    """lambda(A symmetric-difference B) for interval unions A, B."""
    mx = sum((b - a for a, b in xs), Fraction(0))
    my = sum((b - a for a, b in ys), Fraction(0))
    return mx + my - 2 * interval_intersection_measure(xs, ys)


JSON_TYPE_NAMES = {bool: "a boolean", type(None): "null", list: "a list",
                   dict: "an object"}


def reference_parse_fraction(s) -> Fraction:
    """The per-cell parser the int fast path must match: a JSON boolean,
    null, list or object named, every other cell through Fraction(str(s)),
    with a digit or point, E and a digit (an exponent) refused."""
    try:
        if type(s) in JSON_TYPE_NAMES:
            raise ValueError(f"{JSON_TYPE_NAMES[type(s)]} is not a rational")
        if re.search(r"[\d.]e[-+]?\d", str(s), re.IGNORECASE):
            raise ValueError("exponents are not accepted; write p/q")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {s!r}: {e}") from None


def refinement_pieces(sections) -> list:
    """(a, b, {w: value}) for each interval [a, b) of the coarsest partition
    of [0,1] refining every section's Fraction breaks, in order; each
    value read at the interval's left end."""
    cuts = sorted({r for s in sections.values() for r in s.breaks})
    return [(a, b, {w: s.values[bisect_right(s.breaks, a) - 1]
                    for w, s in sections.items()})
            for a, b in zip(cuts, cuts[1:])]


def naive_validate_mixed_sections(space, mu) -> list:
    """The per-interval section-wise check the library's one sweep
    replaces: one PureST per interval of the common refinement, each run
    through validate_pure."""
    return _section_violations(space, mu) or [
        Violation("SectionNotStoppingTime", f"r in [{a},{b}): {v.detail}")
        for a, b, values in refinement_pieces(mu.sections)
        for v in validate_pure(space, PureST(values))]
