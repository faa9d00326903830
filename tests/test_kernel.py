"""The integer-numerator kernel against the plain Fraction definitions it
replaces, on hand-picked and fuzzed inputs."""

import sys
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from conftest import le_intervals, mass_of_index, symmetric_difference_measure
from hypothesis import given, settings, strategies as st

from stoptime import (DistributionST, MixedST, PureST, RStepFunction,
                      RandomizedST, common_refinement, convert,
                      fuzz, games, mixed_of_randomized,
                      over_common, problems, randomized_of_distribution,
                      rn_derivative, times,
                      validate_adapted, validate_distribution,
                      validate_mixed_product, validate_mixed_sections,
                      validate_pure, validate_randomized)
from stoptime.serialize import stopping_time_from_dict, stopping_time_to_dict
from stoptime.space import Violation
from stoptime.times import (ZERO, add_term, fraction_sum, int_dot,
                            symdiff_measure)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
bounds = st.sampled_from([fuzz.FuzzBounds(),
                          fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8,
                                          max_breaks=16, max_denominator=97)])

# large primes, so denominators are pairwise coprime and the lcm is big
PRIMES = (1_000_003, 998_244_353, 2**61 - 1, 2**89 - 1, 10**18 + 9)
exact = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=1000),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from(PRIMES)))


def make_instance(seed, fuzz_bounds):
    rng = np.random.Generator(np.random.PCG64(seed))
    return fuzz.random_instance(rng, fuzz_bounds), rng


# ---------------------------------------------------------------------------
# int_dot, add_term, fraction_sum and over_common

def int_products_sum(xs, ys) -> Fraction:
    """sum(x * y) the way the payoff routes take it: each row split into
    ints over one denominator, one int_dot, normalised by fraction_sum."""
    (nx, dx), (ny, dy) = over_common(xs), over_common(ys)
    by_den = {}
    add_term(by_den, dx * dy, int_dot(nx, ny))
    return fraction_sum(by_den)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(exact, exact), max_size=40))
def test_int_products_sum_to_the_fraction_sum(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    got = int_products_sum(xs, ys)
    assert type(got) is Fraction
    assert got == sum((x * y for x, y in pairs), Fraction(0))
    # terms under several denominators meet over their lcm
    by_den = {}
    for x, y in pairs:
        add_term(by_den, Fraction(x).denominator * Fraction(y).denominator,
                 Fraction(x).numerator * Fraction(y).numerator)
    assert fraction_sum(by_den) == got


def test_int_products_edge_cases():
    assert int_products_sum([], []) == 0
    assert fraction_sum({}) == 0
    assert int_products_sum([2, -3], [5, 7]) == -11
    big = [Fraction(1, p) for p in PRIMES]
    assert int_products_sum(big, [1] * len(big)) == sum(big, Fraction(0))
    assert int_products_sum([Fraction(1, 3), Fraction(-1, 3)], [1, 1]) == 0
    # a zero term adds no denominator to the lcm
    by_den = {}
    add_term(by_den, 7, 0)
    add_term(by_den, 3, 1)
    add_term(by_den, 3, 2)
    assert by_den == {3: 3}
    with pytest.raises(ValueError):
        int_dot([1, 2], [3])


@settings(max_examples=200, deadline=None)
@given(st.lists(exact, max_size=40))
def test_over_common_round_trips(row):
    nums, d = over_common(row)
    assert all(type(n) is int for n in nums) and type(d) is int
    assert d == lcm(*(Fraction(x).denominator for x in row))
    assert tuple(Fraction(n, d) for n in nums) == tuple(row)


def test_over_common_empty_row():
    assert over_common(()) == ((), 1)


# ---------------------------------------------------------------------------
# the joint mass as canonical int rows

rows_of = st.one_of(st.lists(exact, max_size=12),
                    st.lists(st.sampled_from([0, Fraction(0)]), max_size=6))


@settings(max_examples=200, deadline=None)
@given(rows_of, rows_of, st.integers(1, 10**6))
def test_canonical_rows_round_trip_and_compare(a, b, k):
    delta = DistributionST({"w": a})
    nums, d = delta.rows["w"]
    assert all(type(n) is int for n in nums) and type(d) is int and d > 0
    assert gcd(d, *nums) == 1
    assert delta.rows["w"] == over_common(a)
    assert delta.mass["w"] == tuple(Fraction(x) for x in a)
    # the same row over a k-fold denominator reduces to the same tuple
    scaled = DistributionST.from_rows({"w": ([k * n for n in nums], k * d)})
    assert scaled.rows == delta.rows and scaled == delta
    bumped = [x + 1 for x in a[:1]] + a[1:]
    for other in (b, [Fraction(x) for x in a], bumped):
        equal = tuple(map(Fraction, other)) == tuple(map(Fraction, a))
        other_delta = DistributionST({"w": other})
        assert (other_delta.rows == delta.rows) == equal
        assert (other_delta == delta) == equal


def test_canonical_rows_edge_cases():
    F = Fraction
    assert DistributionST({"w": (F(0), 0)}).rows == {"w": ((0, 0), 1)}
    assert DistributionST({"w": ()}).rows == {"w": ((), 1)}
    assert DistributionST({"w": (F(-1, 4), F(3, 4))}).rows == {
        "w": ((-1, 3), 4)}
    assert DistributionST.from_rows({"w": ([0, 0], 6)}).rows == {
        "w": ((0, 0), 1)}
    assert DistributionST.from_rows({"w": ([-2, 4], 6)}).rows == {
        "w": ((-1, 2), 3)}
    delta = DistributionST({"w": [F(1, 2), 0]})
    assert delta.mass == {"w": (F(1, 2), F(0))}
    assert repr(delta) == (
        "DistributionST(mass={'w': (Fraction(1, 2), Fraction(0, 1))})")
    assert delta != {"w": (F(1, 2), F(0))}


def _lifted(inst):
    space = inst.space
    game = games.StoppingGame(space, inst.x, inst.y, inst.z)
    return games.lift(game, convert.delta_of_mixed(space, inst.mixed2))


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_every_producer_writes_canonical_rows(seed, fuzz_bounds):
    inst, rng = make_instance(seed, fuzz_bounds)
    space = inst.space
    delta1 = convert.delta_of_mixed(space, inst.mixed)
    lifted = _lifted(inst)
    for delta in (delta1, convert.delta_of_randomized(space, inst.randomized),
                  convert.to_distribution(space, inst.pure),
                  games.lift_distribution(delta1, space, lifted.space)):
        for w, row in delta.rows.items():
            assert row == over_common(delta.mass[w])
    loaded = stopping_time_from_dict(stopping_time_to_dict(inst.randomized))
    assert loaded == inst.randomized
    for rho in (fuzz.random_randomized(rng, space, fuzz_bounds),
                convert.randomized_of_distribution(space, delta1),
                games.lift_randomized(inst.randomized, lifted.space), loaded):
        for w, row in rho.rows.items():
            assert row == over_common(rho.paths[w])


def _count_over_common(monkeypatch) -> list:
    """Every later over_common call's argument, through each stoptime
    module's binding of the name."""
    calls = []
    honest = times.over_common

    def counted(row):
        calls.append(row)
        return honest(row)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "stoptime"
                and getattr(module, "over_common", None) is honest):
            monkeypatch.setattr(module, "over_common", counted)
    return calls


def test_hot_path_reads_int_rows(monkeypatch):
    # lift_distribution, payoff_distribution and first_difference once
    # split each Fraction row back into ints; payoff_mixed converted every
    # lifted atom's breaks although a lifted section repeats per stop
    rng = np.random.Generator(np.random.PCG64(11))
    inst = next(i for i in (fuzz.random_instance(rng, fuzz.FuzzBounds(
        max_outcomes=32, max_grid_points=8, max_breaks=16))
        for _ in range(200)) if len(i.space.outcomes) >= 16)
    space = inst.space
    delta1 = convert.delta_of_mixed(space, inst.mixed)
    lifted = _lifted(inst)
    mu_l = games.lift_mixed(inst.mixed, lifted.space)
    calls = _count_over_common(monkeypatch)
    delta_l = games.lift_distribution(delta1, space, lifted.space)
    problems.payoff_distribution(lifted.problem, delta_l)
    assert convert.first_difference(space, delta1, inst.distribution) is None
    assert convert.first_difference(lifted.space, delta_l, delta_l) is None
    assert calls == []
    problems.payoff_mixed(lifted.problem, mu_l)
    assert len(calls) <= len({id(s) for s in mu_l.sections.values()})
    assert len(lifted.space.outcomes) > len(space.outcomes)


def test_lifted_paths_are_converted_once(monkeypatch):
    # a lifted randomized time repeats one int row per opponent stop;
    # delta_of_randomized and payoff_randomized once split every lifted
    # atom's path into ints, and now read the rows without splitting any
    rng = np.random.Generator(np.random.PCG64(5))
    inst = next(i for i in (fuzz.random_instance(rng, fuzz.FuzzBounds(
        max_outcomes=32, max_grid_points=8, max_breaks=16))
        for _ in range(200)) if len(i.space.outcomes) >= 16)
    lifted = _lifted(inst)
    rho_l = games.lift_randomized(inst.randomized, lifted.space)
    distinct = len({id(nums) for nums, _ in rho_l.rows.values()})
    assert distinct < len(lifted.space.outcomes)
    calls = _count_over_common(monkeypatch)
    delta_l = convert.delta_of_randomized(lifted.space, rho_l)
    assert calls == []
    value = problems.payoff_randomized(lifted.problem, rho_l)
    assert calls == []
    assert value == games.payoff_on_lift(lifted, inst.randomized)
    assert delta_l == games.lift_distribution(
        convert.delta_of_randomized(inst.space, inst.randomized), inst.space,
        lifted.space)


# ---------------------------------------------------------------------------
# step functions: the common refinement and integer rows

def linear_value_at(s: RStepFunction, r) -> int:
    """The seed's value_at: first interval whose right end exceeds r."""
    for i in range(len(s.values)):
        if r < s.breaks[i + 1]:
            return s.values[i]
    return s.values[-1]


@st.composite
def shared_break_sections(draw):
    """Sections drawing their breaks from one shared pool plus a few of
    their own, with values in 0..2 so that equal neighbours (sections that
    are not canonical) are common."""
    unit = st.fractions(0, 1, max_denominator=60)
    pool = draw(st.lists(unit, max_size=8))
    sections = {}
    for i in range(draw(st.integers(1, 5))):
        inner = set(draw(st.lists(st.sampled_from(pool), max_size=6))
                    if pool else ())
        inner |= set(draw(st.lists(unit, max_size=2)))
        breaks = (ZERO, *sorted(inner - {0, 1}), Fraction(1))
        values = draw(st.lists(st.integers(0, 2), min_size=len(breaks) - 1,
                               max_size=len(breaks) - 1))
        sections[f"w{i}"] = RStepFunction(breaks, tuple(values))
    if draw(st.booleans()):
        sections["shared"] = sections["w0"]  # one section object twice
    return sections


fuzzed_sections = st.builds(
    lambda seed, b: make_instance(seed, b)[0].mixed.sections, seeds, bounds)


@settings(max_examples=150, deadline=None)
@given(st.one_of(shared_break_sections(), fuzzed_sections))
def test_common_refinement_matches_linear_definition(sections):
    pieces = common_refinement(sections)
    # the pieces tile [0,1] in order
    assert pieces[0][0] == 0 and pieces[-1][1] == 1
    assert all(a < b for a, b, _ in pieces)
    assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
    # every break is a cut and every cut is a break: the coarsest refinement
    cuts = {a for a, _, _ in pieces} | {pieces[-1][1]}
    assert cuts == {r for s in sections.values() for r in s.breaks}
    for a, b, values in pieces:
        mid = (a + b) / 2
        assert list(values) == list(sections)
        assert values == {w: linear_value_at(s, mid)
                          for w, s in sections.items()}


def midpoint_validate_mixed_sections(space, mu: MixedST) -> list:
    """The seed's section-wise check: one pure time per cut interval, read
    at the interval's midpoint (shape and range checks omitted: the inputs
    below are well shaped)."""
    cuts = sorted({r for s in mu.sections.values() for r in s.breaks})
    violations = []
    for a, b in zip(cuts, cuts[1:]):
        sigma = PureST({w: linear_value_at(s, (a + b) / 2)
                        for w, s in mu.sections.items()})
        violations += [Violation("SectionNotStoppingTime",
                                 f"r in [{a},{b}): {v.detail}")
                       for v in validate_pure(space, sigma)]
    return violations


def midpoint_shuffle_sections(rng, mu: MixedST, max_breaks: int) -> MixedST:
    """The seed's shuffle, reading each section at the permuted midpoints."""
    cuts = sorted({r for s in mu.sections.values() for r in s.breaks})
    n_iv = len(cuts) - 1
    if n_iv < 2 or n_iv > max_breaks:
        return mu
    perm = list(rng.permutation(n_iv))
    breaks = [ZERO]
    for i in perm:
        breaks.append(breaks[-1] + cuts[i + 1] - cuts[i])
    return MixedST({w: RStepFunction(tuple(breaks), tuple(
        linear_value_at(s, (cuts[i] + cuts[i + 1]) / 2) for i in perm))
        .canonical() for w, s in mu.sections.items()})


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_section_walk_matches_midpoint_readers(seed, fuzz_bounds):
    inst, rng = make_instance(seed, fuzz_bounds)
    space = inst.space
    corrupt = fuzz.corrupt_mixed(space, inst.mixed)
    # the same verdicts and texts, and the same shuffle from the same
    # RNG state, leaving the stream where the seed's shuffle left it
    for mu in (inst.mixed, inst.mixed2, corrupt):
        if mu is None:
            continue
        assert (validate_mixed_sections(space, mu)
                == midpoint_validate_mixed_sections(space, mu))
        state = rng.bit_generator.state
        want = midpoint_shuffle_sections(rng, mu, 64)
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        assert fuzz.shuffle_sections(rng, space, mu, 64) == want
        assert rng.bit_generator.state == after


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_mass_numerators_match_mass_of_index(seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    n = inst.space.n_times
    for s in inst.mixed2.sections.values():
        below, row, d = s.mass_numerators(n)
        assert (tuple(Fraction(x, d) for x in row)
                == tuple(mass_of_index(s, j) for j in range(n)))
        assert Fraction(below, d) == s.cdf(-1)
    shifted = RStepFunction((ZERO, Fraction(1, 3), Fraction(1)), (-1, 1))
    assert shifted.mass_numerators(2) == (1, [0, 2], 3)
    assert shifted.cdf_row(2) == ((1, 3), 3)


# ---------------------------------------------------------------------------
# conversions: bisect inverse and the densities table

def linear_mixed_of_randomized(space, rho: RandomizedST) -> MixedST:
    """The seed's mixed_of_randomized, with its linear next(...) search."""
    sections = {}
    for w in space.outcomes:
        row = rho.paths[w]
        breaks = [ZERO]
        values = []
        for v in sorted(set(row)):
            if v > breaks[-1]:
                breaks.append(v)
                values.append(next(j for j, x in enumerate(row) if x >= v))
        sections[w] = RStepFunction(tuple(breaks), tuple(values)).canonical()
    return MixedST(sections)


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_mixed_of_randomized_matches_linear_definition(seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    for rho in (inst.randomized, inst.randomized2):
        mu = mixed_of_randomized(inst.space, rho)
        assert mu == linear_mixed_of_randomized(inst.space, rho)
        # canonical as built: no two adjacent intervals share a value
        assert all(s == s.canonical() for s in mu.sections.values())


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_densities_match_rn_derivative(seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    table = randomized_of_distribution(space, inst.distribution).paths
    for j in range(space.n_times):
        dens = rn_derivative(space, inst.distribution, j)
        assert {w: row[j] for w, row in table.items()} == dens


# ---------------------------------------------------------------------------
# validators: integer and tuple comparisons against the Fraction definitions

def naive_validate_distribution(space, delta) -> list:
    """The seed's distribution validator on Fraction prefix sums (shape
    checks omitted: the inputs below are well shaped)."""
    violations = []
    prefix = {w: [sum(delta.mass[w][: j + 1], ZERO)
                  for j in range(space.n_times)] for w in space.outcomes}
    for w in space.outcomes:
        if any(x < 0 for x in delta.mass[w]):
            violations.append(Violation("NegativeMass", f"row of {w!r}"))
        if prefix[w][-1] != space.prob(w):
            violations.append(Violation(
                "MarginalMismatch",
                f"row of {w!r} sums to {prefix[w][-1]}, P = {space.prob(w)}"))
    if violations:
        return violations
    for j in range(space.n_times):
        for block in space.partitions[j]:
            if len({prefix[w][j] / space.prob(w) for w in block}) > 1:
                violations.append(Violation(
                    "DensityNotAdapted",
                    f"level {j}, block {sorted(map(str, block))}: "
                    "cumulative densities differ"))
    return violations


def _broken_masses(space, delta, rng) -> list:
    """The valid mass plus three corruptions: mass moved in time (breaks
    adaptedness when the outcome shares a block), a negative entry with the
    marginal kept, and a marginal off by a tiny amount."""
    w = space.outcomes[int(rng.integers(len(space.outcomes)))]
    row = list(delta.mass[w])
    out = [delta]
    if len(row) >= 2:
        moved = [ZERO] * (len(row) - 1) + [sum(row, ZERO)]
        negative = [row[0] - 1, row[1] + 1] + row[2:]
        out += [DistributionST({**delta.mass, w: tuple(moved)}),
                DistributionST({**delta.mass, w: tuple(negative)})]
    off = row[:-1] + [row[-1] + Fraction(1, 10**12)]
    out.append(DistributionST({**delta.mass, w: tuple(off)}))
    return out


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_validate_distribution_matches_fraction_definition(seed, fuzz_bounds):
    inst, rng = make_instance(seed, fuzz_bounds)
    for delta in _broken_masses(inst.space, inst.distribution, rng):
        assert (validate_distribution(inst.space, delta)
                == naive_validate_distribution(inst.space, delta))


def measure_validate_mixed_product(space, mu) -> list:
    """The seed's product validator: the measure of the symmetric
    difference, not the interval tuples, decides (range checks omitted)."""
    violations = []
    for j in range(space.n_times):
        for block in space.partitions[j]:
            members = sorted(block, key=lambda w: space._order[w])
            ref = le_intervals(mu.sections[members[0]], j)
            for w in members[1:]:
                d = symmetric_difference_measure(
                    ref, le_intervals(mu.sections[w], j))
                if d != 0:
                    violations.append(Violation(
                        "NotJointlyMeasurable",
                        f"level {j}, block {sorted(map(str, block))}: "
                        f"sections differ on measure {d}"))
                    break
    return violations


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_product_validator_tuple_test_matches_measure(seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    family = [inst.mixed, inst.mixed2]
    mutated = fuzz.corrupt_mixed(space, inst.mixed)
    if mutated is not None:
        family.append(mutated)
    for mu in family:
        assert (validate_mixed_product(space, mu)
                == measure_validate_mixed_product(space, mu))
        # the int runs over one d, as validate_mixed_product takes them
        d = lcm(*(s.break_ints[1] for s in mu.sections.values()))
        for j in range(space.n_times):
            sets = [s.le_intervals(j, d) for s in mu.sections.values()]
            for a in sets[:4]:
                for b in sets:
                    assert (a != b) == (symmetric_difference_measure(a, b) != 0)


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_parity_sum_matches_symmetric_difference_measure(seed, fuzz_bounds):
    # the violation text's measure: every second gap of the sorted merged
    # endpoints of two int runs, against the seed's Fraction definition on
    # the Fraction runs of the same sections
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    family = [inst.mixed, inst.mixed2]
    mutated = fuzz.corrupt_mixed(space, inst.mixed)
    if mutated is not None:
        family.append(mutated)
    for mu in family:
        sections = list(mu.sections.values())
        d = lcm(*(s.break_ints[1] for s in sections))
        for j in range(-1, space.n_times):
            runs = [(s.le_intervals(j, d), le_intervals(s, j))
                    for s in sections]
            for xs, fx in runs:
                assert xs == tuple((a * d, b * d) for a, b in fx)
                for ys, fy in runs:
                    assert (Fraction(symdiff_measure(xs, ys), d)
                            == symmetric_difference_measure(fx, fy))


# ---------------------------------------------------------------------------
# the shared block walk against the seed's per-validator block loops

def naive_validate_pure(space, sigma) -> list:
    """The seed's pure validator: the event {sigma <= t_j} as a set, cut
    against every level-j block (shape checks omitted: the inputs below
    are well shaped)."""
    violations = []
    for w in space.outcomes:
        j = sigma.stop_index[w]
        if not 0 <= j < space.n_times:
            violations.append(Violation(
                "StopIndexOutOfRange", f"stop index for {w!r} is {j}"))
    if violations:
        return violations
    for j in range(space.n_times):
        event = frozenset(w for w in space.outcomes if sigma.stop_index[w] <= j)
        for block in space.partitions[j]:
            inter = block & event
            if inter and inter != block:
                violations.append(Violation(
                    "NotStoppingTime",
                    f"level {j}: {{stop<=t_{j}}} cuts block {sorted(map(str, block))}"))
    return violations


def naive_validate_randomized(space, rho) -> list:
    """The seed's randomized validator: value checks, then the set of path
    values per level-j block (shape checks omitted)."""
    violations = []
    for w in space.outcomes:
        row = rho.paths[w]
        if any(x < 0 or x > 1 for x in row):
            violations.append(Violation(
                "ValueOutOfRange", f"path of {w!r} leaves [0,1]"))
        if any(b < a for a, b in zip(row, row[1:])):
            violations.append(Violation("NotMonotone", f"path of {w!r} decreases"))
        if row[-1] != 1:
            violations.append(Violation(
                "TerminalNotOne", f"path of {w!r} ends at {row[-1]}"))
    for j in range(space.n_times):
        for block in space.partitions[j]:
            if len({rho.paths[w][j] for w in block}) > 1:
                violations.append(Violation(
                    "NotAdapted",
                    f"level {j}, block {sorted(map(str, block))}: path values differ"))
    return violations


def naive_validate_adapted(space, process) -> list:
    """The seed's adaptedness check: the set of values per level-j block
    (shape checks omitted)."""
    violations = []
    for j in range(space.n_times):
        for block in space.partitions[j]:
            if len({process.values[w][j] for w in block}) > 1:
                violations.append(Violation(
                    "NotConstantOnBlock",
                    f"level {j}, block {sorted(map(str, block))}: values differ"))
    return violations


def _moved_stops(space, sigma, rng) -> list:
    """The pure time, plus one outcome's stop index moved to every other
    grid index and one past the grid.  The outcome shares the level-0
    block (the fuzz spaces' root) with every other, so a move usually cuts
    a block."""
    w = space.outcomes[int(rng.integers(len(space.outcomes)))]
    return [sigma] + [PureST({**sigma.stop_index, w: k})
                      for k in range(space.n_times + 1)
                      if k != sigma.stop_index[w]]


def _moved_paths(space, rho, rng) -> list:
    """The paths, plus one outcome's path value at one index moved: to a
    block mate's value at another index, halved and set to 2."""
    w = space.outcomes[int(rng.integers(len(space.outcomes)))]
    j = int(rng.integers(space.n_times))
    row = rho.paths[w]
    mate = rho.paths[space.outcomes[-1]]
    out = [rho]
    for value in (mate[-1 - j], row[j] / 2, Fraction(2)):
        moved = row[:j] + (value,) + row[j + 1:]
        out.append(RandomizedST({**rho.paths, w: moved}))
    return out


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_validators_match_seed_block_loops(seed, fuzz_bounds):
    inst, rng = make_instance(seed, fuzz_bounds)
    space = inst.space
    for sigma in _moved_stops(space, inst.pure, rng):
        assert validate_pure(space, sigma) == naive_validate_pure(space, sigma)
    for rho in (_moved_paths(space, inst.randomized, rng)
                + _moved_paths(space, inst.randomized2, rng)):
        assert (validate_randomized(space, rho)
                == naive_validate_randomized(space, rho))
    # the fuzz rewards are not adapted; the adapted draw is
    adapted = fuzz.random_process(rng, space, fuzz_bounds, adapted=True)
    assert validate_adapted(space, adapted) == []
    for process in (inst.reward, inst.x, adapted):
        assert (validate_adapted(space, process)
                == naive_validate_adapted(space, process))
