"""The integer-numerator kernel against the plain Fraction definitions it
replaces, on hand-picked and fuzzed inputs."""

import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from conftest import (le_intervals, mass_of_index,
                      naive_validate_mixed_sections,
                      symmetric_difference_measure)
from hypothesis import given, settings, strategies as st

from stoptime import (AdaptedProcess, DistributionST, MixedST, PureST,
                      RStepFunction, RandomizedST, build_space, common_refinement, convert,
                      embed_pure, fuzz, games, mixed_of_randomized,
                      over_common, problems, randomized_of_distribution,
                      times, validate_adapted, validate_distribution,
                      validate_mixed_product, validate_mixed_sections,
                      validate_pure, validate_randomized)
from stoptime.serialize import stopping_time_from_dict, stopping_time_to_dict
from stoptime.space import Violation, unadapted_blocks
from stoptime.times import (add_term, fraction_sum, int_dot, rn_derivative,
                            symdiff_measure)

ZERO = Fraction(0)
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
    honest = over_common

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
    problems.payoff_distribution(lifted, delta_l)
    assert convert.first_difference(space, delta1, inst.distribution) is None
    assert convert.first_difference(lifted.space, delta_l, delta_l) is None
    assert calls == []
    problems.payoff_mixed(lifted, mu_l)
    assert len(calls) <= len({id(s) for s in mu_l.sections.values()})
    assert len(lifted.space.outcomes) > len(space.outcomes)


def test_lifted_equivalence_builds_no_joint_mass(monkeypatch):
    # equivalent once weighted both lifted times into joint masses over
    # every lifted atom; the laws given w repeat one base row per opponent
    # stop, so the pair is compared per distinct row pair, as base rows
    rng = np.random.Generator(np.random.PCG64(11))
    inst = next(i for i in (fuzz.random_instance(rng, fuzz.FuzzBounds(
        max_outcomes=32, max_grid_points=8, max_breaks=16))
        for _ in range(400)) if len(i.space.outcomes) == 32
        and i.space.n_times == 8)
    lifted = _lifted(inst)
    mu_l = games.lift_mixed(inst.mixed, lifted.space)
    rho_l = games.lift_randomized(inst.randomized, lifted.space)
    weighted, rows = [], []
    honest_weighted, honest_rows = convert._weighted, RStepFunction.mass_numerators

    def counted_weighted(space, table):
        weighted.append(table)
        return honest_weighted(space, table)

    def counted_rows(self, n_times):
        rows.append(self)
        return honest_rows(self, n_times)

    monkeypatch.setattr(convert, "_weighted", counted_weighted)
    monkeypatch.setattr(RStepFunction, "mass_numerators", counted_rows)
    assert convert.equivalent(lifted.space, mu_l, rho_l)
    assert weighted == []
    assert len(rows) <= len({id(s) for s in mu_l.sections.values()})
    assert len(lifted.space.outcomes) > 2 * len(inst.space.outcomes)


def reference_mass(space, eta) -> dict:
    """The joint mass as Fractions from each kind's definition: P(w) times
    the stop law given w, read off the section's intervals, the path's
    increments or the stop index; a mass is its own."""
    n = space.n_times
    if isinstance(eta, DistributionST):
        return {w: list(row) for w, row in eta.mass.items()}
    if isinstance(eta, PureST):
        law = {w: [Fraction(j == i) for j in range(n)]
               for w, i in eta.stop_index.items()}
    elif isinstance(eta, MixedST):
        law = {w: [mass_of_index(s, j) for j in range(n)]
               for w, s in eta.sections.items()}
    else:
        law = {w: [b - a for a, b in zip((ZERO, *path), path)]
               for w, path in eta.paths.items()}
    return {w: [space.prob(w) * x for x in law[w]] for w in space.outcomes}


def reference_first_difference(space, ma, mb):
    """The first (w, t, mass_a, mass_b) whose joint masses differ, walked in
    outcome x grid order, as first_difference once did on two masses."""
    for w in space.outcomes:
        for t, x, y in zip(space.grid, ma[w], mb[w]):
            if x != y:
                return w, t, x, y
    return None


@settings(max_examples=40, deadline=None)
@given(seeds, bounds)
def test_first_difference_is_the_first_joint_mass_difference(seed, fuzz_bounds):
    # every kind against every kind, on the base space and on a lifted one
    # whose tables repeat one row object per opponent stop; mixed2 and the
    # corrupted section differ from the rest, the pure time mostly does
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    lifted = _lifted(inst).space
    delta2 = convert.delta_of_mixed(space, inst.mixed2)
    corrupt = fuzz.corrupt_mixed(space, inst.mixed)
    base = {"pure": inst.pure, "mixed": inst.mixed, "mixed2": inst.mixed2,
            "randomized": inst.randomized, "distribution": inst.distribution,
            "distribution2": delta2, "corrupt": corrupt}
    on_lift = {
        "pure": PureST({a: inst.pure.stop_index[a[0]] for a in lifted.outcomes}),
        "mixed": games.lift_mixed(inst.mixed, lifted),
        "mixed2": games.lift_mixed(inst.mixed2, lifted),
        "randomized": games.lift_randomized(inst.randomized, lifted),
        "distribution": games.lift_distribution(inst.distribution, space, lifted),
        "distribution2": games.lift_distribution(delta2, space, lifted),
        "corrupt": corrupt and games.lift_mixed(corrupt, lifted)}
    verdicts = set()
    for sp, table in ((space, base), (lifted, on_lift)):
        kinds = {k: eta for k, eta in table.items() if eta is not None}
        masses = {k: reference_mass(sp, eta) for k, eta in kinds.items()}
        for a, b in ((a, b) for a in kinds for b in kinds):
            expected = reference_first_difference(sp, masses[a], masses[b])
            assert convert.first_difference(sp, kinds[a], kinds[b]) == expected
            verdicts.add(expected is None)
    assert verdicts == {True, False}


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
    value = problems.payoff_randomized(lifted, rho_l)
    assert calls == []
    assert value == games.payoff_on_lift(inst.space, lifted, inst.randomized)
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
    their own, with values in 0..2 so that equal neighbours (which the
    constructor merges) are common."""
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
        sections[f"w{i}"] = RStepFunction(over_common(breaks), tuple(values))
    if draw(st.booleans()):
        sections["shared"] = sections["w0"]  # one section object twice
    return sections


fuzzed_sections = st.builds(
    lambda seed, b: make_instance(seed, b)[0].mixed.sections, seeds, bounds)


@settings(max_examples=150, deadline=None)
@given(st.one_of(shared_break_sections(), fuzzed_sections))
def test_common_refinement_matches_linear_definition(sections):
    cuts, d, starts = common_refinement(sections)
    # the cuts tile [0,1] in order
    assert cuts[0] == 0 and cuts[-1] == d
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    # every break is a cut and every cut is a break: the coarsest refinement
    at = [Fraction(k, d) for k in cuts]
    assert set(at) == {r for s in sections.values() for r in s.breaks}
    assert list(starts) == list(sections)
    for w, s in sections.items():
        assert [at[c] for c in starts[w]] == list(s.breaks[:-1])
        # the value on each cut interval is the section's at its midpoint
        ends = starts[w][1:] + [len(cuts) - 1]
        spread = [v for v, a, b in zip(s.values, starts[w], ends)
                  for _ in range(a, b)]
        assert spread == [linear_value_at(s, (a + b) / 2)
                          for a, b in zip(at, at[1:])]


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
    return MixedST({w: RStepFunction(over_common(breaks), tuple(
        linear_value_at(s, (cuts[i] + cuts[i + 1]) / 2) for i in perm))
        for w, s in mu.sections.items()})


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
        assert Fraction(below, d) == sum(b - a for a, b in le_intervals(s, -1))
    shifted = RStepFunction(over_common((ZERO, Fraction(1, 3), Fraction(1))),
                            (-1, 1))
    assert shifted.mass_numerators(2) == (1, [0, 2], 3)
    assert shifted.cdf_row(2) == ((1, 3), 3)


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_cdf_of_mixed_matches_le_intervals(seed, fuzz_bounds):
    # cdf_of_mixed reads the section's cdf_row; the reference walks its breaks
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    for mu in (inst.mixed, inst.mixed2):
        for w, s in mu.sections.items():
            for j in range(space.n_times):
                assert (convert.cdf_of_mixed(space, mu, w, j)
                        == sum(b - a for a, b in le_intervals(s, j)))


@st.composite
def sections_on_a_space(draw):
    """shared_break_sections on a space of their own: each outcome draws a
    0/1 label per level and the level-j blocks are the label prefixes, so
    the partitions refine; with two grid points a value 2 leaves the grid."""
    sections = draw(shared_break_sections())
    n_times = draw(st.integers(2, 4))
    labels = {w: draw(st.tuples(*[st.integers(0, 1)] * n_times))
              for w in sections}
    partitions = [[{w for w in sections if labels[w][:j + 1] == key}
                   for key in {lab[:j + 1] for lab in labels.values()}]
                  for j in range(n_times)]
    space = build_space(tuple(sections), [Fraction(1, len(sections))]
                        * len(sections), range(n_times), partitions)
    return space, MixedST(sections)


def _sweep_matches_oracle(space, mu) -> int:
    got = validate_mixed_sections(space, mu)
    assert got == naive_validate_mixed_sections(space, mu)
    return len(got)


@settings(max_examples=150, deadline=None)
@given(sections_on_a_space())
def test_section_sweep_matches_per_interval_oracle_on_drawn_sections(case):
    _sweep_matches_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_section_sweep_matches_per_interval_oracle_on_fuzzed_times(
        seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    space = inst.space
    for mu in (inst.mixed, inst.mixed2, embed_pure(inst.pure),
               fuzz.corrupt_mixed(space, inst.mixed),
               fuzz.corrupt_mixed(space, inst.mixed2)):
        if mu is not None:
            _sweep_matches_oracle(space, mu)


def test_section_sweep_matches_per_interval_oracle_at_128x32():
    # seed 6 draws exactly 128 outcomes and 32 grid points
    bounds_128 = fuzz.FuzzBounds(max_outcomes=128, max_grid_points=32,
                                 max_breaks=64)
    inst = fuzz.random_instance(np.random.Generator(np.random.PCG64(6)),
                                bounds_128, min_outcomes=128)
    space = inst.space
    assert (len(space.outcomes), space.n_times) == (128, 32)
    found = [_sweep_matches_oracle(space, mu)
             for mu in (inst.mixed, inst.mixed2, embed_pure(inst.pure),
                        fuzz.corrupt_mixed(space, inst.mixed))]
    assert found[:3] == [0, 0, 0] and found[3] > 0


def test_section_sweep_builds_no_pure_time(monkeypatch):
    def never(*args):
        raise AssertionError("per-interval pure time")

    inst, _ = make_instance(3, fuzz.FuzzBounds(max_outcomes=16,
                                               max_grid_points=8))
    bad = fuzz.corrupt_mixed(inst.space, inst.mixed)
    want = naive_validate_mixed_sections(inst.space, bad)
    assert want
    monkeypatch.setattr(times, "PureST", never)
    monkeypatch.setattr(times, "validate_pure", never)
    assert validate_mixed_sections(inst.space, bad) == want


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
        sections[w] = RStepFunction(over_common(breaks), tuple(values))
    return MixedST(sections)


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_mixed_of_randomized_matches_linear_definition(seed, fuzz_bounds):
    inst, _ = make_instance(seed, fuzz_bounds)
    for rho in (inst.randomized, inst.randomized2):
        mu = mixed_of_randomized(inst.space, rho)
        assert mu == linear_mixed_of_randomized(inst.space, rho)
        # the values rise strictly as built, so no interval was merged
        assert all(a < b for s in mu.sections.values()
                   for a, b in zip(s.values, s.values[1:]))


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


def path_density_violations(space, delta) -> list:
    """DensityNotAdapted as the validator once found it: by building the
    mass's path and asking it per block (rows assumed well formed)."""
    return [Violation("DensityNotAdapted",
                      f"level {j}, block {sorted(map(str, block))}: "
                      "cumulative densities differ")
            for j, block, _, _ in unadapted_blocks(
                space, randomized_of_distribution(space, delta).same)]


@settings(max_examples=60, deadline=None)
@given(seeds, bounds, st.data())
def test_density_check_matches_the_built_path(seed, fuzz_bounds, data):
    # mass moved within one row keeps the marginal and splits the
    # cumulatives of every block the outcome shares between the two times
    inst, _ = make_instance(seed, fuzz_bounds)
    lifted = _lifted(inst).space
    for space, delta in ((inst.space, inst.distribution),
                         (lifted, games.lift_distribution(
                             inst.distribution, inst.space, lifted))):
        w = data.draw(st.sampled_from(space.outcomes))
        nums, d = delta.rows[w]
        src = data.draw(st.sampled_from([j for j, x in enumerate(nums) if x]))
        dst = data.draw(st.integers(0, space.last_index))
        amount = data.draw(st.integers(1, nums[src]))
        moved = list(nums)
        moved[src] -= amount
        moved[dst] += amount
        planted = DistributionST.from_rows({**delta.rows, w: (moved, d)})
        for mass in (delta, planted):
            assert (validate_distribution(space, mass)
                    == path_density_violations(space, mass))


def test_section_check_writes_a_block_once_per_call(monkeypatch):
    # one block cut on two intervals of [0,1]: each violation keeps the
    # text built for it alone, and the block's text is built once
    part = (frozenset({"a", "b"}),)
    space = build_space(("a", "b"), (Fraction(1, 2), Fraction(1, 2)),
                        (0, 1), ((part[0],), (frozenset("a"), frozenset("b"))))
    third = Fraction(1, 3)
    mu = MixedST({"a": RStepFunction(over_common(
        (ZERO, third, 2 * third, Fraction(1))), (0, 1, 0)),
        "b": RStepFunction.constant(1)})
    expected = [Violation("SectionNotStoppingTime",
                          f"r in [{a},{b}): " + times._cut_text(0, part[0]))
                for a, b in ((ZERO, third), (2 * third, Fraction(1)))]
    assert naive_validate_mixed_sections(space, mu) == expected
    texts = []
    honest = times._cut_text

    def counted(j, block):
        texts.append(block)
        return honest(j, block)

    monkeypatch.setattr(times, "_cut_text", counted)
    assert validate_mixed_sections(space, mu) == expected
    assert len(texts) == 1


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
        # the span prefixes over one d, as validate_mixed_product reads
        # them, measured against the seed's Fraction runs
        d = lcm(*(s.break_ints[1] for s in mu.sections.values()))
        for j in range(space.n_times):
            sets = [(_prefix(s, d, j), le_intervals(s, j))
                    for s in mu.sections.values()]
            for a, fa in sets[:4]:
                for b, fb in sets:
                    assert (symdiff_measure(a, b)
                            == d * symmetric_difference_measure(fa, fb))


def _halves_space(levels):
    """Outcomes a, b, c on the grid 0..len(levels)-1, level j's partition
    given as a list of blocks, each a string of outcome letters."""
    return build_space("abc", [Fraction(1, 3)] * 3, range(len(levels)),
                       [[frozenset(b) for b in level] for level in levels])


def _halves(values: dict) -> MixedST:
    """Sections with values[w] = (first, second) on [0, 1/2) and [1/2, 1)."""
    return MixedST({w: RStepFunction(((0, 1, 2), 2), v)
                    for w, v in values.items()})


def _no_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("a valid time ran the per-level walk")
    monkeypatch.setattr(times, "unadapted_blocks", walk)


def test_product_check_clips_at_the_level_after_the_last(monkeypatch):
    # block {a, b} appears last at level 1; a and b differ only in
    # {s <= 1} on [0, 1/2) (a stops at 1, b at 2): a clip at 1 would merge
    # 1 and 2 and pass the time, the clip at 2 tells them apart
    space = _halves_space([["abc"], ["ab", "c"], ["a", "b", "c"],
                           ["a", "b", "c"]])
    mu = _halves({"a": (1, 3), "b": (2, 3), "c": (3, 3)})
    want = measure_validate_mixed_product(space, mu)
    assert [v.detail for v in want] == [
        "level 1, block ['a', 'b']: sections differ on measure 1/2"]
    assert validate_mixed_product(space, mu) == want
    # they differ only above the clip, at 2 against 3: valid, and decided
    # without the per-level walk
    mu = _halves({"a": (1, 2), "b": (1, 3), "c": (2, 3)})
    assert measure_validate_mixed_product(space, mu) == []
    _no_walk(monkeypatch)
    assert validate_mixed_product(space, mu) == []


def test_product_check_of_a_block_over_consecutive_levels(monkeypatch):
    # block {a, b} at levels 1, 2 and 3, split at 4: a difference at its
    # last level 3 only (a stops at 3, b at 4 on [0, 1/2)) is seen by the
    # clip at 4, which a clip after its first level would miss, and one at
    # its first level only (1 against 2) as well
    space = _halves_space([["abc"], ["ab", "c"], ["ab", "c"], ["ab", "c"],
                           ["a", "b", "c"], ["a", "b", "c"]])
    for low, levels in (((3, 4), [3]), ((1, 2), [1])):
        mu = _halves({"a": (low[0], 5), "b": (low[1], 5), "c": (5, 5)})
        want = measure_validate_mixed_product(space, mu)
        assert [int(v.detail.split()[1][:-1]) for v in want] == levels
        assert validate_mixed_product(space, mu) == want
    mu = _halves({"a": (2, 4), "b": (2, 5), "c": (1, 1)})
    assert measure_validate_mixed_product(space, mu) == []
    _no_walk(monkeypatch)
    assert validate_mixed_product(space, mu) == []


def test_product_check_of_equal_sets_carrying_other_values():
    # a is 0 then 1 on the halves of [0, 1), b is 1 then 0: at level 1 both
    # sets are [0, 1) while their span prefixes differ, so only level 0 is
    # reported, with the measure of its symmetric difference
    space = build_space("ab", [Fraction(1, 2)] * 2, range(3),
                        [[frozenset("ab")], [frozenset("ab")],
                         [frozenset("a"), frozenset("b")]])
    mu = _halves({"a": (0, 1), "b": (1, 0)})
    want = [Violation("NotJointlyMeasurable", "level 0, block ['a', 'b']: "
                      "sections differ on measure 1")]
    assert measure_validate_mixed_product(space, mu) == want
    assert validate_mixed_product(space, mu) == want


@pytest.mark.parametrize("seed", [6, 12])
def test_product_validator_matches_measure_at_128x32(seed, monkeypatch):
    # the one comparison per block decides the valid times at 128 x 32
    # without the per-level walk, and the corrupted one gets the walk's
    # texts, which the seed's measure validator gives too
    bounds_128 = fuzz.FuzzBounds(max_outcomes=128, max_grid_points=32,
                                 max_breaks=64)
    inst = fuzz.random_instance(np.random.Generator(np.random.PCG64(seed)),
                                bounds_128, min_outcomes=128)
    space = inst.space
    assert (len(space.outcomes), space.n_times) == (128, 32)
    corrupt = fuzz.corrupt_mixed(space, inst.mixed)
    want = measure_validate_mixed_product(space, corrupt)
    assert want and validate_mixed_product(space, corrupt) == want
    # the measure walk takes seconds here: the other valid times are held
    # to the section-wise sweep
    valid = (inst.mixed, inst.mixed2, embed_pure(inst.pure))
    assert measure_validate_mixed_product(space, inst.mixed) == []
    assert [validate_mixed_sections(space, mu) for mu in valid] == [[], [], []]
    _no_walk(monkeypatch)
    assert [validate_mixed_product(space, mu) for mu in valid] == [[], [], []]


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
            runs = [(tuple((a * d, b * d) for a, b in fx), fx)
                    for fx in (le_intervals(s, j) for s in sections)]
            for xs, fx in runs:
                for ys, fy in runs:
                    assert (Fraction(symdiff_measure(xs, ys), d)
                            == symmetric_difference_measure(fx, fy))


corrupted_sections = st.builds(
    lambda inst: (fuzz.corrupt_mixed(inst.space, inst.mixed)
                  or inst.mixed).sections,
    st.builds(lambda seed, b: make_instance(seed, b)[0], seeds, bounds))


def _prefix(s, d: int, j: int) -> list:
    """Level j's set {r : s(r) <= j} as the product check reads it: the
    (a, b) of the prefix of s.spans(d) with value below j + 1."""
    spans = s.spans(d)
    return [(a, b) for _, a, b in spans[:bisect_left(spans, (j + 1,))]]


def _merged(runs) -> tuple:
    """The runs sorted, touching runs joined into one."""
    out = []
    for a, b in sorted(runs):
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(st.one_of(shared_break_sections(), fuzzed_sections, corrupted_sections),
       st.integers(1, 10), st.integers(1, 3))
def test_span_prefixes_match_fraction_runs(sections, n_times, scale):
    # every level's span prefix, the breaks scaled once to a multiple of
    # their lcm and merged here, against the seed's Fraction runs
    d = scale * lcm(*(s.break_ints[1] for s in sections.values()))
    for s in sections.values():
        assert s.spans(d) == sorted(s.spans(d))
        for j in range(n_times):
            assert _merged(_prefix(s, d, j)) == tuple(
                (a * d, b * d) for a, b in le_intervals(s, j))


def test_span_prefix_below_the_first_level():
    # a value below 0 lies in level 0's set, and a level no value equals
    # holds the same runs as the level below it
    s = RStepFunction(((0, 1, 2, 3), 3), (-1, 2, 0))
    assert s.spans(6) == [(-1, 0, 2), (0, 4, 6), (2, 2, 4)]
    assert [_merged(_prefix(s, 6, j)) for j in range(4)] == [
        ((0, 2), (4, 6)), ((0, 2), (4, 6)), ((0, 6),), ((0, 6),)]


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
    # the fuzz rewards are not adapted; the index of each outcome's
    # level-j block, at level j, is
    adapted = AdaptedProcess({
        w: [next(k for k, block in enumerate(part) if w in block)
            for part in space.partitions]
        for w in space.outcomes})
    assert validate_adapted(space, adapted) == []
    for process in (inst.reward, inst.x, adapted):
        assert (validate_adapted(space, process)
                == naive_validate_adapted(space, process))
