"""Property suite over fuzzed instances driven by hypothesis seeds."""

from fractions import Fraction

import numpy as np
from conftest import le_intervals, mass_of_index, permute, refine, split
from hypothesis import given, settings, strategies as st

from stoptime import (DistributionST, MixedST, PureST, RStepFunction,
                      RandomizedST, StoppingGame, StoppingProblem,
                      delta_of_mixed, delta_of_randomized, embed_pure,
                      equivalent, game_payoff_player2_view,
                      game_payoff_symmetric, game_payoff_via_lift,
                      mixed_of_randomized, payoff, payoff_distribution,
                      payoff_mixed, payoff_pure, payoff_randomized,
                      randomized_of_distribution, validate,
                      validate_distribution, validate_mixed_product,
                      validate_mixed_sections, validate_pure,
                      validate_randomized)
from stoptime import fuzz
from stoptime.convert import cdf_of_mixed
from stoptime.sampling import sample_counts
from stoptime.serialize import (format_ratio, stopping_time_from_dict,
                                stopping_time_to_dict)
from stoptime.times import rn_derivative, sub_measure, validate_mixed

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def make_instance(seed, **kw):
    rng = np.random.Generator(np.random.PCG64(seed))
    return fuzz.random_instance(rng, fuzz.FuzzBounds(**kw)), rng


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_generated_instances_pass_their_validators(seed):
    inst, _ = make_instance(seed)
    assert validate_pure(inst.space, inst.pure) == []
    assert validate_mixed(inst.space, inst.mixed) == []
    assert validate_mixed_sections(inst.space, inst.mixed) == []
    assert validate_randomized(inst.space, inst.randomized) == []
    assert validate_distribution(inst.space, inst.distribution) == []


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_mixed_validators_always_agree(seed):
    inst, rng = make_instance(seed)
    mu = inst.mixed
    assert (bool(validate_mixed_sections(inst.space, mu))
            == bool(validate_mixed_product(inst.space, mu)))
    mutated = fuzz.corrupt_mixed(inst.space, mu)
    if mutated is not None:
        sec = validate_mixed_sections(inst.space, mutated)
        prod = validate_mixed_product(inst.space, mutated)
        assert bool(sec) and bool(prod)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_path_inverse_is_equivalent_with_matching_cdf(seed):
    inst, _ = make_instance(seed)
    mu = mixed_of_randomized(inst.space, inst.randomized)
    assert equivalent(inst.space, inst.randomized, mu)
    for w in inst.space.outcomes:
        for j in range(inst.space.n_times):
            assert cdf_of_mixed(inst.space, mu, w, j) == inst.randomized.paths[w][j]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_mass_round_trip_and_uniqueness(seed):
    inst, _ = make_instance(seed)
    rho = randomized_of_distribution(inst.space, inst.distribution)
    assert delta_of_randomized(inst.space, rho) == inst.distribution
    assert rho == inst.randomized


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_cumulative_density_matches_section_cdf(seed):
    inst, _ = make_instance(seed)
    delta = delta_of_mixed(inst.space, inst.mixed)
    for j in range(inst.space.n_times):
        dens = rn_derivative(inst.space, delta, j)
        for w in inst.space.outcomes:
            assert dens[w] == cdf_of_mixed(inst.space, inst.mixed, w, j)
        # block constancy at each level
        for block in inst.space.partitions[j]:
            assert len({dens[w] for w in block}) == 1


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_rn_derivative_monotone_terminal_one(seed):
    inst, _ = make_instance(seed)
    prev = {w: Fraction(0) for w in inst.space.outcomes}
    for j in range(inst.space.n_times):
        dens = rn_derivative(inst.space, inst.distribution, j)
        for w in inst.space.outcomes:
            assert dens[w] >= prev[w]
        prev = dens
    assert all(v == 1 for v in prev.values())


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_equivalence_is_an_equivalence_relation(seed):
    inst, _ = make_instance(seed)
    family = (inst.mixed, inst.randomized, inst.distribution)
    for a in family:
        assert equivalent(inst.space, a, a)
        for b in family:
            assert equivalent(inst.space, a, b) == equivalent(inst.space, b, a)
            assert equivalent(inst.space, a, b)
    # transitivity across the whole family holds by the assertions above;
    # a non-equivalent second family must stay non-equivalent consistently
    other = (inst.mixed2, inst.randomized2)
    flags = {equivalent(inst.space, a, b) for a in family for b in other}
    assert len(flags) == 1


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_embedded_pure_passes_mixed_validation(seed):
    inst, _ = make_instance(seed)
    mu = embed_pure(inst.pure)
    assert validate_mixed(inst.space, mu) == []
    assert validate_mixed_sections(inst.space, mu) == []


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_section_rows_match_per_index_queries(seed):
    inst, _ = make_instance(seed)
    space = inst.space
    n = space.n_times
    # lifted layout: one shared section object per (outcome, opponent stop)
    lifted = MixedST({(w, s): inst.mixed.sections[w]
                      for w in space.outcomes for s in range(n)})
    for mu in (inst.mixed, inst.mixed2, lifted):
        mass = {w: s.mass_numerators(n) for w, s in mu.sections.items()}
        cum = mu.cumulative(n)
        assert set(mass) == set(cum.rows) == set(mu.sections)
        for w, section in mu.sections.items():
            _, row, d = mass[w]
            assert ([Fraction(x, d) for x in row]
                    == [mass_of_index(section, j) for j in range(n)])
            assert d % cum.rows[w][1] == 0  # reduced from the section's d
            assert (list(cum.paths[w])
                    == [sum(b - a for a, b in le_intervals(section, j))
                        for j in range(n)])


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_prefix_table_matches_sub_measure(seed):
    # the one-pass table times P is every sub_measure at once
    inst, _ = make_instance(seed)
    space = inst.space
    for delta in (inst.distribution, delta_of_mixed(space, inst.mixed2)):
        table = randomized_of_distribution(space, delta).paths
        assert set(table) == set(space.outcomes)
        for j in range(space.n_times):
            sub = sub_measure(space, delta, j)
            assert {w: row[j] * space.prob(w)
                    for w, row in table.items()} == sub


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_randomized_of_distribution_matches_rn_derivative(seed):
    inst, _ = make_instance(seed)
    space = inst.space
    for delta in (inst.distribution, delta_of_mixed(space, inst.mixed2)):
        rho = randomized_of_distribution(space, delta)
        for j in range(space.n_times):
            dens = rn_derivative(space, delta, j)
            for w in space.outcomes:
                assert rho.paths[w][j] == dens[w]


def split_lists(data, s) -> tuple:
    """((nums, d), values): the section's breaks over k times its d, with
    some intervals cut into pieces that carry the interval's value."""
    nums, d = s.break_ints
    k = data.draw(st.integers(1, 4))
    breaks, values = [0], []
    for v, a, b in zip(s.values, nums, nums[1:]):
        inner = (data.draw(st.sets(st.integers(k * a + 1, k * b - 1),
                                   max_size=3)) if k * (b - a) > 1 else ())
        for c in (*sorted(inner), k * b):
            breaks.append(c)
            values.append(v)
    return (tuple(breaks), k * d), tuple(values)


@settings(max_examples=40, deadline=None)
@given(seeds, st.data())
def test_split_intervals_give_the_same_section(seed, data):
    """Breaks and values with equal neighbours build the section of the
    merged lists: equal, hashed alike, and read alike by every reader."""
    inst, _ = make_instance(seed)
    space = inst.space
    n = space.n_times
    problem = StoppingProblem(space, inst.reward)
    for mu in filter(None, (inst.mixed, fuzz.corrupt_mixed(space, inst.mixed))):
        lists = {w: split_lists(data, s) for w, s in mu.sections.items()}
        split = MixedST({w: RStepFunction(*ls) for w, ls in lists.items()})
        for w, s in mu.sections.items():
            t = split.sections[w]
            assert t == s and hash(t) == hash(s)
            assert t.mass_numerators(n) == s.mass_numerators(n)
            assert t.cdf_row(n) == s.cdf_row(n)
            d = 2 * s.break_ints[1]  # spans takes any multiple of it
            assert t.spans(d) == s.spans(d)
        assert split == mu
        assert payoff_mixed(problem, split) == payoff_mixed(problem, mu)
        assert (validate_mixed_product(space, split)
                == validate_mixed_product(space, mu))
        assert (validate_mixed_sections(space, split)
                == validate_mixed_sections(space, mu))
        draws = [sample_counts(space, eta, np.random.Generator(
            np.random.PCG64(seed)), 500) for eta in (split, mu)]
        assert (draws[0] == draws[1]).all()
        doc = {"kind": "mixed", "sections": {
            w: {"breaks": [format_ratio(x, k) for x in nums],
                "values": list(values)}
            for w, ((nums, k), values) in lists.items()}}
        assert stopping_time_from_dict(doc) == mu
        assert stopping_time_from_dict(stopping_time_to_dict(split)) == mu


def _prices(inst) -> tuple:
    """Each kind's own payoff, payoff on every kind, and the three game
    routes with Player 1 on mixed and Player 2 on mixed2."""
    problem = StoppingProblem(inst.space, inst.reward)
    game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
    kinds = (inst.pure, inst.mixed, inst.randomized, inst.distribution)
    return ((payoff_pure(problem, inst.pure),
             payoff_mixed(problem, inst.mixed),
             payoff_randomized(problem, inst.randomized),
             payoff_distribution(problem, inst.distribution)),
            tuple(payoff(problem, eta) for eta in kinds),
            tuple(route(game, inst.mixed, inst.mixed2)
                  for route in (game_payoff_via_lift, game_payoff_symmetric,
                                game_payoff_player2_view)))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_splitting_every_atom_into_twins_changes_nothing(seed):
    # twins share every block, so the split space learns nothing new: every
    # time stays valid, mixed and mass stay equivalent, and every payoff
    # and game value is unchanged (pure is drawn apart from the rest)
    inst, _ = make_instance(seed)
    twin = split(inst)
    for eta in (twin.pure, twin.mixed, twin.randomized, twin.distribution,
                twin.mixed2):
        assert validate(twin.space, eta) == []
    assert equivalent(twin.space, twin.mixed, twin.distribution)
    own, via_payoff, game = _prices(twin)
    assert (own, via_payoff, game) == _prices(inst)
    assert own == via_payoff and len(set(own[1:])) == len(set(game)) == 1


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0))
def test_refining_the_grid_changes_nothing(seed, k):
    # the inserted time learns nothing and carries no mass: every time stays
    # valid, mixed and path stay equivalent to the mass, and every payoff
    # and game value is unchanged
    inst, _ = make_instance(seed)
    fine = refine(inst, k % inst.space.n_times)
    assert fine.space.n_times == inst.space.n_times + 1
    for eta in (fine.pure, fine.mixed, fine.randomized, fine.distribution,
                fine.mixed2):
        assert validate(fine.space, eta) == []
    assert equivalent(fine.space, fine.mixed, fine.distribution)
    assert equivalent(fine.space, fine.randomized, fine.distribution)
    own, via_payoff, game = _prices(fine)
    assert (own, via_payoff, game) == _prices(inst)
    assert own == via_payoff and len(set(own[1:])) == len(set(game)) == 1


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_the_mirrored_game_swaps_the_players(seed):
    # X and Y trade places in the mirror, so Player 1's payoff there with the
    # strategies swapped is the game's payoff, for every pair of kinds
    inst, _ = make_instance(seed)
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    mirror = StoppingGame(space, inst.y, inst.x, inst.z)
    player2 = (inst.pure, inst.mixed2, inst.randomized2,
               delta_of_mixed(space, inst.mixed2))
    for tau1 in (inst.pure, inst.mixed, inst.randomized, inst.distribution):
        for tau2 in player2:
            for route in (game_payoff_symmetric, game_payoff_via_lift):
                assert route(game, tau1, tau2) == route(mirror, tau2, tau1)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_listing_outcomes_and_blocks_in_another_order_changes_nothing(seed):
    # the space is the same set of outcomes, blocks and probabilities, so
    # every time stays valid, mixed and path stay equivalent to the mass,
    # and every payoff and game value is unchanged
    inst, rng = make_instance(seed)
    moved = permute(inst, rng.permutation(len(inst.space.outcomes)).tolist())
    for eta in (moved.pure, moved.mixed, moved.randomized, moved.distribution,
                moved.mixed2):
        assert validate(moved.space, eta) == []
    assert equivalent(moved.space, moved.mixed, moved.distribution)
    assert equivalent(moved.space, moved.randomized, moved.distribution)
    assert _prices(moved) == _prices(inst)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_a_time_that_tells_twins_apart_fails_validate(seed):
    # every block holds both twins of an outcome, so a time of any kind that
    # stops one twin at another index than the other is not adapted: the
    # first twin is moved to stop at index j for sure, 0 unless it already
    # stops there for sure, and the last index then
    twin = split(make_instance(seed)[0])
    space = twin.space
    w, last = space.outcomes[0], space.last_index
    nums, d = twin.randomized.rows[w]
    j = 0 if nums[0] < d else last
    p = space.prob(w)
    moved = {
        "NotStoppingTime": PureST({**twin.pure.stop_index,
                                   w: 0 if twin.pure.stop_index[w] else last}),
        "NotJointlyMeasurable": MixedST({**twin.mixed.sections,
                                         w: RStepFunction.constant(j)}),
        "NotAdapted": RandomizedST.from_rows({**twin.randomized.rows, w: (
            [int(i >= j) for i in range(space.n_times)], 1)}),
        "DensityNotAdapted": DistributionST.from_rows({
            **twin.distribution.rows, w: ([p.numerator * (i == j)
                                          for i in range(space.n_times)],
                                         p.denominator)})}
    for code, eta in moved.items():
        assert {v.code for v in validate(space, eta)} == {code}
