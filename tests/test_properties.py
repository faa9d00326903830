"""Property suite over fuzzed instances driven by hypothesis seeds."""

from fractions import Fraction

import numpy as np
from conftest import le_intervals, mass_of_index
from hypothesis import given, settings, strategies as st

from stoptime import (MixedST, cdf_of_mixed, delta_of_mixed,
                      delta_of_randomized, embed_pure, equivalent,
                      mixed_of_randomized,
                      randomized_of_distribution, rn_derivative, sub_measure,
                      validate_distribution, validate_mixed,
                      validate_mixed_product, validate_mixed_sections,
                      validate_pure, validate_randomized)
from stoptime import fuzz

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
        mass, cum = mu.mass_numerators(n), mu.cumulative(n)
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
