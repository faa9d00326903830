from fractions import Fraction

import pytest
from conftest import mass_of_index

from stoptime import (DistributionST, MixedST, PureST, RStepFunction,
                      RandomizedST, common_refinement, delta_of_mixed,
                      embed_pure, rn_derivative, sub_measure,
                      validate_distribution, validate_mixed,
                      validate_mixed_product, validate_mixed_sections,
                      validate_pure, validate_randomized)

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# step functions

def test_step_function_shape_checks():
    with pytest.raises(ValueError):
        RStepFunction((F(0), H), (0,))  # does not reach 1
    with pytest.raises(ValueError):
        RStepFunction((F(0), H, H, F(1)), (0, 1, 0))  # not increasing
    with pytest.raises(ValueError):
        RStepFunction((F(0), F(1)), (0, 1))  # length mismatch


def test_step_function_value_and_masses():
    s = RStepFunction((F(0), H, F(1)), (0, 2))
    # [0, 1/2) carries 0, and [1/2, 1] carries 2 including the point r = 1
    assert common_refinement({"w": s}) == [(0, H, {"w": 0}), (H, 1, {"w": 2})]
    assert mass_of_index(s, 0) == H
    assert mass_of_index(s, 1) == 0
    assert s.cdf(1) == H
    assert s.cdf(2) == 1


def test_step_function_rows_in_one_pass():
    s = RStepFunction((F(0), F(1, 4), H, F(1)), (2, -1, 0))
    # the value -1 is off the grid: no mass row entry, but inside every cdf
    assert tuple(mass_of_index(s, j) for j in range(3)) == (H, F(0), F(1, 4))
    assert s.mass_numerators(3) == (1, [2, 0, 1], 4)
    assert s.cdf_row(3) == ((3, 3, 4), 4)
    assert tuple(s.cdf(j) for j in range(3)) == (F(3, 4), F(3, 4), F(1))
    assert s.mass_numerators(2) == (1, [2, 0], 4)


def test_mixed_rows_shared_sections():
    shared = RStepFunction((F(0), H, F(1)), (0, 1))
    mu = MixedST({"a": shared, "b": shared,
                  "c": RStepFunction.constant(1)})
    rows = mu.mass_numerators(2)
    assert rows == {"a": (0, [1, 1], 2), "b": (0, [1, 1], 2),
                    "c": (0, [0, 1], 1)}
    assert rows["a"] is rows["b"]  # one row per distinct section
    assert {w: tuple(F(x, d) for x in row) for w, (_, row, d) in rows.items()
            } == {w: tuple(mass_of_index(s, j) for j in range(2))
                  for w, s in mu.sections.items()}
    cdf = mu.cdf_rows(2)
    assert cdf == {"a": ((1, 2), 2), "b": ((1, 2), 2), "c": ((0, 1), 1)}
    assert cdf["a"] is cdf["b"]


def test_canonical_merges_equal_neighbours():
    s = RStepFunction((F(0), F(1, 4), H, F(1)), (1, 1, 0))
    c = s.canonical()
    assert c.breaks == (F(0), H, F(1))
    assert c.values == (1, 0)


# ---------------------------------------------------------------------------
# pure

def test_pure_stop_at_horizon_always_valid(coin_space_coarse):
    assert validate_pure(coin_space_coarse, PureST({"w1": 1, "w2": 1})) == []


def test_pure_valid_with_full_information(coin_space):
    assert validate_pure(coin_space, PureST({"w1": 0, "w2": 1})) == []


def test_pure_invalid_on_coarse_block(coin_space_coarse):
    report = validate_pure(coin_space_coarse, PureST({"w1": 0, "w2": 1}))
    assert report and "level 0" in report[0].detail


def test_pure_index_out_of_range(coin_space):
    assert validate_pure(coin_space, PureST({"w1": 0, "w2": 7}))


def test_extra_outcome_rejected_by_every_validator(coin_space, coin_mixed,
                                                   coin_randomized, coin_delta):
    def extra(table, row):
        return {**table, "zz": row}

    reports = (
        validate_pure(coin_space, PureST({"w1": 0, "w2": 1, "zz": 0})),
        validate_mixed(coin_space, MixedST(extra(
            coin_mixed.sections, RStepFunction.constant(0)))),
        validate_mixed_sections(coin_space, MixedST(extra(
            coin_mixed.sections, RStepFunction.constant(0)))),
        validate_randomized(coin_space, RandomizedST(extra(
            coin_randomized.paths, (F(1), F(1))))),
        validate_distribution(coin_space, DistributionST(extra(
            coin_delta.mass, (F(0), F(0))))),
    )
    for report in reports:
        assert [v.code for v in report] == ["ExtraOutcome"]
        assert "'zz'" in report[0].detail


# ---------------------------------------------------------------------------
# mixed

def test_mixed_valid(coin_space, coin_mixed, coin_mixed_flipped):
    for mu in (coin_mixed, coin_mixed_flipped):
        # flipping the randomizer on one outcome stays valid under full info
        assert validate_mixed(coin_space, mu) == []
        assert validate_mixed_sections(coin_space, mu) == []


def test_mixed_flipped_invalid_on_coarse_space(coin_space_coarse,
                                               coin_mixed_flipped):
    report = validate_mixed_product(coin_space_coarse, coin_mixed_flipped)
    # {r : stop by 0} is [0,1/2) vs [1/2,1); symmetric difference measure 1
    assert report and "measure 1" in report[0].detail
    assert validate_mixed_sections(coin_space_coarse, coin_mixed_flipped)


def test_mixed_plain_still_valid_on_coarse_space(coin_space_coarse, coin_mixed):
    assert validate_mixed(coin_space_coarse, coin_mixed) == []
    assert validate_mixed_sections(coin_space_coarse, coin_mixed) == []


def test_mixed_section_off_grid(coin_space):
    mu = MixedST({"w1": RStepFunction.constant(5),
                  "w2": RStepFunction.constant(0)})
    assert validate_mixed(coin_space, mu)
    assert validate_mixed_sections(coin_space, mu)


# ---------------------------------------------------------------------------
# randomized

def test_randomized_stop_now(coin_space):
    rho = RandomizedST({"w1": (F(1), F(1)), "w2": (F(1), F(1))})
    assert validate_randomized(coin_space, rho) == []


def test_randomized_coin_path_valid(coin_space, coin_randomized):
    assert validate_randomized(coin_space, coin_randomized) == []


def test_randomized_not_monotone(coin_space):
    rho = RandomizedST({"w1": (F(1), H), "w2": (F(1), H)})
    codes = {v.code for v in validate_randomized(coin_space, rho)}
    assert "NotMonotone" in codes
    assert "TerminalNotOne" in codes


def test_randomized_not_adapted(coin_space_coarse):
    rho = RandomizedST({"w1": (H, F(1)), "w2": (F(0), F(1))})
    codes = {v.code for v in validate_randomized(coin_space_coarse, rho)}
    assert "NotAdapted" in codes


# ---------------------------------------------------------------------------
# distribution

def test_distribution_uniform_valid(coin_space, coin_delta):
    assert validate_distribution(coin_space, coin_delta) == []


def test_distribution_point_mass_at_horizon(coin_space_coarse):
    delta = DistributionST({"w1": (F(0), H), "w2": (F(0), H)})
    assert validate_distribution(coin_space_coarse, delta) == []


def test_distribution_density_not_adapted(coin_space_coarse):
    delta = DistributionST({"w1": (H, F(0)), "w2": (F(0), H)})
    codes = {v.code for v in validate_distribution(coin_space_coarse, delta)}
    assert "DensityNotAdapted" in codes


def test_distribution_marginal_mismatch(coin_space):
    delta = DistributionST({"w1": (H, H), "w2": (F(0), F(1, 4))})
    codes = {v.code for v in validate_distribution(coin_space, delta)}
    assert "MarginalMismatch" in codes


def test_distribution_negative_mass(coin_space):
    delta = DistributionST({"w1": (F(-1, 4), F(3, 4)), "w2": (F(0), H)})
    codes = {v.code for v in validate_distribution(coin_space, delta)}
    assert "NegativeMass" in codes


# ---------------------------------------------------------------------------
# embedding and densities

def test_embed_pure_constant_sections(coin_space):
    mu = embed_pure(PureST({"w1": 0, "w2": 1}))
    assert mu.sections["w1"] == RStepFunction.constant(0)
    assert validate_mixed(coin_space, mu) == []
    assert validate_mixed_sections(coin_space, mu) == []


def test_embed_pure_pushes_point_masses(coin_space):
    sigma = PureST({"w1": 0, "w2": 1})
    delta = delta_of_mixed(coin_space, embed_pure(sigma))
    assert delta.mass["w1"] == (H, F(0))
    assert delta.mass["w2"] == (F(0), H)


def test_rn_derivative_uniform(coin_space, coin_delta):
    assert rn_derivative(coin_space, coin_delta, 0) == {"w1": H, "w2": H}
    assert rn_derivative(coin_space, coin_delta, 1) == {"w1": F(1), "w2": F(1)}


def test_rn_derivative_point_mass(coin_space):
    delta = DistributionST({"w1": (F(0), H), "w2": (F(0), H)})
    assert rn_derivative(coin_space, delta, 0) == {"w1": F(0), "w2": F(0)}


def test_sub_measure_dominated(coin_space, coin_delta):
    sub = sub_measure(coin_space, coin_delta, 0)
    assert sub.mass == {"w1": F(1, 4), "w2": F(1, 4)}
    assert sub.total() == H
