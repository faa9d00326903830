from fractions import Fraction

import numpy as np
import pytest
from conftest import le_intervals, mass_of_index
from hypothesis import given, settings, strategies as st

from stoptime import (DistributionST, MixedST, PureST, RStepFunction,
                      RandomizedST, common_refinement, delta_of_mixed,
                      embed_pure, over_common, validate_distribution,
                      validate_mixed_product, validate_mixed_sections,
                      validate_pure, validate_randomized)
from stoptime import build_space, convert, fuzz, games, times
from stoptime.times import rn_derivative, sub_measure, validate_mixed

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# step functions

def test_step_function_shape_checks():
    with pytest.raises(ValueError):
        RStepFunction(over_common((F(0), H)), (0,))  # does not reach 1
    with pytest.raises(ValueError):
        # not increasing
        RStepFunction(over_common((F(0), H, H, F(1))), (0, 1, 0))
    with pytest.raises(ValueError):
        RStepFunction(over_common((F(0), F(1))), (0, 1))  # length mismatch


def test_step_function_value_and_masses():
    s = RStepFunction(over_common((F(0), H, F(1))), (0, 2))
    # [0, 1/2) carries 0, and [1/2, 1] carries 2 including the point r = 1
    assert common_refinement({"w": s}) == ([0, 1, 2], 2, {"w": [0, 1]})
    assert mass_of_index(s, 0) == H
    assert mass_of_index(s, 1) == 0
    assert sum(b - a for a, b in le_intervals(s, 1)) == H
    assert sum(b - a for a, b in le_intervals(s, 2)) == 1


def test_step_function_rows_in_one_pass():
    s = RStepFunction(over_common((F(0), F(1, 4), H, F(1))), (2, -1, 0))
    # the value -1 is off the grid: no mass row entry, but inside every cdf
    assert tuple(mass_of_index(s, j) for j in range(3)) == (H, F(0), F(1, 4))
    assert s.mass_numerators(3) == (1, [2, 0, 1], 4)
    assert s.cdf_row(3) == ((3, 3, 4), 4)
    assert (tuple(sum(b - a for a, b in le_intervals(s, j)) for j in range(3))
            == (F(3, 4), F(3, 4), F(1)))
    assert s.mass_numerators(2) == (1, [2, 0], 4)


def test_mixed_rows_shared_sections(monkeypatch):
    shared = RStepFunction(over_common((F(0), H, F(1))), (0, 1))
    mu = MixedST({"a": shared, "b": shared,
                  "c": RStepFunction.constant(1)})
    space = build_space(("a", "b", "c"), (F(1, 3),) * 3, (0, 1),
                        ((frozenset("abc"),),) * 2)
    assert {w: s.mass_numerators(2) for w, s in mu.sections.items()} == {
        "a": (0, [1, 1], 2), "b": (0, [1, 1], 2), "c": (0, [0, 1], 1)}
    rows = convert._given(space, mu)
    assert rows == {"a": ([1, 1], 2), "b": ([1, 1], 2), "c": ([0, 1], 1)}
    assert rows["a"] is rows["b"]  # one row per distinct section
    assert {w: tuple(F(x, d) for x in row) for w, (row, d) in rows.items()
            } == {w: tuple(mass_of_index(s, j) for j in range(2))
                  for w, s in mu.sections.items()}
    read = []
    cdf_row = RStepFunction.cdf_row

    def counted(self, n_times):
        read.append(self)
        return cdf_row(self, n_times)

    monkeypatch.setattr(RStepFunction, "cdf_row", counted)
    cum = mu.cumulative(2)
    assert cum.rows == {"a": ((1, 2), 2), "b": ((1, 2), 2), "c": ((0, 1), 1)}
    # one cdf_row per distinct section
    assert sorted(map(id, read)) == sorted({id(s) for s in mu.sections.values()})


def test_cumulative_reduces_once_per_distinct_section(monkeypatch):
    # a lifted mixed time repeats one section object per opponent stop
    inst = fuzz.random_instance(np.random.Generator(np.random.PCG64(3)),
                                min_outcomes=4)
    game = games.StoppingGame(inst.space, inst.x, inst.y, inst.z)
    lifted = games.lift(game, inst.distribution).space
    mu = games.lift_mixed(inst.mixed, lifted)
    n = lifted.n_times
    reductions = []
    reduce = times.reduced

    def counted(nums, d):
        reductions.append((nums, d))
        return reduce(nums, d)

    monkeypatch.setattr(times, "reduced", counted)
    cum = mu.cumulative(n)
    monkeypatch.undo()
    distinct = {id(s) for s in mu.sections.values()}
    assert len(reductions) == len(distinct) < len(mu.sections)
    assert cum == RandomizedST.from_rows(
        {w: s.cdf_row(n) for w, s in mu.sections.items()})
    assert cum == games.lift_randomized(inst.mixed.cumulative(n), lifted)


def test_constructor_merges_equal_neighbours():
    s = RStepFunction(over_common((F(0), F(1, 4), H, F(1))), (1, 1, 0))
    assert s.breaks == (F(0), H, F(1))
    assert s.values == (1, 0)
    s = RStepFunction(((0, 1, 2, 3, 4), 4), (2, 2, 2, 2))
    assert s == RStepFunction.constant(2) and s.break_ints == ((0, 1), 1)
    # values given as a list are held as the tuple, so they hash
    s = RStepFunction(([0, 1, 2], 2), [0, 1])
    assert s == RStepFunction(((0, 1, 2), 2), (0, 1)) and hash(s)
    assert type(s.values) is tuple


def test_sections_equal_across_scalings():
    a = RStepFunction(((0, 2, 4), 4), (0, 1))
    b = RStepFunction(((0, 1, 2), 2), (0, 1))
    assert a == b and hash(a) == hash(b)
    assert a.break_ints == ((0, 1, 2), 2)
    assert a != RStepFunction(((0, 1, 2), 2), (1, 0))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.fractions(0, 1, max_denominator=10**6), max_size=8),
       st.data())
def test_breaks_view_round_trips(inner, data):
    # the view reads back the breaks left after equal neighbours merge
    bs = (F(0), *sorted(inner - {0, 1}), F(1))
    vs = tuple(data.draw(st.lists(st.integers(-1, 5), min_size=len(bs) - 1,
                                  max_size=len(bs) - 1)))
    s = RStepFunction(over_common(bs), vs)
    opens = [i for i in range(len(vs)) if i == 0 or vs[i] != vs[i - 1]]
    assert s.breaks == (*(bs[i] for i in opens), F(1))
    assert s.values == tuple(vs[i] for i in opens)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("nums, d, values, message", [
    ((0, 1), 2, (0,), "run from 0 to 1"),
    ((0, 1, 1, 2), 2, (0, 1, 0), "strictly increasing"),
    ((0, 1), 1, (0, 1), "length mismatch"),
])
def test_shape_checks_on_scaled_ints(k, nums, d, values, message):
    with pytest.raises(ValueError, match=message):
        RStepFunction((tuple(k * n for n in nums), k * d), values)


def test_constructor_merges_then_reduces_break_ints():
    # merging drops the break 1/4, after which the breaks reduce by 2
    s = RStepFunction(((0, 1, 2, 4), 4), (1, 1, 0))
    assert s.break_ints == ((0, 1, 2), 2) and s.values == (1, 0)
    for same in (RStepFunction(((0, 2, 4), 4), (1, 0)),
                 RStepFunction(((0, 1, 2), 2), (1, 0))):
        assert s == same and hash(s) == hash(same)


def test_break_ints_are_held_as_reduced_tuples():
    reduced = (0, 1, 3)
    assert RStepFunction((reduced, 3), (0, 1)).break_ints[0] is reduced
    for nums, d in (([0, 1, 3], 3), ([0, 2, 6], 6), ((0, 2, 6), 6)):
        s = RStepFunction((nums, d), (0, 1))
        assert s.break_ints == ((0, 1, 3), 3)
        assert type(s.break_ints[0]) is tuple


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
    assert sub == {"w1": F(1, 4), "w2": F(1, 4)}
    assert sum(sub.values()) == H
