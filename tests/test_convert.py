import types
from fractions import Fraction

import pytest
from conftest import le_intervals
from hypothesis import example, given, settings, strategies as st

from stoptime import (DistributionST, MixedST, PureST, RStepFunction,
                      RandomizedST, build_space, delta_of_mixed,
                      delta_of_randomized, embed_pure, equivalent,
                      first_difference, mixed_of_distribution,
                      mixed_of_randomized, randomized_of_distribution,
                      validate_mixed_sections, validate_randomized)
from stoptime import convert, experiment
from stoptime.convert import cdf_of_mixed
from stoptime.experiment import ExperimentConfig, check_instance, draw
from stoptime.space import IncompatibleSpaces, over_common
from stoptime.times import validate_mixed

F = Fraction
H = F(1, 2)


@pytest.fixture
def three_grid_space():
    # one outcome, grid (0, 1/2, 1)
    part = ((frozenset({"w"}),),) * 3
    return build_space(("w",), (F(1),), (F(0), H, F(1)), part)


def test_delta_of_mixed_uniform(coin_space, coin_mixed, coin_delta):
    assert delta_of_mixed(coin_space, coin_mixed) == coin_delta


def test_delta_of_mixed_flipped_same_law(coin_space, coin_mixed_flipped,
                                         coin_delta):
    assert delta_of_mixed(coin_space, coin_mixed_flipped) == coin_delta


def test_delta_of_randomized_stop_now(coin_space):
    rho = RandomizedST({"w1": (F(1), F(1)), "w2": (F(1), F(1))})
    delta = delta_of_randomized(coin_space, rho)
    assert delta.mass["w1"] == (H, F(0))


def test_delta_of_randomized_coin(coin_space, coin_randomized, coin_delta):
    assert delta_of_randomized(coin_space, coin_randomized) == coin_delta


def test_delta_of_randomized_uniform_over_grid(three_grid_space):
    # path value (j+1)/(m+1) telescopes to equal mass on every grid time
    rho = RandomizedST({"w": (F(1, 3), F(2, 3), F(1))})
    delta = delta_of_randomized(three_grid_space, rho)
    assert delta.mass["w"] == (F(1, 3), F(1, 3), F(1, 3))


def test_randomized_of_distribution_coin(coin_space, coin_delta,
                                         coin_randomized):
    assert randomized_of_distribution(coin_space, coin_delta) == coin_randomized


def test_randomized_of_distribution_point_mass(coin_space):
    delta = DistributionST({"w1": (F(0), H), "w2": (F(0), H)})
    rho = randomized_of_distribution(coin_space, delta)
    assert rho.paths["w1"] == (F(0), F(1))


def test_randomized_of_distribution_uniform_grid(three_grid_space):
    delta = DistributionST({"w": (F(1, 3), F(1, 3), F(1, 3))})
    rho = randomized_of_distribution(three_grid_space, delta)
    assert rho.paths["w"] == (F(1, 3), F(2, 3), F(1))


def test_round_trip_is_exact(coin_space, coin_delta):
    rho = randomized_of_distribution(coin_space, coin_delta)
    assert delta_of_randomized(coin_space, rho) == coin_delta


def test_mixed_of_randomized_coin(coin_space, coin_randomized, coin_mixed):
    mu = mixed_of_randomized(coin_space, coin_randomized)
    assert mu == coin_mixed
    assert validate_mixed(coin_space, mu) == []
    assert validate_mixed_sections(coin_space, mu) == []


def test_mixed_of_randomized_stop_now(coin_space):
    rho = RandomizedST({"w1": (F(1), F(1)), "w2": (F(1), F(1))})
    mu = mixed_of_randomized(coin_space, rho)
    assert mu.sections["w1"] == RStepFunction.constant(0)


def test_mixed_of_randomized_cumulative_identity(three_grid_space):
    rho = RandomizedST({"w": (F(1, 3), F(2, 3), F(1))})
    mu = mixed_of_randomized(three_grid_space, rho)
    assert cdf_of_mixed(three_grid_space, mu, "w", 1) == F(2, 3)
    assert equivalent(three_grid_space, mu, rho)


def test_mixed_of_randomized_with_flat_path_segment(three_grid_space):
    # no mass at the middle time: its path value repeats
    rho = RandomizedST({"w": (F(1, 4), F(1, 4), F(1))})
    mu = mixed_of_randomized(three_grid_space, rho)
    assert delta_of_mixed(three_grid_space, mu).mass["w"] == (F(1, 4), F(0), F(3, 4))


def test_mixed_of_distribution_coin(coin_space, coin_delta, coin_mixed):
    mu = mixed_of_distribution(coin_space, coin_delta)
    assert mu == coin_mixed
    assert delta_of_mixed(coin_space, mu) == coin_delta


def test_mixed_of_distribution_point_mass(coin_space):
    delta = DistributionST({"w1": (F(0), H), "w2": (F(0), H)})
    mu = mixed_of_distribution(coin_space, delta)
    assert mu.sections["w1"] == RStepFunction.constant(1)


def test_cdf_of_mixed_examples(coin_space, coin_mixed, coin_mixed_flipped):
    assert cdf_of_mixed(coin_space, coin_mixed, "w1", 0) == H
    assert cdf_of_mixed(coin_space, coin_mixed, "w1", 1) == 1
    assert cdf_of_mixed(coin_space, coin_mixed_flipped, "w2", 0) == H


def test_cdf_of_mixed_off_grid_values(three_grid_space):
    # not a valid mixed time, only sections to measure: a value below the
    # grid counts at every index, a value at or above n_times at none
    for values, want in (((-1, 3, 1), (F(1, 4), F(3, 4), F(3, 4))),
                         ((4, -1, 0), (F(3, 4),) * 3)):
        s = RStepFunction(over_common((F(0), F(1, 4), H, F(1))), values)
        mu = MixedST({"w": s})
        got = tuple(cdf_of_mixed(three_grid_space, mu, "w", j)
                    for j in range(3))
        assert got == want
        assert got == tuple(sum(b - a for a, b in le_intervals(s, j))
                            for j in range(3))
        for j in (-1, 3):
            with pytest.raises(IndexError):
                cdf_of_mixed(three_grid_space, mu, "w", j)


def test_equivalent_across_kinds(coin_space, coin_mixed, coin_mixed_flipped,
                                 coin_randomized, coin_delta):
    assert equivalent(coin_space, coin_mixed, coin_mixed_flipped)
    assert equivalent(coin_space, coin_mixed, coin_randomized)
    assert equivalent(coin_space, coin_randomized, coin_delta)
    assert equivalent(coin_space, coin_delta, coin_delta)


def test_equivalent_detects_difference(coin_space, coin_mixed,
                                       three_grid_space):
    rho = RandomizedST({"w1": (F(1, 3), F(1)), "w2": (F(1, 3), F(1))})
    assert validate_randomized(coin_space, rho) == []
    assert not equivalent(coin_space, coin_mixed, rho)
    w, t, ma, mb = first_difference(coin_space, coin_mixed, rho)
    assert (w, t) == ("w1", F(0))
    assert (ma, mb) == (F(1, 4), F(1, 6))
    # rows that agree at time 0: the witness is the first differing time
    later = first_difference(three_grid_space, PureST({"w": 1}),
                             PureST({"w": 2}))
    assert later == ("w", H, F(1), F(0))


def test_equivalent_pure_enters_via_embedding(coin_space):
    sigma = PureST({"w1": 0, "w2": 1})
    assert equivalent(coin_space, sigma, embed_pure(sigma))


def test_pure_rows_are_shared_per_stop_index():
    # embed_pure builds one section per distinct stop index, so _given
    # reads one mass row per index, off the grid an all-zero one
    space = build_space(("a", "b", "c", "d"), (F(1, 4),) * 4, (0, 1),
                        (tuple(frozenset(w) for w in "abcd"),) * 2)
    sigma = PureST({"a": 1, "b": 0, "c": 1, "d": 5})
    sections = embed_pure(sigma).sections
    assert sections == {w: RStepFunction.constant(j)
                        for w, j in sigma.stop_index.items()}
    assert sections["a"] is sections["c"]
    rows = convert._given(space, sigma)
    assert rows == {"a": ([0, 1], 1), "b": ([1, 0], 1), "c": ([0, 1], 1),
                    "d": ([0, 0], 1)}
    assert rows["a"] is rows["c"]


def test_equivalent_incompatible_spaces(coin_space):
    other = MixedST({"a": RStepFunction.constant(0)})
    with pytest.raises(IncompatibleSpaces):
        equivalent(coin_space, other, other)


def test_nonuniqueness_witness(coin_space, coin_mixed, coin_mixed_flipped):
    # same stop law, different step functions
    assert delta_of_mixed(coin_space, coin_mixed) == delta_of_mixed(
        coin_space, coin_mixed_flipped)
    assert coin_mixed != coin_mixed_flipped


def test_path_to_intervals_row_catches_a_wrong_cumulative_row(monkeypatch):
    """Each criterion of the fuzz row alone fails it: a wrong cumulative row
    for an equivalent pair, and a pair of other laws whose cumulative rows
    are planted to match the paths."""
    config = ExperimentConfig(seed=5)
    inst, _ = draw(config, 0)

    def status(planted_mixed):
        planted = types.SimpleNamespace(**vars(convert))
        planted.mixed_of_randomized = planted_mixed
        monkeypatch.setattr(experiment, "convert", planted)
        rows = check_instance(config, 0)
        return next(r.status for r in rows if r.check == "path_to_intervals")

    class WrongRow(MixedST):
        def cumulative(self, n_times):
            rows = dict(super().cumulative(n_times).rows)
            w = next(iter(rows))
            rows[w] = ((0,) * n_times, 1)
            return RandomizedST.from_rows(rows)

    class MatchingRows(MixedST):
        def cumulative(self, n_times):
            return RandomizedST.from_rows(
                {w: over_common(path)
                 for w, path in inst.randomized.paths.items()})

    def honest(space, rho):
        return WrongRow(convert.mixed_of_randomized(space, rho).sections)

    def late(space, rho):
        return MatchingRows({w: RStepFunction.constant(space.last_index)
                             for w in space.outcomes})

    assert status(convert.mixed_of_randomized) == "pass"
    assert equivalent(inst.space, inst.randomized, honest(inst.space,
                                                          inst.randomized))
    assert status(honest) == "fail"
    assert not equivalent(inst.space, inst.randomized,
                          late(inst.space, inst.randomized))
    assert status(late) == "fail"


BIG = 2**63 - 1


def fake_space(outcomes, probs):
    """The outcomes and probs _weighted reads, the probs also as the int
    row a space keeps; they need not sum to 1."""
    return types.SimpleNamespace(outcomes=outcomes, probs=probs,
                                 prob_row=over_common(probs))


@st.composite
def weighted_inputs(draw):
    """Outcomes with probs at denominators up to 2**63 - 1, each mapped to
    one of a few distinct (row, d) objects, as a lift shares one row per
    base outcome; rows carry common factors and may be all zero."""
    n = draw(st.integers(1, 5))
    factor = st.sampled_from([1, 2, 6, 2**31 - 1, BIG, 2**64])
    row = st.builds(lambda xs, k: [k * x for x in xs],
                    st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n),
                    factor)
    distinct = draw(st.lists(st.tuples(st.one_of(row, st.just([0] * n)),
                                       st.integers(1, BIG)),
                             min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=8))
    probs = draw(st.lists(st.builds(Fraction, st.integers(1, BIG),
                                    st.integers(1, BIG)),
                          min_size=len(picks), max_size=len(picks)))
    outcomes = [f"w{i}" for i in range(len(picks))]
    rows = {w: distinct[i] for w, i in zip(outcomes, picks)}
    return fake_space(outcomes, probs), rows


@settings(max_examples=300, deadline=None)
@given(weighted_inputs())
@example((fake_space(["a", "b"], [F(2, 3), F(1, 3)]),
          {"a": ([0, 3, 6], 9), "b": ([0, 0, 0], 1)}))
def test_weighted_rows_are_the_from_rows_rows(case):
    # one two-int gcd per row gives the rows from_rows reduces by the gcd
    # of the whole row
    space, rows = case
    want = DistributionST.from_rows({
        w: ([p.numerator * x for x in rows[w][0]], p.denominator * rows[w][1])
        for w, p in zip(space.outcomes, space.probs)})
    assert convert._weighted(space, rows).rows == want.rows
