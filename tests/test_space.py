from fractions import Fraction

import pytest

from stoptime import (AdaptedProcess, SpaceError, build_space, check_space,
                      validate_adapted)

F = Fraction


def test_build_valid_two_state_space(coin_space):
    assert coin_space.outcomes == ("w1", "w2")
    assert coin_space.grid == (F(0), F(1))
    assert coin_space.prob("w1") == F(1, 2)


def test_build_degenerate_space():
    s = build_space(("w",), (F(1),), (F(0), F(1)),
                    ((frozenset({"w"}),), (frozenset({"w"}),)))
    assert s.horizon == 1


def test_probs_not_summing_to_one():
    with pytest.raises(SpaceError) as e:
        build_space(("w1", "w2"), (F(1, 2), F(1, 3)), (F(0), F(1)),
                    ((frozenset({"w1", "w2"}),),) * 2)
    assert any(v.code == "ProbsNotSummingToOne" for v in e.value.violations)


def test_nonpositive_prob_and_bad_grid():
    codes = {v.code for v in check_space(
        ("w1", "w2"), (F(3, 2), F(-1, 2)), (F(1), F(0)),
        ((frozenset({"w1", "w2"}),),) * 2)}
    assert "NonPositiveProb" in codes
    assert "GridNotIncreasing" in codes
    zero = check_space(("w1", "w2"), (F(1), F(0)), (F(0), F(1)),
                       ((frozenset({"w1", "w2"}),),) * 2)
    assert [v.code for v in zero] == ["NonPositiveProb"]


def test_not_a_partition():
    codes = {v.code for v in check_space(
        ("w1", "w2"), (F(1, 2), F(1, 2)), (F(0), F(1)),
        ((frozenset({"w1"}),), (frozenset({"w1"}), frozenset({"w2"}))))}
    assert "NotAPartition" in codes


def test_refinement_violated():
    codes = {v.code for v in check_space(
        ("w1", "w2"), (F(1, 2), F(1, 2)), (F(0), F(1)),
        ((frozenset({"w1"}), frozenset({"w2"})), (frozenset({"w1", "w2"}),)))}
    assert "RefinementViolated" in codes


def test_atom_of_fine_and_coarse(coin_space, coin_space_coarse):
    # the atom of an outcome at level j is its block in partitions[j]
    singletons = (frozenset({"w1"}), frozenset({"w2"}))
    assert coin_space.partitions == (singletons, singletons)
    assert coin_space_coarse.partitions == (
        (frozenset({"w1", "w2"}),), singletons)


def test_build_space_deterministic(coin_space):
    again = build_space(("w1", "w2"), (F(1, 2), F(1, 2)), (0, 1),
                        ((frozenset({"w2"}), frozenset({"w1"})),
                         (frozenset({"w1"}), frozenset({"w2"}))))
    assert again == coin_space


def test_validate_adapted_constant(coin_space):
    assert validate_adapted(coin_space, AdaptedProcess.constant(coin_space, 3)) == []


def test_validate_adapted_time_process(coin_space_coarse):
    proc = AdaptedProcess.time_process(coin_space_coarse)
    assert validate_adapted(coin_space_coarse, proc) == []


def test_validate_adapted_violation(coin_space_coarse):
    proc = AdaptedProcess.from_table({"w1": (F(0), F(0)), "w2": (F(1), F(0))})
    report = validate_adapted(coin_space_coarse, proc)
    assert len(report) == 1
    assert "level 0" in report[0].detail
