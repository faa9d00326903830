from fractions import Fraction
from math import gcd

import pytest
from conftest import at, time_process
from hypothesis import given, settings, strategies as st

from stoptime import (AdaptedProcess, DistributionST, PureST, SpaceError,
                      StoppingGame, build_space, check_space, lift,
                      validate_adapted, validate_pure)
from stoptime.space import Violation, row_violations

F = Fraction


def test_build_valid_two_state_space(coin_space):
    assert coin_space.outcomes == ("w1", "w2")
    assert coin_space.grid == (F(0), F(1))
    assert coin_space.prob("w1") == F(1, 2)


def test_build_degenerate_space():
    s = build_space(("w",), (F(1),), (F(0), F(1)),
                    ((frozenset({"w"}),), (frozenset({"w"}),)))
    assert s.grid[-1] == 1


def test_probs_not_summing_to_one():
    with pytest.raises(SpaceError) as e:
        build_space(("w1", "w2"), (F(1, 2), F(1, 3)), (F(0), F(1)),
                    ((frozenset({"w1", "w2"}),),) * 2)
    assert any(v.code == "ProbsNotSummingToOne" for v in e.value.violations)


@pytest.mark.parametrize("inputs, violation", [
    (((), (), (F(0), F(1)), ((), ())),
     Violation("EmptyOutcomes", "need at least one outcome")),
    ((("w1", "w1"), (F(1, 2), F(1, 2)), (F(0),), ((frozenset({"w1"}),),)),
     Violation("DuplicateOutcome", "outcome labels must be distinct")),
    ((("w1", "w2"), (F(1),), (F(0),), ((frozenset({"w1", "w2"}),),)),
     Violation("ProbShapeMismatch", "1 probs for 2 outcomes")),
], ids=["empty", "duplicate", "prob-shape"])
def test_outcome_and_prob_shape_violations(inputs, violation):
    with pytest.raises(SpaceError) as e:
        build_space(*inputs)
    assert e.value.violations == [violation]


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


def test_a_block_that_lists_an_outcome_twice_is_no_partition():
    with pytest.raises(SpaceError) as e:
        build_space(("w1", "w2"), (F(1, 2), F(1, 2)), (0, 1),
                    ([["w1", "w2", "w1"]], [["w1"], ["w2"]]))
    assert e.value.violations == [Violation(
        "NotAPartition", "level 0: bad block ['w1', 'w1', 'w2']")]


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
    assert validate_adapted(coin_space, AdaptedProcess(
        {w: (3, 3) for w in coin_space.outcomes})) == []


def test_validate_adapted_time_process(coin_space_coarse):
    proc = time_process(coin_space_coarse)
    assert validate_adapted(coin_space_coarse, proc) == []


def test_validate_adapted_violation(coin_space_coarse):
    proc = AdaptedProcess({"w1": (F(0), F(0)), "w2": (F(1), F(0))})
    report = validate_adapted(coin_space_coarse, proc)
    assert len(report) == 1
    assert "level 0" in report[0].detail


# ---------------------------------------------------------------------------
# a process as canonical int rows

exact = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=1000),
    st.builds(F, st.integers(-10**30, 10**30),
              st.sampled_from((1_000_003, 2**61 - 1, 10**18 + 9))))
rows_of = st.one_of(st.lists(exact, max_size=12),
                    st.lists(st.sampled_from([0, F(0)]), max_size=6))


@settings(max_examples=200, deadline=None)
@given(rows_of, rows_of, st.integers(1, 10**6))
def test_process_rows_are_canonical_and_compare_as_tuples(a, b, k):
    proc = AdaptedProcess({"w": a})
    nums, d = proc.rows["w"]
    assert all(type(n) is int for n in nums) and type(d) is int and d > 0
    assert gcd(d, *nums) == 1
    assert proc.values == {"w": tuple(F(x) for x in a)}
    assert [at(proc, "w", j) for j in range(len(a))] == [F(x) for x in a]
    assert proc.numerators() == {"w": nums}
    # the view round-trips, and int rows over a k-fold denominator reduce
    # to the same tuple
    assert AdaptedProcess(proc.values) == proc
    scaled = AdaptedProcess.from_rows({"w": ([k * n for n in nums], k * d)})
    assert scaled.rows == proc.rows and scaled == proc
    bumped = [x + 1 for x in a[:1]] + a[1:]
    for other in (b, [F(x) for x in a], bumped):
        equal = tuple(map(F, other)) == tuple(map(F, a))
        other_proc = AdaptedProcess({"w": other})
        assert (other_proc.rows == proc.rows) == equal
        assert (other_proc == proc) == equal


def test_process_accepts_number_rows_and_keeps_no_view():
    proc = AdaptedProcess({"w1": (0.5, 2, "1/3"), "w2": [F(-3, 6), 0, 1]})
    assert proc.rows == {"w1": ((3, 12, 2), 6), "w2": ((-1, 0, 2), 2)}
    assert AdaptedProcess.from_rows({"w": ([0, 0], 6)}).rows == {
        "w": ((0, 0), 1)}
    assert AdaptedProcess.from_rows({"w": ([-2, 4], 6)}).rows == {
        "w": ((-1, 2), 3)}
    assert AdaptedProcess({"w": ()}).rows == {"w": ((), 1)}
    view = proc.values
    assert view == {"w1": (F(1, 2), F(2), F(1, 3)),
                    "w2": (F(-1, 2), F(0), F(1))}
    # the view is built on each read and not kept next to the rows
    assert proc.values is not view
    assert vars(proc) == {"rows": proc.rows}
    assert repr(AdaptedProcess({"w": [F(1, 2), 0]})) == (
        "AdaptedProcess(values={'w': (Fraction(1, 2), Fraction(0, 1))})")
    # a process equals no other kind of table, and is not hashable
    assert proc != proc.values
    assert AdaptedProcess({"w": (F(1, 2),)}) != DistributionST(
        {"w": (F(1, 2),)})
    with pytest.raises(TypeError):
        hash(proc)


def test_constant_and_time_process_rows(coin_space):
    constant = AdaptedProcess({w: (F(7, 3),) * 2 for w in coin_space.outcomes})
    assert constant.rows == {"w1": ((7, 7), 3), "w2": ((7, 7), 3)}
    assert time_process(coin_space).rows == {
        "w1": ((0, 1), 1), "w2": ((0, 1), 1)}


def test_validate_adapted_compares_values_over_other_denominators(
        coin_space_coarse):
    # 1/2 is held as 1 over 2 in one row and 3 over 6 in the other
    proc = AdaptedProcess({"w1": (F(1, 2), F(0)), "w2": (F(1, 2), F(1, 3))})
    assert proc.rows["w1"][1] != proc.rows["w2"][1]
    assert validate_adapted(coin_space_coarse, proc) == []
    other = AdaptedProcess({"w1": (F(1, 2), F(0)), "w2": (F(1, 3), F(1, 3))})
    assert [v.code for v in validate_adapted(coin_space_coarse, other)] == [
        "NotConstantOnBlock"]


def walk_row_violations(space, table, what):
    """The per-outcome walk of every key and every outcome, the reference
    for row_violations' answer on any table."""
    out = [Violation("ExtraOutcome",
                     f"{what}: {w!r} is not an outcome of the space")
           for w in table if w not in space.outcomes]
    for w in space.outcomes:
        row = table.get(w)
        if row is None:
            out.append(Violation("RowMissing", f"{what}: no row for {w!r}"))
        elif hasattr(row, "__len__") and len(row) != space.n_times:
            out.append(Violation(
                "RowShapeMismatch", f"{what}: row for {w!r} has length {len(row)}"))
    return out


def test_row_violations_match_the_per_outcome_walk(coin_space, coin_delta):
    game = StoppingGame(coin_space, *(AdaptedProcess(
        {w: (c, c) for w in coin_space.outcomes}) for c in (1, 2, 3)))
    lifted = lift(game, coin_delta)
    reward = lifted.reward.numerators()
    ok = (0, 1)
    cases = [
        (coin_space, {"w1": ok, "w2": ok}),
        (coin_space, {"w2": ok, "w1": ok}),
        (coin_space, {"w1": None, "w2": ok}),
        (coin_space, {"w1": ok, "w2": ok, "w3": ok}),
        (coin_space, {"w1": ok, "w3": ok}),
        (coin_space, {"w1": ok}),
        (coin_space, {"w1": (0,), "w2": ok}),
        (coin_space, {"w1": 0, "w2": 1}),
        (coin_space, {"w1": 0, "w2": None}),
        (coin_space, {}),
        (lifted.space, reward),
        (lifted.space, {**reward, next(iter(reward)): (1, 2, 3)}),
        (lifted.space, dict(list(reward.items())[1:])),
    ]
    for space, table in cases:
        want = walk_row_violations(space, table, "t")
        assert row_violations(space, table, "t") == want
        if all(type(row) is tuple for row in table.values()):
            # a table of int rows is read as its numerator rows, in place
            rows = AdaptedProcess._of_canonical(
                {w: (nums, 1) for w, nums in table.items()})
            assert row_violations(space, rows, "t") == want
    assert row_violations(lifted.space, reward, "t") == []
    assert [v.code for v in validate_pure(coin_space, PureST(
        {"w1": None, "w2": 0}))] == ["RowMissing"]
    assert [v.code for v in validate_pure(coin_space, PureST(
        {"w1": None, "w2": None}))] == ["RowMissing", "RowMissing"]


def _blockwise_refinement(partitions) -> list:
    """The refinement check as check_space once made it: each block
    searched for among all blocks of the level before."""
    out = []
    for j in range(1, len(partitions)):
        coarse = partitions[j - 1]
        for block in partitions[j]:
            if not any(block <= cb for cb in coarse):
                out.append(Violation(
                    "RefinementViolated",
                    f"block {sorted(map(str, block))} at level {j} "
                    f"not inside a level-{j-1} block"))
    return out


@st.composite
def partition_chains(draw):
    """Outcomes and one partition of them per level; a level either
    refines the one before or is drawn on its own, so bad refinements
    come too."""
    outcomes = tuple(f"w{i}" for i in range(draw(st.integers(1, 8))))
    labels, chain = None, []
    for _ in range(draw(st.integers(1, 5))):
        new = draw(st.lists(st.integers(0, 3), min_size=len(outcomes),
                            max_size=len(outcomes)))
        if labels is not None and draw(st.booleans()):
            new = list(zip(labels, new))
        labels = new
        blocks = {}
        for w, k in zip(outcomes, labels):
            blocks.setdefault(k, set()).add(w)
        chain.append(tuple(map(frozenset, blocks.values())))
    return outcomes, tuple(chain)


@settings(max_examples=200, deadline=None)
@given(partition_chains())
def test_refinement_check_matches_the_blockwise_search(drawn):
    outcomes, partitions = drawn
    n = len(outcomes)
    found = check_space(outcomes, (F(1, n),) * n,
                        tuple(F(j) for j in range(len(partitions))),
                        partitions)
    assert found == _blockwise_refinement(partitions)
