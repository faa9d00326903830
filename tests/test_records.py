"""The seven records of the package root and the campaign's two settings
keep a frozen dataclass's contract: positional and keyword construction, the checks their
constructors run, == and hash over the fields in order (a record holding
a dict or a table is unhashable), the repr text a dataclass prints (failing
witnesses embed Violation reprs) and no assignment or deletion."""

from fractions import Fraction

import pytest

from stoptime import (AdaptedProcess, FilteredSpace, IncompatibleSpaces,
                      MixedST, PureST, RStepFunction, StoppingGame,
                      StoppingProblem, Violation, build_space, demo)
from stoptime.experiment import ExperimentConfig
from stoptime.fuzz import FuzzBounds
from stoptime.space import _pull_back

F = Fraction

# the field type that makes each unhashable record so
UNHASHABLE = {PureST: "dict", MixedST: "dict",
              StoppingProblem: "AdaptedProcess",
              StoppingGame: "AdaptedProcess"}


def _lifted():
    """The coarse coin pulled back to three atoms, and the same space built
    and checked by build_space."""
    base = build_space(("w1", "w2"), (F(1, 2),) * 2, (0, 1),
                       ((frozenset({"w1", "w2"}),),
                        (frozenset({"w1"}), frozenset({"w2"}))))
    atoms = {"w1": [("w1", 0), ("w1", 1)], "w2": [("w2", 0)]}
    lifted = _pull_back(base, atoms, ((1, 1, 2), 4))
    built = build_space(
        (("w1", 0), ("w1", 1), ("w2", 0)), (F(1, 4), F(1, 4), F(1, 2)),
        (0, 1), ((frozenset({("w1", 0), ("w1", 1), ("w2", 0)}),),
                 (frozenset({("w1", 0), ("w1", 1)}),
                  frozenset({("w2", 0)}))))
    return lifted, built


def _cases():
    """(record, its fields by keyword, the repr a dataclass prints)."""
    space = demo.coin_space()
    reward = AdaptedProcess({"w1": (0, 1), "w2": (0, 1)})
    x, y, z = (AdaptedProcess({"w1": (n, n), "w2": (n, 0)})
               for n in (1, 2, 3))
    section = RStepFunction(((0, 1, 2), 2), (0, 1))
    space_text = (
        "FilteredSpace(outcomes=('w1', 'w2'), "
        "probs=(Fraction(1, 2), Fraction(1, 2)), "
        "grid=(Fraction(0, 1), Fraction(1, 1)), "
        "partitions=((frozenset({'w1'}), frozenset({'w2'})), "
        "(frozenset({'w1'}), frozenset({'w2'}))))")
    section_text = "RStepFunction(break_ints=((0, 1, 2), 2), values=(0, 1))"
    return [
        (Violation("X", "y"), {"code": "X", "detail": "y"},
         "Violation(code='X', detail='y')"),
        (space, {"outcomes": space.outcomes, "probs": space.probs,
                 "grid": space.grid, "partitions": space.partitions},
         space_text),
        # the constructor merges equal neighbours and reduces the breaks
        (section, {"break_ints": ((0, 2, 3, 4), 4), "values": (0, 1, 1)},
         section_text),
        (PureST({"w1": 0, "w2": 1}), {"stop_index": {"w1": 0, "w2": 1}},
         "PureST(stop_index={'w1': 0, 'w2': 1})"),
        (MixedST({"w1": section, "w2": section}),
         {"sections": {"w1": section, "w2": section}},
         f"MixedST(sections={{'w1': {section_text}, 'w2': {section_text}}})"),
        (StoppingProblem(space, reward), {"space": space, "reward": reward},
         f"StoppingProblem(space={space_text}, reward={reward!r})"),
        (StoppingGame(space, x, y, z),
         {"space": space, "x": x, "y": y, "z": z},
         f"StoppingGame(space={space_text}, x={x!r}, y={y!r}, z={z!r})"),
        (FuzzBounds(max_breaks=3), {"max_outcomes": 8, "max_grid_points": 6,
                                    "max_breaks": 3, "max_denominator": 64},
         "FuzzBounds(max_outcomes=8, max_grid_points=6, max_breaks=3, "
         "max_denominator=64)"),
        (ExperimentConfig(seed=7, tv_tolerance=0.5),
         {"seed": 7, "n_instances": 200, "n_samples": 100_000,
          "max_outcomes": 8, "max_grid_points": 6, "max_breaks": 8,
          "max_denominator": 64, "tv_tolerance": 0.5, "jobs": 1},
         "ExperimentConfig(seed=7, n_instances=200, n_samples=100000, "
         "max_outcomes=8, max_grid_points=6, max_breaks=8, "
         "max_denominator=64, tv_tolerance=0.5, jobs=1)"),
    ]


CASES = _cases()


@pytest.mark.parametrize("record, fields, text", CASES,
                         ids=[type(record).__name__ for record, _, _ in CASES])
def test_records_keep_the_frozen_dataclass_contract(record, fields, text):
    cls = type(record)
    assert repr(record) == text
    for copy in (cls(**fields), cls(*fields.values())):
        assert copy == record and copy is not record and not copy != record
    assert record != object() and record != ()
    values = tuple(getattr(record, name) for name in fields)
    if cls in UNHASHABLE:  # a field is, so the record is too
        with pytest.raises(TypeError,
                           match=f"unhashable type: '{UNHASHABLE[cls]}'"):
            hash(record)
    else:  # a dataclass hashes the tuple of its fields
        assert hash(record) == hash(cls(**fields)) == hash(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in fields) == values


def test_record_constructors_keep_their_checks():
    space = demo.coin_space()
    with pytest.raises(ValueError, match="breaks/values length mismatch"):
        RStepFunction(((0, 1), 1), (0, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        RStepFunction(((0, 1, 1, 2), 2), (0, 1, 2))
    bad = AdaptedProcess({"w1": (0, 1)})
    with pytest.raises(IncompatibleSpaces, match="reward: no row for 'w2'"):
        StoppingProblem(space, bad)
    good = AdaptedProcess({"w1": (0, 1), "w2": (0, 1)})
    with pytest.raises(IncompatibleSpaces, match="y: no row for 'w2'"):
        StoppingGame(space, good, bad, good)
    with pytest.raises(TypeError):
        Violation("X")
    with pytest.raises(TypeError):
        Violation("X", "y", detail="z")
    with pytest.raises(ValueError, match="max_outcomes \\* max_grid_points"):
        ExperimentConfig(max_outcomes=4096, max_grid_points=2)
    with pytest.raises(ValueError, match="counts must be positive"):
        ExperimentConfig(jobs=0)


def test_a_lifted_space_fills_its_probs_and_partitions_on_first_read():
    lifted, built = _lifted()
    assert type(lifted) is FilteredSpace
    assert "probs" not in vars(lifted) and "partitions" not in vars(lifted)
    assert lifted == built and hash(lifted) == hash(built)
    assert vars(lifted)["probs"] == (F(1, 4), F(1, 4), F(1, 2))
    assert vars(lifted)["partitions"] == built.partitions
    lifted, _ = _lifted()  # repr reads the fields too
    text = repr(lifted)
    assert "probs" in vars(lifted) and "partitions" in vars(lifted)
    assert text == "FilteredSpace(" + ", ".join(
        f"{name}={getattr(lifted, name)!r}"
        for name in ("outcomes", "probs", "grid", "partitions")) + ")"
    with pytest.raises(AttributeError):
        lifted.grid = ()
