"""A deterministic cost contract: executed bytecodes per layer at doubling
sizes.

Each layer runs on two families of one fixed 16 x 8 instance: its twin
splits, 16, 32, 64 and 128 outcomes with the same structure at every size,
and its refinements after every time, 8, 16, 32 and 64 grid points at
which nothing more is learned.  The opcode events executed in stoptime
frames are counted, which is exact and independent of the host's speed; a
layer may grow by at most RATIO per doubling, where work quadratic in the
outcomes or the times grows by about 4.  Work done in C (big-int
arithmetic, gcd, sorted) is not counted, nor is work in other modules:
Fraction's constructor runs in fractions, so the Fractions a layer builds
are counted on their own, and a game layer may build no more of them at
128 outcomes than at 16.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import refine, split

from stoptime import (StoppingGame, StoppingProblem, equivalent, fuzz, games,
                      mixed_of_randomized, problems,
                      randomized_of_distribution, to_distribution, validate,
                      validate_mixed_sections)
from stoptime.experiment import ExperimentConfig, run_checks

RATIO = 2.3
KINDS = ("pure", "mixed", "randomized", "distribution")
# layers read as f(space, one of the instance's times), named "layer:kind"
ON_SPACE = {"validate": validate, "to_distribution": to_distribution,
            "validate_mixed_sections": validate_mixed_sections,
            "mixed_of_randomized": mixed_of_randomized,
            "randomized_of_distribution": randomized_of_distribution}
GAME_ROUTES = {"game_payoff_via_lift": games.game_payoff_via_lift,
               "game_payoff_symmetric": games.game_payoff_symmetric,
               "game_payoff_player2_view": games.game_payoff_player2_view}


def executed(fn, *args) -> int:
    """The opcode events run in stoptime frames during fn(*args)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if not frame.f_globals.get("__name__", "").startswith("stoptime"):
            return None
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return count


def fractions_built(fn, *args) -> int:
    """The Fractions constructed during fn(*args), wherever the call is."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and later
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code in codes

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return count


def growth(counts) -> list:
    """The count's ratio at each doubling."""
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.fixture(scope="module")
def family():
    """The first seeded instance of 16 outcomes and 8 grid points, then
    its twin splits to 128 outcomes."""
    bounds = fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8,
                             max_breaks=16, max_denominator=97)
    seed = 0
    while True:
        inst = fuzz.random_instance(
            np.random.Generator(np.random.PCG64(seed)), bounds,
            min_outcomes=16)
        if inst.space.n_times == 8:
            break
        seed += 1
    out = [inst]
    for _ in range(3):
        out.append(split(out[-1]))
    assert [len(i.space.outcomes) for i in out] == [16, 32, 64, 128]
    return out


@pytest.fixture(scope="module")
def refined_family(family):
    """The same 16 x 8 instance refined after every time, three times over:
    8, 16, 32 and 64 grid points."""
    out = [family[0]]
    for _ in range(3):
        inst = out[-1]
        for j in reversed(range(inst.space.n_times)):
            inst = refine(inst, j)
        out.append(inst)
    assert [i.space.n_times for i in out] == [8, 16, 32, 64]
    return out


def calls(layer, inst) -> tuple:
    """(function, *args) of one layer on one instance; the opponent's
    mass is normalised beforehand, so only the layer is counted."""
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    problem = StoppingProblem(space, inst.reward)
    if layer == "lift":
        return games.lift, game, to_distribution(space, inst.mixed2)
    if layer == "lift_player2":
        return games.lift_player2, game, to_distribution(space, inst.mixed)
    if layer in GAME_ROUTES:
        return GAME_ROUTES[layer], game, inst.mixed, inst.mixed2
    if layer == "equivalent":
        return equivalent, space, inst.mixed, inst.distribution
    if layer == "planted_quadratic":
        return planted_quadratic, problem
    name, kind = layer.split(":")
    if name in ON_SPACE:
        return ON_SPACE[name], space, getattr(inst, kind)
    return problems.payoff, problem, getattr(inst, kind)


def planted_quadratic(problem) -> list:
    """Each outcome's probability looked up once per outcome: n^2 calls."""
    space = problem.space
    return [space.prob(v) for _ in space.outcomes for v in space.outcomes]


LAYERS = [
    "lift", "lift_player2", *GAME_ROUTES,
    *(f"{name}:{kind}" for name in ("payoff", "validate", "to_distribution")
      for kind in KINDS),
    "validate_mixed_sections:mixed", "mixed_of_randomized:randomized",
    "randomized_of_distribution:distribution", "equivalent"]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_grows_at_most_linearly_in_the_outcomes(family, layer):
    counts = [executed(*calls(layer, inst)) for inst in family]
    assert max(growth(counts)) <= RATIO, (layer, counts)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_grows_at_most_linearly_in_the_times(refined_family, layer):
    counts = [executed(*calls(layer, inst)) for inst in refined_family]
    assert max(growth(counts)) <= RATIO, (layer, counts)


@pytest.mark.parametrize("layer", ["lift", "lift_player2", *GAME_ROUTES])
def test_game_layer_builds_no_fraction_per_outcome(family, layer):
    counts = [fractions_built(*calls(layer, inst)) for inst in family]
    assert max(counts) <= counts[0], (layer, counts)


@pytest.mark.parametrize("sizes", ["family", "refined_family"])
def test_check_instance_grows_at_most_linearly(request, sizes):
    # every campaign check run on the family's instances; the smallest
    # three sizes keep the file fast
    counts = []
    for inst in request.getfixturevalue(sizes)[:3]:
        rng = np.random.Generator(np.random.PCG64(0))
        checks = []
        counts.append(executed(lambda: checks.extend(
            run_checks(ExperimentConfig(), inst, rng))))
        assert [check for check, ok, _ in checks if not ok] == [], checks
    assert max(growth(counts)) <= RATIO, (sizes, counts)


def test_the_counter_rejects_a_planted_quadratic_helper(family):
    counts = [executed(*calls("planted_quadratic", inst)) for inst in family]
    assert max(growth(counts)) > RATIO, counts
