"""Two-player zero-sum stopping games.

Fixing the joint stop-mass of one player turns the game into a
single-agent stopping problem on a lifted space whose outcomes are
(base outcome, opponent stop index) pairs.  The payoff uses X when
Player 1 stops strictly first, Y when Player 2 stops strictly first, and
Z on a tie, always evaluated at the time of the first stopper.

Lifted atoms of zero mass are recorded on the LiftedProblem but dropped
from the evaluation space, which requires strictly positive atoms; they
carry no payoff mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

from .convert import to_distribution
from .space import AdaptedProcess, FilteredSpace
from .times import (DistributionST, MixedST, RandomizedST, fraction_dot,
                    over_common, validate_distribution)
from .problems import StoppingProblem, payoff_distribution


@dataclass(frozen=True)
class StoppingGame:
    space: FilteredSpace
    x: AdaptedProcess  # payoff when Player 1 stops strictly first
    y: AdaptedProcess  # payoff when Player 2 stops strictly first
    z: AdaptedProcess  # payoff on simultaneous stops

    def __post_init__(self):
        for name, table in (("x", self.x), ("y", self.y), ("z", self.z)):
            for w in self.space.outcomes:
                row = table.values.get(w)
                if row is None or len(row) != self.space.n_times:
                    raise ValueError(f"{name} row for {w!r} missing or wrong length")


@dataclass(frozen=True)
class LiftedProblem:
    """The single-agent problem one player faces given the other's stop mass."""

    base: StoppingGame
    opponent: DistributionST
    atoms: tuple           # every (outcome, stop index) pair, zero mass included
    space: FilteredSpace   # positive-mass atoms only
    problem: StoppingProblem


def _lifted_space(game: StoppingGame, delta: DistributionST) -> tuple:
    base = game.space
    atoms = tuple((w, s) for w in base.outcomes for s in range(base.n_times))
    pos = tuple(a for a in atoms if delta.mass[a[0]][a[1]] > 0)
    probs = tuple(delta.mass[w][s] for w, s in pos)
    partitions = []
    for j in range(base.n_times):
        level = []
        for block in base.partitions[j]:
            lifted = frozenset(a for a in pos if a[0] in block)
            if lifted:
                level.append(lifted)
        partitions.append(tuple(level))
    space = FilteredSpace(outcomes=pos, probs=probs, grid=base.grid,
                          partitions=tuple(partitions))
    return atoms, space


def _first_stopper_reward(xp, yp, zp, my_index, opp_index, w):
    if my_index < opp_index:
        return xp.at(w, my_index)
    if my_index > opp_index:
        return yp.at(w, opp_index)
    return zp.at(w, my_index)


def lift(game: StoppingGame, delta2: DistributionST) -> LiftedProblem:
    """The stopping problem Player 1 faces when Player 2 stops per delta2."""
    return _lift(game, delta2, game.x, game.y)


def lift_player2(game: StoppingGame, delta1: DistributionST) -> LiftedProblem:
    """Mirror lift: the problem Player 2 faces when Player 1 stops per delta1.

    X and Y swap roles because the lifted coordinate is now Player 1's stop.
    """
    return _lift(game, delta1, game.y, game.x)


def _lift(game: StoppingGame, delta: DistributionST, first: AdaptedProcess,
          second: AdaptedProcess) -> LiftedProblem:
    """Lift against the opponent mass delta; first is paid when the lifted
    player stops strictly first, second when the opponent does."""
    bad = validate_distribution(game.space, delta)
    if bad:
        raise ValueError(f"opponent stop mass invalid: {bad[0]}")
    atoms, space = _lifted_space(game, delta)
    values = {}
    for (w, s) in space.outcomes:
        values[(w, s)] = tuple(
            _first_stopper_reward(first, second, game.z, j, s, w)
            for j in range(game.space.n_times))
    problem = StoppingProblem(space, AdaptedProcess(values))
    return LiftedProblem(game, delta, atoms, space, problem)


def lift_mixed(mu: MixedST, lifted_space: FilteredSpace) -> MixedST:
    """Sections constant in the opponent-stop coordinate."""
    return MixedST({(w, s): mu.sections[w] for (w, s) in lifted_space.outcomes})


def lift_randomized(rho: RandomizedST,
                    lifted_space: FilteredSpace) -> RandomizedST:
    """Paths constant in the opponent-stop coordinate."""
    return RandomizedST({(w, s): rho.paths[w]
                         for (w, s) in lifted_space.outcomes})


def lift_distribution(delta: DistributionST, base: FilteredSpace,
                      lifted_space: FilteredSpace) -> DistributionST:
    """Reweight the conditional stop law of each base outcome by the
    lifted atom masses.  Each base row is taken once as integers over a
    common denominator d, so an entry is one scaled integer over d."""
    rows = {w: over_common(delta.mass[w]) for w in base.outcomes}
    mass = {}
    for (w, s), p in zip(lifted_space.outcomes, lifted_space.probs):
        nums, d = rows[w]
        scale = p / base.prob(w)
        num, den = scale.numerator, scale.denominator * d
        mass[(w, s)] = tuple(Fraction(num * n, den) for n in nums)
    return DistributionST(mass)


def game_payoff_via_lift(game: StoppingGame, tau1,
                         delta2: DistributionST) -> Fraction:
    """Player 1's payoff: the joint mass of tau1 (any kind), reweighted onto
    the lifted space, priced on the lifted problem."""
    return _lifted_payoff(lift(game, delta2), tau1)


def game_payoff_player2_view(game: StoppingGame, delta1: DistributionST,
                             tau2) -> Fraction:
    """Same payoff computed from Player 2's perspective."""
    return _lifted_payoff(lift_player2(game, delta1), tau2)


def _lifted_payoff(lifted: LiftedProblem, tau) -> Fraction:
    base = lifted.base.space
    return payoff_distribution(lifted.problem, lift_distribution(
        to_distribution(base, tau), base, lifted.space))


def game_payoff_symmetric(game: StoppingGame, mu1: MixedST,
                          mu2: MixedST) -> Fraction:
    """Direct triple expectation over (outcome, r1, r2) for two mixed times.

    Per outcome the section masses are the integers n1, n2 of
    mass_numerators over denominators d1, d2.  The index pair (j1, j2)
    weighs n1[j1] * n2[j2] / (d1 * d2) and pays X(j1) if j1 < j2, Y(j2) if
    j1 > j2 and Z(j1) on a tie, so each reward entry collects one integer
    weight built from running sums of n1 and n2.
    """
    space = game.space
    rows1 = mu1.mass_numerators(space.n_times)
    rows2 = mu2.mass_numerators(space.n_times)
    scales, inner = [], []
    for w, p in zip(space.outcomes, space.probs):
        _, n1, d1 = rows1[w]
        _, n2, d2 = rows2[w]
        after2 = _mass_after(n2)  # Player 2 stops strictly later than j
        after1 = _mass_after(n1)  # Player 1 stops strictly later than j
        weights = ([a * b for a, b in zip(n1, after2)]
                   + [a * b for a, b in zip(n2, after1)]
                   + [a * b for a, b in zip(n1, n2)])
        rewards = chain(game.x.values[w], game.y.values[w], game.z.values[w])
        scales.append(p / (d1 * d2))
        inner.append(fraction_dot(weights, rewards))
    return fraction_dot(scales, inner)


def _mass_after(row) -> list:
    """Entry j: the sum of row[j + 1:]."""
    return list(accumulate(reversed(row), initial=0))[-2::-1]
