"""Two-player zero-sum stopping games.

Fixing the joint stop-mass of one player turns the game into a
single-agent stopping problem on a lifted space whose outcomes are
(base outcome, opponent stop index) pairs.  The payoff uses X when
Player 1 stops strictly first, Y when Player 2 stops strictly first, and
Z on a tie, always evaluated at the time of the first stopper.

The lifted space is built by build_space from the positive-mass atoms
only: an atom of zero mass carries no payoff mass and is not recorded.
Its level-j partition pulls the base partition back: a base block
becomes the lifted atoms of its outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .convert import to_distribution
from .space import AdaptedProcess, FilteredSpace, build_space, require_rows
from .times import (DistributionST, MixedST, RandomizedST, add_term,
                    fraction_sum, int_dot, validate_distribution)
from .problems import StoppingProblem, payoff_distribution


@dataclass(frozen=True)
class StoppingGame:
    space: FilteredSpace
    x: AdaptedProcess  # payoff when Player 1 stops strictly first
    y: AdaptedProcess  # payoff when Player 2 stops strictly first
    z: AdaptedProcess  # payoff on simultaneous stops

    def __post_init__(self):
        for name, table in (("x", self.x), ("y", self.y), ("z", self.z)):
            require_rows(self.space, table.numerators(), name)


@dataclass(frozen=True)
class LiftedProblem:
    """The single-agent problem one player faces given the other's stop mass."""

    base: StoppingGame
    space: FilteredSpace   # positive-mass atoms only
    problem: StoppingProblem


def _lifted_space(base: FilteredSpace, delta: DistributionST) -> FilteredSpace:
    """Outcomes (w, s) with delta(w, s) > 0 (delta is validated, so a
    nonzero entry is positive); every base outcome has one, since its row
    sums to P(w) > 0, so no lifted block is empty."""
    rows = delta.rows
    atoms = {w: [(w, s) for s, n in enumerate(rows[w][0]) if n]
             for w in base.outcomes}
    outcomes = [a for w in base.outcomes for a in atoms[w]]
    return build_space(
        outcomes, [Fraction(rows[w][0][s], rows[w][1]) for w, s in outcomes],
        base.grid,
        [[[a for w in block for a in atoms[w]] for block in part]
         for part in base.partitions])


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
    space = _lifted_space(game.space, delta)
    n = space.n_times
    # before the opponent's stop s the lifted player is first, at s a tie,
    # after s the opponent was first and the reward is frozen at s; the
    # three base rows of w meet over d = lcm of their denominators
    scaled = {}
    rows = {}
    for w, s in space.outcomes:
        if w not in scaled:
            tables = (first.rows[w], game.z.rows[w], second.rows[w])
            d = lcm(*(k for _, k in tables))
            scaled[w] = [[x * (d // k) for x in nums] for nums, k in tables], d
        (f, t, g), d = scaled[w]
        rows[(w, s)] = f[:s] + [t[s]] + [g[s]] * (n - s - 1), d
    return LiftedProblem(game, space, StoppingProblem(
        space, AdaptedProcess.from_rows(rows)))


def lift_mixed(mu: MixedST, lifted_space: FilteredSpace) -> MixedST:
    """Sections constant in the opponent-stop coordinate."""
    return MixedST({(w, s): mu.sections[w] for (w, s) in lifted_space.outcomes})


def lift_randomized(rho: RandomizedST,
                    lifted_space: FilteredSpace) -> RandomizedST:
    """Paths constant in the opponent-stop coordinate."""
    return RandomizedST.from_rows({(w, s): rho.rows[w]
                                   for (w, s) in lifted_space.outcomes})


def lift_distribution(delta: DistributionST, base: FilteredSpace,
                      lifted_space: FilteredSpace) -> DistributionST:
    """Reweight the conditional stop law of each base outcome by the
    lifted atom masses: the row of (w, s) is the base row (nums, d) of w
    times p(w, s) / P(w), in ints over one denominator."""
    mass = {}
    for (w, s), p in zip(lifted_space.outcomes, lifted_space.probs):
        nums, d = delta.rows[w]
        q = base.prob(w)
        num = p.numerator * q.denominator
        mass[(w, s)] = [num * n for n in nums], p.denominator * q.numerator * d
    return DistributionST.from_rows(mass)


def game_payoff_via_lift(game: StoppingGame, tau1,
                         delta2: DistributionST) -> Fraction:
    """Player 1's payoff against Player 2's stop mass delta2."""
    return payoff_on_lift(lift(game, delta2), tau1)


def game_payoff_player2_view(game: StoppingGame, delta1: DistributionST,
                             tau2) -> Fraction:
    """Same payoff computed from Player 2's perspective."""
    return payoff_on_lift(lift_player2(game, delta1), tau2)


def payoff_on_lift(lifted: LiftedProblem, tau) -> Fraction:
    """The lifted player's payoff: the joint mass of tau (any kind),
    reweighted onto the lifted space, priced on the lifted problem."""
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
    weight built from running sums of n1 and n2, and each table's weights
    meet its int row over that row's own denominator.
    """
    space = game.space
    rows1 = mu1.mass_numerators(space.n_times)
    rows2 = mu2.mass_numerators(space.n_times)
    x, y, z = game.x.rows, game.y.rows, game.z.rows
    by_den = {}
    for w, p in zip(space.outcomes, space.probs):
        _, n1, d1 = rows1[w]
        _, n2, d2 = rows2[w]
        after2 = _mass_after(n2)  # Player 2 stops strictly later than j
        after1 = _mass_after(n1)  # Player 1 stops strictly later than j
        k = p.denominator * d1 * d2
        for weights, (r, d_r) in ((list(map(mul, n1, after2)), x[w]),
                                  (list(map(mul, n2, after1)), y[w]),
                                  (list(map(mul, n1, n2)), z[w])):
            add_term(by_den, k * d_r, p.numerator * int_dot(weights, r))
    return fraction_sum(by_den)


def _mass_after(row) -> list:
    """Entry j: the sum of row[j + 1:]."""
    return list(accumulate(reversed(row), initial=0))[-2::-1]
