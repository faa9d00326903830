"""Two-player zero-sum stopping games.

Fixing the joint stop-mass of one player turns the game into a
single-agent stopping problem on a lifted space whose outcomes are
(base outcome, opponent stop index) pairs; the other player's time enters
it as its path, which every lifted atom of an outcome shares.  The payoff
uses X when Player 1 stops strictly first, Y when Player 2 stops strictly
first, and Z on a tie, always evaluated at the time of the first stopper.

There is one lift, Player 1's; Player 2's problem is the lift of the
mirrored game, where X and Y trade places.  It walks the opponent's mass
once, making each positive-mass stop an atom, and pulls each base block
back to the atoms of its outcomes.  Base and opponent mass are validated
first, so the lifted space is valid by construction and built by
space._pull_back without a second check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .convert import (delta_of_randomized, randomized_of_distribution,
                      to_distribution)
from .space import (AdaptedProcess, FilteredSpace, Record, _pull_back,
                    require_rows)
from .times import (DistributionST, MixedST, RandomizedST, add_term,
                    fraction_sum, int_dot, validate_distribution)
from .problems import StoppingProblem, payoff_randomized


class StoppingGame(Record):
    """x pays when Player 1 stops strictly first, y when Player 2 does and z
    on simultaneous stops."""

    space: FilteredSpace
    x: AdaptedProcess
    y: AdaptedProcess
    z: AdaptedProcess

    def __post_init__(self):
        for name, table in (("x", self.x), ("y", self.y), ("z", self.z)):
            require_rows(self.space, table, name)


def lift(game: StoppingGame, delta2: DistributionST) -> StoppingProblem:
    """The stopping problem Player 1 faces when Player 2 stops per delta2."""
    base = game.space
    bad = validate_distribution(base, delta2)
    if bad:
        raise ValueError(f"opponent stop mass invalid: {bad[0]}")
    n = base.n_times
    # per outcome w, once: the three rows scaled to their lcm d and the
    # prefix gcds pg of the first-stopper row; then per atom (w, s), s a stop
    # of positive mass (delta2 is validated), its mass over the masses' lcm
    # k and the row paying X before s, the tie at s and Y frozen at s after,
    # divided by its entries' gcd
    k = lcm(*(e for _, e in delta2.rows.values()))
    atoms, probs, rows = {}, [], {}
    for w in base.outcomes:
        mass, dm = delta2.rows[w]
        probs += [m * (k // dm) for m in mass if m]
        tables = (game.x.rows[w], game.z.rows[w], game.y.rows[w])
        d = lcm(*(e for _, e in tables))
        f, t, g = ([x * (d // e) for x in nums] for nums, e in tables)
        pg = list(accumulate(f, gcd, initial=d))
        atoms[w] = [(w, s) for s, m in enumerate(mass) if m]
        for a in atoms[w]:
            s = a[1]
            c = gcd(pg[s], t[s], g[s] if s < n - 1 else 0)
            rows[a] = ((*[x // c for x in f[:s]], t[s] // c,
                        *[g[s] // c] * (n - s - 1)), d // c)
    return StoppingProblem(_pull_back(base, atoms, (tuple(probs), k)),
                           AdaptedProcess._of_canonical(rows))


def lift_player2(game: StoppingGame, delta1: DistributionST) -> StoppingProblem:
    """The problem Player 2 faces when Player 1 stops per delta1: Player 1's
    lift of the mirrored game, where X and Y trade places."""
    return lift(StoppingGame(game.space, game.y, game.x, game.z), delta1)


def lift_mixed(mu: MixedST, lifted_space: FilteredSpace) -> MixedST:
    """Sections constant in the opponent-stop coordinate."""
    return MixedST({(w, s): mu.sections[w] for (w, s) in lifted_space.outcomes})


def lift_randomized(rho: RandomizedST,
                    lifted_space: FilteredSpace) -> RandomizedST:
    """Paths constant in the opponent-stop coordinate."""
    return RandomizedST._of_canonical({(w, s): rho.rows[w]
                                       for (w, s) in lifted_space.outcomes})


def lift_distribution(delta: DistributionST, base: FilteredSpace,
                      lifted_space: FilteredSpace) -> DistributionST:
    """The mass of delta's path, constant in the opponent's stop, on the
    lifted space: each base row reweighted by p(w, s) / P(w)."""
    return delta_of_randomized(lifted_space, lift_randomized(
        randomized_of_distribution(base, delta), lifted_space))


def game_payoff_via_lift(game: StoppingGame, tau1, tau2) -> Fraction:
    """Player 1's payoff, priced on the problem Player 1 faces when Player 2
    stops per the joint mass of tau2; both times of any kind."""
    return payoff_on_lift(game.space,
                          lift(game, to_distribution(game.space, tau2)), tau1)


def game_payoff_player2_view(game: StoppingGame, tau1, tau2) -> Fraction:
    """The same payoff, priced on the problem Player 2 faces when Player 1
    stops per the joint mass of tau1; both times of any kind."""
    return payoff_on_lift(
        game.space, lift_player2(game, to_distribution(game.space, tau1)), tau2)


def payoff_on_lift(base: FilteredSpace, lifted: StoppingProblem,
                   tau) -> Fraction:
    """The lifted player's payoff: tau (any kind) enters as its path on
    base, constant in the opponent's stop, priced per lifted atom."""
    return payoff_randomized(lifted, lift_randomized(
        randomized_of_distribution(base, to_distribution(base, tau)),
        lifted.space))


def game_payoff_symmetric(game: StoppingGame, tau1, tau2) -> Fraction:
    """Direct triple expectation over (outcome, index1, index2) from the two
    joint masses, so both times may be of any kind.

    Per outcome the joint-mass rows are the ints n1, n2 over d1, d2.  The
    index pair (j1, j2) weighs n1[j1] * n2[j2] / (d1 * d2 * P(w)) and pays
    X(j1) if j1 < j2, Y(j2) if j1 > j2 and Z(j1) on a tie, so each reward
    entry collects one integer weight built from running sums of n1 and n2,
    and each table's weights meet its int row over that row's own
    denominator.
    """
    space = game.space
    rows1 = to_distribution(space, tau1).rows
    rows2 = to_distribution(space, tau2).rows
    x, y, z = game.x.rows, game.y.rows, game.z.rows
    probs, k = space.prob_row
    by_den = {}
    for w, p in zip(space.outcomes, probs):
        (n1, d1), (n2, d2) = rows1[w], rows2[w]
        after2 = _mass_after(n2)  # Player 2 stops strictly later than j
        after1 = _mass_after(n1)  # Player 1 stops strictly later than j
        e = p * d1 * d2
        for weights, (r, d_r) in ((list(map(mul, n1, after2)), x[w]),
                                  (list(map(mul, n2, after1)), y[w]),
                                  (list(map(mul, n1, n2)), z[w])):
            add_term(by_den, e * d_r, k * int_dot(weights, r))
    return fraction_sum(by_den)


def _mass_after(row) -> list:
    """Entry j: the sum of row[j + 1:]."""
    return list(accumulate(reversed(row), initial=0))[-2::-1]
