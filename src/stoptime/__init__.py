"""Random stopping times on finite filtered probability spaces.

The root holds the exact core: the four stopping-time representations,
the constructive conversions between them, the equivalence relation,
payoff evaluation for stopping problems and two-player zero-sum stopping
games, all in exact rationals.  It imports no numpy.  The Monte Carlo
sampler, the seeded fuzz campaign and the command line are reached as
`stoptime.sampling`, `stoptime.experiment` and `stoptime.cli`.
"""

from .space import (AdaptedProcess, FilteredSpace, IncompatibleSpaces,
                    SpaceError, Violation, build_space, check_space,
                    over_common, validate_adapted)
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, common_refinement, embed_pure,
                    validate, validate_distribution,
                    validate_mixed_product, validate_mixed_sections,
                    validate_pure, validate_randomized)
from .convert import (delta_of_mixed, delta_of_randomized,
                      equivalent, first_difference, mixed_of_distribution,
                      mixed_of_randomized, randomized_of_distribution,
                      to_distribution)
from .problems import (StoppingProblem, payoff, payoff_distribution,
                       payoff_mixed, payoff_pure, payoff_randomized)
from .games import (StoppingGame, game_payoff_player2_view,
                    game_payoff_symmetric, game_payoff_via_lift, lift,
                    lift_distribution, lift_mixed, lift_randomized,
                    payoff_on_lift)

__version__ = "0.1.0"
