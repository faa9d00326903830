"""Random stopping times on finite filtered probability spaces.

Exact-rational implementations of the four stopping-time
representations, the constructive conversions between them, the
equivalence relation, payoff evaluation for stopping problems and
two-player zero-sum stopping games, and a seeded fuzz/Monte Carlo
harness.
"""

from .space import (AdaptedProcess, FilteredSpace, IncompatibleSpaces,
                    SpaceError, SubMeasure, Violation, build_space,
                    check_space, validate_adapted)
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, common_refinement, embed_pure,
                    over_common, rn_derivative, sub_measure,
                    validate, validate_distribution, validate_mixed,
                    validate_mixed_product, validate_mixed_sections,
                    validate_pure, validate_randomized)
from .convert import (cdf_of_mixed, delta_of_mixed, delta_of_randomized,
                      equivalent, first_difference, mixed_of_distribution,
                      mixed_of_randomized, randomized_of_distribution,
                      to_distribution)
from .problems import (StoppingProblem, payoff, payoff_distribution,
                       payoff_mixed, payoff_pure, payoff_randomized)
from .games import (LiftedProblem, StoppingGame, game_payoff_player2_view,
                    game_payoff_symmetric, game_payoff_via_lift, lift,
                    lift_distribution, lift_mixed, lift_randomized,
                    payoff_on_lift)
from .sampling import (EmptySamples, SampleRecord, empirical_delta,
                       frequencies, sample_counts, sample_many)
from .experiment import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"
