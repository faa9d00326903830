"""The fuzz campaign's settings, FuzzBounds for a random instance and
ExperimentConfig for a campaign: Records in a module without numpy, so the
CLI's parser reads them without loading the modules that draw.  The config's
bounds default to FuzzBounds'.  fuzz and experiment export them as before."""

import math

from .space import Record

# largest outcomes x grid points an instance may reach (128 x 32)
MAX_CELLS = 4096


class FuzzBounds(Record):
    max_outcomes: int = 8
    max_grid_points: int = 6
    max_breaks: int = 8
    max_denominator: int = 64

    def __post_init__(self):
        if min(self.max_outcomes, self.max_grid_points, self.max_breaks,
               self.max_denominator) < 1:
            raise ValueError("all bounds must be >= 1")
        if self.max_denominator >= 2**63:  # numpy draws int64
            raise ValueError("max_denominator must be <= 2**63 - 1")
        if self.max_outcomes * self.max_grid_points > MAX_CELLS:
            raise ValueError(
                f"max_outcomes * max_grid_points must be <= {MAX_CELLS}")


class ExperimentConfig(Record):
    seed: int = 0
    n_instances: int = 200
    n_samples: int = 100_000
    max_outcomes: int = FuzzBounds.max_outcomes
    max_grid_points: int = FuzzBounds.max_grid_points
    max_breaks: int = FuzzBounds.max_breaks
    max_denominator: int = FuzzBounds.max_denominator
    tv_tolerance: float = 0.01
    jobs: int = 1

    def __post_init__(self):
        if self.n_instances < 1 or self.n_samples < 1 or self.jobs < 1:
            raise ValueError("counts must be positive")
        if not 0 < self.tv_tolerance < math.inf:
            raise ValueError("tv_tolerance must be positive and finite")
        self.bounds()  # FuzzBounds rejects bad bounds here, not per instance

    def bounds(self) -> FuzzBounds:
        return FuzzBounds(self.max_outcomes, self.max_grid_points,
                          self.max_breaks, self.max_denominator)
