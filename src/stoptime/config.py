"""The fuzz campaign's settings, FuzzBounds for a random instance and
ExperimentConfig for a campaign: Records in a module without numpy, so
the CLI's parser reads them without loading dataclasses or the modules
that draw.  fuzz and experiment export them as before."""

import math

from .space import Record

# largest outcomes x grid points an instance may reach (128 x 32)
MAX_CELLS = 4096


class FuzzBounds(Record):
    def __init__(self, max_outcomes: int = 8, max_grid_points: int = 6,
                 max_breaks: int = 8, max_denominator: int = 64):
        if min(max_outcomes, max_grid_points, max_breaks, max_denominator) < 1:
            raise ValueError("all bounds must be >= 1")
        if max_denominator >= 2**63:  # numpy draws int64
            raise ValueError("max_denominator must be <= 2**63 - 1")
        if max_outcomes * max_grid_points > MAX_CELLS:
            raise ValueError(
                f"max_outcomes * max_grid_points must be <= {MAX_CELLS}")
        object.__setattr__(self, "max_outcomes", max_outcomes)
        object.__setattr__(self, "max_grid_points", max_grid_points)
        object.__setattr__(self, "max_breaks", max_breaks)
        object.__setattr__(self, "max_denominator", max_denominator)


_BOUNDS = FuzzBounds()  # the campaign's default bounds are these


class ExperimentConfig(Record):
    def __init__(self, seed: int = 0, n_instances: int = 200,
                 n_samples: int = 100_000,
                 max_outcomes: int = _BOUNDS.max_outcomes,
                 max_grid_points: int = _BOUNDS.max_grid_points,
                 max_breaks: int = _BOUNDS.max_breaks,
                 max_denominator: int = _BOUNDS.max_denominator,
                 tv_tolerance: float = 0.01, jobs: int = 1):
        if n_instances < 1 or n_samples < 1 or jobs < 1:
            raise ValueError("counts must be positive")
        if not 0 < tv_tolerance < math.inf:
            raise ValueError("tv_tolerance must be positive and finite")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_instances", n_instances)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "max_outcomes", max_outcomes)
        object.__setattr__(self, "max_grid_points", max_grid_points)
        object.__setattr__(self, "max_breaks", max_breaks)
        object.__setattr__(self, "max_denominator", max_denominator)
        object.__setattr__(self, "tv_tolerance", tv_tolerance)
        object.__setattr__(self, "jobs", jobs)
        self.bounds()  # FuzzBounds rejects bad bounds here, not per instance

    def bounds(self) -> FuzzBounds:
        return FuzzBounds(self.max_outcomes, self.max_grid_points,
                          self.max_breaks, self.max_denominator)
