"""Monte Carlo realization of random stopping times.

Sampling is float-based (it feeds statistical checks only; all theorem
checks elsewhere stay exact).  Three procedures are implemented, one per
representation, and all three target the same joint law:

* mixed:        draw r uniform and read the section value;
* randomized:   draw r uniform and apply the generalized inverse of the
                cumulative path;
* distribution: draw the grid index from the outcome's conditional row.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .space import FilteredSpace
from .times import DistributionST, MixedST, PureST, RandomizedST, embed_pure


class EmptySamples(ValueError):
    pass


class SampleRecord(NamedTuple):
    outcome: object
    grid_index: int
    replicate: int


def sample_many(space: FilteredSpace, eta, rng: np.random.Generator,
                n: int) -> list:
    """n independent draws of (outcome, stop index) under the law of eta."""
    if n <= 0:
        raise EmptySamples("need at least one sample")
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    if isinstance(eta, MixedST):
        stop_indices = _section_indices
    elif isinstance(eta, RandomizedST):
        stop_indices = _path_indices
    elif isinstance(eta, DistributionST):
        stop_indices = _mass_indices
    else:
        raise TypeError(f"not a samplable stopping time: {type(eta).__name__}")
    probs = np.array([float(p) for p in space.probs])
    which = rng.choice(len(space.outcomes), size=n, p=probs / probs.sum())
    rs = rng.random(n)
    indices = np.empty(n, dtype=np.int64)
    for i, w in enumerate(space.outcomes):
        mask = which == i
        if mask.any():
            indices[mask] = stop_indices(eta, w, rs[mask])
    indices = np.clip(indices, 0, space.n_times - 1)
    return list(map(SampleRecord, map(space.outcomes.__getitem__, which.tolist()),
                    indices.tolist(), range(n)))


def _section_indices(mu: MixedST, w, rs: np.ndarray) -> np.ndarray:
    """The section value at each r."""
    s = mu.sections[w]
    breaks = np.array([float(r) for r in s.breaks])
    values = np.array(s.values, dtype=np.int64)
    iv = np.searchsorted(breaks, rs, side="right") - 1
    return values[np.clip(iv, 0, len(values) - 1)]


def _path_indices(rho: RandomizedST, w, rs: np.ndarray) -> np.ndarray:
    """The generalized inverse of the cumulative path at each r."""
    path = np.array([float(x) for x in rho.paths[w]])
    return np.searchsorted(path, rs, side="left")


def _mass_indices(delta: DistributionST, w, rs: np.ndarray) -> np.ndarray:
    """The inverse of the outcome's conditional stop cdf at each r."""
    row = np.array([float(x) for x in delta.mass[w]])
    return np.searchsorted(np.cumsum(row / row.sum()), rs, side="left")


def empirical_delta(space: FilteredSpace, samples,
                    reference: DistributionST = None):
    """Frequency table over (outcome, grid index), and when a reference
    stop law is given, the total-variation distance to it."""
    counts = Counter(map(attrgetter("outcome", "grid_index"), samples))
    n = counts.total()
    if not n:
        raise EmptySamples("no samples given")
    freq = {(w, j): counts.pop((w, j), 0) / n
            for w in space.outcomes for j in range(space.n_times)}
    if counts:  # a cell outside the space
        raise KeyError(next(iter(counts)))
    if reference is None:
        return freq, None
    tv = 0.5 * sum(abs(freq[(w, j)] - float(reference.mass[w][j]))
                   for w in space.outcomes for j in range(space.n_times))
    return freq, tv
