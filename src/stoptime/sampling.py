"""Monte Carlo realization of random stopping times.

Sampling is float-based (it feeds statistical checks only; all theorem
checks elsewhere stay exact).  Three procedures are implemented, one per
representation, and all three target the same joint law:

* mixed:        draw r uniform and read the section value;
* randomized:   draw r uniform and apply the generalized inverse of the
                cumulative path;
* distribution: draw the grid index from the outcome's conditional row.

sample_counts tallies the draws as an outcomes x grid count array.
sample_many builds one record per draw in one pass with the collector
paused: records are tuple subclasses, which a collection never untracks.
"""

from __future__ import annotations

import gc
from collections import Counter
from itertools import repeat
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
    """n independent draws of (outcome, stop index) under the law of eta;
    the collector is paused while the records are built, then restored."""
    which, indices = _draw(space, eta, rng, n)
    enabled = gc.isenabled()
    gc.disable()  # tuple subclasses are never untracked: no rescans mid-build
    try:  # tuple.__new__ per row is what SampleRecord._make does
        return list(map(tuple.__new__, repeat(SampleRecord), zip(map(
            space.outcomes.__getitem__, which.tolist()), indices.tolist(), range(n))))
    finally:
        if enabled:
            gc.enable()


def sample_counts(space: FilteredSpace, eta, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """sample_many's draws as an outcomes x grid int64 count array."""
    which, indices = _draw(space, eta, rng, n)
    t = space.n_times
    return np.bincount(which * t + indices,
                       minlength=len(space.outcomes) * t).reshape(-1, t)


def _draw(space: FilteredSpace, eta, rng: np.random.Generator, n: int):
    """(which, indices): outcome positions and stop indices of n draws."""
    if n <= 0:
        raise EmptySamples("need at least one sample")
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    stop_indices = {MixedST: _section_indices, RandomizedST: _path_indices,
                    DistributionST: _mass_indices}.get(type(eta))
    if stop_indices is None:
        raise TypeError(f"not a samplable stopping time: {type(eta).__name__}")
    probs = np.array([float(p) for p in space.probs])
    which = rng.choice(len(space.outcomes), size=n, p=probs / probs.sum())
    rs = rng.random(n)
    indices = np.empty(n, dtype=np.int64)
    for i, w in enumerate(space.outcomes):
        mask = which == i
        if mask.any():
            indices[mask] = stop_indices(eta, w, rs[mask])
    return which, np.clip(indices, 0, space.n_times - 1)


def _section_indices(mu: MixedST, w, rs: np.ndarray) -> np.ndarray:
    """The section value at each r."""
    s = mu.sections[w]
    nums, d = s.break_ints
    breaks = np.array([n / d for n in nums])
    values = np.array(s.values, dtype=np.int64)
    iv = np.searchsorted(breaks, rs, side="right") - 1
    return values[np.clip(iv, 0, len(values) - 1)]


def _path_indices(rho: RandomizedST, w, rs: np.ndarray) -> np.ndarray:
    """The generalized inverse of the cumulative path at each r."""
    nums, d = rho.rows[w]
    path = np.array([n / d for n in nums])
    return np.searchsorted(path, rs, side="left")


def _mass_indices(delta: DistributionST, w, rs: np.ndarray) -> np.ndarray:
    """The inverse of the outcome's conditional stop cdf at each r."""
    row = np.array([n / delta.rows[w][1] for n in delta.rows[w][0]])
    return np.searchsorted(np.cumsum(row / row.sum()), rs, side="left")


def empirical_delta(space: FilteredSpace, samples,
                    reference: DistributionST = None):
    """frequencies of the records' counts; KeyError on a cell off the space."""
    tally = Counter(map(attrgetter("outcome", "grid_index"), samples))
    counts = np.array([[tally.pop((w, j), 0) for j in range(space.n_times)]
                       for w in space.outcomes], dtype=np.int64)
    if tally:  # a cell outside the space
        raise KeyError(next(iter(tally)))
    return frequencies(space, counts, reference)


def frequencies(space: FilteredSpace, counts: np.ndarray,
                reference: DistributionST = None):
    """Frequency table over (outcome, grid index) from an outcomes x grid
    count array, and the total-variation distance to a reference stop law."""
    rows = counts.tolist()
    n = sum(map(sum, rows))
    if not n:
        raise EmptySamples("no samples given")
    freq = {(w, j): c / n
            for w, row in zip(space.outcomes, rows) for j, c in enumerate(row)}
    if reference is None:
        return freq, None
    ref = reference.rows
    tv = 0.5 * sum(abs(freq[(w, j)] - x / ref[w][1])
                   for w in space.outcomes
                   for j, x in enumerate(ref[w][0]))
    return freq, tv
