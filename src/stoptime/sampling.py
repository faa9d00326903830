"""Monte Carlo realization of random stopping times.

Sampling is float-based (it feeds statistical checks only; all theorem
checks elsewhere stay exact).  Each kind is read by one of the paper's two
rules, on one float table per outcome of ints n / d, correctly rounded: a
section (a mixed time's, or a pure one's embedded) stops at the value of
its piece holding the uniform r, inner breaks searched from the right; a
path (a randomized time's, or a mass's randomized_of_distribution) stops
at min{j : path_j >= r}, searched from the left.

Draws come in bounded chunks, with the numbers of one choice(n) and one
random(n); a chunk holds 256 draws per outcome, no fewer than 2**14 and
no more than 2**16.  sample_counts tallies them as an outcomes x grid
count array.
sample_many builds one record per draw with the collector paused: records
are tuple subclasses, which a collection never untracks.
"""

from __future__ import annotations

import gc
from itertools import islice, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .space import FilteredSpace
from .times import (DistributionST, MixedST, PureST, RandomizedST, embed_pure,
                    randomized_of_distribution)

# records empirical_delta holds at once, and the fewest draws of one of
# _draw's chunks: a k-outcome space draws min(1 << 16, max(_CHUNK, 256 * k))
# at once.  The campaign's three rows of 10**5 coin draws peak at 1.1 MiB
# traced in chunks of 2**14, against 3.3 MiB in chunks of 2**16; but each
# chunk walks the k outcomes in Python, and 10**6 draws at 2048 outcomes
# took 0.69 s in chunks of 2**14 against 0.32 s in chunks of 2**16 (best
# of 7, one core of a 2-core host)
_CHUNK = 1 << 14


class EmptySamples(ValueError):
    pass


class SampleRecord(NamedTuple):
    outcome: object
    grid_index: int
    replicate: int


def sample_many(space: FilteredSpace, eta, rng: np.random.Generator,
                n: int) -> list:
    """n independent draws of (outcome, stop index) under the law of eta,
    built chunk by chunk with the collector paused, then restored."""
    labels = np.fromiter(space.outcomes, dtype=object, count=len(space.outcomes))
    records, enabled = [], gc.isenabled()
    gc.disable()  # tuple subclasses are never untracked: no rescans mid-build
    try:  # tuple.__new__ per row is what SampleRecord._make does
        for which, indices in _draw(space, eta, rng, n):
            records += map(tuple.__new__, repeat(SampleRecord), zip(
                labels[which].tolist(), indices.tolist(),
                range(len(records), len(records) + len(which))))
        return records
    finally:
        if enabled:
            gc.enable()


def sample_counts(space: FilteredSpace, eta, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """sample_many's draws as an outcomes x grid int64 count array."""
    t = space.n_times
    counts = np.zeros(len(space.outcomes) * t, dtype=np.int64)
    for which, indices in _draw(space, eta, rng, n):
        counts += np.bincount(which * t + indices, minlength=counts.size)
    return counts.reshape(-1, t)


def _draw(space: FilteredSpace, eta, rng: np.random.Generator, n: int):
    """(which, indices) per chunk of n draws: outcome positions and stop
    indices.  The draws are those of choice(n) then random(n) on rng: the
    r's come from a copy of rng advanced n doubles, whose final state rng
    takes.  Where advance does not count doubles, all n come in one chunk."""
    if n <= 0:
        raise EmptySamples("need at least one sample")
    tables = _tables(space, eta)
    k, bits = len(space.outcomes), rng.bit_generator
    probs = np.array([float(p) for p in space.probs])
    probs /= probs.sum()
    ahead, step = rng, n
    if type(bits) in (np.random.PCG64, np.random.PCG64DXSM):
        copy = type(bits)()
        copy.state = bits.state
        copy.advance(n)  # which drops a buffered 32-bit half: keep rng's
        copy.state = {**bits.state, "state": copy.state["state"]}
        ahead = np.random.Generator(copy)
        step = min(1 << 16, max(_CHUNK, 256 * k))  # see _CHUNK
    for start in range(0, n, step):
        which = rng.choice(k, size=min(step, n - start), p=probs)
        rs = ahead.random(which.size)
        order = np.argsort(which.astype(np.min_scalar_type(k - 1)), kind="stable")
        ends = np.cumsum(np.bincount(which, minlength=k))[:-1]
        indices = np.empty(which.size, dtype=np.int64)
        for (edges, values, side), at, r in zip(tables, np.split(order, ends),
                                                np.split(rs[order], ends)):
            indices[at] = values[np.searchsorted(edges, r, side)]
        yield which, indices
    bits.state = ahead.bit_generator.state


def _tables(space: FilteredSpace, eta) -> list:
    """(edges, values, side) per outcome, in space order, values clipped to
    the grid: a section's inner breaks, or a path and the grid indices."""
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    elif type(eta) is DistributionST:
        eta = randomized_of_distribution(space, eta)
    t = space.n_times
    if type(eta) is MixedST:
        rows = [(s.break_ints[0][1:-1], s.break_ints[1], s.values, "right")
                for s in map(eta.sections.__getitem__, space.outcomes)]
    elif type(eta) is RandomizedST:
        rows = [(*eta.rows[w], range(t + 1), "left") for w in space.outcomes]
    else:
        raise TypeError(f"not a samplable stopping time: {type(eta).__name__}")
    return [(np.array([n / d for n in nums]), np.clip(values, 0, t - 1), side)
            for nums, d, values, side in rows]


def empirical_delta(space: FilteredSpace, samples,
                    reference: DistributionST = None):
    """frequencies of the records' counts, tallied chunk by chunk; KeyError
    on the first record whose cell lies off the space."""
    t = space.n_times  # a cell is on the space when it is a key here
    cell = {(w, j): i * t + j
            for i, w in enumerate(space.outcomes) for j in range(t)}
    counts = np.zeros(len(cell), dtype=np.int64)
    records = iter(samples)
    while chunk := list(islice(records, _CHUNK)):  # zip reuses its pair
        cells = np.fromiter(map(cell.__getitem__, zip(
            map(attrgetter("outcome"), chunk),
            map(attrgetter("grid_index"), chunk))), np.int64, len(chunk))
        counts += np.bincount(cells, minlength=counts.size)
    return frequencies(space, counts.reshape(-1, t), reference)


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
