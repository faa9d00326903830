"""Monte Carlo realization of random stopping times.

Sampling is float-based (it feeds statistical checks only; all theorem
checks elsewhere stay exact).  Each kind is read by one of the paper's two
rules, on one float row per outcome of ints n / d, correctly rounded: a
section (a mixed time's, or a pure one's embedded) stops at the value of
its piece holding the uniform r, inner breaks searched from the right; a
path (a randomized time's, or a mass's randomized_of_distribution) stops
at min{j : path_j >= r}, searched from the left.

Both rules are one exact indexed search, as is the outcome's: choice's
own cdf.  Draws come in chunks of _CHUNK, the numbers of one choice(n)
and one random(n); sample_counts tallies them as an outcomes x grid array.
sample_many builds one record per draw with the collector paused: records
are tuple subclasses, which a collection never untracks.
"""

from __future__ import annotations

import gc
from itertools import chain, islice, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .space import FilteredSpace
from .times import (DistributionST, MixedST, PureST, RandomizedST, embed_pure,
                    randomized_of_distribution)

# draws of one of _draw's chunks, or records empirical_delta holds, at once:
# no step of a chunk walks the outcomes, so one size serves every space; the
# campaign's 3 x 10**5 coin draws trace 1 MiB, against 3.3 MiB in 2**16's
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
    stops, values = _tables(space, eta)
    probs = np.array([float(p) for p in space.probs])
    cdf = (probs / probs.sum()).cumsum()  # choice's: it draws #{cdf <= u}
    outcomes = _guide([cdf / cdf[-1]], True)
    ahead, step, bits = rng, n, rng.bit_generator
    if type(bits) in (np.random.PCG64, np.random.PCG64DXSM):
        copy = type(bits)()
        copy.state = bits.state
        copy.advance(n)  # which drops a buffered 32-bit half: keep rng's
        copy.state = {**bits.state, "state": copy.state["state"]}
        ahead, step = np.random.Generator(copy), _CHUNK
    for start in range(0, n, step):
        which = _search(outcomes, rng.random(min(step, n - start)))
        yield which, values[_search(stops, ahead.random(which.size), which)
                            + which]
    bits.state = ahead.bit_generator.state


def _guide(rows: list, right: bool) -> tuple:
    """(edges, low, high, scale, start, before): sorted float rows laid end
    to end, row i in 2**g buckets from slot start[i], g the bit length of
    its length; low and high bound the count of edges before(edge, x) by
    that count at the bucket's ends, exactly, as x * 2**g is exact."""
    lens = [len(row) for row in rows]
    scale = np.array([1 << m.bit_length() for m in lens])
    start = np.cumsum(scale + 1) - scale - 1  # a last slot for edges of 1.0
    edges = np.fromiter(chain.from_iterable(rows), np.float64, sum(lens))
    at, top = np.repeat(start, lens), np.repeat(scale, lens)
    cells, size = np.clip(edges * top, 0, top), int(start[-1] + scale[-1] + 1)
    below = np.bincount(at + np.floor(cells).astype(np.intp), minlength=size)
    high = np.cumsum(below)  # edges < (b + 1) / 2**g
    low = np.cumsum(np.bincount(at + np.ceil(cells).astype(np.intp),
                                minlength=size)) if right else high - below
    return edges, low, high, scale, start, np.less_equal if right else np.less


def _search(guide: tuple, x: np.ndarray, rows=0) -> np.ndarray:
    """np.searchsorted of each x in its row (one per x, or one for all) plus
    the row's first edge position: the guide's bounds, then a binary search."""
    edges, low, high, scale, start, before = guide
    slot = start[rows] + (x * scale[rows]).astype(np.intp)
    lo, hi = low[slot], high[slot]
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        a, b = lo[open_], hi[open_]
        mid = (a + b) >> 1
        up = before(edges[mid], x[open_])
        lo[open_] = a = np.where(up, mid + 1, a)
        hi[open_] = b = np.where(up, b, mid)
        open_ = open_[a < b]
    return lo


def _tables(space: FilteredSpace, eta) -> tuple:
    """(guide, values): the _guide of the outcomes' float edges, in space
    order, and the grid indices they select, clipped, end to end, row i's
    from its first edge position + i: a section's inner breaks and values,
    from the right; a path and range(t + 1), from the left."""
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    elif type(eta) is DistributionST:
        eta = randomized_of_distribution(space, eta)
    t = space.n_times
    if type(eta) is MixedST:
        rows = [(s.break_ints[0][1:-1], s.break_ints[1], s.values)
                for s in map(eta.sections.__getitem__, space.outcomes)]
    elif type(eta) is RandomizedST:
        rows = [(*eta.rows[w], range(t + 1)) for w in space.outcomes]
    else:
        raise TypeError(f"not a samplable stopping time: {type(eta).__name__}")
    values = np.fromiter((min(max(v, 0), t - 1) for r in rows for v in r[2]),
                         np.int64)
    return _guide([[n / d for n in nums] for nums, d, _ in rows],
                  type(eta) is not RandomizedST), values


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
