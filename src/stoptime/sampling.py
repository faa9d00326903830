"""Monte Carlo realization of random stopping times.

Sampling is float-based (it feeds statistical checks only; all theorem
checks elsewhere stay exact).  Three procedures are implemented, one per
representation, and all three target the same joint law:

* mixed:        draw r uniform and read the section value;
* randomized:   draw r uniform and apply the generalized inverse of the
                cumulative path;
* distribution: draw the grid index from the outcome's conditional row.

Draws come in bounded chunks, with the numbers of one choice(n) and one
random(n). sample_counts tallies them as an outcomes x grid count array.
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
from .times import DistributionST, MixedST, PureST, RandomizedST, embed_pure

_CHUNK = 1 << 16  # draws or records held at once


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
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    stop_indices = {MixedST: _section_indices, RandomizedST: _path_indices,
                    DistributionST: _mass_indices}.get(type(eta))
    if stop_indices is None:
        raise TypeError(f"not a samplable stopping time: {type(eta).__name__}")
    k, bits = len(space.outcomes), rng.bit_generator
    probs = np.array([float(p) for p in space.probs])
    ahead, step = rng, n
    if type(bits) in (np.random.PCG64, np.random.PCG64DXSM):
        copy = type(bits)()
        copy.state = bits.state
        copy.advance(n)  # which drops a buffered 32-bit half: keep rng's
        copy.state = {**bits.state, "state": copy.state["state"]}
        ahead, step = np.random.Generator(copy), _CHUNK
    for start in range(0, n, step):
        which = rng.choice(k, size=min(step, n - start), p=probs / probs.sum())
        rs = ahead.random(which.size)
        order = np.argsort(which.astype(np.min_scalar_type(k - 1)), kind="stable")
        ends = np.cumsum(np.bincount(which, minlength=k))[:-1]
        indices = np.empty(which.size, dtype=np.int64)
        for w, at, r in zip(space.outcomes, np.split(order, ends),
                            np.split(rs[order], ends)):
            if at.size:  # one reader call per outcome drawn in the chunk
                indices[at] = stop_indices(eta, w, r)
        yield which, np.clip(indices, 0, space.n_times - 1)
    bits.state = ahead.bit_generator.state


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
    """frequencies of the records' counts, tallied chunk by chunk; KeyError
    on the first record whose cell lies off the space."""
    t, row = space.n_times, {w: i for i, w in enumerate(space.outcomes)}.get
    col = {j: j for j in range(t)}.get  # as dict keys: 1.0 is 1, 1.5 is off
    counts = np.zeros(len(space.outcomes) * t, dtype=np.int64)
    records = iter(samples)
    while chunk := list(islice(records, _CHUNK)):  # no tuple per record
        which = np.fromiter(map(row, map(attrgetter("outcome"), chunk),
                                repeat(-1)), np.int64, len(chunk))
        indices = np.fromiter(map(col, map(attrgetter("grid_index"), chunk),
                                  repeat(-1)), np.int64, len(chunk))
        off = (which < 0) | (indices < 0)
        if off.any():  # a cell outside the space
            raise KeyError(attrgetter("outcome", "grid_index")(chunk[off.argmax()]))
        counts += np.bincount(which * t + indices, minlength=counts.size)
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
