import gc
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from operator import eq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoptime import (DistributionST, MixedST, PureST, RandomizedST,
                      RStepFunction, build_space, common_refinement, demo,
                      embed_pure, fuzz, randomized_of_distribution, sampling)
from stoptime.sampling import (EmptySamples, SampleRecord, empirical_delta,
                               frequencies, sample_counts, sample_many)

F = Fraction
CHUNK = sampling._CHUNK
WIDE = 1 << 16  # four chunks: draws that cross several chunk ends


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_pure_embedding_is_deterministic_given_outcome(coin_space):
    sigma = PureST({"w1": 0, "w2": 1})
    for rec in sample_many(coin_space, sigma, rng(3), 200):
        assert rec.grid_index == sigma.stop_index[rec.outcome]


def test_mixed_section_value_below_break(coin_space, coin_mixed):
    # r = 0.3 lies in the first interval, so the stop index is 0
    cuts, d, starts = common_refinement(coin_mixed.sections)
    assert F(cuts[0], d) <= F(3, 10) < F(cuts[1], d)
    assert starts["w1"][0] == 0 and coin_mixed.sections["w1"].values[0] == 0


def test_three_samplers_hit_the_same_law(coin_space, coin_mixed,
                                         coin_randomized, coin_delta):
    n = 20_000
    for i, eta in enumerate((coin_mixed, coin_randomized, coin_delta)):
        samples = sample_many(coin_space, eta, rng(100 + i), n)
        _, tv = empirical_delta(coin_space, samples, coin_delta)
        assert tv < 0.02


def test_sampling_is_seed_deterministic(coin_space, coin_delta):
    a = sample_many(coin_space, coin_delta, rng(7), 1000)
    b = sample_many(coin_space, coin_delta, rng(7), 1000)
    assert a == b


def test_empirical_delta_exhaustive_proportions(coin_space, coin_delta):
    samples = [SampleRecord(w, j, i)
               for i, (w, j) in enumerate(
                   [("w1", 0), ("w1", 1), ("w2", 0), ("w2", 1)])]
    freq, tv = empirical_delta(coin_space, samples, coin_delta)
    assert tv == 0.0
    assert freq[("w1", 0)] == 0.25


def test_empirical_delta_concentrated(coin_space, coin_delta):
    samples = [SampleRecord("w1", 0, i) for i in range(8)]
    _, tv = empirical_delta(coin_space, samples, coin_delta)
    assert tv == 0.75


def test_empirical_delta_reads_a_one_shot_iterable(coin_space, coin_delta):
    samples = sample_many(coin_space, coin_delta, rng(5), 500)
    from_list = empirical_delta(coin_space, samples, coin_delta)
    assert empirical_delta(coin_space, (r for r in samples),
                           coin_delta) == from_list


def test_empirical_delta_rejects_a_cell_outside_the_space(coin_space):
    with pytest.raises(KeyError):
        empirical_delta(coin_space, [SampleRecord("w1", 0, 0),
                                     SampleRecord("w3", 0, 1)])
    with pytest.raises(KeyError):
        empirical_delta(coin_space, [SampleRecord("w1", 2, 0)])


def test_empirical_delta_empty(coin_space, coin_delta):
    with pytest.raises(EmptySamples):
        empirical_delta(coin_space, [], coin_delta)
    with pytest.raises(EmptySamples):
        empirical_delta(coin_space, iter([]), coin_delta)


@pytest.mark.parametrize("cell", [("w3", 0), ("w1", -1), ("w2", 2), ("w2", 9),
                                  ("w1", 1.5), ("w1", "1"), ("w2", 2**70)])
@pytest.mark.parametrize("at", [0, 5, WIDE - 1, WIDE, 2 * WIDE + 3])
def test_empirical_delta_names_the_first_cell_off_the_space(coin_space, cell,
                                                            at):
    # the first off-space cell in sample order, also in a later chunk (WIDE
    # is a multiple of CHUNK), and not one of the off-space cells after it
    good = [SampleRecord("w1", 1, i) for i in range(at)]
    later = [SampleRecord("w4", 0, at + 1), SampleRecord("w1", 7, at + 2)]
    records = good + [SampleRecord(*cell, at)] + later + good
    for samples in (records, iter(records)):
        with pytest.raises(KeyError) as raised:
            empirical_delta(coin_space, samples)
        assert raised.value.args == (cell,)


def test_empirical_delta_matches_grid_indices_as_dict_keys(coin_space):
    # a cell is on the space when it equals one as a dict key would
    want = empirical_delta(coin_space, [SampleRecord("w1", 1, 0)])
    for j in (1.0, True, np.int64(1)):
        assert empirical_delta(coin_space, [SampleRecord("w1", j, 0)]) == want


def test_empirical_delta_reads_a_generator_of_several_chunks(coin_space,
                                                             coin_delta):
    samples = sample_many(coin_space, coin_delta, rng(6), 2 * CHUNK + 7)
    counts = sample_counts(coin_space, coin_delta, rng(6), 2 * CHUNK + 7)
    want = frequencies(coin_space, counts, coin_delta)
    assert empirical_delta(coin_space, samples, coin_delta) == want
    assert empirical_delta(coin_space, (r for r in samples),
                           coin_delta) == want


# ---------------------------------------------------------------------------
# records are built with the cyclic collector paused

@pytest.fixture
def collector():
    """The gc module, its collector left as it was before the test."""
    enabled = gc.isenabled()
    yield gc
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_sample_many_leaves_the_collector_as_it_found_it(enabled, collector,
                                                         coin_space,
                                                         coin_delta):
    (collector.enable if enabled else collector.disable)()
    sample_many(coin_space, coin_delta, rng(1), 1000)
    assert collector.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_sample_many_restores_the_collector_when_the_build_raises(
        enabled, collector, coin_space, coin_delta, monkeypatch):
    class Boom(Exception):
        pass

    def boom(*args):
        assert not collector.isenabled()  # raised inside the paused build
        raise Boom

    monkeypatch.setattr(sampling, "repeat", boom)
    (collector.enable if enabled else collector.disable)()
    with pytest.raises(Boom):
        sample_many(coin_space, coin_delta, rng(1), 1000)
    assert collector.isenabled() is enabled


def test_sample_many_builds_exact_records(coin_space, coin_mixed):
    records = sample_many(coin_space, coin_mixed, rng(2), 5000)
    assert [r.replicate for r in records] == list(range(5000))
    for r in records:
        assert type(r) is SampleRecord
        assert r == SampleRecord(*r)


def test_sample_many_builds_without_collections(collector, coin_space,
                                                coin_delta):
    # at most one collection may start, when the collector resumes; a
    # build with the collector running starts hundreds
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    collector.enable()
    collector.callbacks.append(count)
    try:
        sample_many(coin_space, coin_delta, rng(3), 200_000)
    finally:
        collector.callbacks.remove(count)
    assert len(starts) <= 1


# ---------------------------------------------------------------------------
# counts: the same draws as the records, tallied into one array

def tally(space, records) -> np.ndarray:
    """The outcomes x grid count array of a record list, one cell at a time."""
    row = {w: i for i, w in enumerate(space.outcomes)}
    counts = np.zeros((len(space.outcomes), space.n_times), dtype=np.int64)
    for rec in records:
        counts[row[rec.outcome], rec.grid_index] += 1
    return counts


def assert_counts_match_records(space, eta, seed, n, reference):
    records = sample_many(space, eta, rng(seed), n)
    counts = sample_counts(space, eta, rng(seed), n)
    assert counts.dtype == np.int64
    assert counts.shape == (len(space.outcomes), space.n_times)
    assert np.array_equal(counts, tally(space, records))
    assert (frequencies(space, counts, reference)
            == empirical_delta(space, records, reference))
    assert frequencies(space, counts) == empirical_delta(space, records)


@pytest.mark.parametrize("kind", ["pure", "mixed", "randomized", "delta"])
def test_counts_tally_the_records_on_the_coin(kind, coin_space, coin_mixed,
                                              coin_randomized, coin_delta):
    eta = {"pure": PureST({"w1": 0, "w2": 1}), "mixed": coin_mixed,
           "randomized": coin_randomized, "delta": coin_delta}[kind]
    for seed, n in ((3, 1), (4, 17), (5, 5000)):
        assert_counts_match_records(coin_space, eta, seed, n, coin_delta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2000))
def test_counts_tally_the_records_on_fuzzed_instances(seed, n):
    inst = fuzz.random_instance(rng(seed), fuzz.FuzzBounds(
        max_outcomes=12, max_grid_points=6))
    for eta in (inst.pure, inst.mixed, inst.randomized, inst.distribution):
        assert_counts_match_records(inst.space, eta, seed + 1, n,
                                    inst.distribution)
    # a joint mass draws exactly what its path draws
    path = randomized_of_distribution(inst.space, inst.distribution)
    assert np.array_equal(
        sample_counts(inst.space, inst.distribution, rng(seed + 1), n),
        sample_counts(inst.space, path, rng(seed + 1), n))


def test_a_mass_below_float_range_draws_without_a_warning():
    # atom a has P = 10**-400: the float cdf of its row was 0 / 0, NaN,
    # with a RuntimeWarning
    tiny = F(1, 10**400)
    space = build_space(("a", "b"), (tiny, 1 - tiny), (0, 1),
                        (({"a"}, {"b"}),) * 2)
    delta = DistributionST({"a": (tiny / 3, 2 * tiny / 3),
                            "b": (F(1, 2) - tiny, F(1, 2))})
    rho = randomized_of_distribution(space, delta)
    assert rho.paths == {"a": (F(1, 3), F(1)),
                         "b": ((F(1, 2) - tiny) / (1 - tiny), F(1))}
    counts = sample_counts(space, delta, rng(4), 5000)
    assert counts[0].sum() == 0 and counts.sum() == 5000
    assert np.array_equal(counts, sample_counts(space, rho, rng(4), 5000))


@pytest.mark.parametrize("n", [0, -1])
def test_sample_counts_empty(coin_space, coin_delta, n):
    with pytest.raises(EmptySamples):
        sample_counts(coin_space, coin_delta, rng(), n)


def test_frequencies_of_no_counts(coin_space, coin_delta):
    with pytest.raises(EmptySamples):
        frequencies(coin_space, np.zeros((2, 2), dtype=np.int64), coin_delta)


# ---------------------------------------------------------------------------
# sections sample from floats of their int breaks

@st.composite
def wide_sections(draw):
    """A section over a denominator up to 2**80, breaks dense enough that
    neighbours may round to one float."""
    d = draw(st.integers(1, 2**80))
    inner = draw(st.sets(st.integers(1, d - 1), max_size=8)) if d > 1 else ()
    nums = (0, *sorted(inner), d)
    return RStepFunction((nums, d), tuple(range(len(nums) - 1)))


def one_outcome_space(n_times: int):
    return build_space(("w",), (1,), range(n_times), (({"w"},),) * n_times)


@settings(max_examples=200, deadline=None)
@given(wide_sections())
def test_section_floats_are_those_of_the_fraction_breaks(s):
    # the sampler searches the inner breaks, each read as a float: its
    # guides are built from those rows, then from the outcomes' cdf
    seen = []
    guide = sampling._guide

    def spy(rows, right):
        seen.append([list(map(float, row)) for row in rows])
        return guide(rows, right)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_guide", spy)
        sample_counts(one_outcome_space(len(s.values)), MixedST({"w": s}),
                      rng(), 1)
    assert seen == [[[float(r) for r in s.breaks[1:-1]]], [[1.0]]]


def fraction_section_indices(mu: MixedST, w, rs: np.ndarray) -> np.ndarray:
    """A section reader over float(Fraction) of each break."""
    s = mu.sections[w]
    breaks = np.array([float(r) for r in s.breaks])
    iv = np.searchsorted(breaks, rs, side="right") - 1
    return np.array(s.values)[np.clip(iv, 0, len(s.values) - 1)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_section_counts_match_a_fraction_reader(seed):
    inst = fuzz.random_instance(rng(seed), fuzz.FuzzBounds(
        max_outcomes=12, max_grid_points=6, max_breaks=16))
    cells = len(inst.space.outcomes) * inst.space.n_times
    for mu in (inst.mixed, inst.mixed2):
        counts = sample_counts(inst.space, mu, rng(seed + 1), 2000)
        which, indices = one_shot_draw(inst.space, mu, rng(seed + 1), 2000, {
            **READERS, MixedST: fraction_section_indices})
        want = np.bincount(which * inst.space.n_times + indices,
                           minlength=cells)
        assert np.array_equal(counts.ravel(), want)


# ---------------------------------------------------------------------------
# draws come in chunks: the numbers of one choice(n) and one random(n)

def section_indices(mu: MixedST, w, rs: np.ndarray) -> np.ndarray:
    """The section value at each r."""
    s = mu.sections[w]
    nums, d = s.break_ints
    breaks = np.array([n / d for n in nums])
    values = np.array(s.values, dtype=np.int64)
    iv = np.searchsorted(breaks, rs, side="right") - 1
    return values[np.clip(iv, 0, len(values) - 1)]


def path_indices(rho: RandomizedST, w, rs: np.ndarray) -> np.ndarray:
    """The generalized inverse of the cumulative path at each r."""
    nums, d = rho.rows[w]
    path = np.array([n / d for n in nums])
    return np.searchsorted(path, rs, side="left")


def mass_indices(delta: DistributionST, w, rs: np.ndarray) -> np.ndarray:
    """The generalized inverse of the mass's path at each r: the running
    sums of the outcome's row over their total, P(w), each a correctly
    rounded float."""
    nums, _ = delta.rows[w]
    total = sum(nums)
    path = np.array([float(F(c, total)) for c in accumulate(nums)])
    return np.searchsorted(path, rs, side="left")


READERS = {MixedST: section_indices, RandomizedST: path_indices,
           DistributionST: mass_indices}


def one_shot_draw(space, eta, rng, n, readers=READERS):
    """(which, indices) of n draws in one shot, one mask per outcome and
    one reader per kind: the reference the chunked sampler reproduces
    draw for draw."""
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    stop_indices = readers[type(eta)]
    probs = np.array([float(p) for p in space.probs])
    which = rng.choice(len(space.outcomes), size=n, p=probs / probs.sum())
    rs = rng.random(n)
    indices = np.empty(n, dtype=np.int64)
    for i, w in enumerate(space.outcomes):
        mask = which == i
        if mask.any():
            indices[mask] = stop_indices(eta, w, rs[mask])
    return which, np.clip(indices, 0, space.n_times - 1)


def same_state(a, b) -> bool:
    """Equal bit generator states; Philox's hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def fuzzed(outcomes: int, grid_points: int) -> fuzz.Instance:
    """A fuzzed instance of exactly that many outcomes."""
    inst = fuzz.random_instance(rng(5), fuzz.FuzzBounds(
        max_outcomes=outcomes, max_grid_points=grid_points),
        min_outcomes=outcomes)
    assert len(inst.space.outcomes) == outcomes
    return inst


def stoppers():
    """(space, eta) for every kind on the coin, on 32 outcomes and on 256
    outcomes, each CHUNK draws at a time."""
    coin = demo.coin_space()
    return [(coin, eta) for eta in (PureST({"w1": 0, "w2": 1}),
                                    demo.coin_mixed(), demo.coin_randomized(),
                                    demo.coin_uniform_delta())] + [
        (inst.space, eta) for inst in (fuzzed(32, 8), fuzzed(256, 4))
        for eta in (inst.pure, inst.mixed, inst.randomized,
                    inst.distribution)]


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937]


@pytest.mark.parametrize("bits", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                               WIDE - 1, WIDE, WIDE + 1, 2 * WIDE + 7])
def test_chunked_draws_are_the_one_shot_draws(bits, n):
    for space, eta in stoppers():
        oracle = np.random.Generator(bits(11))
        which, indices = one_shot_draw(space, eta, oracle, n)
        # a record equals the tuple of its fields
        want = zip(map(space.outcomes.__getitem__, which.tolist()),
                   indices.tolist(), range(n))
        counts = np.bincount(which * space.n_times + indices,
                             minlength=len(space.outcomes) * space.n_times)
        caller = np.random.Generator(bits(11))
        records = sample_many(space, eta, caller, n)
        assert len(records) == n and all(map(eq, records, want))
        assert set(map(type, records)) == {SampleRecord}
        assert same_state(caller.bit_generator.state, oracle.bit_generator.state)
        caller = np.random.Generator(bits(11))
        assert np.array_equal(sample_counts(space, eta, caller, n).ravel(), counts)
        assert same_state(caller.bit_generator.state, oracle.bit_generator.state)


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM],
                         ids=lambda b: b.__name__)
def test_chunked_draws_keep_a_buffered_32_bit_half(bits, coin_space,
                                                   coin_mixed):
    # advancing a bit generator drops the half of a 64-bit draw that a
    # 32-bit draw buffered; the caller's generator must keep it
    caller, oracle = (np.random.Generator(bits(4)) for _ in range(2))
    for g in (caller, oracle):
        g.integers(0, 9, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"] == 1
    counts = sample_counts(coin_space, coin_mixed, caller, 2 * CHUNK + 7)
    which, indices = one_shot_draw(coin_space, coin_mixed, oracle, 2 * CHUNK + 7)
    assert np.array_equal(counts.ravel(), np.bincount(which * 2 + indices,
                                                      minlength=4))
    assert caller.bit_generator.state == oracle.bit_generator.state
    assert (caller.integers(0, 2**32, dtype=np.uint32)
            == oracle.integers(0, 2**32, dtype=np.uint32))


def test_sample_counts_draws_in_bounded_memory(coin_space, coin_mixed):
    # the one-shot sampler peaked at 391 MiB here, 2**16-draw chunks at
    # 4.5 MiB
    tracemalloc.start()
    try:
        counts = sample_counts(coin_space, coin_mixed, rng(8), 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**7
    assert peak < 2 * 2**20


class Reads(dict):
    """A dict that counts the reads of each key."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = dict.fromkeys(table, 0)

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_each_row_is_read_once_per_call():
    # the tables are built before the chunk loop, not once per chunk
    inst = fuzz.random_instance(rng(5), fuzz.FuzzBounds(
        max_outcomes=32, max_grid_points=8), min_outcomes=32)
    for eta in (inst.mixed, inst.randomized, inst.distribution):
        if isinstance(eta, MixedST):
            eta = MixedST(table := Reads(eta.sections))
        else:
            eta = type(eta)._of_canonical(table := Reads(eta.rows))
        counts = sample_counts(inst.space, eta, rng(9), 3 * CHUNK)
        assert counts.sum() == 3 * CHUNK
        assert table.reads == dict.fromkeys(inst.space.outcomes, 1)


# ---------------------------------------------------------------------------
# one exact indexed search: np.searchsorted's counts, choice's outcomes

TINY = 5e-324
BELOW_ONE = float(np.nextafter(1.0, 0.0))


@st.composite
def sorted_rows(draw):
    """Nondecreasing rows in [0, 1] from edges a guide finds hardest: repeats,
    bucket ends b / 2**g of the row's own g, the least subnormal and the
    floats next to 1, with x's at and beside every edge."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(0, 40))
        ends = [b / (1 << m.bit_length()) for b in range(2 << m.bit_length())]
        pool = st.sampled_from([0.0, TINY, BELOW_ONE, 1.0]
                               + ends[:len(ends) // 2 + 1])
        rows.append(sorted(draw(st.lists(
            pool | st.floats(0, 1), min_size=m, max_size=m))))
    edges = [e for row in rows for e in row] + [0.0, 1.0]
    near = [float(np.nextafter(e, to)) for e in edges for to in (0.0, 1.0)]
    xs = draw(st.lists(st.sampled_from(edges + near) | st.floats(0, 1),
                       min_size=1, max_size=60))
    return rows, np.array(xs)


def assert_searchsorted(rows, xs, data):
    """The guide's counts are np.searchsorted's on both sides, each x in a
    drawn row or, with one row, all x in it."""
    at = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1),
                                     min_size=xs.size, max_size=xs.size)))
    first = np.cumsum([0] + [len(row) for row in rows])
    for right, side in ((True, "right"), (False, "left")):
        guide = sampling._guide(rows, right)
        want = [first[i] + np.searchsorted(np.array(rows[i], dtype=float), x,
                                           side) for i, x in zip(at, xs)]
        assert sampling._search(guide, xs, at).tolist() == want
        if len(rows) == 1:
            assert sampling._search(guide, xs).tolist() == want


@settings(max_examples=300, deadline=None)
@given(sorted_rows(), st.data())
def test_indexed_search_is_searchsorted(case, data):
    assert_searchsorted(*case, data)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(-2, 3), max_size=12).map(sorted),
                min_size=1, max_size=4),
       st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=30),
       st.data())
def test_indexed_search_reads_rows_beyond_the_unit_interval(rows, xs, data):
    # an unvalidated path may leave [0, 1]: its edges keep to their own
    # row's slots, and every uniform still counts exactly
    assert_searchsorted(rows, np.array(xs), data)


@st.composite
def weighted_spaces(draw):
    """A one-time space of 1 to 300 outcomes with int weights, one of them
    as small as 10**-300 of the total."""
    k = draw(st.integers(1, 300))
    weights = draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        weights = [w * 10**300 for w in weights[:-1]] + [1]
    total = sum(weights)
    outcomes = tuple(range(k))
    return build_space(outcomes, [F(w, total) for w in weights], (0,),
                       (tuple({w} for w in outcomes),))


@settings(max_examples=40, deadline=None)
@given(weighted_spaces(), st.integers(1, 70_000),
       st.sampled_from([np.random.PCG64, np.random.MT19937]),
       st.integers(0, 2**32))
def test_outcome_search_is_choice(space, n, bits, seed):
    # every chunk's outcomes are choice's, and the caller's generator ends
    # where choice(n) then random(n) leave its twin
    caller, twin = (np.random.Generator(bits(seed)) for _ in range(2))
    sigma = PureST(dict.fromkeys(space.outcomes, 0))
    which = np.concatenate([w for w, _ in sampling._draw(space, sigma, caller,
                                                         n)])
    probs = np.array([float(p) for p in space.probs])
    want = twin.choice(len(space.outcomes), n, p=probs / probs.sum())
    twin.random(n)
    assert np.array_equal(which, want)
    assert same_state(caller.bit_generator.state, twin.bit_generator.state)


def uniform_stopper(k: int):
    """k equally likely outcomes, each section stepping at 1/3 and 2/3: the
    outcomes' cdf sits on bucket ends, and every draw between the breaks
    takes one binary-search step."""
    outcomes = tuple(range(k))
    space = build_space(outcomes, [F(1, k)] * k, range(3),
                        (tuple({w} for w in outcomes),) * 3)
    section = RStepFunction(((0, 1, 2, 3), 3), (0, 1, 2))
    return space, MixedST(dict.fromkeys(outcomes, section))


def calls_per_chunk(space, eta) -> list:
    """The Python and C function calls of the second and third chunks."""
    chunks = sampling._draw(space, eta, rng(12), 4 * CHUNK)
    next(chunks)
    counts = []
    for _ in range(2):
        seen = []
        sys.setprofile(lambda frame, event, arg: seen.append(event)
                       if event in ("call", "c_call") else None)
        try:
            next(chunks)
        finally:
            sys.setprofile(None)
        counts.append(len(seen))
    return counts


def test_a_chunk_makes_the_same_calls_at_any_number_of_outcomes():
    # no step of a chunk walks the outcomes
    counts = [calls_per_chunk(*uniform_stopper(k)) for k in (2, 256, 2048)]
    assert counts[0] == counts[1] == counts[2]


def test_guides_grow_with_the_edges_not_the_longest_row():
    # one 2**16-break section among 4095 one-break sections: guides of
    # 2**12 rows of the longest row's 2**16 buckets would take 4 GiB
    k = 1 << 12
    outcomes = tuple(range(k))
    space = build_space(outcomes, [F(1, k)] * k, range(2),
                        (tuple({w} for w in outcomes),) * 2)
    wide = RStepFunction((tuple(range((1 << 16) + 1)), 1 << 16),
                         tuple(i % 2 for i in range(1 << 16)))
    narrow = RStepFunction(((0, 1, 2), 2), (0, 1))
    mu = MixedST({w: wide if w == 0 else narrow for w in outcomes})
    (edges, low, high, *_), values = sampling._tables(space, mu)
    assert edges.size == (1 << 16) - 1 + (k - 1)
    assert low.size == high.size <= 2 * (edges.size + k)
    assert values.size == edges.size + k
    tracemalloc.start()
    try:
        counts = sample_counts(space, mu, rng(13), 2 * CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2 * CHUNK
    assert peak < 16 * 2**20
