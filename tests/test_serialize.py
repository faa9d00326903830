import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import at, le_intervals, reference_parse_fraction
from hypothesis import example, given, settings, strategies as st

from stoptime import fuzz
from stoptime.serialize import (InputError, _row, format_ratio, load_json,
                                parse_fraction,
                                parse_ratio, process_from_dict,
                                process_to_dict, space_from_dict,
                                space_to_dict, stopping_time_from_dict,
                                stopping_time_to_dict)

F = Fraction


def test_parse_fraction():
    assert parse_fraction("1/2") == F(1, 2)
    assert parse_fraction("3") == 3
    with pytest.raises(InputError):
        parse_fraction("x/y")
    with pytest.raises(InputError):
        parse_fraction("1/0")


def test_parse_fraction_rejects_exponents():
    # Fraction("1e-999999999") expands the power of ten exactly and runs
    # for hours; rationals travel as "p/q" or integer strings
    for text in ("1e3", "2E-1", "-5e0", 1e-05):
        with pytest.raises(InputError):
            parse_fraction(text)
    assert parse_fraction("0.25") == F(1, 4)


@pytest.mark.parametrize("cell, why", [
    (True, "a boolean is not a rational"),
    (False, "a boolean is not a rational"),
    (None, "null is not a rational"),
    (["1"], "a list is not a rational"),
    ({"p": 1}, "an object is not a rational"),
    ("seven", "Invalid literal for Fraction: 'seven'"),
    ("one", "Invalid literal for Fraction: 'one'"),
    ("e5", "Invalid literal for Fraction: 'e5'"),
])
def test_a_cell_that_is_no_number_is_named(cell, why):
    # only an exponent is called one: a JSON type is named, and a word
    # gets Fraction's own text
    with pytest.raises(InputError) as raised:
        parse_ratio(cell)
    assert str(raised.value) == f"bad rational {cell!r}: {why}"


@given(st.from_regex(r"\s?[-+]?(\d+(\.\d*)?|\.\d+)[eE][-+]?\d{1,2}\s?",
                     fullmatch=True))
@example("1e3")
@example("\u0661e\u0663")
@example("1.E-\uff12")
def test_every_exponent_fraction_reads_is_refused(text):
    # Fraction reads these, its \d any Unicode digit; a long exponent
    # would expand 10**exp exactly
    Fraction(text)
    with pytest.raises(InputError, match="exponents are not accepted"):
        parse_ratio(text)


def _parsed(parse, cell):
    """parse(cell), or the text of the InputError it raises."""
    try:
        return parse(cell)
    except InputError as e:
        return f"InputError: {e}"


CELL_TEXTS = st.one_of(
    st.from_regex(r"\s?[-+]?[0-9_]{0,4}(\.[0-9]{0,3})?([eE][-+]?[0-9])?"
                  r"(/[-+]?[0-9_]{0,3})?\s?", fullmatch=True),
    st.text(alphabet="0123456789-+/._ eE\u0661\u0662\uff11", max_size=8),
    st.sampled_from(["1.", ".5", "0.25", "1/0", "1/00", "-0", "+3", "07",
                     " 1/2 ", "1_000", "1/-2", "\u0661\u0662", "\uff11",
                     "1e3", "1E-2", "inf", "nan", "", "/", "5" * 5000,
                     "1/" + "5" * 5000]))
CELLS = st.one_of(CELL_TEXTS, st.integers(), st.floats(), st.booleans(),
                  st.none(), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2))


@settings(max_examples=500)
@given(CELLS)
def test_parse_ratio_matches_the_fraction_parser(cell):
    # the same value, or the same InputError text, on every JSON cell as
    # the reference per-cell parser
    want = _parsed(reference_parse_fraction, cell)
    got = _parsed(parse_ratio, cell)
    assert _parsed(parse_fraction, cell) == want
    if isinstance(want, str):
        assert got == want
    else:
        p, q = got
        assert type(p) is type(q) is int and q > 0
        assert Fraction(p, q) == want


def per_cell_row(row) -> tuple:
    """The row reader the one-match path must agree with: every cell
    through parse_ratio in order, then over the lcm of the denominators."""
    cells = [parse_ratio(x) for x in row]
    d = lcm(*[q for _, q in cells])
    return [p * (d // q) for p, q in cells], d


ROW_CELLS = st.one_of(
    CELLS,
    st.sampled_from([",", "1,2", "1/2,3", ",1", "1,", "/", "1/", "/2", "+1",
                     " 1", "1 ", "1_0", "1/1_0", "\u0661", "\uff11/2",
                     "1/\u0662", "-0", "0/7", "", "5" * 5000]),
    st.builds(format_ratio, st.integers(), st.integers(1, 10**20)))


@settings(max_examples=500)
@given(st.lists(ROW_CELLS, max_size=6))
@example([])
@example(["1,2"])
@example(["1/2,3", "4"])
@example(["1", "2,3/4"])
@example(["3/4", "-1/6", "0", "7"])
def test_row_matches_the_per_cell_parse(row):
    # the same (nums, d), or the InputError text of the first bad cell; a
    # cell holding a comma must not split into two cells
    assert _parsed(lambda r: _row(r, "row"), row) == _parsed(per_cell_row,
                                                             row)


@given(st.integers(), st.integers(min_value=1))
@example(0, 5)
@example(-3, 1)
@example(-4, 6)
@example(12, 4)
def test_format_ratio_is_the_fraction_text(n, d):
    assert format_ratio(n, d) == str(Fraction(n, d))


def test_space_round_trip(coin_space):
    assert space_from_dict(space_to_dict(coin_space)) == coin_space


def test_space_documented_schema():
    doc = {"grid": ["0", "1/2", "1"],
           "outcomes": ["w1", "w2"],
           "probs": ["1/2", "1/2"],
           "partitions": [[["w1", "w2"]], [["w1"], ["w2"]], [["w1"], ["w2"]]]}
    space = space_from_dict(doc)
    assert space.grid == (F(0), F(1, 2), F(1))
    assert space.partitions[0] == (frozenset({"w1", "w2"}),)


def test_process_round_trip():
    doc = {"values": {"w1": ["0", "1/2", "1"], "w2": ["1", "1", "1"]}}
    proc = process_from_dict(doc)
    assert at(proc, "w1", 1) == F(1, 2)
    assert process_from_dict(process_to_dict(proc)).values == proc.values


def test_stopping_time_round_trips(coin_mixed, coin_randomized, coin_delta):
    sigma_doc = {"kind": "pure", "stop_index": {"w1": 0, "w2": 1}}
    for eta in (stopping_time_from_dict(sigma_doc), coin_mixed,
                coin_randomized, coin_delta):
        doc = stopping_time_to_dict(eta)
        assert stopping_time_from_dict(doc) == eta


def test_mixed_documented_schema():
    doc = {"kind": "mixed", "sections": {
        "w1": {"breaks": ["0", "1/2", "1"], "values": [0, 1]},
        "w2": {"breaks": ["0", "1/2", "1"], "values": [0, 1]}}}
    mu = stopping_time_from_dict(doc)
    assert sum(b - a for a, b in le_intervals(mu.sections["w1"], 0)) == F(1, 2)


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        stopping_time_from_dict({"kind": "quantum"})


def test_malformed_section_rejected():
    doc = {"kind": "mixed", "sections": {
        "w1": {"breaks": ["0", "1"], "values": [0, 1]}}}
    with pytest.raises(InputError):
        stopping_time_from_dict(doc)


def test_fuzzed_round_trips():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        inst = fuzz.random_instance(rng)
        assert space_from_dict(space_to_dict(inst.space)) == inst.space
        for eta in (inst.pure, inst.mixed, inst.randomized, inst.distribution):
            assert stopping_time_from_dict(stopping_time_to_dict(eta)) == eta


def test_long_integer_literal_is_an_input_error(tmp_path):
    # json reads an integer literal with int(), which raises a plain
    # ValueError beyond Python's int-string limit; cli.main lifts that
    # limit, but a library caller under the default one is promised an
    # InputError
    path = tmp_path / "long.json"
    path.write_text('{"values": {"w": [' + "7" * 5000 + "]}}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InputError, match="4300 digits"):
            load_json(path)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text, key", [
    ('{"kind": "pure", "stop_index": {"w1": 0, "w2": 1, "w1": 1}}', "w1"),
    ('{"values": {"w": ["1"]}, "values": {"w": ["2"]}}', "values"),
    ('{"a": [{"b": 1, "c": 2, "b": 1}]}', "b"),
], ids=["table", "top-level", "nested"])
def test_a_repeated_key_is_an_input_error(text, key, tmp_path):
    # json keeps a repeated key's last value; a document is read whole
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(InputError) as e:
        load_json(path)
    assert str(e.value) == f"{path}: repeated key {key!r}"

