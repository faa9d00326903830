from fractions import Fraction

import numpy as np
import pytest

from stoptime import fuzz
from stoptime.serialize import (InputError, parse_fraction, process_from_dict,
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
    assert proc.at("w1", 1) == F(1, 2)
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
    assert mu.sections["w1"].cdf(0) == F(1, 2)


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
