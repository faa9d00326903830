"""JSON serialization: rationals travel as "p/q" or integer strings.

Loaders check every document's types before building anything: tables
are objects, rows are lists, outcome labels are strings, and stop
indices and section values are integers; a mismatch, or a key the
document's kind does not define, raises InputError.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .space import AdaptedProcess, FilteredSpace, build_space
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST)


class InputError(ValueError):
    """Malformed input file or JSON document."""


def parse_fraction(s) -> Fraction:
    try:
        if "e" in str(s).lower():  # Fraction would expand 10**exponent exactly
            raise ValueError("exponents are not accepted; write p/q")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {s!r}: {e}") from None


def format_fraction(x: Fraction) -> str:
    return str(x)


def _keys(doc: dict, allowed: tuple, what: str) -> dict:
    """doc itself if it has no keys outside allowed."""
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise InputError(f"{what}: unexpected key(s) {extra}")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise InputError(f"missing key {key!r}")
    return doc[key]


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer"}


def _expect(x, kind: type, what: str):
    """x itself if its JSON type is kind (dict, list, str or int)."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise InputError(
            f"{what} must be {_TYPE_NAMES[kind]}, not {type(x).__name__}")
    return x


def _list(doc: dict, key: str) -> list:
    return _expect(_require(doc, key), list, repr(key))


def _table(doc: dict, key: str) -> dict:
    return _expect(_require(doc, key), dict, repr(key))


def _row(row, what: str) -> tuple:
    return tuple(parse_fraction(x) for x in _expect(row, list, what))


def _label(w) -> str:
    return _expect(w, str, "outcome label")


def space_to_dict(space: FilteredSpace) -> dict:
    return {
        "grid": [format_fraction(t) for t in space.grid],
        "outcomes": list(space.outcomes),
        "probs": [format_fraction(p) for p in space.probs],
        "partitions": [[sorted(block, key=space.outcomes.index)
                        for block in part] for part in space.partitions],
    }


def space_from_dict(doc: dict) -> FilteredSpace:
    _keys(doc, ("grid", "outcomes", "probs", "partitions"), "space")
    return build_space(
        outcomes=[_label(w) for w in _list(doc, "outcomes")],
        probs=[parse_fraction(p) for p in _list(doc, "probs")],
        grid=[parse_fraction(t) for t in _list(doc, "grid")],
        partitions=[[frozenset(_label(w) for w in _expect(b, list, "block"))
                     for b in _expect(part, list, "partition")]
                    for part in _list(doc, "partitions")],
    )


def process_to_dict(process: AdaptedProcess) -> dict:
    return {"values": {w: [format_fraction(x) for x in row]
                       for w, row in process.values.items()}}


def process_from_dict(doc: dict) -> AdaptedProcess:
    _keys(doc, ("values",), "process")
    return AdaptedProcess({w: _row(row, f"values row of {w!r}")
                           for w, row in _table(doc, "values").items()})


_TABLE_KEYS = {"pure": "stop_index", "mixed": "sections",
               "randomized": "paths", "distribution": "mass"}


def stopping_time_to_dict(eta) -> dict:
    if isinstance(eta, PureST):
        return {"kind": "pure", "stop_index": dict(eta.stop_index)}
    if isinstance(eta, MixedST):
        return {"kind": "mixed", "sections": {
            w: {"breaks": [format_fraction(r) for r in s.breaks],
                "values": list(s.values)}
            for w, s in eta.sections.items()}}
    if isinstance(eta, (RandomizedST, DistributionST)):  # from the rows
        kind = "randomized" if isinstance(eta, RandomizedST) else "distribution"
        return {"kind": kind, _TABLE_KEYS[kind]: {
            w: [format_fraction(Fraction(n, d)) for n in nums]
            for w, (nums, d) in eta.rows.items()}}
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


def stopping_time_from_dict(doc: dict):
    kind = _expect(_require(doc, "kind"), str, "'kind'")
    if kind not in _TABLE_KEYS:
        raise InputError(f"unknown stopping-time kind {kind!r}")
    key = _TABLE_KEYS[kind]
    table = _table(_keys(doc, ("kind", key), f"{kind} stopping time"), key)
    if kind == "pure":
        return PureST({w: _expect(j, int, f"stop index of {w!r}")
                       for w, j in table.items()})
    if kind == "mixed":
        sections = {}
        for w, s in table.items():
            try:
                s = _keys(_expect(s, dict, "section"), ("breaks", "values"),
                          "section")
                sections[w] = RStepFunction(
                    _row(_list(s, "breaks"), "breaks"),
                    tuple(_expect(v, int, "section value")
                          for v in _list(s, "values")))
            except ValueError as e:
                raise InputError(f"bad section for {w!r}: {e}") from None
        return MixedST(sections)
    if kind == "randomized":
        return RandomizedST({w: _row(row, f"path of {w!r}")
                             for w, row in table.items()})
    return DistributionST({w: _row(row, f"mass row of {w!r}")
                           for w, row in table.items()})


def load_json(path) -> dict:
    """The JSON object in the file at path; any other document is an
    InputError."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"{path}: {e}") from None
    return _expect(doc, dict, f"{path}: the document")


def dump_json(doc: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
