"""JSON serialization: rationals travel as "p/q" or integer strings.

Tables load into int rows (nums, d) and print from them: a Fraction is
built only for a space's probs and grid, and for a cell in another form.
A row of "p" and "p/q" texts is read at once, any other cell by cell.
Loaders check every document's types first, each list in one pass:
tables are objects, rows are lists, outcome labels are strings, and stop
indices and section values are integers; a mismatch, a repeated key or
a key the document's kind does not define raises InputError.
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .space import AdaptedProcess, FilteredSpace, build_space
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST)


class InputError(ValueError):
    """Malformed input file or JSON document."""


_CELL = r"-?[0-9]+(?:/0*[1-9][0-9]*)?"
_RATIO = re.compile(_CELL)
_ROW = re.compile(f"{_CELL}(?:,{_CELL})*")
_EXPONENT = re.compile(r"[\d.]e[-+]?\d", re.I)  # \d: any digit, as in Fraction


def parse_ratio(s) -> tuple:
    """(p, q) with q > 0 for one cell: a JSON integer or an ASCII "p" or
    "p/q" text split into its ints, a number or any other text read by
    Fraction(str(s)) with exponents refused; a bad cell is an InputError."""
    if type(s) is int:
        return s, 1
    try:
        if type(s) is str and _RATIO.fullmatch(s):
            p, _, q = s.partition("/")
            return int(p), int(q) if q else 1
        if type(s) in (bool, type(None), list, dict):
            raise ValueError(f"{_TYPE_NAMES[type(s)]} is not a rational")
        if _EXPONENT.search(str(s)):  # Fraction would expand 10**exp exactly
            raise ValueError("exponents are not accepted; write p/q")
        x = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {s!r}: {e}") from None
    return x.numerator, x.denominator


def parse_fraction(s) -> Fraction:
    return Fraction(*parse_ratio(s))


def format_ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _keys(doc: dict, allowed: set, what: str) -> dict:
    """doc itself if it has no keys outside allowed."""
    if not doc.keys() <= allowed:
        raise InputError(f"{what}: unexpected key(s) {sorted(doc.keys() - allowed)}")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise InputError(f"missing key {key!r}")
    return doc[key]


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "a boolean", type(None): "null"}


def _expect(x, kind: type, what: str):
    """x itself if its JSON type is kind (dict, list, str or int)."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise InputError(
            f"{what} must be {_TYPE_NAMES[kind]}, not {type(x).__name__}")
    return x


def _each(xs, kind: type, what: str):
    """xs if every entry (a dict's value) has type kind; else the first's error."""
    if not set(map(type, xs.values() if type(xs) is dict else xs)) <= {kind}:
        for i, x in (xs.items() if type(xs) is dict else enumerate(xs)):
            _expect(x, kind, what.format(i))
    return xs


def _list(doc: dict, key: str) -> list:
    return _expect(_require(doc, key), list, repr(key))


def _table(doc: dict, key: str) -> dict:
    return _expect(_require(doc, key), dict, repr(key))


def _row(row, what: str) -> tuple:
    """The cells as ints (nums, d) over their lcm d: one _ROW match of their
    join, if no cell hides a comma, else parse_ratio per cell."""
    row = _expect(row, list, what)
    try:  # TypeError: a cell is not a str; ValueError: an int is too long
        text = ",".join(row)
        cells = text.count(",") == len(row) - 1 and _ROW.fullmatch(text) and [
            (int(p), int(q) if q else 1)
            for p, _, q in [x.partition("/") for x in text.split(",")]]
    except (TypeError, ValueError):
        cells = None
    cells = cells or [parse_ratio(x) for x in row]
    d = lcm(*[q for _, q in cells])
    return [p * (d // q) for p, q in cells], d


def space_to_dict(space: FilteredSpace) -> dict:
    return {
        "grid": [str(t) for t in space.grid],
        "outcomes": list(space.outcomes),
        "probs": [str(p) for p in space.probs],
        "partitions": [[sorted(block, key=space._order.__getitem__)
                        for block in part] for part in space.partitions],
    }


def space_from_dict(doc: dict) -> FilteredSpace:
    _keys(doc, {"grid", "outcomes", "probs", "partitions"}, "space")
    return build_space(
        outcomes=_each(_list(doc, "outcomes"), str, "outcome label"),
        probs=[parse_fraction(p) for p in _list(doc, "probs")],
        grid=[parse_fraction(t) for t in _list(doc, "grid")],
        partitions=[_blocks(_expect(part, list, "partition"))
                    for part in _list(doc, "partitions")],
    )


def _blocks(part: list) -> list:
    """A partition's lists of outcome labels, type-checked in one pass."""
    if not (set(map(type, part)) <= {list}
            and set(map(type, chain.from_iterable(part))) <= {str}):
        for b in part:
            _each(_expect(b, list, "block"), str, "outcome label")
    return part


def _row_texts(nums, d) -> list:
    return [format_ratio(n, d) for n in nums]


def process_to_dict(process: AdaptedProcess) -> dict:
    return {"values": {w: _row_texts(*row)
                       for w, row in process.rows.items()}}


def process_from_dict(doc: dict) -> AdaptedProcess:
    _keys(doc, {"values"}, "process")
    return AdaptedProcess.from_rows(
        {w: _row(row, f"values row of {w!r}")
         for w, row in _table(doc, "values").items()})


_TABLE_KEYS = {"pure": "stop_index", "mixed": "sections",
               "randomized": "paths", "distribution": "mass"}


def stopping_time_to_dict(eta) -> dict:
    if isinstance(eta, PureST):
        return {"kind": "pure", "stop_index": dict(eta.stop_index)}
    if isinstance(eta, MixedST):
        return {"kind": "mixed", "sections": {
            w: {"breaks": _row_texts(*s.break_ints), "values": list(s.values)}
            for w, s in eta.sections.items()}}
    if isinstance(eta, (RandomizedST, DistributionST)):
        kind = "randomized" if isinstance(eta, RandomizedST) else "distribution"
        return {"kind": kind, _TABLE_KEYS[kind]: {
            w: _row_texts(*row) for w, row in eta.rows.items()}}
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


def stopping_time_from_dict(doc: dict):
    kind = _expect(_require(doc, "kind"), str, "'kind'")
    if kind not in _TABLE_KEYS:
        raise InputError(f"unknown stopping-time kind {kind!r}")
    key = _TABLE_KEYS[kind]
    table = _table(_keys(doc, {"kind", key}, f"{kind} stopping time"), key)
    if kind == "pure":
        return PureST(dict(_each(table, int, "stop index of {!r}")))
    if kind == "mixed":
        sections = {}
        for w, s in table.items():
            try:
                s = _keys(_expect(s, dict, "section"), {"breaks", "values"},
                          "section")
                sections[w] = RStepFunction(
                    _row(_list(s, "breaks"), "breaks"),
                    tuple(_each(_list(s, "values"), int, "section value")))
            except ValueError as e:
                raise InputError(f"bad section for {w!r}: {e}") from None
        return MixedST(sections)
    if kind == "randomized":
        return RandomizedST.from_rows({w: _row(row, f"path of {w!r}")
                                       for w, row in table.items()})
    return DistributionST.from_rows({w: _row(row, f"mass row of {w!r}")
                                     for w, row in table.items()})


def _object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is an InputError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in doc if keys.count(k) > 1)
        raise InputError(f"repeated key {key!r}")
    return doc


def load_json(path) -> dict:
    """The JSON object in the file at path; any other document, or an
    object that repeats a key, is an InputError."""
    try:
        with open(path) as f:
            doc = json.load(f, object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as e:  # JSONDecodeError too
        raise InputError(f"{path}: {e}") from None
    return _expect(doc, dict, f"{path}: the document")


def dump_json(doc: dict, path) -> None:
    """doc as indented JSON with sorted keys, then a newline, written to a
    path or to an open text stream."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with nullcontext(path) if hasattr(path, "write") else open(path, "w") as f:
        f.write(text)
