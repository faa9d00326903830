"""Span tracing for the benchmark's traced run, and the reducer that turns
spans into the per-layer table.

The tracer lives entirely in the benchmark: it replaces every
module-level binding of each layer function across ``stoptime.*`` with a
wrapper, so calls made through names imported elsewhere (``experiment``
imports the validators by name, ``cli`` the serializers) are seen too.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

Each span records (name, start, end, parent span, op id). A span that
starts with no open span begins a new op. Spans stay in memory and are
written out when the run ends. Counts are recorded at the same
boundaries, from the wrapped call's arguments and result.

Run as a script to reduce saved span files and compare their counts::

    python3 benchmarks/spans.py A.json [B.json]
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layer functions timed as spans, by module
LAYERS = {
    "space": ("build_space",),
    "fuzz": ("random_instance",),
    "times": ("validate_pure", "validate_mixed_sections",
              "validate_mixed_product", "validate_randomized",
              "validate_distribution", "validate_mixed", "rn_derivative",
              "sub_measure"),
    "convert": ("delta_of_mixed", "delta_of_randomized",
                "randomized_of_distribution", "mixed_of_randomized",
                "to_distribution", "equivalent", "cdf_of_mixed"),
    "problems": ("payoff_pure", "payoff_mixed", "payoff_randomized",
                 "payoff_distribution"),
    "games": ("lift", "lift_player2", "lift_distribution",
              "game_payoff_via_lift", "game_payoff_symmetric",
              "game_payoff_player2_view"),
    "sampling": ("sample_many", "empirical_delta"),
    "experiment": ("check_instance", "monte_carlo_rows"),
    "serialize": ("load_json", "space_from_dict", "process_from_dict",
                  "stopping_time_from_dict", "stopping_time_to_dict",
                  "dump_json"),
    "cli": ("main",),
}

# span stats reported per function; both unless listed here
SELF_ONLY = {"fuzz.random_instance", "experiment.check_instance",
             "experiment.monte_carlo_rows"}

# (metric, unit) for every count and ratio recorded at a layer boundary
COUNTS = (
    ("fuzz.instances", "count"), ("fuzz.atoms", "count"),
    ("fuzz.breaks", "count"),
    ("times.validate_distribution.repeat_ratio", "ratio"),
    ("times.prefix_terms", "count"), ("times.prefix_terms_needed", "count"),
    ("times.prefix_useful_ratio", "ratio"),
    ("games.lifted_atoms", "count"), ("games.lift.distinct_ratio", "ratio"),
    ("sampling.draws", "count"),
    ("experiment.rows", "count"), ("experiment.rows_failed", "count"),
    ("serialize.bytes_read", "count"),
    ("cli.exit_0", "count"), ("cli.exit_1", "count"), ("cli.exit_2", "count"),
)

OVERHEAD = ("trace.overhead", "ratio")


def per_layer_metrics() -> list:
    """Every (name, unit) the traced run reports, in table order."""
    out = []
    for name in (f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns):
        if name not in SELF_ONLY:
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    return out + list(COUNTS) + [OVERHEAD]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the layer functions, records spans and counts."""

    def __init__(self):
        self.names: list = []
        self._name_index: dict = {}
        self.spans: list = []      # [name index, start, end, parent, op]
        self.counts = defaultdict(int)
        self._stack: list = []
        self._op = -1
        self._restore: list = []
        self._op_state()

    # -- op scope ---------------------------------------------------------

    def _op_state(self):
        # objects keyed by id() are held until the op ends, so no id is reused
        self._held: list = []
        self._mass_keys: dict = {}   # id(mass) -> token
        self._mass_tokens: dict = {}  # mass value -> token
        self._validated: set = set()
        self._prefixed: set = set()
        self._lifted: set = set()

    def _mass_key(self, space, delta) -> int:
        """A token equal for equal masses; each mass object is hashed once."""
        token = self._mass_keys.get(id(delta))
        if token is None:
            value = tuple(delta.mass.get(w) for w in space.outcomes)
            token = self._mass_tokens.setdefault(value, len(self._mass_tokens))
            self._mass_keys[id(delta)] = token
            self._held.append(delta)
        return token

    # -- spans ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_index: int) -> int:
        if not self._stack:
            self._op += 1
            self._op_state()
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name_index, time.perf_counter(), None, parent,
                           self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span, used to group one op's calls."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        index = self._intern(name)
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            sid = self._open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- install ----------------------------------------------------------

    def install(self):
        wrappers = {}
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"stoptime.{mod_name}")
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "stoptime" and not mod_name.startswith("stoptime."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- counts, one hook per counted function ------------------------------

    def _count_fuzz_random_instance(self, args, kwargs, inst):
        space = inst.space
        self.counts["fuzz.instances"] += 1
        self.counts["fuzz.atoms"] += len(space.outcomes) * space.n_times
        self.counts["fuzz.breaks"] += sum(
            len(s.breaks) for mu in (inst.mixed, inst.mixed2)
            for s in mu.sections.values())

    def _count_times_validate_distribution(self, args, kwargs, result):
        space = _arg(args, kwargs, 0, "space")
        delta = _arg(args, kwargs, 1, "delta")
        key = (id(space), self._mass_key(space, delta))
        self._held.append(space)
        self.counts["times.validate_distribution.repeats"] += (
            key in self._validated)
        self._validated.add(key)

    def _count_times_sub_measure(self, args, kwargs, result):
        space = _arg(args, kwargs, 0, "space")
        delta = _arg(args, kwargs, 1, "delta")
        grid_index = _arg(args, kwargs, 2, "grid_index")
        n = len(space.outcomes)
        self.counts["times.prefix_terms"] += n * (grid_index + 1)
        key = (id(space), self._mass_key(space, delta))
        if key not in self._prefixed:
            self._prefixed.add(key)
            self._held.append(space)
            self.counts["times.prefix_terms_needed"] += n * space.n_times

    def _count_games_lift(self, args, kwargs, lifted):
        game = _arg(args, kwargs, 0, "game")
        delta = _arg(args, kwargs, 1, "delta2")
        key = (id(game), self._mass_key(game.space, delta))
        self._held.append(game)
        self.counts["games.lift.distinct"] += key not in self._lifted
        self._lifted.add(key)
        self.counts["games.lifted_atoms"] += len(lifted.space.outcomes)

    def _count_games_lift_player2(self, args, kwargs, lifted):
        self.counts["games.lifted_atoms"] += len(lifted.space.outcomes)

    def _count_sampling_sample_many(self, args, kwargs, result):
        self.counts["sampling.draws"] += _arg(args, kwargs, 3, "n")

    def _count_rows(self, rows):
        self.counts["experiment.rows"] += len(rows)
        self.counts["experiment.rows_failed"] += sum(
            r.status != "pass" for r in rows)

    def _count_experiment_check_instance(self, args, kwargs, rows):
        self._count_rows(rows)

    def _count_experiment_monte_carlo_rows(self, args, kwargs, rows):
        self._count_rows(rows)

    def _count_serialize_load_json(self, args, kwargs, result):
        self.counts["serialize.bytes_read"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _count_cli_main(self, args, kwargs, code):
        self.counts[f"cli.exit_{code}"] += 1

    # -- output -----------------------------------------------------------

    def document(self) -> dict:
        """The spans and raw counts, as written to a span file."""
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def reduce(doc: dict) -> dict:
    """Per-layer metrics {name: (value, unit)} from a dumped trace, without
    the overhead, which needs the untraced run."""
    names, spans, counts = doc["names"], doc["spans"], doc["counts"]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child_s = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for sid, (name, start, end, _, _) in enumerate(spans):
        calls[names[name]] += 1
        self_s[names[name]] += (end - start) - child_s[sid]

    ratios = {
        "times.validate_distribution.repeat_ratio": _ratio(
            counts.get("times.validate_distribution.repeats", 0),
            calls["times.validate_distribution"]),
        "times.prefix_useful_ratio": _ratio(
            counts.get("times.prefix_terms_needed", 0),
            counts.get("times.prefix_terms", 0)),
        "games.lift.distinct_ratio": _ratio(
            counts.get("games.lift.distinct", 0), calls["games.lift"]),
    }
    out = {}
    for metric, unit in per_layer_metrics():
        if metric == OVERHEAD[0]:
            continue
        if metric.endswith(".calls"):
            value = calls[metric[:-len(".calls")]]
        elif metric.endswith(".self_s"):
            value = self_s[metric[:-len(".self_s")]]
        elif metric in ratios:
            value = ratios[metric]
        else:
            value = counts.get(metric, 0)
        out[metric] = (value, unit)
    return out


def count_mismatches(a: dict, b: dict) -> list:
    """Every metric other than a time that differs between two reductions."""
    return [name for name, (value, unit) in a.items()
            if unit != "s" and name != OVERHEAD[0]
            and b.get(name, (None,))[0] != value]


def format_table(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    lines = []
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<{width}}  {shown:>14} {unit}")
    return "\n".join(lines)


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    reductions = []
    for path in argv:
        with open(path) as f:
            reductions.append(reduce(json.load(f)))
    print(format_table(reductions[0]))
    if len(reductions) == 2:
        bad = count_mismatches(*reductions)
        print(f"counts differ: {bad}" if bad else "counts repeat exactly")
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
