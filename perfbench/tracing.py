"""Spans around d2dcap's layer boundaries, installed from outside the
package by swapping module and class attributes for timing wrappers.

A span is [name, start, end, parent index, observation]. Spans stay in
memory while a command runs; the worker writes them out when the run ends.
A span's self time is its duration minus the durations of its direct
children, which is exact because the program is single-threaded Python.
"""

from __future__ import annotations

import importlib
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _coefficients(args, kwargs, result):
    return int(math.prod(_arg(args, kwargs, 1, "shape")))


def _utility_call(args, kwargs, result):
    """(co-channel size m, samples) of one utility estimate."""
    profile = _arg(args, kwargs, 1, "profile")
    player = _arg(args, kwargs, 2, "player")
    ch = profile.channels
    return int((ch == ch[player]).sum()), int(_arg(args, kwargs, 3,
                                                   "n_samples"))


def _trajectory(args, kwargs, result):
    """(slots, self-trials, trials, accepted, max samples per phase)."""
    prev = [result.initial_channels] + list(result.profiles[:-1])
    self_trials = sum(int(prev[k][result.player[k]] == result.trial[k])
                      for k in range(result.horizon))
    return (result.horizon, self_trials, result.horizon - self_trials,
            int(result.accepted.sum()), int(result.n_samples.max()))


def _count(args, kwargs, result):
    return len(result)


# (span name, owner, attribute, observation). The owner is where the
# calling layer looks the name up, so the wrapper sees every call.
BOUNDARIES = (
    ("cli.main", "d2dcap.cli", "main", None),
    ("experiments.run_experiment", "d2dcap.cli", "run_experiment", None),
    ("experiments.analyze_stationary", "d2dcap.cli", "analyze_stationary",
     None),
    ("experiments.write", "d2dcap.experiments:SweepResult", "write", None),
    ("experiments.write", "d2dcap.experiments:StationaryReport",
     "to_csv_lines", None),
    ("experiments.write", "d2dcap.experiments", "_write_lines", None),
    ("radio.generate_topology", "d2dcap.experiments", "generate_topology",
     None),
    ("learning.run", "d2dcap.experiments", "run_blla", _trajectory),
    ("learning.run", "d2dcap.experiments", "run_br", _trajectory),
    ("learning.step", "d2dcap.learning", "blla_step", None),
    ("learning.step", "d2dcap.learning", "better_response_step", None),
    ("game.utility_mean", "d2dcap.learning", "utility_mean", _utility_call),
    ("radio.sample_fading_block", "d2dcap.game", "sample_fading_block",
     _coefficients),
    ("game.potential_exact", "d2dcap.game:CapGame", "potential_exact", None),
    ("game.utility_exact", "d2dcap.game:CapGame", "utility_exact", None),
    ("analysis.enumerate_profiles", "d2dcap.analysis", "enumerate_profiles",
     _count),
    ("analysis.brute_force_optimum", "d2dcap.analysis", "brute_force_optimum",
     None),
    ("analysis.exact_transition_matrix", "d2dcap.analysis",
     "exact_transition_matrix", None),
    ("analysis.stationary_direct", "d2dcap.analysis", "stationary_direct",
     None),
    ("analysis.gibbs_distribution", "d2dcap.analysis", "gibbs_distribution",
     None),
    ("analysis.stationary_tree", "d2dcap.analysis", "stationary_tree", None),
    ("analysis.stochastically_stable_states", "d2dcap.analysis",
     "stochastically_stable_states", None),
)


def _owner(path: str):
    """The module, or the class in it, that holds a boundary; None when
    this version of d2dcap has no such class."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Collects spans while installed; ``take`` hands them over."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.missing: list = []  # boundaries this version of d2dcap lacks

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[4] = observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        self.missing = []
        try:
            for name, owner_path, attr, observe in BOUNDARIES:
                owner = _owner(owner_path)
                fn = getattr(owner, "__dict__", {}).get(attr)
                if fn is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, observe))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def take(self) -> list:
        out = list(self.spans)
        self.spans.clear()
        return out


# ----------------------------------------------------------------------
# per-command totals and per-layer metrics

_M_BUCKETS = ("m1", "m2", "m3", "m4", "m5plus")
_ENTRY = ("experiments.run_experiment", "experiments.analyze_stationary")


def command_totals(spans: list) -> dict:
    """Counts and seconds of one traced command, keyed by quantity."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def within(i, names):
        """Name of the nearest enclosing span among ``names``, or None."""
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return spans[p][0]
            p = spans[p][3]
        return None

    t: dict = defaultdict(float)
    t["realization_s"] = []
    for i, (name, _, _, _, obs) in enumerate(spans):
        own = dur[i] - child[i]
        t[name + ".calls"] += 1
        t[name + ".s"] += dur[i]
        t[name + ".self_s"] += own
        if name == "radio.sample_fading_block":
            t["coeffs"] += obs
        elif name == "game.utility_mean":
            m, samples = obs
            bucket = _M_BUCKETS[min(m, 5) - 1]
            t["samples"] += samples
            t["samples." + bucket] += samples
            t["utility_self_s." + bucket] += own
            if within(i, ("learning.run",)):
                t["learning.inner_s"] += dur[i]
        elif name == "game.potential_exact":
            if within(i, ("learning.run",)):
                t["learning.inner_s"] += dur[i]
        elif name == "learning.run":
            t["realization_s"].append(dur[i])
            for key, v in zip(("slots", "self_trials", "trials", "accepted"),
                              obs):
                t[key] += v
            t["max_samples"] = max(t["max_samples"], obs[4])
        elif name == "analysis.enumerate_profiles":
            t["states"] = max(t["states"], obs)
        elif name == "analysis.gibbs_distribution":
            if not within(i, ("analysis.stochastically_stable_states",)):
                t["gibbs_s"] += dur[i]
        elif name == "analysis.brute_force_optimum":
            outer = within(i, ("analysis.stochastically_stable_states",)
                           + _ENTRY)
            if outer == "experiments.run_experiment":
                t["optimum_s"] += dur[i]
            elif outer == "experiments.analyze_stationary":
                t["brute_force_s"] += dur[i]
        elif name == "experiments.write":
            if not within(i, ("experiments.write",)):
                t["emit_s"] += dur[i]
    return t


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics of a traced run.

    ``traced`` and ``untraced`` are command records; each traced record
    carries its ``totals``. Counts come from the first traced command, so
    they repeat exactly for a given seed; times pool every traced command.
    """
    first = traced[0]["totals"]
    tot: dict = defaultdict(float)
    realization_s = []
    for rec in traced:
        for k, v in rec["totals"].items():
            if k == "realization_s":
                realization_s.extend(v)
            else:
                tot[k] += v
    per_cmd = 1.0 / len(traced)
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    built = first["analysis.exact_transition_matrix.calls"]
    kernel_states = first["states"] if built else 0
    m = {
        "radio.fading.coeffs": (first["coeffs"], "count"),
        "radio.fading.ns_per_coeff": (
            _ratio(tot["radio.sample_fading_block.self_s"], tot["coeffs"],
                   1e9), "ns"),
        "radio.topology_ms": (
            tot["radio.generate_topology.s"] * per_cmd * 1e3, "ms"),
        "game.utility.calls": (first["game.utility_mean.calls"], "count"),
        "game.utility.samples": (first["samples"], "count"),
    }
    for b in _M_BUCKETS:
        m["game.utility.ns_per_sample." + b] = (
            _ratio(tot["utility_self_s." + b], tot["samples." + b], 1e9),
            "ns")
    m.update({
        "game.utility.us_per_call": (
            _ratio(tot["game.utility_mean.self_s"],
                   tot["game.utility_mean.calls"], 1e6), "us"),
        "game.potential_exact.calls": (
            first["game.potential_exact.calls"], "count"),
        "game.potential_exact.us_per_call": (
            _ratio(tot["game.potential_exact.s"],
                   tot["game.potential_exact.calls"], 1e6), "us"),
        "game.utility_exact.calls": (
            first["game.utility_exact.calls"], "count"),
        "game.utility_exact.us_per_call": (
            _ratio(tot["game.utility_exact.s"],
                   tot["game.utility_exact.calls"], 1e6), "us"),
        "learning.slots": (first["slots"], "count"),
        "learning.trials": (first["trials"], "count"),
        "learning.self_trial_frac": (
            _ratio(first["self_trials"], first["slots"]), "ratio"),
        "learning.accept_rate": (
            _ratio(first["accepted"], first["trials"]), "ratio"),
        "learning.max_samples_per_phase": (first["max_samples"], "count"),
        "learning.slot_overhead_us": (
            _ratio(tot["learning.run.s"] - tot["learning.inner_s"],
                   tot["slots"], 1e6), "us"),
        "analysis.states": (first["states"], "count"),
        "analysis.kernel_bytes": (kernel_states ** 2 * 8, "bytes"),
        "analysis.kernel_build_s": (
            tot["analysis.exact_transition_matrix.s"] * per_cmd, "s"),
        "analysis.direct_solve_s": (
            tot["analysis.stationary_direct.s"] * per_cmd, "s"),
        "analysis.gibbs_s": (tot["gibbs_s"] * per_cmd, "s"),
        "analysis.stability_s": (
            tot["analysis.stochastically_stable_states.s"] * per_cmd, "s"),
        "analysis.brute_force_s": (tot["brute_force_s"] * per_cmd, "s"),
        "analysis.direct_refused": (traced[0]["direct_refused"], "count"),
        "experiments.realization_s.p50": (
            statistics.median(realization_s) if realization_s else 0.0, "s"),
        "experiments.realization_s.count": (len(realization_s), "count"),
        "experiments.optimum_s": (tot["optimum_s"] * per_cmd, "s"),
        "experiments.emit_s": (tot["emit_s"] * per_cmd, "s"),
        "experiments.bytes_written": (traced[0].get("bytes", 0), "bytes"),
        "experiments.aggregate_s": (
            sum(tot[e + ".self_s"] for e in _ENTRY) * per_cmd, "s"),
        "cli.overhead_ms": (tot["cli.main.self_s"] * per_cmd * 1e3, "ms"),
        "proc.cpu_s": (statistics.median(r["cpu_s"] for r in untraced), "s"),
        "proc.cpu_util": (
            statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced),
            "ratio"),
        "trace.run_s": (wall_t, "s"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
    })
    # counts are whole numbers even where they were summed as floats
    return {k: (int(v) if u in ("count", "bytes") else v, u)
            for k, (v, u) in m.items()}
