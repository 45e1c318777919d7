"""The benchmark's workloads: the d2dcap command each one runs and the
checks applied to the tables that command writes.

An operation is one learning realization or one temperature solve; each
check that fails marks the operations it covers as failed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "configs")

# criterion 7's gate on the share of final-window slots spent in an optimum
OCCUPANCY_GATE = 0.8
# the exact-analysis tolerance of criterion 2
EXACT_TOL = 1e-9
FULL_REALIZATIONS = 4


@dataclass
class Outcome:
    """What one command's tables say."""

    attempted: int
    failed: int
    slots: int            # learning slots, or one-slot kernel rows (exact)
    config_hash: str
    direct_refused: int = 0
    problems: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int              # operations one command attempts
    argv: Callable        # (out_dir, seed) -> d2dcap argument list
    check: Callable       # (out_dir, stdout) -> Outcome


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name + ".cfg")


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th distinct input of a run with benchmark seed ``seed``;
    spaced so a command's realization seeds never overlap another's."""
    return seed * 1000 + 10 * k


def tables_digest(out_dir: str) -> tuple:
    """(sha256 over every emitted file's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        total += len(data)
    return h.hexdigest(), total


def _read_table(path: str) -> tuple:
    """(header comments as a dict, rows as dicts) of an emitted CSV."""
    meta = {}
    lines = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# ") and "=" in line:
                key, value = line[2:].split("=", 1)
                meta[key] = value
            elif line:
                lines.append(line)
    head = lines[0].split(",")
    return meta, [dict(zip(head, row.split(","))) for row in lines[1:]]


def _check_learning(out_dir: str, per_realization) -> Outcome:
    from d2dcap.experiments import ExperimentConfig

    config = ExperimentConfig.from_file(os.path.join(out_dir, "config.txt"))
    meta, summary = _read_table(os.path.join(out_dir, "summary.csv"))
    _, finals = _read_table(os.path.join(out_dir, "run_final_profiles.csv"))
    reals = int(summary[0]["realizations"])
    problems = []
    if reals != config.realizations or len(finals) != reals:
        problems.append(f"{len(finals)} final rows for {reals} realizations")
        failed = config.realizations
    else:
        failed = per_realization(config, summary[0], finals, problems)
    return Outcome(attempted=config.realizations, failed=failed,
                   slots=reals * int(summary[0]["horizon"]),
                   config_hash=meta["config_hash"], problems=tuple(problems))


def _occupancy_gate(config, summary, finals, problems) -> int:
    # one realization per command, so the summary mean is that realization's
    occ = float(summary["mean_occupancy"])
    if len(finals) == 1 and occ >= OCCUPANCY_GATE:
        return 0
    problems.append(f"occupancy {occ} below {OCCUPANCY_GATE} or "
                    f"{len(finals)} realizations in one command")
    return len(finals)


def _sum_rate_bound(config, summary, finals, problems) -> int:
    cap = (config.num_uec + config.num_ued) \
        * config.radio_params().max_rate_per_ue
    failed = 0
    for row in finals:
        rate = float(row["final_window_mean"])
        if not (math.isfinite(rate) and 0.0 < rate <= cap):
            problems.append(f"realization {row['realization']}: final-window "
                            f"sum rate {rate} outside (0, {cap}]")
            failed += 1
    return failed


def _check_exact(out_dir: str, stdout: str) -> Outcome:
    meta, rows = _read_table(os.path.join(out_dir, "stationary.csv"))
    by_tau: dict = {}
    for row in rows:
        by_tau.setdefault(row["tau"], []).append(row)
    problems = []
    failed = 0
    refused = 0
    for tau, group in by_tau.items():
        gibbs = [float(r["pi_gibbs"]) for r in group]
        direct = [float(r["pi_direct"]) for r in group]
        bad = abs(math.fsum(gibbs) - 1.0) > EXACT_TOL
        if any(math.isnan(p) for p in direct):
            refused += 1
        else:
            gap = max(abs(a - b) for a, b in zip(direct, gibbs))
            bad = bad or gap > EXACT_TOL \
                or abs(math.fsum(direct) - 1.0) > EXACT_TOL
        if bad:
            problems.append(f"tau {tau}: row sums or direct-Gibbs gap out "
                            f"of tolerance {EXACT_TOL}")
            failed += 1
    if "verdict: PASS" not in stdout:
        problems.append("stability verdict is not PASS")
        failed = len(by_tau)
    return Outcome(attempted=len(by_tau), failed=failed, slots=len(rows),
                   config_hash=meta["config_hash"], direct_refused=refused,
                   problems=tuple(problems))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-decreasing", ops=1,
            argv=lambda out, seed: [
                "run-blla", "--config", config_path("desk-decreasing"),
                "--seed", str(seed), "--out", out],
            check=lambda out, stdout: _check_learning(out, _occupancy_gate)),
        Workload(
            name="full-preset", ops=FULL_REALIZATIONS,
            argv=lambda out, seed: [
                "run-blla", "--preset", "full",
                "--realizations", str(FULL_REALIZATIONS),
                "--seed", str(seed), "--out", out],
            check=lambda out, stdout: _check_learning(out, _sum_rate_bound)),
        Workload(
            name="exact-729", ops=5,
            argv=lambda out, seed: [
                "analyze-stationary", "--config", config_path("exact-729"),
                "--seed", str(seed), "--out", out],
            check=_check_exact),
    )
}
