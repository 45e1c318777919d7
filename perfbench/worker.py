"""Workload process: imports d2dcap.cli, then runs one workload command at
a time through ``d2dcap.cli.main`` until the measuring time is spent.

The loop is closed with one client: a command starts only after the
previous one returned. Every command gets its own input, so the run's
medians average over trajectories; the untimed warm-up command repeats the
first input, so every run compares two tables' digests. A traced run runs
each input untraced and traced, alternating which goes first, so the traced
tables are compared with the untraced ones and the difference in wall time
is the tracing overhead.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --root DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from tracing import Tracer, command_totals, layer_metrics
from workloads import WORKLOADS, Outcome, input_seed, tables_digest

MIN_COMMANDS = 3      # timed commands of an untraced run
MIN_PAIRS = 2         # traced run: untraced + traced, per input
HARD_STOP_S = 120.0   # never start a command after this, whatever the minimum


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_command(cli, workload, seed: int, out_dir: str,
                tracer: Tracer | None) -> dict:
    """Run one command, time it, and check the tables it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(out_dir, seed)
    stdout = io.StringIO()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    rec = {"seed": seed, "traced": tracer is not None, "wall_s": wall,
           "cpu_s": cpu, "rc": rc, "argv": argv}
    outcome = None
    if rc == 0:
        try:
            outcome = workload.check(out_dir, stdout.getvalue())
            rec["digest"], rec["bytes"] = tables_digest(out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"perfbench: unreadable tables: {exc!r}", file=sys.stderr)
    if outcome is None:
        outcome = Outcome(attempted=workload.ops, failed=workload.ops,
                          slots=0, config_hash="",
                          problems=(f"command exited with {rc}",))
    rec.update(attempted=outcome.attempted, failed=outcome.failed,
               slots=outcome.slots, config_hash=outcome.config_hash,
               direct_refused=outcome.direct_refused,
               problems=list(outcome.problems))
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def closed_loop(cli, workload, seed: int, seconds: float, trace: bool,
                out_root: str) -> tuple:
    """Commands until the next one would end past ``seconds``."""
    tracer = Tracer() if trace else None
    records, spans = [], []

    def run_input(k, traced):
        # the path lands in config.txt and the config hash, so an input
        # always writes to the same relative path
        out_dir = os.path.join(out_root, f"input{k}")
        rec = run_command(cli, workload, input_seed(seed, k), out_dir,
                          tracer if traced else None)
        if traced:
            cmd_spans = tracer.take()
            rec["totals"] = command_totals(cmd_spans)
            spans.append(cmd_spans)
        return rec

    # untimed: lazy set-up in numpy, OpenBLAS and the allocator finishes
    # here, and its tables are the reference for the first timed command
    warmup = run_input(0, False)
    warmup["warmup"] = True
    records.append(warmup)
    start = time.perf_counter()
    k = 0
    while True:
        if not trace:
            order = (False,)
        else:  # alternate which side of a pair goes first
            order = (False, True) if k % 2 == 0 else (True, False)
        for traced in order:
            records.append(run_input(k, traced))
        k += 1
        elapsed = time.perf_counter() - start
        step = elapsed / k
        if k >= (MIN_PAIRS if trace else MIN_COMMANDS) \
                and elapsed + step > seconds or elapsed > HARD_STOP_S:
            break
    return records, spans, (tracer.missing if tracer else [])


def mark_mismatches(records: list) -> None:
    """Tables of one input must be byte-identical across its commands."""
    first: dict = {}
    for rec in records:
        if "digest" not in rec:
            continue
        ref = first.setdefault(rec["seed"], rec["digest"])
        if rec["digest"] != ref:
            rec["problems"].append(f"tables differ from the first command "
                                   f"with seed {rec['seed']}")
            rec["failed"] = rec["attempted"]


def library_versions() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import d2dcap.cli as cli
    import_s = time.perf_counter() - t0
    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"perfbench: d2dcap imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    out_root = os.path.relpath(os.path.join(os.path.dirname(args.result),
                                            f"tables-{args.workload}"),
                               args.root)
    records, spans, missing = closed_loop(
        cli, WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    mark_mismatches(records)

    result = {"import_s": import_s,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "libraries": library_versions(),
              "missing_boundaries": missing}
    if args.trace:
        timed = [r for r in records if "warmup" not in r]
        traced = [r for r in timed if r["traced"]]
        untraced = [r for r in timed if not r["traced"]]
        result["per_layer"] = layer_metrics(traced, untraced)
        span_file = os.path.join(os.path.dirname(args.result),
                                 f"{args.workload}.spans.jsonl.gz")
        with gzip.open(span_file, "wt", compresslevel=1) as fh:
            for cmd, cmd_spans in enumerate(spans):
                for s in cmd_spans:
                    fh.write(json.dumps([cmd] + s) + "\n")
        result["span_file"] = span_file
    for r in records:
        r.pop("totals", None)
    result["commands"] = records
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
