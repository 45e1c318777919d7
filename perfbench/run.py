"""d2dcap benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds nothing: the package is
imported from ``src/``. Set-up time is measured in fresh processes that only
import ``d2dcap.cli``; the workload itself runs in a separate worker process
(worker.py), one command at a time. With ``--trace 0`` the last line of
standard output reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run. A full report, with the
machine, library versions, table digests and per-command records, goes to
``perfbench/out/<workload>-seed<n>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
PROBE = ("import time; t = time.perf_counter(); import d2dcap.cli; "
         "print(repr(time.perf_counter() - t))")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_probe(timeout: float) -> float:
    """Seconds to import d2dcap.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": None,
            "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {k: _read(os.path.join(d, k))
                      for k in ("level", "type", "size")}
        except OSError:
            continue
        if fields["type"] != "Instruction":
            info["caches"][f"L{fields['level']}"] = fields["size"]
    return info


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def source_identity() -> dict:
    """Git commit when the tree is a checkout, and a digest of the sources
    either way (the benchmark may run from an exported tree)."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "d2dcap", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    configs = {}
    for path in sorted(glob.glob(os.path.join(HERE, "configs", "*.cfg"))):
        with open(path, "rb") as fh:
            configs[os.path.basename(path)] = \
                hashlib.sha256(fh.read()).hexdigest()[:16]
    return {"git_commit": commit, "source_sha256": h.hexdigest(),
            "config_files": configs}


def end_to_end(commands: list, setup: list, peak_rss_mb: float) -> dict:
    return {
        "run_s": (statistics.median(c["wall_s"] for c in commands), "s"),
        "slots_per_s": (statistics.median(c["slots"] / c["wall_s"]
                                          for c in commands), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")
    if not os.path.isfile(os.path.join(SRC, "d2dcap", "cli.py")):
        print(f"perfbench: no d2dcap sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = os.path.join(OUT, tag + ".worker.json")
    try:
        setup = [setup_probe(timeout=30.0) for _ in range(SETUP_PROBES)]
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--result", result_file],
            env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - start))
        with open(result_file) as fh:
            worker = json.load(fh)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(result_file):
            os.remove(result_file)

    commands = worker["commands"]
    setup.append(worker["import_s"])
    if args.trace:
        metrics = worker["per_layer"]
    else:
        metrics = end_to_end([c for c in commands if "warmup" not in c],
                             setup, worker["peak_rss_mb"])
    attempted = sum(c["attempted"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "libraries": worker["libraries"],
        "source": source_identity(),
        "config_hashes": sorted({c["config_hash"] for c in commands}),
        "digests": {str(c["seed"]): c.get("digest") for c in commands},
        "setup_s": setup, "missing_boundaries": worker["missing_boundaries"],
        "fail_frac": failed / attempted,
        "span_file": worker.get("span_file"),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "commands": commands,
    }
    report_file = os.path.join(OUT, tag + ".json")
    with open(report_file, "w") as fh:
        json.dump(report, fh, indent=1)

    for c in commands:
        for problem in c["problems"]:
            print(f"check failed (seed {c['seed']}): {problem}")
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:>16.6g} {u}")
    print(f"{len(commands)} commands, {failed}/{attempted} operations failed; "
          f"report in {os.path.relpath(report_file, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
