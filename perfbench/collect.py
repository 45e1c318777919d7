"""Repeat the benchmark over several seeds and summarise each end-to-end
metric by its median, quartiles and spread (interquartile distance over
the median), next to the bound BENCHMARK.json gives it.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10]
        [--baseline]

Runs are sequential, one workload after another. With ``--baseline`` it
also makes one traced run per workload (first seed) and writes
perfbench/baseline.json; otherwise the summary goes to
perfbench/out/collect.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=200, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(HERE, "out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [run(spec, workload, s, 0) for s in seeds]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        ok = ok and all(r["correct"] for r in results)
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else \
                "  <-- spread not below a third of the bound"
            print(f"{workload:16s} {name:12s} median {stats['median']:10.5g} "
                  f"{stats['unit']:4s} spread {stats['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.baseline:
            traced = run(spec, workload, seeds[0], 1)
            ok = ok and traced["correct"]
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = traced["metrics"]
            # the traced run, a separate process, must reproduce the
            # untraced run's tables input by input
            untraced_digests = report(workload, seeds[0], 0)["digests"]
            traced_digests = report(workload, seeds[0], 1)["digests"]
            common = sorted(set(untraced_digests) & set(traced_digests))
            same = all(untraced_digests[k] == traced_digests[k]
                       for k in common)
            entry["digests_across_runs"] = {"inputs": len(common),
                                            "match": same}
            ok = ok and same and bool(common)
            print(f"{workload:16s} tables of {len(common)} inputs "
                  f"{'match' if same else 'DIFFER'} across runs", flush=True)
        summary["workloads"][workload] = entry
        for key in ("machine", "libraries", "source"):
            summary.setdefault(key, report(workload, seeds[0], 0)[key])
        print(f"{workload:16s} {entry['failed']}/{entry['attempted']} "
              "operations failed", flush=True)

    out = os.path.join(HERE, "baseline.json") if args.baseline \
        else os.path.join(HERE, "out", "collect.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
