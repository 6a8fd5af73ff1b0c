"""ccl benchmark: runs a workload in rounds and prints its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each round is a fresh single-threaded
child process (perfbench/workload.py) with its own empty cache directory
under .perfbench_tmp/, which is removed afterwards.  A round starts only
when it is expected to end within --seconds; there is at least one round
(two when traced).  A round's times are scaled to a host that runs one
slice of the reference loop (perfbench/refloop.py) in REF_SLICE_S, using
the slices timed between the round's commands.  With --trace 0 the last
line holds the end-to-end metrics (medians over rounds); with --trace 1 the
first round runs untraced and the others traced, and the last line holds
the per-layer metrics, including the tracing overhead.
Every verdict is checked against perfbench/reference.py; see README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "h4-cached", "a5-default")
RUN_DEADLINE_S = 170.0
# Reference-loop slice time of the nominal host the reported times refer to.
REF_SLICE_S = 0.010
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_units(kind: str) -> dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def run_round(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CCL_CACHE_DIR=str(cache_dir),
               PYTHONHASHSEED="0", **{name: "1" for name in THREAD_CAPS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), workload, str(seed),
             "1" if traced else "0"],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round passed the {RUN_DEADLINE_S:g} s deadline") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited {proc.returncode}")
    rnd = json.loads(lines[-1])
    speed = REF_SLICE_S / rnd["ref_slice_s"]
    rnd["wall_raw_s"], rnd["setup_raw_s"] = rnd["wall_s"], rnd["setup_s"]
    rnd["wall_s"] *= speed
    rnd["setup_s"] *= speed
    if traced:
        rnd["layers"]["host.ref_slice_ms"] = 1e3 * rnd["ref_slice_s"]
        rnd["layers"]["host.wall_raw_s"] = rnd["wall_raw_s"]
    return rnd


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of one workload; returns the result object run.py prints."""
    if not (ROOT / "src" / "ccl" / "__init__.py").is_file():
        raise BenchError(f"no ccl sources under {ROOT / 'src'}")
    compileall.compile_dir(ROOT / "src" / "ccl", quiet=1)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    rounds = [run_round(workload, seed, False, deadline)] if trace else []
    last_s = 0.0
    # Start a round only when it is expected to end within --seconds.
    while len(rounds) < 1 + trace or time.monotonic() - start + last_s <= seconds:
        t0 = time.monotonic()
        rounds.append(run_round(workload, seed, trace, deadline))
        last_s = time.monotonic() - t0

    problems = [p for r in rounds for p in r["problems"]]
    for key in ("digest", "verdicts", "failed"):
        if len({r[key] for r in rounds}) != 1:
            problems.append(f"rounds differ in {key}: {[r[key] for r in rounds]}")
    if trace:
        untraced, traced = rounds[0], rounds[1:]
        for r in traced:
            r["layers"]["trace.overhead_s"] = r["wall_s"] - untraced["wall_s"]
        units = metric_units("per_layer")
        for name, unit in units.items():      # work counts repeat exactly
            values = [r["layers"][name] for r in traced]
            if unit == "count" and len(set(values)) != 1:
                problems.append(f"traced rounds differ in {name}: {values}")
        rows = [r["layers"] for r in traced]
    else:
        units = metric_units("end_to_end")
        rows = rounds
    metrics = {name: {"value": statistics.median(row[name] for row in rows), "unit": unit}
               for name, unit in units.items()}
    for p in problems:
        print(f"CHECK FAILED [{workload}]: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["verdicts"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
            "rounds": len(rounds),
            "raw": {key: statistics.median(r[key] for r in rounds)
                    for key in ("wall_raw_s", "setup_raw_s", "ref_slice_s")},
            "machine": rounds[-1]["machine"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="benchmark seed; ccl's --seed for catalog and h4-cached")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be a non-negative 63-bit integer")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            machine = res.pop("machine")
            if args.trace:
                print(f"{name:<11s} machine {machine}")
            for metric, m in res["metrics"].items():
                print(f"{name:<11s} {metric:<26s} {m['value']:>14.6g} {m['unit']}")
            raw = res.pop("raw")
            print(f"{name:<11s} unscaled: wall {raw['wall_raw_s']:.4g} s, set-up "
                  f"{raw['setup_raw_s']:.4g} s, reference slice "
                  f"{1e3 * raw['ref_slice_s']:.4g} ms (scaled to {1e3 * REF_SLICE_S:g} ms)")
            print(f"{name:<11s} verdicts attempted {res['attempted']}, failed "
                  f"{res['failed']}, rounds {res.pop('rounds')}, "
                  f"correct {str(res['correct']).lower()}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
