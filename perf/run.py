#!/usr/bin/env python3
"""The repo benchmark: six workloads, end-to-end metrics, per-layer spans + micro-timings.

Two ways in, one measurement path:

* ``python3 perf/run.py [--seed N] [--workloads a,b] [--no-trace] [--no-micro]
  [--repeats k] [--out FILE]`` — the whole set: every workload untraced
  (end-to-end metrics), traced (per-layer metrics, time budget) and its
  micro-timings; prints every metric as ``workload name value unit``, runs the
  correctness checks, writes the result JSON, exits non-zero on a failed check.
* ``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` — the
  driver contract of ``BENCHMARK.json``: one workload, one run; the last line
  of stdout is ``{"correct", "attempted", "failed", "metrics"}`` with the gated
  end-to-end metrics (``--trace 0``) or every other metric (``--trace 1``).

Every pass runs in a fresh Python subprocess (``child.py``) with BLAS pinned
to one thread, one after the other: a closed loop with one driver.  README.md
has the protocol, the tables and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

sys.path.insert(0, str(PERF))

import metrics  # noqa: E402
import spec as tables  # noqa: E402
import workloads  # noqa: E402

#: fresh set-ups per run; ``setup_s`` is their median
SETUPS_PER_RUN = 3
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
UNITS = {m.name: m.unit for m in tables.END_TO_END + tables.PER_LAYER}
GATED = [m.name for m in tables.END_TO_END if m.gated]


def benchmark_json() -> Dict[str, Any]:
    """``BENCHMARK.json``: the driver contract's projection of the tables."""
    ungated = [m for m in tables.END_TO_END if not m.gated]
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": workloads.REFERENCE_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in tables.END_TO_END if m.gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in ungated + tables.PER_LAYER
        ],
    }


def child_env() -> Dict[str, str]:
    """The child's environment: BLAS pinned before numpy is imported (spawned
    pool workers inherit it), the program importable, hashing repeatable."""
    env = dict(os.environ)
    for key in THREAD_PINS:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, seed: int, timed: int = 0, mode: str = "full", trace: int = 0) -> Dict[str, Any]:
    """One pass in a fresh process; returns the observations it printed."""
    command = [
        sys.executable, str(PERF / "child.py"), "--workload", name, "--seed", str(seed),
        "--timed", str(timed), "--mode", mode, "--trace", str(trace), "--out-dir", str(OUT),
    ]
    proc = subprocess.Popen(
        command, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Take the whole session down (pool workers included) and reap it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: child pass ({mode}, trace={trace}) exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def pins_in_effect(fingerprint: Dict[str, Any]) -> bool:
    return all(fingerprint["threads"].get(key) == "1" for key in THREAD_PINS)


def run_workload(
    name: str, seed: int, rounds_for: Callable[[str], int], trace: bool, micro: bool, setups: int,
    plain_passes: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """One run of one workload: the untraced pass (+ extra set-ups) and, with
    ``trace``, the traced pass, the micro-timings and the cross-checks.

    ``rounds_for(workload)`` gives the timed rounds of this invocation;
    ``plain_passes`` caches untraced passes by workload, so a serial twin
    already measured in this invocation is not run again.
    """
    spec = workloads.WORKLOADS[name]
    timed = rounds_for(name)
    started = time.perf_counter()
    plain = plain_passes[name] = run_child(name, seed, timed)
    setup_times = [plain["stamps"]["warm"]]
    for _ in range(setups - 1):
        setup_times.append(run_child(name, seed, mode="setup")["stamps"]["warm"])

    # A smoke run shorter than the sized one cannot be held to the target.
    problems = metrics.checks(plain, spec, reach_target=timed >= spec["min_timed"])
    if not pins_in_effect(plain["fingerprint"]):
        problems.append("BLAS thread pins are not in effect in the child")
    attempted, failed = metrics.operations(plain, spec)
    result: Dict[str, Any] = {
        "timed_rounds": timed,
        "target": spec["target"],
        "end_to_end": metrics.end_to_end(plain, setup_times, spec["target"]),
        "per_layer": {},
        "micro": {},
        "digest": plain["digest"],
        "attempted": attempted,
        "failed": failed,
        "fingerprint": plain["fingerprint"],
        "problems": problems,
    }
    if trace:
        traced = run_child(name, seed, timed, trace=1)
        result["traced_digest"] = traced["digest"]
        if traced["digest"] != plain["digest"]:
            problems.append("traced run's final parameters differ from the untraced run's")
        for key in ("comm_bytes", "client_steps", "participants", "accuracy"):
            if traced[key] != plain[key]:
                problems.append(f"traced run's per-round {key} differ from the untraced run's")
        reference = None
        twin = spec.get("digest_equals")
        if twin is not None:
            reference = plain_passes.get(twin)
            if reference is None:
                reference = plain_passes[twin] = run_child(twin, seed, rounds_for(twin))
            if reference["digest"] != plain["digest"]:
                problems.append(f"final parameters differ from {twin}'s (process backend must be bitwise serial)")
        if micro:
            result["micro"] = run_child(name, seed, mode="micro")["micro"]
        result["per_layer"] = metrics.per_layer(plain, traced, result["micro"], spec, reference)
        result["budget"] = metrics.budget(traced, spec)
    result["exact"] = {
        key: result["end_to_end"].get(key, result["per_layer"].get(key))
        for key in tables.EXACT
        if key in result["end_to_end"] or key in result["per_layer"]
    }
    result["wall_s"] = time.perf_counter() - started
    return result


def print_metrics(name: str, values: Dict[str, float]) -> None:
    for metric, value in values.items():
        print(f"{name:<18} {metric:<42} {value:>14.6g} {UNITS[metric]}")


def print_budget(name: str, budget: Dict[str, Any]) -> None:
    wall = budget["round_wall_s"]

    def row(label: str, seconds: float) -> None:
        print(f"    {label:<40} {seconds:>12.6f} s {100.0 * seconds / wall:>6.1f}%")

    print(f"  time budget of {name} (traced run, per-round medians)")
    row("round wall", wall)
    print("   runner phases (RoundResult.phase_seconds)")
    for phase, seconds in budget["phases"].items():
        row(f"runner.{phase}", seconds)
    print("   layer self times (spans)")
    for layer, seconds in budget["layers"].items():
        if seconds >= 0.001 * wall:
            row(layer, seconds)
    row("unaccounted", budget["unaccounted_s"])


def contract_main(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace T``: one run, one JSON line."""
    name = args.workload
    result = run_workload(
        name, args.seed, lambda w: workloads.timed_rounds(workloads.WORKLOADS[w], args.seconds),
        trace=bool(args.trace), micro=True, setups=SETUPS_PER_RUN, plain_passes={},
    )
    print_metrics(name, result["end_to_end"])
    print_metrics(name, result["per_layer"])
    if "budget" in result:
        print_budget(name, result["budget"])
    for problem in result["problems"]:
        print(f"CHECK FAILED {name}: {problem}")
    if args.trace:
        values = {k: v for k, v in result["end_to_end"].items() if k not in GATED}
        values.update(result["per_layer"])
    else:
        values = {k: result["end_to_end"][k] for k in GATED}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }))
    return 0


def merge_repeats(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median and quartiles across ``--repeats`` fresh-process runs."""
    merged = dict(runs[0])
    if len(runs) == 1:
        return merged
    merged["end_to_end"] = {}
    for key in runs[0]["end_to_end"]:
        values = [run["end_to_end"][key] for run in runs]
        q1, median, q3 = metrics.quartiles(values)
        merged["end_to_end"][key] = {"median": median, "q1": q1, "q3": q3, "values": values}
    merged["per_layer"] = {
        key: metrics.quartiles([run["per_layer"][key] for run in runs])[1]
        for key in runs[0]["per_layer"]
    }
    merged["problems"] = sorted({p for run in runs for p in run["problems"]})
    if len({run["digest"] for run in runs}) > 1:
        merged["problems"].append("final parameters differ between repeats of one seed")
    merged["wall_s"] = sum(run["wall_s"] for run in runs)
    return merged


def set_main(args: argparse.Namespace) -> int:
    """The whole set (or ``--workloads``): print, check, write the result JSON."""
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2

    def rounds_for(workload: str) -> int:
        return 2 if args.quick else workloads.timed_rounds(workloads.WORKLOADS[workload], args.seconds)

    started = time.perf_counter()
    results: Dict[str, Any] = {}
    plain_passes: Dict[str, Dict[str, Any]] = {}
    for name in names:
        spec, timed = workloads.WORKLOADS[name], rounds_for(name)
        runs = [
            run_workload(
                name, args.seed, rounds_for, trace=not args.no_trace, micro=not args.no_micro,
                setups=1 if args.quick else SETUPS_PER_RUN, plain_passes=plain_passes,
            )
            for _ in range(args.repeats)
        ]
        row = results[name] = merge_repeats(runs)
        print(f"== {name}: {spec['warmup']}+{timed} rounds, seed {args.seed}, target "
              f"{spec['target']}, {len(runs)} run(s), {row['wall_s']:.1f} s")
        print_metrics(name, {
            k: v["median"] if isinstance(v, dict) else v for k, v in row["end_to_end"].items()
        })
        if args.repeats > 1:
            for key, v in row["end_to_end"].items():
                print(f"{name:<18} {key:<42} q1 {v['q1']:.6g}  q3 {v['q3']:.6g}  (n={len(v['values'])})")
        print(f"  ({timed} timed-round samples; runner.round_s_tail is their "
              f"p{metrics.tail_percentile(timed)})")
        print_metrics(name, row["per_layer"])
        for metric, stats in row["micro"].items():
            print(f"{name:<18} micro {metric:<36} min {stats['min']:.5g}  median {stats['median']:.5g}"
                  f"  iqr {stats['iqr']:.3g}  (k={stats['repeats']})")
        if "budget" in row:
            print_budget(name, row["budget"])
        print(f"  checks: {'ok' if not row['problems'] else '; '.join(row['problems'])}"
              f"   digest {row['digest'][:16]}   ops {row['attempted']} attempted, {row['failed']} failed")

    fingerprints = [row.pop("fingerprint") for row in results.values()]
    if not all(pins_in_effect(fp) for fp in fingerprints):
        print("refusing to record a result: the BLAS thread pins are not in effect", file=sys.stderr)
        return 1
    fingerprint = {k: v for k, v in fingerprints[0].items() if k != "sizes"}
    fingerprint["git_sha"] = git_sha()
    fingerprint["sizes"] = {name: fp["sizes"] for name, fp in zip(results, fingerprints)}
    failed = {name: row["problems"] for name, row in results.items() if row["problems"]}
    summary = {
        "workloads": len(results),
        "wall_s": time.perf_counter() - started,
        "failed_checks": failed,
        "claim": None,
    }
    document = {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats, "quick": args.quick,
        "fingerprint": fingerprint, "workloads": results, "summary": summary,
    }
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"== {len(results)} workloads in {summary['wall_s']:.0f} s; result written to {out}; "
          f"{'all checks passed' if not failed else 'FAILED CHECKS: ' + json.dumps(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="feeds data generation, model init and FLConfig.seed")
    parser.add_argument("--seconds", type=float, default=workloads.REFERENCE_SECONDS,
                        help="length of the timed window the round counts are scaled to")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="driver contract: run this one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver contract: 1 = per-layer metrics")
    parser.add_argument("--workloads", help="comma-separated subset of the set")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced passes (no per-layer metrics)")
    parser.add_argument("--no-micro", action="store_true", help="skip the micro-timings")
    parser.add_argument("--repeats", type=int, default=1, help="fresh-process runs per workload; reports median and quartiles")
    parser.add_argument("--quick", action="store_true", help="2 timed rounds and one set-up per workload (smoke run)")
    parser.add_argument("--out", help="result JSON (default perf/out/result.json)")
    parser.add_argument("--emit-benchmark", action="store_true", help="print BENCHMARK.json from perf/spec.py and exit")
    args = parser.parse_args(argv)

    if args.emit_benchmark:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload:
        return contract_main(args)
    return set_main(args)


if __name__ == "__main__":
    sys.exit(main())
