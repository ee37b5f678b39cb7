"""One pass of one workload in a fresh Python process (spawned by ``run.py``).

``--mode full``: import → generate data → build → ``runner.run(warmup + timed,
callback=stamp)``; per-round wall is the gap between consecutive callback
stamps.  ``--mode setup`` stops after the warm-up rounds (the driver repeats
set-up to report a median ``setup_s``).  ``--trace 1`` arms the span recorder
before the run.  ``--mode micro`` runs the workload's micro-timing group
instead.  The last line of stdout is one JSON object with the raw
observations; ``metrics.py`` turns them into the named metrics.
"""

import time

#: ``setup_s`` starts here — before numpy and repro are imported.
ENTRY = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import sys
from pathlib import Path

import workloads  # the table only; numpy and repro are imported inside run_pass


def fingerprint(seed: int, spec: dict) -> dict:
    """Host + toolchain identity recorded with every result."""
    import contextlib
    import io
    import platform

    import numpy

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        numpy.show_config()
    blas = " ".join(
        line.strip() for line in buffer.getvalue().splitlines()
        if any(key in line for key in ("name:", "openblas configuration:", "version:"))
    )
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas[:400],
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "sizes": {k: v for k, v in spec.items() if k not in ("why", "builder")},
    }


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process (KiB on Linux), plus the largest reaped
    child when the workload ran worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def consensus_residual(runner) -> float:
    """IIADMM's primal consensus residual ``max_p ||w - z_p||`` (0 for other
    algorithms); a hierarchical run reads it off the edge servers, which hold
    the shard replicas."""
    servers = [edge.server for edge in getattr(runner, "edges", ())] or [runner.server]
    return max(
        (s.consensus_residual() for s in servers if hasattr(s, "consensus_residual")),
        default=0.0,
    )


def run_pass(args, spec) -> dict:
    out_dir = Path(args.out_dir)
    import numpy as np  # the import cost belongs to setup.import_s
    import repro  # noqa: F401
    from repro.nn.functional import kernel_call_counts

    stamps = {"imported": time.perf_counter() - ENTRY}
    warmup = int(spec["warmup"])
    timed = 0 if args.mode == "setup" else int(args.timed)
    built = workloads.build(
        args.workload, args.seed, warmup + max(timed, 1), out_dir,
        mark=lambda stage: stamps.__setitem__(stage, time.perf_counter() - ENTRY),
    )
    runner = built.runner
    recorder = None
    if args.trace:
        import layers

        recorder = layers.instrument(built, spec)

    round_end = []
    at_warm = {}
    digest_after = workloads.digest_round(spec, timed)
    digest = []

    def stamp(result) -> None:
        round_end.append(time.perf_counter())
        if recorder is not None:
            recorder.round += 1
        if len(round_end) == warmup:
            at_warm["kernels"] = sum(kernel_call_counts().values())
            at_warm["events"] = getattr(runner, "events_processed", 0)
        if len(round_end) == digest_after:
            vector = np.ascontiguousarray(runner.server.global_params)
            digest.append(hashlib.sha256(vector.tobytes()).hexdigest())

    run_start = time.perf_counter()
    with built.context():
        runner.run(warmup + timed, callback=stamp)
    stamps["run_start"] = run_start - ENTRY
    stamps["warm"] = round_end[warmup - 1] - ENTRY
    stamps["end"] = round_end[-1] - ENTRY

    rounds = runner.history.rounds
    obs = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "traced": bool(args.trace),
        "warmup": warmup,
        "timed": timed,
        "stamps": stamps,
        "round_wall": [
            end - start for start, end in zip([run_start] + round_end[:-1], round_end)
        ],
        "accuracy": [r.test_accuracy for r in rounds],
        "loss": [r.test_loss for r in rounds],
        "comm_bytes": [r.comm_bytes for r in rounds],
        "client_steps": [r.client_steps for r in rounds],
        "participants": [len(r.participating_clients or ()) for r in rounds],
        "phase_seconds": [r.phase_seconds for r in rounds],
        "root_bytes": [(r.comm_bytes_by_tier or {}).get("edge_root", 0) for r in rounds],
        "peak_rss_mb": peak_rss_mb(spec["config"].get("execution_backend") == "process"),
        "digest": digest[0],
        "kernel_calls": sum(kernel_call_counts().values()) - at_warm["kernels"],
        "events": getattr(runner, "events_processed", 0) - at_warm["events"],
        "log_records": sum(len(c.log.records) for c in built.communicators),
        "dead_letters": sum(len(c.log.dead_letters) for c in built.communicators),
        "retries": sum(c.log.failed_attempts() for c in built.communicators),
        "root_uplink_records": sum(
            1 for c in built.communicators[1:] for r in c.log.records if r.op == "send_local"
        ),
        "consensus_residual": consensus_residual(runner),
        "mean_staleness": (
            runner.async_server.mean_staleness() if hasattr(runner, "async_server") else 0.0
        ),
        "fingerprint": fingerprint(args.seed, spec),
    }
    if built.monitor is not None:
        report = built.monitor.report
        obs["monitor"] = {
            "samples": report.samples,
            "alerts": len(report.alerts),
            "stream_bytes": (out_dir / "monitor_stream.jsonl").stat().st_size,
        }
    if recorder is not None:
        obs["trace"] = layers.summarize(
            recorder, warmup, timed, out_dir / f"{args.workload}.trace.jsonl"
        )
    return obs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timed", type=int, default=0, help="timed rounds")
    parser.add_argument("--mode", choices=("full", "setup", "micro"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    if args.mode == "micro":
        import micro

        started = time.perf_counter()
        timings = micro.GROUPS[args.workload](args.seed)
        result = {"micro": timings, "seconds": time.perf_counter() - started}
    else:
        result = run_pass(args, workloads.WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
