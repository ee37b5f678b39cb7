"""``run.py --quick`` end to end: every declared metric is printed with its unit.

Two timed rounds per workload, one set-up, still every pass (untraced, traced,
micro) — about a minute; it is the only test here that runs the program.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import spec as tables
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_quick_prints_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--quick", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode in (0, 1), proc.stderr[-2000:]  # 1 = an accuracy target missed in 2 rounds
    assert elapsed < 120

    units = {m.name: m.unit for m in tables.END_TO_END + tables.PER_LAYER}
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in workloads.WORKLOADS and parts[1] in units:
            float(parts[2])
            printed.setdefault(parts[0], {})[parts[1]] = parts[3]
    for name in workloads.WORKLOADS:
        assert set(printed.get(name, {})) == set(units), (
            name, sorted(set(units) - set(printed.get(name, {})))
        )
        assert printed[name] == units

    result = json.loads(out.read_text())
    assert result["summary"]["claim"] is None
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    fingerprint = result["fingerprint"]
    for key in ("cpu_count", "nproc", "python", "numpy", "blas", "threads", "git_sha", "seed"):
        assert key in fingerprint
    assert set(fingerprint["threads"].values()) == {"1"}
    for name, row in result["workloads"].items():
        assert len(row["digest"]) == 64 and row["digest"] == row["traced_digest"]
        assert row["failed"] == 0 and row["attempted"] > 0
    assert result["workloads"]["fig2_cnn"]["digest"] == result["workloads"]["fig2_cnn_proc2"]["digest"]
    assert result["workloads"]["scale_store"]["per_layer"]["core.batched.cohort_share"] == 1.0
    assert result["workloads"]["fig2_cnn"]["per_layer"]["core.batched.cohort_share"] == 0.0
