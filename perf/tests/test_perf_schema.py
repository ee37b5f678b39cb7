"""``BENCHMARK.json`` obeys the driver's contract and agrees with ``perf/spec.py``."""

import json
import re
from pathlib import Path

import run
import spec as tables
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_the_projection_of_the_tables():
    assert benchmark() == run.benchmark_json()


def test_contract_shape_and_limits():
    bench = benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert bench["paths"] == ["perf"] and all(PATH.match(p) for p in bench["paths"])
    assert bench["command"] == ["python3", "perf/run.py"]
    assert 1 <= len(bench["command"]) <= 32 and all(len(c) <= 200 for c in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert bench["run_seconds"] == workloads.REFERENCE_SECONDS

    assert 2 <= len(bench["workloads"]) <= 8
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(tables.SIX)

    assert 1 <= len(bench["end_to_end"]) <= 16
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])

    assert 1 <= len(bench["per_layer"]) <= 128
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}

    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in bench[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")


def test_every_moves_entry_names_a_declared_metric_and_workload():
    end_to_end = {m.name for m in tables.END_TO_END}
    for metric in tables.PER_LAYER:
        for moved, workload in metric.moves:
            assert moved in end_to_end, (metric.name, moved)
            assert workload in workloads.WORKLOADS, (metric.name, workload)
        assert metric.source in ("counter", "span", "micro", "computed", "harness")


def test_exact_counts_are_declared_metrics():
    declared = {m.name for m in tables.END_TO_END} | {m.name for m in tables.PER_LAYER}
    assert set(tables.EXACT) <= declared


def test_round_counts_scale_with_seconds_and_keep_their_floor():
    for name, spec in workloads.WORKLOADS.items():
        floor = 500 if name == "longrun_monitored" else 14
        assert spec["min_timed"] >= floor
        assert workloads.timed_rounds(spec, workloads.REFERENCE_SECONDS) == spec["timed"]
        assert workloads.timed_rounds(spec, 1) == spec["min_timed"]
        assert workloads.timed_rounds(spec, 2 * workloads.REFERENCE_SECONDS) == 2 * spec["timed"]
        assert spec["target"] >= 1.5 * spec["chance"]
