"""The committed benchmark records, ``BENCH_<short sha>.json`` at the root
of the repository, each written by ``scripts/bench_record.py``: their
schema, and that every summary agrees with the values it summarizes.
Nothing here runs or times the benchmark."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SHA = re.compile(r"[0-9a-f]{40}")
DIGEST = re.compile(r"[0-9a-f]{64}")
SIDES = {"base", "revision"}


def test_a_benchmark_record_is_committed():
    assert RECORDS


def _summary(side: dict, pairs: int) -> None:
    assert side.keys() == {"values", "median", "q1", "q3"}
    values = side["values"]
    assert len(values) == pairs
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert (side["q1"], side["median"], side["q3"]) == (q1, median, q3)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_schema(path):
    record = json.loads(path.read_text())
    assert record.keys() == {"revision", "base", "machine", "seed",
                             "run_seconds", "pairs", "workloads"}
    assert SHA.fullmatch(record["revision"]) and SHA.fullmatch(record["base"])
    assert record["revision"] != record["base"]
    assert record["revision"].startswith(path.stem[len("BENCH_"):])
    machine = record["machine"]
    assert machine.keys() == {"system", "machine", "cpus", "python", "numpy"}
    assert isinstance(machine["cpus"], int) and machine["cpus"] >= 1
    assert record["seed"] == 1
    assert record["run_seconds"] == BENCHMARK["run_seconds"]
    pairs = record["pairs"]
    assert isinstance(pairs, int)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    workloads = record["workloads"]
    assert list(workloads) == [w["name"] for w in BENCHMARK["workloads"]]
    for name, workload in workloads.items():
        assert workload.keys() == {"digest", "counters", "operations",
                                   "metrics"}, name
        assert workload["digest"].keys() == SIDES
        assert all(map(DIGEST.fullmatch, workload["digest"].values()))
        assert workload["counters"].keys() == SIDES
        for counts in workload["counters"].values():
            assert counts and all(isinstance(v, int) and v >= 0
                                  for v in counts.values())
        # the operations each side's runs attempted and how many failed
        assert workload["operations"].keys() == SIDES
        for ops in workload["operations"].values():
            assert ops.keys() == {"attempted", "failed"}
            assert all(isinstance(v, int) for v in ops.values())
            assert 0 <= ops["failed"] <= ops["attempted"]
            assert ops["attempted"] > 0
        assert workload["metrics"].keys() == metrics.keys(), name
        for metric, entry in workload["metrics"].items():
            declared = metrics[metric]
            assert entry.keys() == {"unit", "better", "bound", "base",
                                    "revision", "won",
                                    "gap_exceeds_base_iqr"}
            assert (entry["unit"], entry["better"], entry["bound"]) == (
                declared["unit"], declared["better"], declared["bound"])
            base, revision = entry["base"], entry["revision"]
            _summary(base, pairs)
            _summary(revision, pairs)
            sign = 1 if entry["better"] == "lower" else -1
            assert entry["won"] == sum(
                sign * (b - r) > 0
                for b, r in zip(base["values"], revision["values"]))
            assert entry["gap_exceeds_base_iqr"] == (
                sign * (base["median"] - revision["median"])
                > base["q3"] - base["q1"])
