"""Smoke test of the benchmark itself, at the tiny test-only scale.

Runs every workload, untraced and traced, twice in this process (mixed8,
``Hamm n_bits=32``, ``ReLU k=8``, 2 ops) and checks the shape of what the
benchmark reports, not how fast anything is.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perf import compare, contract, run, workloads  # noqa: E402

SPEC = contract.load()
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNT = re.compile(
    r"^(wire_bytes|sim_cycles)$|\.(gates|choices|instructions|builds)$"
)


def _measure(name: str, trace: bool, scratch: Path) -> dict:
    scratch.mkdir(parents=True)
    report = run.measure(
        name, seed=1, stream=0, seconds=0.0, min_ops=2, trace=trace, full=False,
        scratch=scratch, t0=time.time(),
    )
    return run.aggregate(name, [report], trace, full=False)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """``passes[run][name][trace]``: two complete runs of the same seed."""
    base = tmp_path_factory.mktemp("perf")
    return [
        {
            name: {
                trace: _measure(name, trace, base / f"{attempt}-{name}-{int(trace)}")
                for trace in (False, True)
            }
            for name in NAMES
        }
        for attempt in range(2)
    ]


def test_contract_matches_the_published_file():
    assert SPEC["paths"] == ["perf"]
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    for item in SPEC["end_to_end"]:
        metric = contract.END_TO_END[item["name"]]
        assert metric.workloads is None, "published end-to-end metrics exist everywhere"
        assert (item["unit"], item["better"], item["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    assert any(item["name"] == "setup_s" for item in SPEC["end_to_end"])
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in SPEC[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", item["name"])


def test_every_published_metric_is_emitted_with_its_unit(passes):
    produced = set()
    for name in NAMES:
        untraced = run.published(passes[0][name][False], SPEC, False)
        assert {k: v["unit"] for k, v in untraced.items()} == {
            item["name"]: item["unit"] for item in SPEC["end_to_end"]
        }
        assert all(v["value"] != 0 for v in untraced.values()), untraced
        traced = run.published(passes[0][name][True], SPEC, True)
        assert {k: v["unit"] for k, v in traced.items()} == {
            item["name"]: item["unit"] for item in SPEC["per_layer"]
        }
        layers = passes[0][name][True]["per_layer"]
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", key) for key in layers)
        produced |= set(layers) | set(passes[0][name][True]["end_to_end"])
    # No published layer is only ever zero-filled: some workload measures it.
    assert {item["name"] for item in SPEC["per_layer"]} <= produced


def test_no_op_fails(passes):
    for attempt in passes:
        for name in NAMES:
            for result in attempt[name].values():
                assert result["failed"] == 0 and result["correct"], result["notes"]
                assert result["end_to_end"]["failed_share"]["value"] == 0
                assert result["attempted"] >= 2


def test_exact_counts_repeat_across_runs(passes):
    first, second = passes
    compared = 0
    for name in NAMES:
        for key, entry in first[name][False]["end_to_end"].items():
            if EXACT_COUNT.search(key):
                assert entry["value"] == second[name][False]["end_to_end"][key]["value"]
                assert entry["min"] == entry["max"]
                compared += 1
        for key, value in first[name][True]["per_layer"].items():
            if EXACT_COUNT.search(key):
                assert value == second[name][True]["per_layer"][key], key
                compared += 1
    assert compared >= 12


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_counts_as_failed(name, tmp_path):
    workload = workloads.make(name, 1, 0, False, tmp_path)
    workload.setup()
    honest = workload.reference
    if name == "compile_cold":
        def corrupted(streams):
            raise AssertionError("reference says no")
    elif name == "sweep_warm":
        def corrupted(streams, config):
            return ("not", "what", "the", "engine", "said")
    else:
        def corrupted(garbler_bits, evaluator_bits):
            return [bit ^ 1 for bit in honest(garbler_bits, evaluator_bits)]
    workload.reference = corrupted
    samples, _ = run._op_loop(workload, 0.0, 2)
    assert [s["ok"] for s in samples] == [False, False]
    assert all(s["wall_s"] is not None and s["error"] for s in samples)


def _fake(value, low, high, failed=0.0):
    entry = {"value": value, "min": low, "max": high, "n": 5}
    return {"workloads": {"w": {"end_to_end": {
        "op_min_s": entry,
        "wire_bytes": {"value": 100, "min": 100, "max": 100, "n": 5},
        "failed_share": {"value": failed},
    }}}}


def test_compare_tells_unresolved_from_unchanged():
    def verdicts(a, b):
        rows, violations = compare.compare(a, b)
        return [row.split()[-1] for row in rows[1:]], violations

    tight = _fake(1.0, 0.99, 1.01)
    assert verdicts(tight, _fake(1.05, 1.04, 1.06)) == (
        ["unchanged", "identical", "unchanged"], 0)
    assert verdicts(tight, _fake(1.05, 0.9, 1.3))[0][0] == "unresolved"
    assert verdicts(tight, _fake(1.4, 1.39, 1.41)) == (
        ["WORSE", "identical", "unchanged"], 1)
    assert verdicts(tight, _fake(0.5, 0.49, 0.51))[0][0] == "better"
    assert verdicts(tight, _fake(1.0, 0.99, 1.01, failed=0.2))[1] == 1
    moved = _fake(1.0, 0.99, 1.01)
    moved["workloads"]["w"]["end_to_end"]["wire_bytes"]["value"] = 101
    assert verdicts(tight, moved) == (["unchanged", "WORSE", "unchanged"], 1)


def test_command_line_ends_with_the_result_object():
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "session_ot_heavy", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {item["name"] for item in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("results", ".tmp", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "compile_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
