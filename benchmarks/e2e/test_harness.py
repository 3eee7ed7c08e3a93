"""Tests of the benchmark harness itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, run, trace
from repro.parallel.blueprints import blueprint, build_network

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """``time`` stand-in whose ``perf_counter`` the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "time", clock)
    recorder = trace.Recorder()

    def leaf():
        clock.now += 2.0

    def same_layer_child():
        clock.now += 1.0

    traced_leaf = recorder.wrap("inner", "leaf", leaf)
    traced_same = recorder.wrap("outer", "same", same_layer_child)

    def parent():
        clock.now += 3.0
        traced_leaf()
        traced_same()
        traced_leaf()
        clock.now += 0.5
        return [1, 2, 3]

    traced_parent = recorder.wrap("outer", "parent", parent, lambda _args, result: len(result))
    recorder.begin()
    clock.now += 0.25  # harness time before the first span
    traced_parent()
    wall = recorder.end()

    assert wall == pytest.approx(8.75)
    assert recorder.self_s["inner"] == pytest.approx(4.0)
    # parent: 8.5 long, children cover 5.0; plus the nested same-layer span's 1.0.
    assert recorder.self_s["outer"] == pytest.approx(4.5)
    assert recorder.self_s["harness.unattributed"] == pytest.approx(0.25)
    # Layers plus unattributed add up to the wall by construction.
    assert sum(recorder.self_s.values()) == pytest.approx(wall)
    # Only spans entered from another layer count as calls and carry work.
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.work == {"outer": 3}
    names = [span[0] for span in recorder.spans]
    assert names == ["leaf", "same", "leaf", "parent"]
    parents = {span[0]: span[4] for span in recorder.spans}
    assert parents["parent"] == -1 and parents["same"] == 0


def patched_attributes():
    targets = [trace._resolve(target) for _layer, target, _measure in trace.PATCHES]
    from repro.core.fusion import FusedChain
    from repro.sim.simulator import Simulator

    return targets + [(Simulator, "schedule"), (FusedChain, "__init__")]


def test_install_patches_and_uninstall_restores_the_original_objects():
    before = [(owner, attr, vars(owner).get(attr, trace._MISSING))
              for owner, attr in patched_attributes()]
    recorder = trace.Recorder()
    recorder.install()
    try:
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} was not patched"
    finally:
        recorder.uninstall()
    for owner, attr, original in before:
        assert vars(owner).get(attr, trace._MISSING) is original, f"{owner}.{attr} not restored"


def _build_in_child(queue) -> None:
    network = build_network(blueprint("benchmarks.e2e.networks:row_chain"))
    queue.put(sorted(network.boxes))


def _spawn_and_build() -> tuple[list[str], int | None]:
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    child = ctx.Process(target=_build_in_child, args=(queue,))
    child.start()
    boxes = queue.get(timeout=60)
    child.join(timeout=60)
    return boxes, child.exitcode


def test_row_chain_blueprint_builds_in_a_spawned_process():
    try:
        boxes, exitcode = _spawn_and_build()  # its queue is gone when it returns
    finally:
        run.stop_children()  # the spawn context's resource tracker too
    assert exitcode == 0
    assert boxes == ["f1", "f2", "m1", "m2"]


def smoke_engine_rows(seed: int, cwd: Path) -> dict:
    """One contract-style invocation; returns its detail file."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "engine_rows",
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads((cwd / ".benchmarks/e2e/e2e-engine_rows.json").read_text())


def test_same_seed_same_digests_and_another_seed_runs_green(tmp_path):
    first = smoke_engine_rows(42, tmp_path)
    again = smoke_engine_rows(42, tmp_path)
    other = smoke_engine_rows(7, tmp_path)
    assert first["result"]["correct"] and other["result"]["correct"]
    assert first["input_digest"] == again["input_digest"]
    assert first["output_digest"] == again["output_digest"]
    assert first["input_digest"] != other["input_digest"]


def test_smoke_suite_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    child = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT)},
        capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    report = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, row in report["workloads"].items():
        assert row["correct"] and row["failed"] == 0, (name, row["problems"])
        assert set(row["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(row["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert row["per_layer"]["harness.unattributed_frac"]["value"] <= 0.10, name
    rows = report["workloads"]
    # Workloads 2 and 3 check the same prefix of the same generator.
    assert rows["engine_columnar"]["output_digest"] == \
        rows["engine_columnar_observed"]["output_digest"]
    share = "core.operators.columnar.columnar_share"
    assert rows["engine_columnar"]["per_layer"][share]["value"] >= 0.9
    assert rows["engine_rows"]["per_layer"][share]["value"] == 0
    assert rows["engine_columnar_observed"]["per_layer"][share]["value"] == 0
    for plane in ("aurora_star_chain", "parallel_rows"):
        assert rows[plane]["per_layer"]["core.engine.step.calls"]["value"] == 0
    # A report compared with itself has no worse and no unresolved row.
    verdicts = {row["verdict"] for row in compare.compare(report, report, spec)}
    assert verdicts == {"same"}
