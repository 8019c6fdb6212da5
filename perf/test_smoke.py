"""Smoke tests of the benchmark itself (``pytest perf/``; not part of the
repo's tier-1 suite, which collects ``tests/`` only).

Every workload runs at its tiny geometry, untraced and traced, through the
same command line the benchmark driver uses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import loadgen
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_declared_metric_once(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicate_keys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [l for l in lines if l.lstrip().startswith("FAIL")]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        # The readable report names it exactly once too.
        rows = [l for l in lines[:-2] if l.split()[:1] == [m["name"]]]
        assert len(rows) == 1, (m["name"], rows)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_budget_adds_up_to_the_loop_wall(workload):
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    parts = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    parts += metrics["trace.unattributed_s"]["value"]
    assert parts == pytest.approx(metrics["trace.loop_wall_s"]["value"], rel=1e-6)
    assert 0.0 <= metrics["trace.unattributed_share"]["value"] < 0.5


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("_work.*", "__pycache__"))
    proc = run("offline_serial", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_add_up_and_folding_and_restore():
    rec = Recorder()

    class Thing:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    rec.patch(Thing, "outer", "a.outer")
    rec.patch(Thing, "inner", "b.inner", fold_under="x.never")
    rec.begin("loop")
    assert Thing().outer() == 2
    rec.end()
    (spans,) = rec.snapshot()
    totals = Recorder.totals(spans)
    assert totals["b.inner"].calls == 2 and totals["a.outer"].calls == 1
    assert sum(t.self_s for t in totals.values()) == pytest.approx(totals["loop"].total_s)
    rec.restore()
    rec.clear()
    assert Thing().outer() == 2 and rec.snapshot() == [[]]
    # fold_under: an inner call directly under the named span is not recorded.
    rec.patch(Thing, "outer", "a.outer")
    rec.patch(Thing, "inner", "b.inner", fold_under="a.outer")
    Thing().outer()
    rec.restore()
    assert [s[0] for s in rec.snapshot()[0]] == ["a.outer"]


def test_window_percentile_is_a_median_over_windows():
    import numpy as np

    due = np.arange(0.0, 3.0, 0.01)  # three one-second windows
    values = np.where(due < 1.0, 100.0, 1.0)  # a stall confined to window 0
    value, windows = loadgen.window_percentile(due, values, 99, 1.0)
    assert (value, windows) == (1.0, 3)


def test_open_loop_asks_a_refused_request_again():
    from concurrent.futures import Future
    from types import SimpleNamespace

    import numpy as np
    from repro.serve import ServerOverloadedError

    class Server:
        calls = 0

        def submit(self, row):
            self.calls += 1
            if self.calls == 2:
                raise ServerOverloadedError("queue full")
            future = Future()
            future.set_result(SimpleNamespace(
                version=1, cached=False, scalars=np.zeros(2), images=np.zeros(3)
            ))
            return future

    phase = loadgen.open_loop(
        Server(), "p", np.zeros((3, 1)), np.array([0.0, 0.001, 0.002]), ((2,), (3,))
    )
    assert (phase.ok, phase.retried, phase.refused, phase.bad_shape) == (3, 1, 0, 0)
