"""bench/sequence.py: the benchmark's calls replayed in its order, one row a call."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import bench_module

import brokensurf

ROOT = Path(__file__).resolve().parents[1]


def test_sequence_prints_one_row_per_call_label(monkeypatch, tmp_path):
    # ball-deep's call labels, from the workload the script builds; no
    # timing bound, only the rows' shape and the calls' outcomes
    monkeypatch.setitem(sys.modules, "surfaces", bench_module("surfaces"))
    workload = bench_module("workloads").ball_deep(brokensurf, 1, str(tmp_path))
    labels = [call.label for call in workload.calls]
    script = ROOT / "bench" / "sequence.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "ball-deep", "--passes", "1"],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["label"] for row in rows] == labels
    for row, call in zip(rows, workload.calls):
        assert row["command"] == call.command
        assert row["ms"] > 0.0 and row["minflt"] >= 0
        assert row["outcomes"] in ("o", "b")
