"""Smoke test of the benchmark at a tiny size.

Run from the repository root (about two minutes, it starts Spark twice):

    python3 -m pytest tripsbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _semantics(n: int) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "device_id": ["d0"] * n,
            "seq": range(n),
            "event": ["stay", "pass-by"] * (n // 2) + ["stay"] * (n % 2),
            "region_id": [f"R{i}" for i in range(n)],
            "tag": [None] * n,
            "t_start": [10.0 * i for i in range(n)],
            "t_end": [10.0 * i + 5.0 for i in range(n)],
            "n_records": [3] * n,
            "inferred": [False] * n,
        }
    )


def test_gate_counts_a_dropped_row_as_a_failure():
    ref = gate.canonical(_semantics(4))
    tally = gate.Tally()
    tally.check(lambda: (_semantics(4),), ref)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.check(lambda: (_semantics(4).drop(index=2),), ref)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_gate_counts_a_changed_value_and_an_exception_as_failures():
    ref = gate.canonical(_semantics(4))
    changed = _semantics(4)
    changed.loc[1, "region_id"] = "R9"
    tally = gate.Tally()
    tally.check(lambda: (changed,), ref)

    def boom():
        raise RuntimeError("translation failed")

    assert tally.check(boom, ref) is None
    assert (tally.attempted, tally.failed) == (2, 2)


@pytest.mark.parametrize(
    "trace,section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            SPEC["workloads"][0]["name"],
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
