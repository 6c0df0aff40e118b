"""Self-test of the benchmark at a tiny trace scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--workload", "fig4-moderately", "--ops-scale", "0.01", "--seconds", "1", "--seed", "1234"]
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def _bench(*args: str):
    """Run the benchmark; returns (printed metric -> (value, unit), final JSON)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    return printed, json.loads(lines[-1])


@pytest.fixture
def reference(tmp_path):
    path = tmp_path / "reference.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), *TINY, "--record", "--reference", str(path)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return path


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(reference, trace, section):
    printed, summary = _bench(*TINY, "--trace", trace, "--reference", str(reference))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert printed["cell_error_rate"] == (0.0, "ratio")


def test_corrupted_reference_digest_is_counted(reference):
    data = json.loads(reference.read_text())
    cells = data["workloads"]["fig4-moderately"]["cells"]
    label = sorted(cells)[0]
    cells[label] = "0" * 64
    reference.write_text(json.dumps(data))

    printed, summary = _bench(*TINY, "--trace", "0", "--reference", str(reference))
    assert not summary["correct"]
    assert summary["failed"] >= 1
    assert summary["metrics"]["cell_ok_rate"]["value"] < 1
    error_rate, unit = printed["cell_error_rate"]
    assert unit == "ratio" and error_rate > 0
    assert error_rate == pytest.approx(summary["failed"] / summary["attempted"], rel=1e-5)
