"""Quick self-check of the benchmark harness, each workload at tiny size.

    python3 -m pytest -q perfbench

Not a measurement: it checks that every metric BENCHMARK.json names is
reported with its unit, that a seed fixes the inputs, and that the benchmark
refuses to run without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace):
    lines, result = run.run(name, seed=7, seconds=0.2, trace=trace, rounds=1, min_instances=2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("env: ") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_a_seed_fixes_the_inputs(name):
    import workloads

    workload = workloads.WORKLOADS[name]
    first, again, other = (workload.build(seed, rounds=1) for seed in (3, 3, 4))
    assert all(np.array_equal(a.points, b.points) for a, b in zip(first, again))
    assert not all(np.array_equal(a.points, b.points) for a, b in zip(first, other))


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_decks_skip_screened_slots(name):
    import workloads

    workload = workloads.WORKLOADS[name]
    skip = {(label, slot) for label, slots in workloads.screened(name).items() for slot in slots}
    deck = workload.build(5)
    assert not {(inst.extra["label"], inst.extra["slot"]) for inst in deck} & skip
    probed = workload.probes(5)["gate.screened_fail_frac"]
    assert {(inst.extra["label"], inst.extra["slot"]) for inst in probed} == skip
