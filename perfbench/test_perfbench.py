"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_smoke_mode_passes():
    got = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stdout + got.stderr
    assert got.stdout.strip().endswith("smoke ok")


def test_checker_rejects_a_perturbed_match_list():
    w = wl.build("literal-dict", 3, wl.TOY)
    expected = w.expect(w.patterns, w.data)
    assert len(expected) >= 2
    ref = sorted(expected)
    assert wl.check(ref, expected)
    assert not wl.check(ref[1:], expected)
    shifted = [*ref[:-1], (ref[-1][0], ref[-1][1], ref[-1][2] + 1)]
    assert not wl.check(shifted, expected)
    assert not wl.check(ref + ref[:1], expected)
    assert wl.checker_self_test(expected)


def test_same_seed_same_inputs():
    for name in wl.NAMES:
        a, b = wl.build(name, 7, wl.TOY), wl.build(name, 7, wl.TOY)
        assert a.fingerprint() == b.fingerprint()
    for name in ("literal-dict", "regex-live", "split-2w"):
        assert (wl.build(name, 7, wl.TOY).fingerprint()["input_sha256"]
                != wl.build(name, 8, wl.TOY).fingerprint()["input_sha256"])


def test_metrics_are_the_ones_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec["paths"]) == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == wl.NAMES
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        _, result = run.run_one("split-2w", 2, 0.2, trace, wl.TOY)
        assert result["correct"] and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units
        assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "literal-dict", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert got.returncode != 0
    assert "correct" not in got.stdout
