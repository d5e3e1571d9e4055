"""Experiment harness smoke tests (small parameters).

Each figure/table harness must run end-to-end and report the paper's
qualitative finding.  The benchmarks run the full-size versions.
"""

import pytest

from repro.cpu import generation
from repro.experiments import (run_bncmp_leak, run_defense_grid,
                               run_figure2, run_figure4, run_figure5,
                               run_figure7, run_gcd_leak,
                               run_generation_sweep, run_hardware_grid,
                               run_oblivious)


class TestFigure2:
    def test_boundary(self):
        result = run_figure2(iterations=2,
                             deltas=list(range(-3, 5)))
        assert result.findings["boundary_correct"]

    def test_icelake_distance(self):
        result = run_figure2(generation("icelake"), iterations=1,
                             deltas=[-1, 0, 1, 2, 3])
        assert result.findings["boundary_correct"]


class TestFigure4:
    def test_boundary_and_baseline(self):
        result = run_figure4(iterations=2, f2_offset=8)
        assert result.findings["boundary_correct"]
        assert result.findings["baseline_monotonic"]

    def test_other_f2_offset(self):
        result = run_figure4(iterations=1, f2_offset=20,
                             f1_offsets=list(range(12, 30)))
        assert result.findings["boundary_correct"]


def test_figure5_all_cases():
    assert run_figure5().all_correct


def test_figure5_cycles_detector():
    assert run_figure5(detector="cycles").all_correct


def test_figure7_localization():
    result = run_figure7(blocks=3)
    assert result.localization_correct
    assert result.chained_rounds < result.single_pw_rounds


def test_gcd_leak_small():
    result = run_gcd_leak(runs=3)
    assert result.accuracy > 0.95
    assert result.total_iterations > 50


def test_bncmp_leak_small():
    result = run_bncmp_leak(runs=6)
    assert result.accuracy == 1.0


def test_defense_grid_small():
    grid = run_defense_grid(runs=2)
    assert set(grid) == {"none", "balancing", "align-jumps-16",
                         "cfr", "balancing+cfr"}
    for name, result in grid.items():
        assert result.accuracy > 0.95, name


def test_hardware_grid_small():
    grid = run_hardware_grid(runs=2)
    assert grid["stock"].accuracy > 0.95
    assert grid["ibrs+ibpb"].accuracy > 0.95
    assert grid["btb-flush-on-switch"].accuracy < 0.6
    assert grid["btb-partitioning"].accuracy < 0.6


def test_oblivious_leaks_nothing():
    result = run_oblivious(keys=3)
    assert result.information_rate == 0.0
    assert result.distinct_observations == 1


def test_generation_sweep():
    assert run_generation_sweep().all_correct


def test_versions_summary_is_independent_of_hash_salt():
    """The Figure 13 noise seeds must not come from salted ``hash()``:
    two processes with different ``PYTHONHASHSEED`` print the same
    summary."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from repro.experiments.common import RunRequest, run_experiment\n"
            "print(run_experiment('versions', RunRequest(fast=True)))\n")
    outputs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "within-group min" in outputs[0]
