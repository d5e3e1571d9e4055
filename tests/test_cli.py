"""CLI surface."""

import pytest

from repro.cli import _EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_run_fast_fig5(capsys):
    assert main(["run", "fig5", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "all correct: True" in out


def test_run_fast_generations(capsys):
    assert main(["run", "generations", "--fast"]) == 0
    assert "icelake" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_bench_forwards_every_flag(monkeypatch):
    """``repro bench`` accepts the perf suite's flags (CI passes
    ``--telemetry-threshold``) and forwards them verbatim."""
    import repro.perf.suite as suite
    seen = []

    def fake_main(argv):
        seen.append(list(argv))
        return 0

    monkeypatch.setattr(suite, "main", fake_main)
    assert main(["bench", "--quick", "--out", "r.json",
                 "--compare", "base.json",
                 "--telemetry-threshold", "0.03"]) == 0
    assert seen == [["--quick", "--out", "r.json",
                     "--compare", "base.json",
                     "--threshold", str(suite.DEFAULT_THRESHOLD),
                     "--telemetry-threshold", "0.03"]]
    assert main(["bench", "--threshold", "0.5"]) == 0
    assert seen[-1] == ["--out", "BENCH_perf.json", "--threshold", "0.5"]
