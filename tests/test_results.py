"""The committed results/ as a byte-for-byte regression fixture.

Regenerates every config's run through the CLI and compares each output
file with its committed copy.  results/ holds the `scripts/run_all.py
--quick` outputs: seed 0, 5 trials.  The exact_perf values of
`counterexample`, `parity` and `structural_vs_functional` pin the exact
oracle; the trial summaries and trace rows of all four evolution runs pin
the evolution loop and the trial drivers.  Each run is made on both count
backends: their counts come from the same stream, so the bytes match.
"""
from pathlib import Path

import pytest

from evoforge import _kernels
from evoforge.cli import main

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("counterexample", []),
    ("parity", ["--trials", "5"]),
    ("structural_vs_functional", ["--trials", "5"]),
    ("conjunction_evolvability", ["--trials", "5"]),
    ("redundancy_bias", ["--trials", "5"]),
]


def check_run(tmp_path, name, extra):
    out = tmp_path / name
    cfg = ROOT / "configs" / f"{name}.cfg"
    assert main(["run", "--config", str(cfg), "--out", str(out)] + extra) == 0
    for fname in ("report.json", "trace.csv", "summary.txt"):
        committed = ROOT / "results" / name / fname
        assert (out / fname).read_bytes() == committed.read_bytes(), fname


@pytest.mark.parametrize("name, extra", RUNS)
def test_run_reproduces_committed_results(tmp_path, capsys, name, extra):
    # on the backend that loaded: the compiled loop wherever it builds
    check_run(tmp_path, name, extra)


@pytest.mark.parametrize("name, extra", RUNS)
def test_numpy_backend_reproduces_committed_results(tmp_path, capsys,
                                                    monkeypatch, name, extra):
    monkeypatch.setattr(_kernels, "BACKEND", "numpy")
    check_run(tmp_path, name, extra)
