"""CLI outputs against files recorded in tests/golden/.

The analytic methods (closed, parametric, reduced, fi) and the bouncer's
closed form are deterministic to the last bit, so any change to their
output bytes is a change in behaviour.  The grid oracles sum their channels
in an order that may change with the implementation; their Bures miss is a
sum of squares whose rounding noise sits near 1e-15 relative, so their
``qfi_oracle`` values are held to 1e-13 instead of byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gravclock import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ANALYTIC = "closed,parametric,reduced,fi"


@pytest.mark.parametrize("argv,output,golden", [
    (["run", "--config", "configs/sr88_freefall.cfg", "--methods", ANALYTIC],
     "report.json", "sr88_freefall_report.json"),
    (["run", "--config", "configs/sr88_mz.cfg", "--methods", ANALYTIC],
     "report.json", "sr88_mz_report.json"),
    (["run", "--config", "configs/bouncer.cfg", "--methods", "closed"],
     "report.json", "bouncer_report.json"),
    (["sweep", "--config", "configs/sr88_freefall.cfg", "--var", "dt", "--from", "5",
      "--to", "30", "--points", "20", "--log", "--methods", ANALYTIC],
     "sweep.csv", "sr88_freefall_dt_sweep.csv"),
    (["sweep", "--config", "configs/sr88_mz.cfg", "--var", "dt", "--from", "5",
      "--to", "30", "--points", "30", "--log", "--methods", ANALYTIC],
     "sweep.csv", "sr88_mz_dt_sweep.csv"),
    (["sweep", "--config", "configs/bouncer.cfg", "--var", "g", "--from", "9",
      "--to", "10.5", "--points", "20", "--methods", "closed"],
     "sweep.csv", "bouncer_g_sweep.csv"),
], ids=["freefall-run", "mz-run", "bouncer-run", "freefall-dt-sweep", "mz-dt-sweep",
        "bouncer-g-sweep"])
def test_cli_output_matches_golden_bytes(tmp_path, monkeypatch, argv, output, golden):
    monkeypatch.chdir(ROOT)
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / output).read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("name", ["sr88_freefall", "sr88_mz", "bouncer"])
def test_oracle_qfi_matches_golden(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    argv = ["run", "--config", f"configs/{name}.cfg", "--methods", "oracle", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    got = json.loads((tmp_path / "report.json").read_text())["qfi_oracle"]
    want = json.loads((GOLDEN / "oracle_qfi.json").read_text())[name]
    assert got == pytest.approx(want, rel=1e-13, abs=0)
