"""Tests for the command-line runner."""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspflow import cli


def _manifest(out_dir):
    manifests = list(out_dir.glob("*-manifest.ini"))
    assert len(manifests) == 1
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(manifests[0])
    return cp


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_global_flags_on_either_side_of_the_subcommand(tmp_path, monkeypatch, before):
    monkeypatch.chdir(tmp_path)  # a dropped --output-dir would write ./runs here
    out = tmp_path / "out"
    config = tmp_path / "flow.ini"
    config.write_text("[flow]\nt_max = 1.5\n")
    flags = [f"--output-dir={out}", "--seed=5", f"--config={config}"]
    argv = flags + ["flow"] if before else ["flow"] + flags
    assert cli.main(argv) == 0
    cp = _manifest(out)
    assert cp["run"]["seed"] == "5"
    assert cp["run"]["output_dir"] == str(out)
    assert cp["flow"]["t_max"] == "1.5"
    assert not (tmp_path / "runs").exists()


def test_cli_and_pairing_modules_do_not_import_scipy_integrate():
    code = (
        "import sys\n"
        "import cuspflow.cli, cuspflow.hadamard, cuspflow.indicial\n"
        "import cuspflow.bcontinuation, cuspflow._testfunctions\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_escape_certificate_passes_and_repeats_byte_for_byte(tmp_path):
    config = tmp_path / "escape.ini"
    config.write_text("[escape]\nn_alpha = 8\nn_theta = 16\nn_phi = 16\n")
    out = tmp_path / "out"
    argv = [f"--output-dir={out}", f"--config={config}", "escape"]
    assert cli.main(argv) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    (cert_path,) = out.glob("*-certificate.json")
    first = cert_path.read_bytes()
    assert json.loads(first)["passed"] is True
    cert_path.unlink()
    assert cli.main(argv) == 0
    assert cert_path.read_bytes() == first


def test_correlate_through_a_deep_cusp_excursion_repeats_byte_for_byte(tmp_path):
    # sampler seed 1 sends a sample deep into a cusp, where the greedy
    # reduction gave up (exit 4)
    out = tmp_path / "out"
    argv = [f"--output-dir={out}", "--seed=1", "correlate", "--n=20000"]
    assert cli.main(argv) == 0
    assert _manifest(out)["manifest"]["status"] == "ok"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(first) == 3
    for p in out.iterdir():
        p.unlink()
    assert cli.main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
