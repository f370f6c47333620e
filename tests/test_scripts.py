"""The scripts under ``scripts/``, each run as its own process on the session's f4 cache
(``REALFLAG_CACHE_DIR`` is inherited from the environment that conftest sets)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from realflag.catalog import catalog_entries

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)


def test_orbit_census_matches_every_orbit_count():
    proc = _run("orbit_census.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("  {")]
    expected = {e.name: e.orbit_count for e in catalog_entries() if e.orbit_count is not None}
    assert {r["pair"]: r["count"] for r in reports} == expected
    assert len(reports) == len(expected)


def test_catalog_suite_matches_every_entry(tmp_path):
    out = tmp_path / "suite.json"
    proc = _run("catalog_suite.py", "--n", "2", "--samples", "8", "--json-out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [r["pair"] for r in rows] == [e.name for e in catalog_entries(2)]
    assert all(r["match"] for r in rows)


@pytest.mark.parametrize("argv", [("catalog_suite.py", "--samples", "0"),
                                  ("catalog_suite.py", "--n", "-1", "--samples", "1"),
                                  ("catalog_suite.py", "--n", "0"),
                                  ("orbit_census.py", "--samples", "0"),
                                  ("orbit_census.py", "--samples", "-2")])
def test_bound_below_one_is_a_usage_error(argv):
    # argparse rejects it before any pair is built: exit 2, usage and one error line
    proc = _run(*argv)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "error: argument" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script", ["catalog_suite.py", "orbit_census.py"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_the_generator_range_is_a_usage_error(script, seed):
    proc = _run(script, f"--seed={seed}", "--samples", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        f"argument --seed: '{seed}' is not an integer in [0, 2**64)")
    assert "Traceback" not in proc.stderr


def test_build_f4_rebuilds_and_passes_the_battery(tmp_path):
    env = {**os.environ, "REALFLAG_CACHE_DIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(SCRIPTS / "build_f4.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 12
    assert not any(line.startswith("[FAIL]") for line in lines)
    assert (tmp_path / "f4.json").is_file()
    assert "cached nonzeros: derivations 984" in proc.stdout
