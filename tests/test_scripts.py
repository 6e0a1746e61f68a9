"""Smoke tests for the scripts in scripts/: each runs as its own process."""

import os
import subprocess
import sys
from pathlib import Path

from quatype.blades import Signature
from quatype.verify import CheckConfig, run_suite

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_full_report_small_sweep():
    r = run_script("full_report.py", "--max-n", "2", "--samples", "5")
    assert r.returncode == 0, r.stderr
    assert "total: 300 pass, 0 fail, 0 skipped" in r.stdout.splitlines()


def test_full_report_closures_at_every_signature_to_n12():
    # 43 cataloged closures at each of the 90 signatures with p+q <= 12,
    # every real basis pair decided through the census
    r = run_script("full_report.py", "--max-n", "12", "--suite", "closures")
    assert r.returncode == 0, r.stderr
    assert "total: 3870 pass, 0 fail, 0 skipped" in r.stdout.splitlines()


def test_full_report_defaults_match_verify():
    # theorem7's case counts include its witness samples, so they show the
    # --samples default
    r = run_script("full_report.py", "--max-n", "1", "--suite", "theorem7")
    assert r.returncode == 0, r.stderr
    cases = {row.split()[0]: int(row.split()[4])
             for row in r.stdout.splitlines()[1:3]}
    for sig in (Signature(0, 1), Signature(1, 0)):
        reports = run_suite(["theorem7"], CheckConfig(sig=sig))
        assert cases[str(sig)] == sum(rep.cases_run for rep in reports)


def test_full_report_rejects_bad_suite_and_config():
    r = run_script("full_report.py", "--suite", "bogus")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "invalid choice: 'bogus'" in r.stderr
    assert "Traceback" not in r.stderr
    r = run_script("full_report.py", "--samples", "0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: samples must be at least 1"]
    r = run_script("full_report.py", "--tol", "1e-12")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --tol 1e-12" in r.stderr
    r = run_script("full_report.py", "--min-n", "5", "--max-n", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: no signature with 5 <= p+q <= 3"]


def test_table_audit_summary():
    r = run_script("table_audit.py")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == \
        "20 mismatching cell(s) across 3 table(s)"


def test_dense_product_check_agrees_with_pair_loop():
    r = run_script("dense_product_check.py", "--p", "3", "--q", "4", "--seed", "5")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "Cl(3,4) seed 5: 128 x 128 integer terms"
    assert [line.split(":")[0] for line in lines[1:4]] == \
        ["pair loop", "matrix path", "product"]
    assert lines[-1].endswith("terms, every float.hex equal")
    r = run_script("dense_product_check.py", "--p", "7", "--q", "6")
    assert r.returncode == 2
    assert r.stderr.startswith("error: need 1 <= p+q <= 12")
