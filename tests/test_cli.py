"""Command line behaviour: record formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nuttq
from nuttq.cli import main

# the checkout's src/, for the subprocesses
SRC = Path(nuttq.__file__).resolve().parent.parent


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestEval:
    def test_csv_record(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1", "--b", "2"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# command=eval")
        assert lines[1].split(",")[:4] == ["function_id", "method", "m", "n"]
        value = float(lines[2].split(",")[6])
        assert abs(value - 0.5301469080839657) < 1e-12

    def test_json_record(self, capsys):
        rc, out = run(capsys, ["eval", "toronto", "--format", "json",
                               "--m", "2", "--n", "0.5", "--r", "1", "--B", "2",
                               "--method", "closed_half"])
        assert rc == 0
        row = json.loads(out.strip().splitlines()[-1])
        assert row["type"] == "row"
        assert abs(row["value"] - 0.81759729013419691) < 1e-12

    def test_marcum_needs_no_n(self, capsys):
        rc, out = run(capsys, ["eval", "marcum", "--m", "2", "--a", "1",
                               "--b", "0"])
        assert rc == 0
        assert ",1," in out.splitlines()[-1] or out.splitlines()[-1].endswith(",true")

    def test_missing_parameter_is_domain_error(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1"])
        assert rc == 2
        assert "domain_error" in out

    def test_bad_parameter_is_domain_error(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2", "--n", "1",
                               "--a", "-1", "--b", "1"])
        assert rc == 2

    def test_term_cap_is_convergence_error(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--method", "adaptive",
                               "--max-terms", "3", "--m", "2", "--n", "1",
                               "--a", "3", "--b", "1"])
        assert rc == 3
        assert "convergence_error" in out

    def test_json_error_is_machine_readable(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--format", "json",
                               "--m", "2", "--n", "1", "--a", "-1", "--b", "1"])
        assert rc == 2
        err = json.loads(out.strip().splitlines()[-1])
        assert err["type"] == "error"
        assert err["error_type"] == "domain_error"


class TestCompare:
    def test_grid_and_summary(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1,2", "--n", "0,1",
                               "--a", "1", "--b", "1,2", "--terms", "25"])
        assert rc == 0
        rows = [l for l in out.splitlines()
                if l and not l.startswith("#") and not l.startswith("function")]
        assert len(rows) == 4
        assert "# summary max_rel_error=" in out

    def test_assertion_failure_exits_1(self, capsys):
        rc, out = run(capsys, ["compare", "toronto", "--m", "2", "--n", "1",
                               "--r", "2", "--B", "1", "--terms", "3",
                               "--assert-rel-err", "1e-12"])
        assert rc == 1
        assert "assertion=failed" in out

    def test_empty_grid_exits_2(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1", "--n", "0",
                               "--a", "", "--b", "1"])
        assert rc == 2

    def test_mismatched_order_lists_exit_2(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1,2", "--n", "0",
                               "--a", "1", "--b", "1"])
        assert rc == 2

    def test_oversized_grid_exits_2(self, capsys):
        many = ",".join(["1"] * 25)
        rc, out = run(capsys, ["compare", "nuttall", "--m", many, "--n", many,
                               "--a", many, "--b", many])
        assert rc == 2
        assert "grid too large" in out


class TestBounds:
    def test_truncation_sweep(self, capsys):
        rc, out = run(capsys, ["bounds", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1", "--b", "2", "--terms", "1,5,10"])
        assert rc == 0
        assert "violations=0" in out

    def test_violation_exits_1(self, capsys):
        rc, out = run(capsys, ["bounds", "toronto", "--m", "2", "--n", "1",
                               "--r", "2", "--B", "2", "--terms", "5"])
        assert rc == 1
        assert "violations=1" in out

    def test_out_of_regime_row_excluded(self, capsys):
        # m <= n has no usable closed reference; row flagged, not asserted
        rc, out = run(capsys, ["bounds", "toronto", "--m", "2,2",
                               "--n", "0.5,2.5", "--r", "1", "--B", "3",
                               "--terms", "5", "--format", "json"])
        assert rc == 0
        rows = [json.loads(l) for l in out.splitlines()]
        flagged = [r for r in rows if r["type"] == "row" and not r["regime_ok"]]
        assert len(flagged) == 1
        assert flagged[0]["slack"] is None

    def test_kummer_kind(self, capsys):
        rc, out = run(capsys, ["bounds", "nuttall", "--kind", "kummer",
                               "--m", "2", "--n", "1", "--a", "1,2",
                               "--b", "0.25"])
        assert rc == 0
        assert "violations=0" in out


class TestFigure:
    def test_f4_file(self, capsys, tmp_path):
        out_path = tmp_path / "f4.csv"
        rc, _ = run(capsys, ["figure", "f4", "--output", str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert "B=5" in text
        rows = [l for l in text.splitlines()
                if l and not l.startswith("#") and not l.startswith("m,")]
        assert len(rows) == 46

    def test_f1_stdout(self, capsys):
        rc, out = run(capsys, ["figure", "f1"])
        assert rc == 0
        assert "series_value,oracle_value" in out


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        argv = ["compare", "nuttall", "--m", "2,3", "--n", "1,0.5",
                "--a", "1,2", "--b", "0.5,1"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestGoldenCommand:
    def test_verify(self, capsys):
        rc, out = run(capsys, ["golden"])
        assert rc == 0
        assert "worst_abs_diff=" in out

    def test_regenerate_to_path(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        rc, _ = run(capsys, ["golden", "--regenerate", "--path", str(target)])
        assert rc == 0
        from nuttq.oracle import golden_path
        assert target.read_bytes() == golden_path().read_bytes()


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


def test_console_script_wiring():
    proc = run_python("-m", "nuttq.cli", "eval", "marcum",
                      "--m", "1", "--a", "1", "--b", "1")
    assert proc.returncode == 0
    assert "0.7328798037968" in proc.stdout


# Runs in a fresh interpreter: this test process has already imported the
# oracle (conftest reads the golden file through it).
LAZY_ORACLE_SCRIPT = """
import contextlib, io, sys

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(list(argv)) == 0, argv

import nuttq
assert loaded() == [], ("import nuttq", loaded())
nuttq.nuttall_series_adaptive(nuttq.NuttallParams(2.0, 1.0, 1.0, 2.0))
assert loaded() == [], ("series value", loaded())
from nuttq.cli import main as cli_main
cli("eval", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2")
cli("bounds", "toronto", "--m", "2", "--n", "0.5", "--r", "1", "--B", "2")
cli("figure", "f2")
assert loaded() == [], ("eval, bounds, figure f2", loaded())
cli("compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2")
assert loaded() == ["numpy", "scipy"], ("compare", loaded())
assert nuttq.oracle_nuttall is nuttq.oracle.oracle_nuttall
print("ok")
"""


def test_series_and_cli_cold_path_is_stdlib_only():
    proc = run_python("-c", LAZY_ORACLE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
