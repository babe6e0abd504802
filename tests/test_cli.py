"""Command line behaviour: record formats, exit codes, determinism."""

import csv
import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nuttq
from nuttq import cli, special
from nuttq.box import ORACLE_TOL
from nuttq.cli import main
from nuttq.errors import DomainError
from nuttq.nuttall import (
    NuttallParams,
    marcum_q,
    nuttall_q,
    nuttall_series_adaptive,
)
from nuttq.toronto import (
    TorontoParams,
    toronto_series_adaptive,
    toronto_series_truncated,
)

# the checkout's src/, for the subprocesses
SRC = Path(nuttq.__file__).resolve().parent.parent


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def csv_rows(out):
    return list(csv.DictReader(l for l in out.splitlines()
                               if not l.startswith("#")))


# a != 1 and n != 0, so the unnormalized nuttall value a^n Q differs from
# the normalized one; half-odd orders so closed_half answers too
SCALED_POINT = ["--m", "2.5", "--n", "1.5", "--a", "2.5", "--b", "1"]
SCALE = 2.5 ** 1.5


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

    def test_term_cap_is_convergence_error(self, capsys, monkeypatch):
        # the library's term cap, lowered to 3, hit in the real series walk
        monkeypatch.setattr(special, "MAX_TERMS", 3)
        rc, out = run(capsys, ["eval", "nuttall", "--method", "adaptive",
                               "--m", "2", "--n", "1", "--a", "3", "--b", "1"])
        assert rc == 3
        assert "convergence_error" in out
        assert out.endswith("in 3 terms\n")

    def test_max_terms_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1",
                  "--b", "2", "--max-terms", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-terms 3" in capsys.readouterr().err

    def test_tol_sets_the_series_tolerance(self, capsys):
        point = ["eval", "nuttall", "--m", "2", "--n", "1", "--a", "1",
                 "--b", "2"]
        rc, out = run(capsys, point)
        assert rc == 0
        assert " tol=9.9999999999999998e-13" in out.splitlines()[0]
        default_terms = int(csv_rows(out)[0]["terms_used"])
        rc, out = run(capsys, [*point, "--tol", "1e-6"])
        assert rc == 0
        assert out.splitlines()[0].endswith(" tol=9.9999999999999995e-07")
        assert int(csv_rows(out)[0]["terms_used"]) < default_terms

    @pytest.mark.parametrize("method", ["truncated", "adaptive", "closed_half",
                                        "bound_1f1"])
    def test_nuttall_is_a_to_the_n_times_nuttall_norm(self, capsys, method):
        values = []
        for fn in ("nuttall", "nuttall_norm"):
            rc, out = run(capsys, ["eval", fn, *SCALED_POINT,
                                   "--method", method])
            assert rc == 0
            [row] = csv_rows(out)
            values.append(float(row["value"]))
        unnormalized, normalized = values
        assert unnormalized == normalized * SCALE

    @pytest.mark.parametrize("m, n, a, b", [
        (10.0, 10.0, 0.1, 1.0),
        (10.0, 7.0, 4.446722139795593, 5.811847092579054),
        (0.0, 10.0, 6.0, 0.0),
        (3.0, 0.5, 2.0, 1.0),
        (2.5, 1.5, 2.5, 1.0),
        (8.0, 9.0, 0.028372882032467003, 3.561311104317487),
    ])
    def test_library_nuttall_q_has_the_printed_bits(self, capsys, m, n, a, b):
        rc, out = run(capsys, ["eval", "nuttall", "--m", repr(m), "--n", repr(n),
                               "--a", repr(a), "--b", repr(b),
                               "--method", "adaptive"])
        assert rc == 0
        assert float(csv_rows(out)[0]["value"]) == nuttall_q(m, n, a, b)

    @pytest.mark.parametrize("argv", [
        ["eval", "marcum", "--m", "0.5", "--a", "1", "--b", "1"],
        ["compare", "marcum", "--m", "1,0.5", "--a", "1", "--b", "1"],
    ])
    def test_marcum_order_below_1_is_the_library_refusal(self, capsys, argv):
        rc, out = run(capsys, argv)
        assert rc == 2
        with pytest.raises(DomainError) as lib:
            marcum_q(0.5, 1.0, 1.0)
        assert out == f"# error domain_error: {lib.value}\n"
        assert str(lib.value) == "Marcum order must be >= 1, got m=0.5"

    @pytest.mark.parametrize("argv", [
        ["nuttall_norm", "--m", "7.5", "--n", "7.5", "--a", "1e-200", "--b", "8"],
        ["nuttall_norm", "--m", "1.5", "--n", "1.5", "--a", "1e-200", "--b", "2.5"],
        ["toronto", "--m", "10", "--n", "0.5", "--r", "1e-200", "--B", "2"],
    ])
    def test_closed_form_overflow_is_convergence_error(self, capsys, argv):
        rc, out = run(capsys, ["eval", *argv, "--method", "closed_half"])
        assert rc == 3
        assert "half-odd closed form overflows" in out

    def test_json_error_is_machine_readable(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--format", "json",
                               "--m", "2", "--n", "1", "--a", "-1", "--b", "1"])
        assert rc == 2
        err = json.loads(out.strip().splitlines()[-1])
        assert err["type"] == "error"
        assert err["error_type"] == "domain_error"

    def test_non_numeric_parameter_is_json_error_record(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--format", "json",
                               "--m", "abc", "--n", "1", "--a", "1", "--b", "2"])
        assert rc == 2
        assert json.loads(out) == {
            "type": "error", "error_type": "domain_error",
            "message": "expected float entries, got 'abc' in 'abc'"}

    @pytest.mark.parametrize("argv, kind", [
        (["eval", "nuttall", "--terms", "abc"], "int"),
        (["eval", "nuttall", "--tol", "abc"], "float"),
        (["compare", "nuttall", "--assert-rel-err", "abc"], "float"),
    ])
    def test_non_numeric_one_value_option_is_json_error_record(
            self, capsys, argv, kind):
        # read as a point list's entry is: an error record, not argparse's
        # usage text on stderr
        rc, out = run(capsys, [*argv, "--format", "json", "--m", "2",
                               "--n", "1", "--a", "1", "--b", "1"])
        assert rc == 2
        assert json.loads(out) == {
            "type": "error", "error_type": "domain_error",
            "message": f"expected {kind} entries, got 'abc' in 'abc'"}

    def test_one_value_option_takes_one_entry(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1", "--b", "1", "--terms", "5,6"])
        assert rc == 2
        assert out == "# error domain_error: expected one int, got '5,6'\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "toronto", "--method", "bound_1f1"],
        ["bounds", "toronto", "--kind", "kummer"],
    ])
    def test_tiny_r_1f1_overflow_is_convergence_error(self, capsys, argv):
        # r^(2n-m+1) overflows at r = 1e-40: once a traceback with exit 1
        rc, out = run(capsys, [*argv, "--m", "10", "--n", "0", "--r", "1e-40",
                               "--B", "1", "--format", "json"])
        assert rc == 3
        record = json.loads(out.splitlines()[-1])
        assert record["error_type"] == "convergence_error"
        assert record["message"] == "1F1 bound overflows at m=10.0, n=0.0, r=1e-40"

    def test_more_than_one_point_is_refused(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2,3", "--n", "1,1",
                               "--a", "1", "--b", "2"])
        assert rc == 2
        assert out == ("# error domain_error: eval takes one point; "
                       "use compare for a grid\n")

    def test_blank_parameter_counts_as_missing(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--m", "2", "--n", " ",
                               "--a", "", "--b", "2"])
        assert rc == 2
        assert out == "# error domain_error: nuttall needs --n, --a\n"


class TestErrorRecords:
    """A JSON error record carries the payload of its exception; the CSV
    error line stays the message alone."""

    def test_non_convergence_carries_partial_value_and_terms(
            self, capsys, monkeypatch):
        # the library's term cap, lowered to 3, hit in the real series walk
        monkeypatch.setattr(special, "MAX_TERMS", 3)
        argv = ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1",
                "--B", "2"]
        message = ("series for TorontoParams(m=2.0, n=1.0, r=1.0, B=2.0) "
                   "did not meet tol=1e-12 in 3 terms")
        partial = toronto_series_truncated(TorontoParams(2.0, 1.0, 1.0, 2.0),
                                           3).value
        rc, out = run(capsys, argv + ["--format", "json"])
        assert rc == 3
        assert json.loads(out.splitlines()[-1]) == {
            "type": "error", "error_type": "convergence_error",
            "message": message, "partial_value": partial, "terms": 3}
        rc, out = run(capsys, argv)
        assert out.splitlines()[-1] == "# error convergence_error: " + message

    def test_tolerance_not_met_carries_value_and_err_est(self, capsys):
        # QUADPACK accepts both panels of the hint split after one rule
        # each; split again, they disagree by 1.4e-10, above the oracle's
        # 1e-10, against a first estimate of 7.4e-14.  The default scheme
        # gives a right value here (TestCompare).
        rc, out = run(capsys, ["compare", "toronto", "--m", "0.5", "--n", "1",
                               "--r", "4.09444152999109", "--B",
                               "6.319647878439", "--format", "json",
                               "--scheme", "adaptive"])
        assert rc == 3
        record = json.loads(out.splitlines()[-1])
        assert set(record) == {"type", "error_type", "message", "value",
                               "err_est"}
        assert record["err_est"] > 1e-10
        assert record["value"] == pytest.approx(1.0199826183476655, rel=1e-12)
        assert record["message"] == (
            f"adaptive quadrature stopped at abserr={record['err_est']:.3e} "
            f"> 1.000e-10")

    def test_term_overflow_carries_log_term(self, capsys):
        # a non-finite payload is written the way the JSON records write
        # any float: Infinity
        argv = ["eval", "toronto", "--m", "10", "--n", "0.5", "--r", "1e-200",
                "--B", "2", "--method", "closed_half"]
        rc, out = run(capsys, argv + ["--format", "json"])
        assert rc == 3
        line = out.splitlines()[-1]
        assert '"log_term": Infinity' in line
        assert json.loads(line) == {
            "type": "error", "error_type": "convergence_error",
            "message": "Toronto half-odd closed form overflows at m=10.0, "
                       "n=0.5, r=1e-200, B=2.0",
            "log_term": math.inf}

    def test_domain_error_carries_no_payload(self, capsys):
        rc, out = run(capsys, ["eval", "nuttall", "--format", "json", "--m",
                               "2", "--n", "1", "--a", "-1", "--b", "1"])
        assert rc == 2
        assert set(json.loads(out.splitlines()[-1])) == {
            "type", "error_type", "message"}


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

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_threshold_not_at_least_0_exits_2(self, capsys, threshold):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1", "--b", "1",
                               "--assert-rel-err", threshold])
        assert rc == 2
        assert out == ("# error domain_error: --assert-rel-err must be >= 0, "
                       f"got {float(threshold)}\n")

    def test_empty_grid_exits_2(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1", "--n", "0",
                               "--a", ",", "--b", "1"])
        assert rc == 2
        assert out == "# error domain_error: empty grid\n"

    def test_blank_list_counts_as_missing(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1", "--n", "0",
                               "--a", "", "--b", "1"])
        assert rc == 2
        assert out == "# error domain_error: nuttall needs --a\n"

    def test_refused_truncation_bound_leaves_its_cell_empty(self, capsys):
        # n = 0.2 admits no closed form for the truncation bound; the 1F1
        # bound and the row itself stay
        rc, out = run(capsys, ["compare", "toronto", "--m", "2", "--n", "0.2",
                               "--r", "1", "--B", "2", "--with-bounds"])
        assert rc == 0
        [row] = csv.DictReader(l for l in out.splitlines()
                               if not l.startswith("#"))
        assert float(row["bound_1f1"]) > float(row["series_value"])
        assert row["trunc_bound"] == ""

    def test_refused_1f1_bound_leaves_only_its_cell_empty(self, capsys,
                                                          monkeypatch):
        # no box point refuses the 1F1 bound, so a stand-in refuses it; the
        # truncation bound at the row's depth is the one bounds reports there
        def refuse(m, n, a):
            raise DomainError("refused")
        monkeypatch.setattr(cli, "nuttall_upper_bound_1f1", refuse)
        point = ["nuttall", "--m", "0", "--n", "0", "--a", "1", "--b", "1"]
        rc, out = run(capsys, ["compare", *point, "--with-bounds"])
        assert rc == 0
        [row] = csv_rows(out)
        assert row["bound_1f1"] == ""
        rc, out = run(capsys, ["bounds", *point, "--terms", "20"])
        assert rc == 0
        [report] = csv_rows(out)
        assert float(row["trunc_bound"]) == float(report["bound_value"])

    @pytest.mark.parametrize("option", ["--tol", "--oracle-tol"])
    def test_tolerance_options_are_gone(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "nuttall", "--m", "2", "--n", "1", "--a", "1",
                  "--b", "2", option, "1e-10"])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {option} 1e-10"
                in capsys.readouterr().err)

    def test_meta_line_echoes_the_fixed_tolerances(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1", "--b", "2"])
        assert rc == 0
        assert out.splitlines()[0] == (
            "# command=compare function=nuttall method=truncated terms=20 "
            "tol=9.9999999999999998e-13 oracle_tol=1e-10 scheme=gauss "
            "points=1")

    def test_normalized_oracle_underflow_is_convergence_error(self, capsys):
        # a^n underflows to 0 at a = 1e-200, so oracle / a^n has no value
        rc, out = run(capsys, ["compare", "nuttall_norm", "--m", "7.5",
                               "--n", "7.5", "--a", "1e-200", "--b", "8"])
        assert rc == 3
        assert out.splitlines()[-1] == (
            "# error convergence_error: normalized oracle value overflows: "
            "a^n underflows to 0 at a=1e-200, n=7.5")

    def test_subnormal_marcum_scale_is_convergence_error(self, capsys):
        # a^(m-1) = 1e-320 is below the normal range: it has lost digits
        rc, out = run(capsys, ["compare", "marcum", "--m", "3", "--a", "1e-160",
                               "--b", "1"])
        assert rc == 3
        assert out.splitlines()[-1] == (
            "# error convergence_error: normalized oracle value overflows: "
            "a^n underflows to 0 at a=1e-160, n=2.0")

    @pytest.mark.parametrize("scheme", ["adaptive", "gauss"])
    @pytest.mark.parametrize("argv, series", [
        (["nuttall_norm", "--m", "10", "--n", "10", "--a", "0.1", "--b", "1"],
         lambda: nuttall_series_adaptive(NuttallParams(10.0, 10.0, 0.1, 1.0),
                                         tol=1e-14).value),
        (["marcum", "--m", "10", "--a", "0.01", "--b", "1"],
         lambda: marcum_q(10.0, 0.01, 1.0, tol=1e-14)),
    ], ids=["nuttall_norm", "marcum"])
    def test_normalized_oracle_meets_its_tol_at_a_small_a_n(self, capsys,
                                                           argv, series,
                                                           scheme):
        # the oracle tolerance bounds the error of the normalized value, not
        # of the unnormalized integral a^n times smaller
        rc, out = run(capsys, ["compare", *argv, "--scheme", scheme])
        assert rc == 0
        oracle = float(csv_rows(out)[0]["oracle_value"])
        want = series()
        assert abs(oracle - want) <= ORACLE_TOL + 64 * 2.0 ** -52 * abs(want)

    def test_underflowed_oracle_value_is_convergence_error(self, capsys):
        # the adaptive scheme's unnormalized integrand underflows everywhere
        # at a = 1e-160, so the quadrature returns exactly 0
        rc, out = run(capsys, ["compare", "nuttall", "--m", "2",
                               "--n", "2", "--a", "1e-160", "--b", "1",
                               "--scheme", "adaptive"])
        assert rc == 3
        assert out.splitlines()[-1] == (
            "# error convergence_error: nuttall oracle value underflows to 0 "
            "at m=2.0, n=2.0, a=1e-160, b=1.0")

    @pytest.mark.parametrize("argv, series", [
        # the adaptive scheme's hint split and underflow, each an exit 3
        # in that scheme (above and TestErrorRecords)
        (["toronto", "--m", "0.5", "--n", "1", "--r", "4.09444152999109",
          "--B", "6.319647878439"],
         lambda: toronto_series_adaptive(
             TorontoParams(0.5, 1.0, 4.09444152999109, 6.319647878439),
             tol=1e-14).value),
        (["nuttall", "--m", "2", "--n", "2", "--a", "1e-160", "--b", "1"],
         lambda: nuttall_q(2.0, 2.0, 1e-160, 1.0, tol=1e-14)),
    ], ids=["hint_split", "underflow"])
    def test_default_scheme_values_where_adaptive_refuses(self, capsys, argv,
                                                          series):
        rc, out = run(capsys, ["compare", *argv])
        assert rc == 0
        oracle = float(csv_rows(out)[0]["oracle_value"])
        want = series()
        assert oracle > 0.0
        assert abs(oracle - want) <= ORACLE_TOL + 64 * 2.0 ** -52 * abs(want)

    def test_mismatched_order_lists_exit_2(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "1,2", "--n", "0",
                               "--a", "1", "--b", "1"])
        assert rc == 2

    def test_non_numeric_float_entry_exits_2(self, capsys):
        rc, out = run(capsys, ["compare", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1,x", "--b", "1"])
        assert rc == 2
        assert out == ("# error domain_error: expected float entries, "
                       "got 'x' in '1,x'\n")

    def test_nuttall_is_a_to_the_n_times_nuttall_norm(self, capsys):
        rows = []
        for fn in ("nuttall", "nuttall_norm"):
            rc, out = run(capsys, ["compare", fn, *SCALED_POINT,
                                   "--with-bounds"])
            assert rc == 0
            [row] = csv_rows(out)
            rows.append(row)
        unnormalized, normalized = rows
        for column in ("series_value", "bound_1f1", "trunc_bound"):
            assert float(unnormalized[column]) == \
                float(normalized[column]) * SCALE, column

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

    def test_meta_counts_points_times_depths(self, capsys):
        rc, out = run(capsys, ["bounds", "nuttall", "--m", "2", "--n", "1",
                               "--a", "1,2", "--b", "2", "--terms", "1,5,10"])
        assert rc == 0
        assert out.splitlines()[0] == ("# command=bounds function=nuttall "
                                       "kind=truncation terms=1,5,10 points=6")
        assert len(csv_rows(out)) == 6

    def test_violation_exits_1(self, capsys):
        rc, out = run(capsys, ["bounds", "toronto", "--m", "2", "--n", "1",
                               "--r", "2", "--B", "2", "--terms", "5"])
        assert rc == 1
        assert "violations=1" in out

    def test_non_numeric_int_entry_exits_2(self, capsys):
        for terms in ("5x", "1,2.5"):
            rc, out = run(capsys, ["bounds", "nuttall", "--m", "2", "--n", "1",
                                   "--a", "1", "--b", "2", "--terms", terms])
            assert rc == 2
            assert out.startswith("# error domain_error: expected int entries")

    def test_depth_outside_range_exits_2(self, capsys):
        bounds = ["bounds", "nuttall", "--m", "2", "--n", "1", "--a", "1",
                  "--b", "2"]
        # compare refuses its bound depth before any row, as bounds does
        compare = ["compare", "toronto", "--m", "2", "--n", "1", "--r", "1",
                   "--B", "2", "--with-bounds", "--method", "adaptive"]
        for argv, terms, bad in ((bounds, "0", "0"), (bounds, "1,501", "501"),
                                 (compare, "0", "0")):
            rc, out = run(capsys, [*argv, "--terms", terms])
            assert rc == 2
            assert out == ("# error domain_error: terms must be in [1, 500], "
                           f"got {bad}\n")

    def test_csv_quotes_a_field_holding_a_comma(self, capsys):
        rc, out = run(capsys, ["bounds", "toronto", "--m", "2", "--n", "1",
                               "--r", "1", "--B", "0"])
        assert rc == 0
        rows = list(csv.reader(l for l in out.splitlines()
                               if not l.startswith("#")))
        assert len(rows) == 2
        header, row = rows
        assert len(row) == len(header) == 12
        assert dict(zip(header, row))["error"] == "B must be > 0, got 0.0"

    def test_header_names_a_refused_row_whatever_its_place(self, capsys):
        # (0.2, 1.7) has no closed form at its rounded orders; the CSV header
        # is the same, ending in error, whether it comes first or second
        message = "bound needs ceil_half(m) >= ceil_half(n), got 0.5 < 2.5"
        headers = set()
        for ms, ns in (("2,0.2", "1,1.7"), ("0.2,2", "1.7,1")):
            rc, out = run(capsys, ["bounds", "nuttall", "--m", ms, "--n", ns,
                                   "--a", "1", "--b", "2", "--terms", "5"])
            assert rc == 0
            header = next(l for l in out.splitlines() if not l.startswith("#"))
            headers.add(header)
            rows = {r["m"]: r for r in csv_rows(out)}
            assert rows["0.20000000000000001"]["error"] == message
            assert rows["2"]["error"] == ""
        assert len(headers) == 1
        assert headers.pop().endswith(",slack,error")

    def test_out_of_regime_row_excluded(self, capsys):
        # m <= n has no usable closed reference; rows flagged, not asserted
        rc, out = run(capsys, ["bounds", "toronto", "--m", "2,2",
                               "--n", "0.5,2.5", "--r", "1,1", "--B", "3",
                               "--terms", "1,5,5", "--format", "json"])
        assert rc == 0
        rows = [r for r in map(json.loads, out.splitlines())
                if r["type"] == "row"]
        # one row per (point, depth), point-major; the point r = 1 repeats
        assert [(r["n"], r["terms"]) for r in rows] == \
            [(n, t) for n in (0.5, 2.5) for _ in (1, 2) for t in (1, 5, 5)]
        flagged = [r for r in rows if not r["regime_ok"]]
        assert flagged == rows[6:]
        assert all(r["slack"] is None for r in flagged)
        assert len({r["error"] for r in flagged}) == 1
        assert rows[:3] == rows[3:6] and rows[6:9] == rows[9:]

    def test_kummer_kind(self, capsys):
        rc, out = run(capsys, ["bounds", "nuttall", "--kind", "kummer",
                               "--m", "2", "--n", "1", "--a", "1,2",
                               "--b", "0.25"])
        assert rc == 0
        assert "violations=0" in out


@pytest.mark.parametrize("argv, message", [
    (["eval", "nuttall", "--n", "1", "--a", "1", "--b", "1"], "nuttall needs --m"),
    (["eval", "marcum", "--a", "1", "--b", "1"], "marcum needs --m"),
    (["compare", "nuttall", "--n", "1", "--a", "1", "--b", "1"], "nuttall needs --m"),
    (["bounds", "toronto", "--n", "1", "--r", "1", "--B", "1"], "toronto needs --m"),
    (["bounds", "nuttall", "--m", "2", "--a", "1", "--b", "1"], "nuttall needs --n"),
])
def test_missing_order_is_json_error_record(capsys, argv, message):
    # the grid driver is the one missing-argument rule: no usage message
    rc, out = run(capsys, [*argv, "--format", "json"])
    assert rc == 2
    assert json.loads(out) == {"type": "error", "error_type": "domain_error",
                               "message": message}


# The box's corners, where uniform draws never go: each parameter's ends,
# the smallest subnormal, 1e-300 and 1e-160.
CORNER_ORDERS = ("0", "0.5", "10")
CORNER_SCALES = ("5e-324", "1e-300", "1e-160", "6")
CORNER_LIMITS = ("0", "5e-324", "1e-300", "8")


def corner_argvs():
    """eval by each method of each function and bounds of each kind, at
    every corner: 2,496 invocations of the stdlib-only routes."""
    runs = [("eval", fn, "--method", method) for fn in cli.FUNCTIONS
            for method in ("truncated", "adaptive", "closed_half", "bound_1f1")]
    runs += [("bounds", fn, "--kind", kind) for fn in ("nuttall", "toronto")
             for kind in ("truncation", "kummer")]
    for command, fn, option, choice in runs:
        scale, limit = ("--r", "--B") if fn == "toronto" else ("--a", "--b")
        ns = [[]] if fn == "marcum" else [["--n", n] for n in CORNER_ORDERS]
        for m, n, p3, p4 in itertools.product(CORNER_ORDERS, ns, CORNER_SCALES,
                                              CORNER_LIMITS):
            yield [command, fn, option, choice, "--m", m, *n, scale, p3,
                   limit, p4, "--format", "json"]


def test_box_corners_exit_typed_with_finite_values(capsys, monkeypatch):
    # one parser for every invocation: building it is about 0.9 ms of the
    # 1.5 ms an in-process invocation takes
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    count = 0
    for argv in corner_argvs():
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported with its argv
            pytest.fail(f"nuttq {' '.join(argv)} raised {exc!r}")
        out = capsys.readouterr().out
        assert rc in (0, 1, 2, 3), (argv, rc)
        if rc == 0 and argv[0] == "eval":
            value = json.loads(out.splitlines()[-1])["value"]
            assert math.isfinite(value), (argv, value)
        count += 1
    assert count == 2496


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
        rows = csv_rows(out)
        assert len(rows) == 75
        for row in rows:
            series = float(row["series_value"])
            assert (abs(float(row["oracle_value"]) - series)
                    <= ORACLE_TOL + 64 * 2.0 ** -52 * abs(series)), row

    def test_f2_gap_falls_as_a_grows(self, capsys):
        # the figure's claim: the 1F1 bound holds and tightens as a grows
        rc, out = run(capsys, ["figure", "f2"])
        assert rc == 0
        rows = csv_rows(out)
        assert len(rows) == 30
        for order in ((2.0, 1.0), (3.0, 1.0)):
            gaps = [float(row["rel_gap"]) for row in rows
                    if (float(row["m"]), float(row["n"])) == order]
            assert len(gaps) == 15
            assert min(gaps) >= 0.0
            assert all(x > y for x, y in zip(gaps, gaps[1:])), order

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "f4.csv"
        rc, out = run(capsys, ["figure", "f4", "--output", str(target)])
        assert rc == 2
        assert out == (f"# error domain_error: cannot write figure file "
                       f"{str(target)!r}: No such file or directory\n")
        rc, out = run(capsys, ["figure", "f4", "--output", str(tmp_path),
                               "--format", "json"])
        assert rc == 2
        assert json.loads(out) == {
            "type": "error", "error_type": "domain_error",
            "message": f"cannot write figure file {str(tmp_path)!r}: "
                       "Is a directory"}

    def test_refused_row_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        import nuttq.cli
        from nuttq.errors import DomainError

        def refused(figure):
            raise DomainError("refused row")

        monkeypatch.setattr(nuttq.cli, "_figure_rows", refused)
        target = tmp_path / "f4.csv"
        rc, out = run(capsys, ["figure", "f4", "--output", str(target)])
        assert rc == 2
        assert out == "# error domain_error: refused row\n"
        assert not target.exists()


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

    def test_meta_echoes_only_a_given_path(self, capsys, monkeypatch):
        # the packaged file's location differs between checkouts, so it must
        # not reach the output; a --path is echoed as typed
        from nuttq.oracle import golden_path
        rc, out = run(capsys, ["golden"])
        assert rc == 0
        assert str(golden_path()) not in out
        assert out.splitlines()[0] == "# command=golden action=verify entries=30"
        monkeypatch.chdir(golden_path().parent)
        rc, out = run(capsys, ["golden", "--path", "golden.txt"])
        assert rc == 0
        assert out.splitlines()[0] == \
            "# command=golden action=verify path=golden.txt entries=30"

    def test_unreadable_path_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        rc, out = run(capsys, ["golden", "--path", str(missing)])
        assert rc == 2
        assert out == (f"# error domain_error: cannot read golden file "
                       f"{str(missing)!r}: No such file or directory\n")
        rc, out = run(capsys, ["golden", "--path", str(tmp_path),
                               "--format", "json"])
        assert rc == 2
        assert json.loads(out)["error_type"] == "domain_error"

    def test_unwritable_path_exits_2(self, capsys, tmp_path, monkeypatch):
        import nuttq.oracle

        plain = tmp_path / "plain.txt"
        plain.write_text("not a directory\n")
        target = plain / "x.txt"

        def no_values(*args, **kwargs):
            raise AssertionError("computed a value for an unwritable path")

        with monkeypatch.context() as patch:
            patch.setattr(nuttq.oracle, "_evaluate_case", no_values)
            rc, out = run(capsys, ["golden", "--regenerate", "--path",
                                   str(target)])
        assert rc == 2
        assert out == (f"# error domain_error: cannot write golden file "
                       f"{str(target)!r}: File exists\n")
        rc, out = run(capsys, ["golden", "--regenerate", "--path",
                               str(tmp_path), "--format", "json"])
        assert rc == 2
        assert json.loads(out) == {
            "type": "error", "error_type": "domain_error",
            "message": f"cannot write golden file {str(tmp_path)!r}: "
                       "Is a directory"}

    def test_exit_code_holds_every_entry_to_its_own_tol(self, capsys,
                                                        tmp_path):
        # entry 1 of golden.txt under a loose tol, entry 3 moved by 1e-10
        # against its 1e-13 tol
        path = tmp_path / "g.txt"
        path.write_text("nuttall 1 0 1 1 1e-6 0.73287980379682016 0\n"
                        "nuttall 2 1 1 2 1e-13 0.5301469081839657 0\n")
        rc, out = run(capsys, ["golden", "--path", str(path)])
        assert rc == 1
        rows = list(csv.DictReader(l for l in out.splitlines()
                                   if not l.startswith("#")))
        assert [r["within_2tol"] for r in rows] == ["true", "false"]

    def test_underflowed_oracle_value_is_convergence_error(self, capsys,
                                                           tmp_path):
        # the Toronto oracle value underflows to 0 and matches the stored 0;
        # golden verify refuses it as compare does.  The Nuttall one is
        # a^n = 1e-320 times the normalized integral, a subnormal above 0,
        # since the second scheme's Bessel factor no longer underflows.
        path = tmp_path / "zero.txt"
        path.write_text("nuttall 2 2 1e-160 1 1e-13 0 0\n"
                        "toronto 2 1 1 1e-307 1e-13 0 0\n")
        rc, out = run(capsys, ["golden", "--path", str(path),
                               "--format", "json"])
        assert rc == 3
        record = json.loads(out.splitlines()[-1])
        assert record["error_type"] == "convergence_error"
        assert record["message"] == ("toronto oracle value underflows to 0 "
                                     "at m=2.0, n=1.0, r=1.0, B=1e-307")
        gauss = nuttq.oracle_nuttall(2.0, 2.0, 1e-160, 1.0, tol=1e-13,
                                     scheme="gauss")
        assert 0.0 < gauss.value < 1e-320

    def test_oracle_prefactor_overflow_is_convergence_error(self, capsys,
                                                            tmp_path):
        # the Toronto oracle's 2 r^(n-m+1) is past the double range here
        path = tmp_path / "tiny_r.txt"
        path.write_text("toronto 10 0 1e-40 1 1e-13 0 0\n")
        rc, out = run(capsys, ["golden", "--path", str(path),
                               "--format", "json"])
        assert rc == 3
        record = json.loads(out.splitlines()[-1])
        assert record["error_type"] == "convergence_error"
        assert record["message"] == ("oracle 2 r^(n-m+1) overflows at "
                                     "m=10.0, n=0.0, r=1e-40")
        assert record["log_term"] > 709.0

    def test_refused_later_entry_writes_no_rows(self, capsys, tmp_path,
                                                monkeypatch):
        # every entry is computed before any row is written, as in compare
        monkeypatch.chdir(tmp_path)
        Path("g.txt").write_text(
            "nuttall 1 0 1 1 1e-6 0.73287980379682016 0\n"
            "bogus 2 1 1 2 1e-13 0.5301469081839657 0\n")
        rc, out = run(capsys, ["golden", "--path", "g.txt"])
        assert rc == 2
        assert out == ("# command=golden action=verify path=g.txt entries=2\n"
                       "# error domain_error: unknown golden kind 'bogus'\n")

    @pytest.mark.parametrize("text, message", [
        ("# comments only\n", "holds no entries"),
        ("nuttall 1 0 1 1 1e-13 0.73\n", "malformed golden line"),
    ])
    def test_empty_or_malformed_golden_file_exits_2(self, capsys, tmp_path,
                                                     text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        rc, out = run(capsys, ["golden", "--path", str(path)])
        assert rc == 2
        assert out.startswith("# error domain_error: ") and message in out

    def test_regenerate_to_path(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        rc, _ = run(capsys, ["golden", "--regenerate", "--path", str(target)])
        assert rc == 0
        from nuttq.oracle import golden_path
        assert target.read_bytes() == golden_path().read_bytes()


def _src_env():
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=_src_env())


def test_console_script_wiring():
    proc = run_python("-m", "nuttq.cli", "eval", "marcum",
                      "--m", "1", "--a", "1", "--b", "1")
    assert proc.returncode == 0
    assert "0.7328798037968" in proc.stdout


@pytest.mark.parametrize("argv", [
    # the whole output waits in the buffer for the last flush
    ["eval", "toronto", "--m", "2", "--n", "1", "--r", "1", "--B", "2"],
    # over 8 kB: the pipe breaks while the figure file '-' is written
    ["figure", "f1", "--format", "json"],
])
def test_closed_stdout_ends_quietly(argv):
    proc = subprocess.Popen([sys.executable, "-m", "nuttq.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env())
    proc.stdout.close()  # before the interpreter is up: every write fails
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""


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
import nuttq.oracle
assert loaded() == ["numpy"], ("import nuttq.oracle", loaded())
cli("golden")
cli("compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2")
cli("figure", "f1")
assert loaded() == ["numpy"], ("golden, compare, figure f1", loaded())
cli("compare", "nuttall", "--m", "2", "--n", "1", "--a", "1", "--b", "2",
    "--scheme", "adaptive")
assert loaded() == ["numpy", "scipy"], ("adaptive compare", loaded())
assert {"scipy.integrate", "scipy.special"} <= set(sys.modules), "adaptive compare"
assert nuttq.oracle_nuttall is nuttq.oracle.oracle_nuttall
print("ok")
"""


def test_series_and_cli_cold_path_is_stdlib_only():
    proc = run_python("-c", LAZY_ORACLE_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
