import csv
import io
import json
import subprocess
import sys

import pytest

from kapteyn.cli import EXIT_DOMAIN, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestCoeff:
    def test_whole_row_exact(self, capsys):
        code, out, _ = run_cli(["coeff", "3", "--exact"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "k", "value"]
        assert rows == [["3", "1", "-1/16"], ["3", "3", "9/16"]]

    def test_single_entry_exact(self, capsys):
        code, out, _ = run_cli(["coeff", "2", "2", "--exact"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == [["2", "2", "1/2"]]

    def test_zero_entry(self, capsys):
        code, out, _ = run_cli(["coeff", "4", "1"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == [["4", "1", "0"]]

    def test_decimal_formatting(self, capsys):
        _, out, _ = run_cli(["coeff", "3", "1"], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == -1 / 16

    def test_subnormal_value_matches_mpmath(self, capsys):
        # C_2^200 is about 1.1e-316, a subnormal float whose own digits are
        # wrong from the 9th on; the printed value must carry 15 true digits
        mpmath = pytest.importorskip("mpmath")
        from kapteyn import coeff_closed_form

        c = coeff_closed_form(200, 2)
        with mpmath.workdps(40):
            expected = mpmath.nstr(mpmath.mpf(c.numerator) / c.denominator, 15)
        code, out, _ = run_cli(["coeff", "200", "2"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == [["200", "2", expected]]

    def test_overflowing_value_matches_mpmath(self, capsys):
        # C_3000^3000 is about 4.5e397, past the largest float; it prints
        # through a power of ten
        mpmath = pytest.importorskip("mpmath")
        from kapteyn import coeff_closed_form

        c = coeff_closed_form(3000, 3000)
        with mpmath.workdps(40):
            expected = mpmath.nstr(mpmath.mpf(c.numerator) / c.denominator, 15)
        code, out, _ = run_cli(["coeff", "3000", "3000"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == [["3000", "3000", expected]]

    def test_k_above_n_is_usage_error(self, capsys):
        code, _, err = run_cli(["coeff", "3", "5"], capsys)
        assert code == EXIT_USAGE
        assert "usage error" in err


class TestEval:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(["eval", "0.3", "0", "1", "--method", "both"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["direct_re"]) == pytest.approx(3 / 14, abs=1e-8)
        assert float(row["power_re"]) == pytest.approx(3 / 14, abs=1e-8)
        assert float(row["abs_diff"]) < 1e-8

    def test_zero_point(self, capsys):
        code, out, _ = run_cli(["eval", "0", "0", "7"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["direct_re"]) == 0.0
        assert float(row["power_re"]) == 0.0
        assert row["direct_terms"] == row["power_terms"] == "0"

    def test_outside_domain_exit_code(self, capsys):
        code, _, err = run_cli(["eval", "2", "0", "1"], capsys)
        assert code == EXIT_DOMAIN
        assert "domain violation" in err

    def test_non_finite_tolerance_exit_code(self, capsys):
        code, _, err = run_cli(["eval", "0.3", "0", "0.5", "--tol", "inf"], capsys)
        assert code == EXIT_DOMAIN
        assert "tolerance" in err

    def test_outside_radius_power_method(self, capsys):
        code, _, err = run_cli(["eval", "0.5", "0", "10", "--method", "power"], capsys)
        assert code == EXIT_DOMAIN
        assert "radius" in err

    def test_near_boundary_point_matches_mpmath(self, capsys, kapteyn_mpmath):
        # omega(0.9) * 0.95 = 0.92: the Bessel-series evaluator gave up here
        # ("did not settle within 2000 terms"); the quadrature does not
        code, out, _ = run_cli(["eval", "0.9", "0", "0.95"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["direct_re"]) == pytest.approx(kapteyn_mpmath(0.9, 0.95).real,
                                                        rel=1e-12)

    def test_single_method_columns(self, capsys):
        code, out, _ = run_cli(["eval", "0.2", "0.1", "0.7", "--method", "direct"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["value_re", "value_im", "terms_used", "tail_bound"]
        assert len(rows) == 1


class TestRadius:
    def test_power_radius_at_unity(self, capsys):
        code, out, _ = run_cli(["radius", "1", "--which", "R"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["radius"]) == pytest.approx(1.0, abs=1e-10)
        assert row["branch"] == "large_t"

    def test_kapteyn_radius_at_unity(self, capsys):
        _, out, _ = run_cli(["radius", "1", "--which", "r"], capsys)
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["radius"]) == pytest.approx(0.6627434, abs=1e-7)
        assert row["branch"] == "kapteyn_domain"

    def test_negative_t_uses_absolute_value(self, capsys):
        _, out_neg, _ = run_cli(["radius", "-2", "--which", "R"], capsys)
        _, out_pos, _ = run_cli(["radius", "2", "--which", "R"], capsys)
        header, rows_neg = parse_csv(out_neg)
        _, rows_pos = parse_csv(out_pos)
        i = header.index("radius")
        assert rows_neg[0][i] == rows_pos[0][i]

    def test_both_rows(self, capsys):
        _, out, _ = run_cli(["radius", "2"], capsys)
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["R", "r"]

    def test_zero_is_usage_error(self, capsys):
        code, _, _ = run_cli(["radius", "0"], capsys)
        assert code == EXIT_USAGE


class TestFigure:
    def test_figure3_contains_exact_unity(self, capsys, tmp_path):
        out_file = tmp_path / "fig3.csv"
        code, _, _ = run_cli(["figure", "3", "--out", str(out_file),
                              "--range", "0.5", "2", "--samples", "3"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out_file.read_text())
        assert header == ["t", "R_solved", "estimate_500"]
        at_one = [r for r in rows if float(r[0]) == 1.0]
        assert len(at_one) == 1
        assert float(at_one[0][1]) == pytest.approx(1.0, abs=1e-10)
        assert float(at_one[0][2]) == pytest.approx(2.0 ** (1 / 500), rel=1e-12)

    def test_figure3_default_grid_hits_unity(self, capsys):
        # the default log grid over [0.05, 20] is symmetric about t = 1
        code, out, _ = run_cli(["figure", "3"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        at_one = [r for r in rows if float(r[0]) == 1.0]
        assert len(at_one) == 1
        assert float(at_one[0][1]) == pytest.approx(1.0, abs=1e-10)
        assert float(at_one[0][2]) == pytest.approx(2.0 ** (1 / 500), rel=1e-12)

    def test_figure4_radius_ordering(self, capsys):
        code, out, _ = run_cli(["figure", "4", "--samples", "40"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["t", "r", "R"]
        assert len(rows) == 40
        for row in rows:
            assert float(row[1]) <= float(row[2])
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts)

    def test_figure2_slope_sanity(self, capsys):
        code, out, _ = run_cli(["figure", "2", "--range", "40", "80"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "ln_abs_A_n", "sign"]
        assert [int(r[0]) for r in rows] == list(range(40, 81))
        # magnitudes shrink roughly geometrically at t = 0.1
        assert float(rows[-1][1]) < float(rows[0][1])
        assert all(r[2] in {"-1", "0", "1"} for r in rows)

    def test_figure2_range_sums_only_its_rows(self, capsys, monkeypatch):
        # rows below n_lo are built from the row two back, but not summed
        from kapteyn import coeffs

        summed = []
        row_logabs = coeffs._row_logabs

        def recorded(n, *args):
            summed.append(n)
            return row_logabs(n, *args)

        monkeypatch.setattr(coeffs, "_row_logabs", recorded)
        code, out, _ = run_cli(["figure", "2", "--range", "40", "80"], capsys)
        assert code == EXIT_OK
        assert summed == list(range(40, 81))
        assert len(parse_csv(out)[1]) == 80 - 40 + 1

    def test_figure1_small_sample(self, capsys):
        code, out, _ = run_cli(["figure", "1", "--samples", "3",
                                "--range", "0.5", "2"], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["t", "estimate"]
        assert len(rows) == 3

    def test_unwritable_path_fails(self, capsys):
        code, _, err = run_cli(["figure", "4", "--samples", "2",
                                "--out", "/nonexistent-dir/fig.csv"], capsys)
        assert code == EXIT_FAILURE
        assert "error" in err

    def test_refused_command_creates_no_file(self, capsys, tmp_path):
        out = tmp_path / "fig.csv"
        code, _, err = run_cli(["figure", "4", "--samples", "0", "--out", str(out)], capsys)
        assert code == EXIT_USAGE
        assert "usage error" in err
        assert not out.exists()

    def test_bad_id_is_usage_error(self, capsys):
        code, _, _ = run_cli(["figure", "9"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("fid,lo,hi", [
        ("2", "nan", "5"), ("2", "inf", "5"), ("2", "10.7", "12.2"), ("2", "9", "5"),
        ("1", "0.1", "inf"), ("1", "5", "1"), ("3", "nan", "2"), ("4", "0.5", "inf")])
    def test_bad_range_is_usage_error(self, fid, lo, hi, capsys):
        # non-finite bounds for every figure, non-integer n for figure 2, and
        # bounds out of order
        code, out, err = run_cli(["figure", fid, "--range", lo, hi], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error")

    def test_one_sample_is_one_row(self, capsys):
        code, out, _ = run_cli(["figure", "1", "--samples", "1"], capsys)
        assert code == EXIT_OK
        assert [float(r[0]) for r in parse_csv(out)[1]] == [0.05]

    def test_figure2_samples_is_the_largest_n(self, capsys):
        code, out, _ = run_cli(["figure", "2", "--range", "5", "9", "--samples", "7"], capsys)
        assert code == EXIT_OK
        assert [int(r[0]) for r in parse_csv(out)[1]] == [5, 6, 7]


class TestExpand:
    def _write(self, tmp_path, rows, header=False):
        path = tmp_path / "seq.csv"
        lines = (["index,value"] if header else []) + [f"{i},{v}" for i, v in rows]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return str(path)

    def test_unit_alphas_to_taylor(self, capsys, tmp_path):
        path = self._write(tmp_path, [(1, 1.0), (2, 1.0), (3, 1.0)], header=True)
        code, out, _ = run_cli(["expand", "--direction", "to-taylor",
                                "--input", path, "--n", "3"], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx([0.5, 0.5, 0.5])

    def test_empty_input_empty_output(self, capsys, tmp_path):
        path = self._write(tmp_path, [])
        code, out, _ = run_cli(["expand", "--direction", "to-kapteyn",
                                "--input", path], capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["index", "value"]
        assert rows == []

    def test_round_trip_through_cli(self, capsys, tmp_path):
        values = [0.7, -0.3, 0.11, 0.92, -1.4, 0.05]
        path = self._write(tmp_path, list(enumerate(values, start=1)))
        code, out, _ = run_cli(["expand", "--direction", "to-taylor",
                                "--input", path], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        doubled = self._write(tmp_path, [(i + 1, 2 * float(r[1]))
                                         for i, r in enumerate(rows)])
        code, out, _ = run_cli(["expand", "--direction", "to-kapteyn",
                                "--input", doubled], capsys)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        for got, want in zip((float(r[1]) for r in rows), values):
            assert got == pytest.approx(want, abs=1e-9)

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5\n2,oops\n")
        code, _, err = run_cli(["expand", "--direction", "to-taylor",
                                "--input", str(path)], capsys)
        assert code == EXIT_USAGE
        assert ":2:" in err

    @pytest.mark.parametrize("text", ["1.0,0.5\n", "1.0,0.5\n2,0.25\n", "1,x\n2,0.25\n"])
    def test_numeric_first_line_is_no_header(self, text, capsys, tmp_path):
        # line 1 is a header only when its first field is no number; else it
        # is parsed like any other line, so a one-line file is not dropped
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run_cli(["expand", "--direction", "to-taylor",
                                  "--input", str(path)], capsys)
        assert code == EXIT_USAGE and out == ""
        assert ":1:" in err

    @pytest.mark.parametrize("text", ["1,0.5\n2,0.25,9\n", "1,0.5\n1,0.25\n",
                                      "1,0.5\n2,nan\n", "1,0.5\n2,-inf\n"])
    def test_bad_row_reports_line(self, text, capsys, tmp_path):
        # a third field, a repeated index or a non-finite value
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = run_cli(["expand", "--direction", "to-taylor",
                                "--input", str(path)], capsys)
        assert code == EXIT_USAGE
        assert ":2:" in err

    def test_blank_rows_are_skipped(self, capsys, tmp_path):
        outs = []
        for text in ("1,0.5\n2,0.25\n", "1,0.5\n\n  \n2,0.25\n"):
            path = tmp_path / "seq.csv"
            path.write_text(text)
            code, out, _ = run_cli(["expand", "--direction", "to-taylor",
                                    "--input", str(path)], capsys)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1] and len(parse_csv(outs[0])[1]) == 2

    def test_gap_in_indices_rejected(self, capsys, tmp_path):
        path = self._write(tmp_path, [(1, 0.5), (3, 0.25)])
        code, _, err = run_cli(["expand", "--direction", "to-taylor",
                                "--input", path], capsys)
        assert code == EXIT_USAGE

    def test_missing_file_fails(self, capsys, tmp_path):
        code, _, _ = run_cli(["expand", "--direction", "to-taylor",
                              "--input", str(tmp_path / "nope.csv")], capsys)
        assert code == EXIT_FAILURE

    def test_n_beyond_input_is_usage_error(self, capsys, tmp_path):
        path = self._write(tmp_path, [(1, 0.5), (2, 0.25)])
        code, _, err = run_cli(["expand", "--direction", "to-taylor",
                                "--input", path, "--n", "10"], capsys)
        assert code == EXIT_USAGE
        assert "exceeds" in err


class TestOutputModes:
    def test_json_mirrors_csv_columns(self, capsys):
        _, out_csv, _ = run_cli(["radius", "2", "--which", "R"], capsys)
        _, out_json, _ = run_cli(["--json", "radius", "2", "--which", "R"], capsys)
        header, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert payload == [dict(zip(header, rows[0]))]

    def test_byte_determinism(self, capsys):
        a = run_cli(["eval", "0.25", "0.1", "1.5"], capsys)
        b = run_cli(["eval", "0.25", "0.1", "1.5"], capsys)
        assert a == b

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(["coeff", "5", "--exact"], capsys)
        assert "\r" not in out
        assert out.endswith("\n")

    def test_python_dash_m_entry(self):
        proc = subprocess.run([sys.executable, "-m", "kapteyn", "radius", "2",
                               "--which", "R"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,which,radius")

    def test_fifteen_significant_digits(self, capsys):
        _, out, _ = run_cli(["radius", "1", "--which", "r"], capsys)
        _, rows = parse_csv(out)
        # 0.6627434193491817 rounded to 15 significant digits
        assert rows[0][2] == "0.662743419349182"
