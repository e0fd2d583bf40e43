"""CLI behavior: argument handling, formats, exit codes, config file."""

import csv
import io
import json
import math
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lseries_lab import audit as audit_module
from lseries_lab import cgeom
from lseries_lab import cli as cli_module
from lseries_lab import lseries as lseries_module
from lseries_lab import resolution as resolution_module
from lseries_lab.characters import DirichletCharacter
from lseries_lab.cli import (
    EXIT_FINDING,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    Config,
    format_complex,
    load_config,
    main,
    parse_complex_s,
)
from lseries_lab.lseries import LEvaluation, ScanResult, SignChangeBracket

PI_OVER_4 = 0.78539816339744830962


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("0.5", complex(0.5, 0.0)),
            ("1", complex(1.0, 0.0)),
            ("0.5+2i", complex(0.5, 2.0)),
            ("-1.5-0.25i", complex(-1.5, -0.25)),
            ("2i", complex(0.0, 2.0)),
            ("0.5 + 2I", complex(0.5, 2.0)),
            ("0.5+2j", complex(0.5, 2.0)),
            ("-1.2I", complex(0.0, -1.2)),
            ("inf", complex(math.inf, 0.0)),
            ("INFINITY", complex(math.inf, 0.0)),
            ("0.5+infi", complex(0.5, math.inf)),
        ],
    )
    def test_accepted_literals(self, text, want):
        assert parse_complex_s(text) == want

    @pytest.mark.parametrize("text", ["", "abc", "1+2k", "--"])
    def test_rejected_literals(self, text):
        with pytest.raises(ValueError):
            parse_complex_s(text)


class TestFormatComplex:
    def test_positive_and_negative_imaginary(self):
        assert format_complex(complex(0.5, 2.0)) == "0.5+2.0i"
        assert format_complex(complex(0.5, -2.0)) == "0.5-2.0i"
        assert format_complex(complex(1.0, 0.0)) == "1.0+0.0i"

    def test_fields_round_trip(self):
        text = format_complex(complex(1 / 3, -1 / 7))
        assert parse_complex_s(text) == complex(1 / 3, -1 / 7)


class TestConfig:
    def test_defaults_when_env_unset(self):
        config = load_config(environ={})
        assert config == Config()

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "lab.conf"
        path.write_text(
            "# comment line\n"
            "\n"
            "hurwitz_tol = 1e-12\n"
            "default_n=500\n"
            "grid_step=0.05\n"
            "output_format=json\n"
        )
        config = load_config(environ={"LSERIES_LAB_CONFIG": str(path)})
        assert config == Config(
            hurwitz_tol=1e-12, default_n=500, grid_step=0.05, output_format="json"
        )

    def test_readme_config_block_loads_the_defaults(self, tmp_path):
        # the README example spells out every default, comments after values
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("`LSERIES_LAB_CONFIG`:\n", 1)[1].split("```\n", 2)[1]
        assert "# default --tol" in block
        path = tmp_path / "lab.conf"
        path.write_text(block)
        assert load_config(environ={"LSERIES_LAB_CONFIG": str(path)}) == Config()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "lab.conf"
        path.write_text("colour=blue\n")
        with pytest.raises(ValueError, match="unknown config key 'colour'"):
            load_config(environ={"LSERIES_LAB_CONFIG": str(path)})

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "lab.conf"
        path.write_text("grid_step\n")
        with pytest.raises(ValueError):
            load_config(environ={"LSERIES_LAB_CONFIG": str(path)})

    @pytest.mark.parametrize(
        "line",
        [
            "grid_step=0.6",
            "grid_step=0.45",
            "grid_step=0",
            "grid_step=inf",
            "default_n=0",
            "hurwitz_tol=-1e-9",
            "output_format=xml",
        ],
    )
    def test_validation(self, tmp_path, line):
        path = tmp_path / "lab.conf"
        path.write_text(line + "\n")
        with pytest.raises(ValueError):
            load_config(environ={"LSERIES_LAB_CONFIG": str(path)})

    def test_main_exits_usage_on_bad_config(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "lab.conf"
        path.write_text("grid_step=oops\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        code, _ = run_cli("characters", "4")
        assert code == EXIT_USAGE
        assert "bad config" in capsys.readouterr().err

    def test_config_grid_step_is_held_to_the_scan_grid_rule(self, tmp_path, monkeypatch, capsys):
        # 0.45 leaves one audit grid point in (0, 1): refused when the file
        # loads, not only by the commands that scan
        path = tmp_path / "lab.conf"
        path.write_text("grid_step = 0.45\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        code, _ = run_cli("characters", "4")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: bad config (grid_step 0.45:")
        assert "need at least 2 grid points" in err

    def test_config_format_default_applies(self, tmp_path, monkeypatch):
        path = tmp_path / "lab.conf"
        path.write_text("output_format=json\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        code, text = run_cli("characters", "3")
        assert code == EXIT_OK
        json.loads(text)  # default format came from the config file

    def test_config_grid_step_shapes_scan_default(self, tmp_path, monkeypatch):
        path = tmp_path / "lab.conf"
        path.write_text("grid_step=0.2\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        code, text = run_cli("lfun", "scan", "-q", "4", "-k", "1", "--format", "csv")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert [float(r[2]) for r in rows] == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_config_hurwitz_tol_sets_the_lfun_eval_default(self, tmp_path, monkeypatch):
        # at |t| = 100 the Euler-Maclaurin shift depends on the tolerance
        argv = ("lfun", "eval", "-q", "4", "-k", "1", "-s", "0.5+100i", "--format", "json")
        _, text = run_cli(*argv)
        assert json.loads(text)["n_used"] == 27  # default 1e-10
        path = tmp_path / "lab.conf"
        path.write_text("hurwitz_tol=1e-4\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        _, text = run_cli(*argv)
        assert json.loads(text)["n_used"] == 22
        _, text = run_cli(*argv, "--tol", "1e-10")  # the flag still wins
        assert json.loads(text)["n_used"] == 27

    def test_config_default_n_shapes_audit_truncations(self, tmp_path, monkeypatch):
        path = tmp_path / "lab.conf"
        path.write_text("default_n=300\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        code, text = run_cli(
            "audit", "-q", "4", "-k", "1", "-s", "0.5", "--format", "json"
        )
        assert code == EXIT_OK
        claims = json.loads(text)
        eq2 = next(c for c in claims if c["claim_id"] == "EQ2_RECONSTRUCT")
        assert [row[0] for row in eq2["evidence"]] == [3, 30, 300]


class TestCharactersCommand:
    def test_real_enumeration_csv(self):
        code, text = run_cli("characters", "8", "--real", "--format", "csv")
        assert code == EXIT_OK
        headers, rows = parse_csv(text)
        assert headers == ["q", "index", "real", "principal", "conductor", "values"]
        assert len(rows) == 4  # (Z/8)* is C2 x C2: all four characters real
        assert rows[0][3] == "True"  # principal first
        assert all(r[2] == "True" for r in rows)

    def test_json_is_one_line(self):
        code, text = run_cli("characters", "24", "--format", "json")
        assert code == EXIT_OK
        assert text.count("\n") == 1 and text.endswith("\n")
        assert len(json.loads(text)) == 8

    def test_full_enumeration_includes_complex(self):
        code, text = run_cli("characters", "5", "--format", "json")
        assert code == EXIT_OK
        chars = json.loads(text)
        assert len(chars) == 4
        assert sum(1 for c in chars if not c["real"]) == 2

    def test_values_cell_writes_pairs_without_spaces(self):
        code, text = run_cli("characters", "5", "--format", "csv")
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert [r[5] for r in rows] == [
            "0;1;1;1;1",
            "0;1;(4,1);(4,3);-1",
            "0;1;-1;-1;1",
            "0;1;(4,3);(4,1);-1",
        ]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_builds_only_the_output_its_format_prints(self, fmt, monkeypatch):
        def unprinted(*args):
            raise AssertionError(f"--format {fmt} built output it does not print")

        if fmt == "json":
            monkeypatch.setattr(cli_module, "_values_cell", unprinted)
        else:
            monkeypatch.setattr(DirichletCharacter, "to_json_dict", unprinted)
        code, text = run_cli("characters", "5", "--format", fmt)
        assert code == EXIT_OK
        assert "(4,3)" in text or '"values"' in text

    def test_table_format(self):
        code, text = run_cli("characters", "4")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["q", "index"]
        assert set(lines[1]) <= {"-", " "}

    def test_bad_modulus(self, capsys):
        code, _ = run_cli("characters", "0")
        assert code == EXIT_USAGE
        assert "modulus" in capsys.readouterr().err


class TestEvalCommand:
    def test_grouped_value_at_one(self):
        code, text = run_cli(
            "lfun", "eval", "-q", "4", "-k", "1", "-s", "1", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["method"] == "grouped"
        assert abs(payload["value"]["re"] - PI_OVER_4) < 1e-10
        assert abs(payload["value"]["im"]) < 1e-15
        assert payload["s"] == {"re": 1.0, "im": 0.0}

    @pytest.mark.parametrize(
        "literal, want",
        [("-0.25i", {"re": 0.0, "im": -0.25}), ("-0.5+2i", {"re": -0.5, "im": 2.0})],
    )
    def test_literal_starting_with_minus_attaches_with_equals(self, literal, want):
        # detached, such a token reads as an option to argparse
        code, text = run_cli("lfun", "eval", "-q", "4", "-k", "1", f"-s={literal}", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(text)["s"] == want

    def test_complex_point_table(self):
        code, text = run_cli("lfun", "eval", "-q", "3", "-k", "1", "-s", "0.5+2i")
        assert code == EXIT_OK
        assert "hurwitz" in text

    def test_principal_pole_is_domain_error(self, capsys):
        code, _ = run_cli("lfun", "eval", "-q", "1", "-k", "0", "-s", "1")
        assert code == EXIT_USAGE
        assert "pole" in capsys.readouterr().err

    def test_character_index_out_of_range(self, capsys):
        code, _ = run_cli("lfun", "eval", "-q", "4", "-k", "7", "-s", "2")
        assert code == EXIT_USAGE
        assert "out of range" in capsys.readouterr().err

    def test_unparseable_point(self, capsys):
        code, _ = run_cli("lfun", "eval", "-q", "4", "-k", "1", "-s", "nope")
        assert code == EXIT_USAGE

    def test_continuation_range_is_domain_error(self, capsys):
        code, _ = run_cli("lfun", "eval", "-q", "4", "-k", "1", "-s", "-1.5")
        assert code == EXIT_USAGE
        assert "outside the supported range" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["nan", "0.5+nani", "inf", "infinity", "INF", "0.5+infi"])
    def test_non_finite_point_is_domain_error(self, s, capsys):
        code, text = run_cli("lfun", "eval", "-q", "4", "-k", "1", "-s", s)
        assert code == EXIT_USAGE
        assert text == ""
        assert "s must be a finite point" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["0.5+1e7i", "0.5+1e30i"])
    def test_point_past_the_shift_cap_is_domain_error(self, s, capsys):
        code, text = run_cli("lfun", "eval", "-q", "4", "-k", "1", "-s", s)
        assert code == EXIT_USAGE
        assert text == ""
        assert "needs an Euler-Maclaurin shift above" in capsys.readouterr().err

    def test_hurwitz_power_past_the_float_range_is_domain_error(self, capsys):
        code, text = run_cli("lfun", "eval", "-q", "3", "-k", "1", "-s", "1000+1e308i")
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == (
            "error: at s = (1000+1e+308j), a Hurwitz power is past the float range\n"
        )


class TestScanCommand:
    def test_table_summary_line(self):
        code, text = run_cli(
            "lfun", "scan", "-q", "3", "-k", "1", "--grid-step", "0.25"
        )
        assert code == EXIT_OK
        assert "min |L|" in text
        assert "sign changes: 0" in text

    def test_json_payload_shape(self):
        code, text = run_cli(
            "lfun",
            "scan",
            "-q",
            "4",
            "-k",
            "1",
            "--grid-step",
            "0.2",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert set(payload) == {"q", "k", "rows", "brackets", "min_abs", "argmin_sigma"}
        assert payload["brackets"] == []

    def test_sign_change_exits_finding(self, monkeypatch):
        def fake_evaluate(chi, s, *, tol=1e-10):
            sigma = complex(s).real
            return LEvaluation(
                value=complex(sigma - 0.55, 0.0),
                method="hurwitz",
                n_used=1,
                err_estimate=1e-15,
            )

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        code, text = run_cli(
            "lfun", "scan", "-q", "4", "-k", "1", "--grid-step", "0.1", "--format", "json"
        )
        assert code == EXIT_FINDING
        payload = json.loads(text)
        assert len(payload["brackets"]) == 1
        assert abs(payload["brackets"][0]["root"] - 0.55) < 1e-8

    def test_table_lists_each_bracket(self, monkeypatch):
        bracket = SignChangeBracket(lo=0.5, hi=0.6, root=0.55)

        def fake_scan(chi, lo, hi, grid_points):
            return ScanResult(
                sigmas=(0.5, 0.6),
                values=(-1.0, 1.0),
                err_estimates=(1e-15, 1e-15),
                brackets=(bracket,),
                min_abs=1.0,
                argmin_sigma=0.5,
            )

        monkeypatch.setattr(cli_module, "scan_zeros", fake_scan)
        code, text = run_cli("lfun", "scan", "-q", "4", "-k", "1")
        assert code == EXIT_FINDING
        lines = text.splitlines()
        assert lines[-2] == "min |L| = 1.0 at sigma = 0.5; sign changes: 1"
        assert lines[-1] == "  bracket [0.5, 0.6] root 0.55"

    def test_exact_zero_at_the_last_grid_point_exits_finding(self, monkeypatch):
        last = audit_module._scan_grid(0.1)[1]

        def fake_evaluate(chi, s, *, tol=1e-10):
            value = 0.0 if complex(s).real == last else 1.0
            return LEvaluation(
                value=complex(value, 0.0), method="hurwitz", n_used=1, err_estimate=1e-15
            )

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        code, text = run_cli(
            "lfun", "scan", "-q", "4", "-k", "1", "--grid-step", "0.1", "--format", "json"
        )
        assert code == EXIT_FINDING
        payload = json.loads(text)
        assert payload["rows"][-1]["sigma"] == last
        assert [b["root"] for b in payload["brackets"]] == [last]

    def test_internal_arithmetic_failure_is_not_a_finding(self, monkeypatch, capsys):
        def fake_evaluate(chi, s, *, tol=1e-10):
            raise OverflowError("L-value out of range")

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        code, _ = run_cli("lfun", "scan", "-q", "4", "-k", "1", "--grid-step", "0.1")
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: L-value out of range")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("lfun", "eval", "-q", "4", "-k", "1", "-s", "0.5"),
            ("lfun", "scan", "-q", "4", "-k", "1"),
            ("audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "10"),
            ("survey", "--qmax", "2"),
        ],
    )
    def test_tolerance_not_positive_is_a_usage_error(self, argv, tol, capsys):
        # lfun eval rejects the value; a scan has no --tol (its bisection stops
        # where the L-value's own error estimate hides the sign), so argparse
        # rejects the flag itself
        out = io.StringIO()
        try:
            code = main([*argv, "--tol", tol], out=out)
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_USAGE
        assert out.getvalue() == ""
        want = "tol must be > 0" if argv[1] == "eval" else "unrecognized arguments: --tol"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lo", "--hi", "--grid-points"])
    def test_window_flags_are_usage_errors(self, flag, capsys):
        # the one scan grid is the audit's, set by --grid-step alone
        with pytest.raises(SystemExit) as excinfo:
            run_cli("lfun", "scan", "-q", "4", "-k", "1", flag, "0.5")
        assert excinfo.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    def test_single_grid_point_is_domain_error(self, capsys):
        code, text = run_cli("lfun", "scan", "-q", "4", "-k", "1", "--grid-step", "0.6")
        assert code == EXIT_USAGE
        assert text == ""
        assert "at least 2 grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0.03", "0.011", "0.1"])
    def test_default_window_is_the_audit_grid(self, step):
        # 0.03 does not divide the window: the last point is 0.96, as in audit
        code, text = run_cli(
            "lfun", "scan", "-q", "4", "-k", "1", "--grid-step", step, "--format", "json"
        )
        assert code == EXIT_OK
        chi = audit_module.enumerate_real_characters(4)[1]
        grid = lseries_module.scan_zeros(chi, *audit_module._scan_grid(float(step)))
        assert [row["sigma"] for row in json.loads(text)["rows"]] == list(grid.sigmas)


class TestGeomCommand:
    def test_verify_appendix_passes(self):
        code, text = run_cli("geom", "verify-appendix", "--format", "json")
        assert code == EXIT_OK
        checks = json.loads(text)
        assert len(checks) == 27
        assert all(c["ok"] for c in checks)

    def test_table_shows_pass(self):
        code, text = run_cli("geom", "verify-appendix")
        assert code == EXIT_OK
        assert "pass" in text
        assert "FAIL" not in text

    def test_corrupted_table_exits_finding(self, monkeypatch):
        corrupted = {k: dict(v) for k, v in cgeom.APPENDIX_EXPECTED.items()}
        corrupted[2]["area"] = (1.0, complex(-3.0, -4.0))  # conjugated radicand
        monkeypatch.setattr(cgeom, "APPENDIX_EXPECTED", corrupted)
        code, text = run_cli("geom", "verify-appendix")
        assert code == EXIT_FINDING
        assert "FAIL" in text


class TestPappusCommand:
    def test_check_json(self):
        code, text = run_cli(
            "pappus",
            "check",
            "-q",
            "4",
            "-k",
            "1",
            "-s",
            "0.7",
            "-N",
            "100",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert set(payload) == {"q", "k", "s", "N", "S", "V", "xi", "eta", "residual"}
        assert payload["residual"] < 1e-9 * abs(payload["V"]["re"])

    def test_zero_area_is_domain_error(self, capsys):
        code, _ = run_cli(
            "pappus", "check", "-q", "4", "-k", "1", "-s", "0", "-N", "4"
        )
        assert code == EXIT_USAGE
        assert "zero" in capsys.readouterr().err

    # the volume's chi^2 n^-2s stream is walked first: its terms leave the
    # float range before the profile's do
    @pytest.mark.parametrize(
        "s,where",
        [
            ("-150", "the term n^(-m s) with n = 11, m = 2"),
            ("0.5+1e308i", "-2s = (-1-infj)"),
        ],
    )
    def test_term_past_the_float_range_is_domain_error(self, s, where, capsys):
        code, text = run_cli("pappus", "check", "-q", "4", "-k", "1", "-s", s, "-N", "100")
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err == f"error: at s = {parse_complex_s(s)}, {where} is past the float range\n"

    @pytest.mark.parametrize("s", ["nan", "0.5+infi"])
    def test_non_finite_point_is_domain_error(self, s, capsys):
        code, text = run_cli("pappus", "check", "-q", "4", "-k", "1", "-s", s, "-N", "10")
        assert code == EXIT_USAGE
        assert text == ""
        assert "s must be a finite point" in capsys.readouterr().err


class TestAuditCommand:
    @pytest.mark.parametrize(
        "s,truncations,where",
        [
            ("-40", "10,1000,100000", "the term n^(-m s) with n = 7133, m = 2"),
            ("0.5+1e308i", "10,100", "-2s = (-1-infj)"),  # 2t leaves the float range first
        ],
    )
    def test_term_past_the_float_range_is_domain_error(self, s, truncations, where, capsys):
        code, text = run_cli("audit", "-q", "4", "-k", "1", "-s", s, "-N", truncations)
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: at s = {parse_complex_s(s)}, ")
        assert err.endswith(f"{where} is past the float range\n")

    def test_eight_claims_in_order(self):
        code, text = run_cli(
            "audit",
            "-q",
            "4",
            "-k",
            "1",
            "-s",
            "0.5",
            "-N",
            "100,1000",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        claims = json.loads(text)
        assert [c["claim_id"] for c in claims] == [
            "EQ2_RECONSTRUCT",
            "EQ3_RECONSTRUCT",
            "EQ45_FACTORIZATION",
            "PHASE_SUM_DIVERGES_T0",
            "CHI4_PHASE_SUM_DIVERGES",
            "PAPPUS_IDENTITY",
            "TRANSFORMED_EQ_POSITIVITY",
            "NONVANISHING_SCAN",
        ]

    def test_csv_row_per_claim(self):
        code, text = run_cli(
            "audit", "-q", "3", "-k", "1", "-s", "0.5", "-N", "10,100", "--format", "csv"
        )
        assert code == EXIT_OK
        headers, rows = parse_csv(text)
        assert headers == ["claim_id", "verdict", "evidence_points", "note"]
        assert len(rows) == 8

    def test_sign_change_exits_finding(self, monkeypatch):
        def fake_evaluate(chi, s, *, tol=1e-10):
            sigma = complex(s).real
            return LEvaluation(
                value=complex(sigma - 0.55, 0.0),
                method="hurwitz",
                n_used=1,
                err_estimate=1e-15,
            )

        monkeypatch.setattr("lseries_lab.lseries.evaluate", fake_evaluate)
        code, text = run_cli(
            "audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "10,100",
            "--grid-step", "0.1", "--format", "json",
        )
        assert code == EXIT_FINDING
        (scan,) = [c for c in json.loads(text) if c["claim_id"] == "NONVANISHING_SCAN"]
        assert scan["verdict"] == "sign-change-found"

    def test_one_point_grid_exits_before_any_series(self, monkeypatch, capsys):
        def walked(*args):
            raise AssertionError("a series was walked")

        monkeypatch.setattr(audit_module, "_truncation_claims", walked)
        code, text = run_cli(
            "audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "100,1000,100000",
            "--grid-step", "0.6",
        )
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == "error: need at least 2 grid points, got 1\n"

    @pytest.mark.parametrize("s", ["nan", "inf", "0.5+nani"])
    def test_non_finite_point_is_domain_error(self, s, capsys):
        # NaN residuals must not come out as identity-exact verdicts
        code, text = run_cli("audit", "-q", "4", "-k", "1", "-s", s, "-N", "10,100")
        assert code == EXIT_USAGE
        assert text == ""
        assert "s must be a finite point" in capsys.readouterr().err

    def test_non_finite_imaginary_part_names_the_point_before_any_series(self, capsys, monkeypatch):
        # the factor vectors split s into (sigma, 0) and (0, t): the check on
        # the whole point comes first, so the message is the user's point and
        # no amplitude vector is made before it
        def walked(*args):
            raise AssertionError("a series was walked")

        monkeypatch.setattr(resolution_module, "_terms", walked)
        code, text = run_cli("audit", "-q", "4", "-k", "1", "-s", "0.5+infi", "-N", "10,1000")
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == "error: s must be a finite point, got (0.5+infj)\n"

    def test_unsorted_truncations_rejected(self, capsys):
        code, _ = run_cli("audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "1000,100")
        assert code == EXIT_USAGE

    def test_empty_truncation_list_is_the_audit_s_domain_error(self, capsys):
        code, text = run_cli("audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", ",")
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == "error: need at least one truncation point\n"

    def test_malformed_truncation_list_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "10,abc")
        assert excinfo.value.code == EXIT_USAGE


class TestSurveyCommand:
    def test_qmax_four(self):
        code, text = run_cli("survey", "--qmax", "4", "--format", "csv")
        assert code == EXIT_OK
        headers, rows = parse_csv(text)
        assert headers == ["q", "char_index", "min_abs", "argmin_sigma", "sign_changes"]
        assert [(r[0], r[1]) for r in rows] == [("3", "1"), ("4", "1")]
        assert all(r[4] == "0" for r in rows)

    def test_bad_qmax(self, capsys):
        code, text = run_cli("survey", "--qmax", "0")
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err == "error: q_max must be >= 1, got 0\n"

    def test_sign_change_exits_finding(self, monkeypatch):
        from lseries_lab.audit import SurveyRow

        def fake_survey(q_max, grid_step=0.01):
            return [
                SurveyRow(q=3, char_index=1, min_abs=0.001, argmin_sigma=0.5, sign_changes=1)
            ]

        monkeypatch.setattr("lseries_lab.audit.nonvanishing_survey", fake_survey)
        code, _ = run_cli("survey", "--qmax", "3")
        assert code == EXIT_FINDING

    @pytest.mark.parametrize("conductor", [2, 5])
    def test_inducing_lookup_miss_exits_internal(self, conductor, monkeypatch, capsys):
        # the real non-principal character mod 9 is induced from the one mod
        # 3; claim a conductor with no stored primitive character (2) or with
        # one that does not induce it (5): the lookup misses, and that is exit 3
        real = audit_module.enumerate_real_characters

        def wrong_conductor(q):
            chars = real(q)
            if q == 9:
                chars = [c if c.is_principal else replace(c, conductor=conductor) for c in chars]
            return chars

        monkeypatch.setattr(audit_module, "enumerate_real_characters", wrong_conductor)
        code, _ = run_cli("survey", "--qmax", "12", "--format", "csv")
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error: no stored primitive character")
        assert f"of conductor {conductor} induces character 1 mod 9" in err


class TestGridStepNotPositive:
    # below ~5.6e-309, (1 - 2 * step) / step overflows: no finite point count
    SUBNORMAL = "leave a finite number of grid points"
    RULES = {"0": "be > 0", "-0.01": "be > 0", "nan": "be > 0", "inf": "be finite, got inf",
             "5e-324": SUBNORMAL, "1e-309": SUBNORMAL}

    @pytest.mark.parametrize(
        "argv",
        [
            ("survey", "--qmax", "5"),
            ("audit", "-q", "4", "-k", "1", "-s", "0.5", "-N", "10,100"),
            ("lfun", "scan", "-q", "4", "-k", "1"),
        ],
    )
    @pytest.mark.parametrize("step", list(RULES))
    def test_is_a_usage_error(self, argv, step, capsys):
        code, text = run_cli(*argv, "--grid-step", step)
        assert code == EXIT_USAGE
        assert text == ""
        assert capsys.readouterr().err.startswith(f"error: grid step must {self.RULES[step]}")

    @pytest.mark.parametrize("step", ["5e-324", "1e-309"])
    def test_subnormal_step_in_config_is_a_usage_error(self, step, tmp_path, monkeypatch, capsys):
        rule = f"grid step must {self.SUBNORMAL}"
        with pytest.raises(ValueError, match=rule):
            lseries_module._scan_grid(float(step))
        path = tmp_path / "lab.conf"
        path.write_text(f"grid_step = {step}\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        assert run_cli("characters", "4") == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith(f"error: bad config (grid_step {step}: {rule}")


def _readme_commands():
    """argv of each `lseries-lab ...` line in the README's CLI block, without --format."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "lseries-lab":
            argv = argv[1:]
            if "--format" in argv:
                i = argv.index("--format")
                del argv[i : i + 2]
            commands.append(tuple(argv))
    return commands


README_COMMANDS = _readme_commands()
RECORD_COMMANDS = (("lfun", "eval"), ("pappus", "check"), ("survey",))


class TestReadmeCommands:
    def test_block_covers_every_command(self):
        commands = {argv[:2] if argv[0] in ("lfun", "geom", "pappus") else argv[:1]
                    for argv in README_COMMANDS}
        assert commands == {
            ("characters",), ("lfun", "eval"), ("lfun", "scan"), ("geom", "verify-appendix"),
            ("pappus", "check"), ("audit",), ("survey",),
        }

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_formats_agree(self, argv):
        outputs = {fmt: run_cli(*argv, "--format", fmt) for fmt in cli_module.FORMATS}
        assert {code for code, _ in outputs.values()} == {EXIT_OK}
        json_text, csv_text, table_text = (outputs[f][1] for f in ("json", "csv", "table"))
        assert json_text.count("\n") == 1 and json_text.endswith("\n")
        payload = json.loads(json_text)
        headers, rows = parse_csv(csv_text)
        assert table_text.splitlines()[0].split() == headers
        if not any(argv[: len(c)] == c for c in RECORD_COMMANDS):
            return
        records = payload if isinstance(payload, list) else [payload]
        assert len(records) == len(rows) > 0
        for record, row in zip(records, rows):
            assert list(record) == headers
            cells = [
                format_complex(complex(v["re"], v["im"])) if isinstance(v, dict) else str(v)
                for v in record.values()
            ]
            assert cells == row


class TestHurwitzTolSetsOnlyLfunEval:
    """The scans take no tolerance and evaluate at the default one: the
    config key changes none of their output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("lfun", "scan", "-q", "12", "-k", "2", "--grid-step", "0.1"),
            ("audit", "-q", "12", "-k", "2", "-s", "0.5", "-N", "10,100", "--grid-step", "0.1"),
            ("survey", "--qmax", "12", "--grid-step", "0.1", "--format", "json"),
        ],
    )
    def test_config_key_leaves_every_scan_unchanged(self, argv, tmp_path, monkeypatch):
        tols = []
        hurwitz = lseries_module._hurwitz

        def recorded(s, xs, tol, *rest):
            tols.append(tol)
            return hurwitz(s, xs, tol, *rest)

        monkeypatch.setattr(lseries_module, "_hurwitz", recorded)
        default = run_cli(*argv)
        assert default[0] == EXIT_OK
        path = tmp_path / "lab.conf"
        path.write_text("hurwitz_tol=1e-16\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        assert run_cli(*argv) == default
        assert tols and set(tols) == {1e-10}

    def test_tighter_tolerance_leaves_the_scan_unchanged(self, tmp_path, monkeypatch):
        # near sigma = 0 a 1e-16 tolerance would add Bernoulli pairs and
        # move these values; the scan evaluates at the default, so they stay
        argv = ("lfun", "scan", "-q", "4", "-k", "1", "--grid-step", "0.1", "--format", "csv")
        code, default = run_cli(*argv)
        assert code == EXIT_OK and len(parse_csv(default)[1]) > 0
        path = tmp_path / "lab.conf"
        path.write_text("hurwitz_tol=1e-16\n")
        monkeypatch.setenv("LSERIES_LAB_CONFIG", str(path))
        assert run_cli(*argv) == (EXIT_OK, default)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lseries_lab", "characters", "3", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert len(json.loads(proc.stdout)) == 2

    def test_closed_stdout_is_no_finding(self):
        # the reader goes away before the first row: no traceback, and the
        # shell's SIGPIPE status rather than the finding code 1
        proc = subprocess.Popen(
            [sys.executable, "-m", "lseries_lab", "survey", "--qmax", "60", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("lfun")
        assert excinfo.value.code == EXIT_USAGE
