import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from etkit.cli import (
    UsageError, _build_parser, _merge_options, main, parse_coupling,
)
from etkit.model import ConstantCoupling, LinearCoupling, PolynomialCoupling
from etkit.rates import ElectrodeConditions, mhc_rate_closed_form
from etkit.tables import SweepTable


GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, name, argv, status=0):
    """Exit status, with stdout and stderr equal to tests/golden/<name>.csv
    and .err byte for byte."""
    code, out, err = run(capsys, *argv.split())
    assert code == status
    assert out == (GOLDEN / f"{name}.csv").read_text()
    assert err == (GOLDEN / f"{name}.err").read_text()


class TestParseCoupling:
    def test_constant(self):
        assert parse_coupling("const:0.5") == ConstantCoupling(0.5)

    def test_linear(self):
        assert parse_coupling("linear:0.6,1.0") == LinearCoupling(0.6, 1.0)

    def test_polynomial(self):
        assert parse_coupling("poly:0.1,0,0.4") == PolynomialCoupling(
            (0.1, 0.0, 0.4)
        )

    @pytest.mark.parametrize(
        "bad", ["const", "const:a", "linear:1", "poly:", "gauss:1"]
    )
    def test_malformed(self, bad):
        from etkit.cli import UsageError

        with pytest.raises(UsageError):
            parse_coupling(bad)


# Required flags of each subcommand, then every option it merges, in flag
# order, with its built-in default (or the value of the required flag).
_REQUIRED = {
    "surface": ["--lambda", "4", "--coupling", "const:0.5"],
    "barrier": ["--lambda", "4", "--coupling", "const:0.5"],
    "sweep": ["--x", "dg", "--from", "-1", "--to", "0.5",
              "--lambda", "4", "--coupling", "const:0.5"],
    "tafel": ["--lambda", "4", "--coupling", "const:0.5"],
    "arrhenius": ["--lambda", "4", "--coupling", "const:0.5"],
    "fit": ["--input", "tafel.csv"],
    "extract-v": ["--lambda", "4", "--lambda-eff", "1"],
}
_MERGED = {
    "surface": {"lambda": 4.0, "dg": 0.0, "coupling": "const:0.5",
                "qmin": -0.5, "qmax": 1.5, "n": 401},
    "barrier": {"lambda": 4.0, "dg": 0.0, "coupling": "const:0.5",
                "method": "all"},
    "sweep": {"x": "dg", "from": -1.0, "to": 0.5, "n": 33, "lambda": 4.0,
              "dg": 0.0, "coupling": "const:0.5", "method": "all"},
    "tafel": {"lambda": 4.0, "coupling": "const:0.5", "temp": 300.0,
              "eta_from": -1.0, "eta_to": 0.5, "n": 61, "rho": 1.0,
              "method": "all"},
    "arrhenius": {"lambda": 4.0, "coupling": "const:0.5", "eta": -0.3,
                  "tmin": 250.0, "tmax": 350.0, "n": 21, "rho": 1.0,
                  "method": "all"},
    "fit": {"input": "tafel.csv", "temp": 300.0, "rho": 1.0, "ycol": ""},
    "extract-v": {"lambda": 4.0, "lambda_eff": 1.0},
}
_MISSING = {
    "surface": "--lambda, --coupling",
    "barrier": "--lambda, --coupling",
    "sweep": "--x, --from, --to, --lambda, --coupling",
    "tafel": "--lambda, --coupling",
    "arrhenius": "--lambda, --coupling",
    "fit": "--input",
    "extract-v": "--lambda, --lambda-eff",
}


class TestOptionTable:
    """Each subcommand's config keys, built-in defaults and required
    flags, frozen."""

    @pytest.mark.parametrize("command", list(_MERGED))
    def test_keys_and_defaults(self, command):
        args = _build_parser().parse_args([command] + _REQUIRED[command])
        merged = _merge_options(args)
        expected = _MERGED[command]
        assert list(merged) == list(expected)
        assert {k: (v, type(v)) for k, v in merged.items()} == {
            k: (v, type(v)) for k, v in expected.items()
        }

    @pytest.mark.parametrize("command", list(_MISSING))
    def test_missing_options_in_flag_order(self, command):
        args = _build_parser().parse_args([command])
        with pytest.raises(UsageError) as info:
            _merge_options(args)
        assert str(info.value) == (
            "missing required options: " + _MISSING[command]
        )


class TestSurface:
    def test_csv_on_stdout(self, capsys):
        code, out, _err = run(
            capsys, "surface", "--lambda", "4", "--coupling", "const:1",
            "--n", "5", "--qmin", "0", "--qmax", "1",
        )
        assert code == 0
        table = SweepTable.from_csv(out)
        assert table.columns == ["q", "E_a", "E_b", "E_minus", "E_plus", "V"]
        assert len(table.rows) == 5
        assert table.rows[0][0] == 0.0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "surf.csv"
        code, out, _err = run(
            capsys, "surface", "--lambda", "4", "--coupling", "const:1",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("q,E_a,")

    @pytest.mark.parametrize("bound", ["--qmax=inf", "--qmin=-inf"])
    def test_non_finite_bound_exits_2(self, capsys, bound):
        code, out, err = run(
            capsys, "surface", "--lambda", "4", "--coupling", "const:0.5", bound,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: need finite q_lo < q_hi")


class TestBarrier:
    def test_all_methods_fixed_order(self, capsys):
        code, out, _err = run(
            capsys, "barrier", "--lambda", "4", "--coupling", "const:1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,E_star_eV,q_ts,q_r,lambda_used_eV,activationless"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "marcus", "shift", "eff", "exact",
        ]
        eff = lines[3].split(",")
        assert float(eff[1]) == pytest.approx(0.25, abs=1e-9)
        assert eff[5] == "false"

    def test_singular_row_is_empty_with_warning(self, capsys):
        code, out, err = run(
            capsys, "barrier", "--lambda", "1", "--coupling", "const:0.5",
            "--method", "eff",
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "eff,,,,,"
        assert "warning:" in err

    def test_strict_escalates_to_exit_3(self, capsys):
        code, _out, _err = run(
            capsys, "barrier", "--lambda", "1", "--coupling", "const:0.5",
            "--method", "eff", "--strict",
        )
        assert code == 3

    def test_quiet_suppresses_warnings(self, capsys):
        _code, _out, err = run(
            capsys, "barrier", "--lambda", "1", "--coupling", "const:0.5",
            "--method", "eff", "--quiet",
        )
        assert err == ""

    def test_missing_required_option_exits_2(self, capsys):
        code, _out, err = run(capsys, "barrier", "--lambda", "4")
        assert code == 2
        assert "--coupling" in err


class TestConfigPrecedence:
    def test_config_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 4.0, "coupling": "const:1"}))
        code, out, _err = run(
            capsys, "barrier", "--config", str(cfg), "--method", "eff",
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("eff,0.25,")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"lambda": 4.0, "coupling": "const:1", "method": "eff"})
        )
        code, out, _err = run(
            capsys, "barrier", "--config", str(cfg), "--method", "marcus",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("marcus,1,")

    @pytest.mark.parametrize(
        "config",
        [
            # typ() read these as 2 points, lam = 1 eV and 0 eV,
            # and 1 point; int(inf) raised OverflowError
            {"n": 2.9},
            {"lambda": True},
            {"dg": False},
            {"n": True},
            {"n": math.inf},
        ],
        ids=["fractional-int", "bool-float", "bool-float-default", "bool-int", "inf-int"],
    )
    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 4.0, "coupling": "const:1", **config}))
        code, out, err = run(capsys, "surface", "--config", str(cfg))
        assert code == 2
        assert out == ""
        (key,) = config
        assert f"config key {key!r} has invalid value" in err

    def test_integral_number_for_int_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"lambda": 4.0, "coupling": "const:1", "n": 3.0, "dg": 0})
        )
        code, out, _err = run(capsys, "surface", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 3

    def test_unreadable_config_exits_2(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "barrier", "--config", str(tmp_path / "nope.json"),
            "--lambda", "4", "--coupling", "const:1",
        )
        assert code == 2
        assert "config" in err


    @pytest.mark.parametrize("key", ["temperature", "out"])
    def test_unknown_config_key_exits_2(self, capsys, tmp_path, key):
        # "temperature" for "temp" was dropped, and tafel ran at 300 K;
        # --out is a flag only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"lambda": 4, "coupling": "const:0.5", key: 350, "n": 3}
        ))
        code, out, err = run(
            capsys, "tafel", "--config", str(cfg), "--method", "eff",
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: unknown config keys: {key!r}\n"
            "run 'etkit tafel --help' for usage\n"
        )

    def test_key_of_another_subcommand_is_accepted(self, capsys, tmp_path):
        # one file can serve tafel and arrhenius; tafel has no --eta
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"lambda": 4, "coupling": "const:0.5", "eta": -0.2, "n": 3}
        ))
        code, out, err = run(
            capsys, "tafel", "--config", str(cfg), "--method", "eff",
        )
        assert code == 0
        assert err == ""
        assert len(out.strip().split("\n")) == 1 + 3

class TestSweep:
    def test_barrier_sweep_over_dg(self, capsys):
        code, out, _err = run(
            capsys, "sweep", "--x", "dg", "--from", "-1", "--to", "0.5",
            "--n", "4", "--lambda", "4", "--coupling", "const:0.5",
            "--method", "marcus",
        )
        assert code == 0
        table = SweepTable.from_csv(out)
        assert table.columns == ["dG0_eV", "Estar_marcus_eV"]
        dg = table.column("dG0_eV")
        assert np.allclose(
            table.column("Estar_marcus_eV"), (4.0 + dg) ** 2 / 16.0
        )

    def test_unknown_variable_exits_2(self, capsys):
        code, _out, err = run(
            capsys, "sweep", "--x", "bogus", "--from", "0", "--to", "1",
            "--lambda", "4", "--coupling", "const:0.5",
        )
        assert code == 2
        assert "sweep variable" in err


class TestTafel:
    def test_eff_column_matches_closed_form(self, capsys):
        code, out, _err = run(
            capsys, "tafel", "--lambda", "4", "--coupling", "const:1",
            "--method", "eff", "--eta-from", "-0.4", "--eta-to", "0.2",
            "--n", "4",
        )
        assert code == 0
        table = SweepTable.from_csv(out)
        for eta, logk in zip(
            table.column("eta_f_V"), table.column("log10k_eff")
        ):
            ref = mhc_rate_closed_form(
                1.0, ElectrodeConditions(300.0, float(eta), 1.0)
            )
            # CSV carries 10 significant digits
            assert logk == pytest.approx(math.log10(ref), abs=1e-7)


class TestEffColumnGolden:
    # stdout and stderr of the per-point closed-form loop that the batched
    # eff column replaced, byte for byte
    @pytest.mark.parametrize(
        "name, argv",
        [
            # lam_eff = 0 at every point
            ("tafel_eff_singular",
             "tafel --lambda 1 --coupling const:0.5 --method eff"),
            # lam_eff <= 0 on part of the line
            ("tafel_eff_mixed",
             "tafel --lambda 4 --coupling linear:0.2,1.9 --method eff"),
            ("arrhenius_eff",
             "arrhenius --lambda 4 --coupling linear:0.6,1.0 --method eff"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


class TestExactColumnGolden:
    # stdout and stderr of the exact column with one ExactAdiabat built
    # per rate, before one was shared by every rate of a line
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("tafel_exact_const",
             "tafel --lambda 4 --coupling const:0.5 --method exact --n 21"),
            ("tafel_exact_poly",
             "tafel --lambda 4 --coupling poly:0.3,0.5,-0.4 --method exact --n 21"),
            ("arrhenius_exact",
             "arrhenius --lambda 4 --coupling linear:0.6,1.0 --method exact"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


class TestExactBarrierGolden:
    # stdout and stderr of etkit barrier and sweep --x dg with one
    # ExactAdiabat built per barrier() call, before every barrier of a
    # (lam, coupling) shared one
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sweep_exact_poly",
             "sweep --x dg --from -1 --to 0.5 --method exact --lambda 4 "
             "--coupling poly:0.3,0.5,-0.4"),
            ("barrier_all_poly",
             "barrier --method all --lambda 4 --coupling poly:0.3,0.5,-0.4"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


class TestMarcusFormColumnGolden:
    # stdout and stderr of the Marcus-form columns when a rate doubled its
    # window until the integral stopped changing. The two tafel files were
    # regenerated under composite Simpson: each changed row equals the
    # dense-trapezoid oracle (reference.marcus_family_rate) to the
    # printed digit, where adaptive Simpson was 1e-9 off
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("tafel_marcus_const",
             "tafel --lambda 4 --coupling const:0.5 --method marcus"),
            ("tafel_shift_linear",
             "tafel --lambda 4 --coupling linear:0.6,1.0 --method shift"),
            ("arrhenius_shift",
             "arrhenius --lambda 4 --coupling linear:0.6,1.0 --method shift"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


class TestTableCommandGolden:
    # stdout, stderr and exit code of the subcommands that joined their own
    # CSV lines or exit code, before every subcommand returned a SweepTable
    # for main to write
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("surface_linear",
             "surface --lambda 4 --coupling linear:0.6,1.0 --n 11"),
            ("fit_eff_mixed", f"fit --input {GOLDEN / 'tafel_eff_mixed.csv'}"),
            ("extract_v", "extract-v --lambda 6.3 --lambda-eff 0.75"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)

    def test_unconverged_fit_unchanged(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "eta_f_V,log10k_eff\n"
            + "".join(f"{e:g},0\n" for e in np.linspace(-0.5, 0.5, 9))
        )
        assert_golden(capsys, "fit_flat", f"fit --input {path}", status=4)


class TestReadmePipelineGolden:
    # stdout and stderr of the README's tafel and fit lines (the open
    # Condon eff column) from before lam_eff(dg) was one polynomial in dg
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("tafel_eff_const",
             "tafel --lambda 4 --coupling const:0.5 --eta-from -1.0 --eta-to 0.5 "
             "--n 61 --method eff"),
            ("fit_eff_const",
             f"fit --input {GOLDEN / 'tafel_eff_const.csv'} --temp 300"),
        ],
    )
    def test_csv_and_warnings_unchanged(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


class TestArrhenius:
    def test_runs_and_is_monotone(self, capsys):
        code, out, _err = run(
            capsys, "arrhenius", "--lambda", "4", "--coupling", "const:1",
            "--method", "eff", "--tmin", "280", "--tmax", "320", "--n", "5",
            "--eta", "0",
        )
        assert code == 0
        table = SweepTable.from_csv(out)
        lnk = list(table.column("lnk_eff"))
        assert lnk == sorted(lnk, reverse=True)

    def test_bad_temperature_window_exits_2(self, capsys):
        code, _out, _err = run(
            capsys, "arrhenius", "--lambda", "4", "--coupling", "const:1",
            "--tmin", "350", "--tmax", "300",
        )
        assert code == 2


class TestFit:
    def write_tafel(self, tmp_path, lam_eff=1.0, offset=2.0):
        eta = np.linspace(-0.8, 0.4, 13)
        rows = [
            [
                float(e),
                math.log10(
                    mhc_rate_closed_form(
                        lam_eff, ElectrodeConditions(300.0, float(e), 1.0)
                    )
                )
                + offset,
            ]
            for e in eta
        ]
        table = SweepTable(columns=["eta_f_V", "log10k_eff"], rows=rows)
        path = tmp_path / "tafel.csv"
        path.write_text(table.to_csv())
        return path

    def test_roundtrip_recovery(self, capsys, tmp_path):
        path = self.write_tafel(tmp_path)
        code, out, _err = run(capsys, "fit", "--input", str(path))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "lambda_eff_eV,log10_scale,rms_residual_dex,n_points,converged"
        )
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx(1.0, abs=1e-5)
        assert float(cells[1]) == pytest.approx(2.0, abs=1e-6)
        assert cells[3] == "13"
        assert cells[4] == "true"

    def test_non_convergence_exits_4(self, capsys, tmp_path):
        eta = np.linspace(-0.5, 0.5, 9)
        table = SweepTable(
            columns=["eta_f_V", "log10k_eff"],
            rows=[[float(e), 0.0] for e in eta],
        )
        path = tmp_path / "flat.csv"
        path.write_text(table.to_csv())
        code, out, _err = run(capsys, "fit", "--input", str(path))
        assert code == 4
        assert out.strip().split("\n")[1].endswith("false")

    def test_subnormal_temperature_exits_2(self, capsys, tmp_path):
        # 1/(k_B T) divided by zero and exited 1 with a traceback
        path = self.write_tafel(tmp_path)
        code, _out, err = run(
            capsys, "fit", "--input", str(path), "--temp", "5e-324",
        )
        assert code == 2
        assert err.startswith("error: temperature must be positive")

    def test_missing_column_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        code, _out, err = run(capsys, "fit", "--input", str(path))
        assert code == 2
        assert "eta_f_V" in err

    def test_ycol_selects_among_many(self, capsys, tmp_path):
        path = self.write_tafel(tmp_path)
        table = SweepTable.from_csv(path.read_text())
        table.columns = ["eta_f_V", "log10k_a"]
        rows2 = [row + [row[1] + 1.0] for row in table.rows]
        two = SweepTable(
            columns=["eta_f_V", "log10k_a", "log10k_b"], rows=rows2
        )
        path.write_text(two.to_csv())
        code, _out, err = run(capsys, "fit", "--input", str(path))
        assert code == 2
        assert "ycol" in err
        code, out, _err = run(
            capsys, "fit", "--input", str(path), "--ycol", "log10k_b",
        )
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == (
            pytest.approx(3.0, abs=1e-6)
        )


class TestExtractV:
    def test_strong_coupling_value(self, capsys):
        code, out, _err = run(
            capsys, "extract-v", "--lambda", "6.3", "--lambda-eff", "0.75",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "V_eV"
        assert float(lines[1]) == pytest.approx(
            3.15 - math.sqrt(6.3 * 0.75) / 2, abs=1e-9
        )

    def test_domain_error_exits_2(self, capsys):
        code, _out, _err = run(
            capsys, "extract-v", "--lambda", "4", "--lambda-eff", "5",
        )
        assert code == 2

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_2(self, capsys, lam):
        code, out, err = run(
            capsys, "extract-v", "--lambda", lam, "--lambda-eff", "1",
        )
        assert code == 2
        assert out == ""
        assert "lam must be positive and finite" in err


class TestUnwritableOut:
    """An --out in a missing directory exits 2 with a message; it ended
    in a FileNotFoundError traceback."""

    @pytest.mark.parametrize("command", ["barrier", "tafel", "fit"])
    def test_exits_2_with_message(self, capsys, tmp_path, command):
        argv = {
            "barrier": ["--lambda", "4", "--coupling", "const:0.5"],
            "tafel": ["--lambda", "4", "--coupling", "const:0.5",
                      "--method", "eff", "--n", "3"],
            "fit": ["--input", str(TestFit().write_tafel(tmp_path))],
        }[command]
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, command, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: cannot write output {str(path)!r}: No such file or directory\n"
        )
        assert not path.parent.exists()


class TestUsageErrorMessages:
    """Exit 2 with nothing on stdout, and on stderr the message, then the
    hint to the subcommand's --help."""

    def assert_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\nrun 'etkit {argv[0]} --help' for usage\n"

    def test_unknown_method(self, capsys):
        self.assert_usage_error(
            capsys,
            ["barrier", "--lambda", "4", "--coupling", "const:1", "--method", "foo"],
            "unknown method 'foo'; expected all, marcus, shift, eff or exact",
        )

    def test_config_value_its_type_rejects(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": "four"}))
        self.assert_usage_error(
            capsys, ["surface", "--config", str(cfg), "--coupling", "const:1"],
            "config key 'lambda' has invalid value 'four'",
        )

    def test_config_that_is_no_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        self.assert_usage_error(
            capsys,
            ["surface", "--config", str(cfg), "--lambda", "4", "--coupling", "const:1"],
            "config must be a flat JSON object",
        )

    def test_fit_input_missing(self, capsys, tmp_path):
        path = str(tmp_path / "missing.csv")
        self.assert_usage_error(
            capsys, ["fit", "--input", path],
            f"cannot read input {path!r}: [Errno 2] No such file or directory: {path!r}",
        )

    def test_fit_ycol_absent(self, capsys, tmp_path):
        path = tmp_path / "tafel.csv"
        path.write_text("eta_f_V,log10k_eff\n-0.1,1.0\n0.1,0.5\n")
        self.assert_usage_error(
            capsys, ["fit", "--input", str(path), "--ycol", "nope"],
            "input has no column 'nope'",
        )


class TestReadmePipeline:
    """The README's CLI example runs: its tafel line writes the one
    log10k_* column that its fit line reads."""

    def test_tafel_then_fit(self, capsys, tmp_path, monkeypatch):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        (block,) = [b for b in blocks if "etkit fit" in b]
        argvs = [shlex.split(line)[1:] for line in block.splitlines()]
        steps = [a for a in argvs if a[0] in ("tafel", "fit")]
        assert [a[0] for a in steps] == ["tafel", "fit"]
        monkeypatch.chdir(tmp_path)
        for argv in steps:
            code, out, _err = run(capsys, *argv)
            assert code == 0, argv
        header, row = out.strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["converged"] == "true"
