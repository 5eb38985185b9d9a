import math

import numpy as np
import pytest

from ods.cli import (
    EXIT_INTEGRATOR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    TRAJECTORY_HEADER,
    estimate_period,
    main,
)
from ods.config import parse_config, render_config
from ods.errors import ConfigError


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.drive.omega12 == 2.0
        assert cfg.drive.delta == pytest.approx(0.05)
        assert cfg.rates.gamma2_deph == 0.02
        assert cfg.integrator.method == "rk45-adaptive"
        assert cfg.schedule.tau == pytest.approx(0.01 * cfg.drive.period)
        assert cfg.t_final == pytest.approx(4 * cfg.drive.period)

    def test_omega_shorthand(self):
        cfg = parse_config("omega = 0.2\n")
        assert cfg.drive.omega12 == 0.2
        assert cfg.drive.omega34 == 0.2

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nomega12 = 1.5  # inline\n")
        assert cfg.drive.omega12 == 1.5

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("omega = 2\n# ok\nbogus = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("omega = 2\nomega = 3\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("omega = two\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("omega 2\n")

    def test_delta_mismatch_rejected(self):
        from ods.errors import ValidationError

        with pytest.raises(ValidationError):
            parse_config("delta1 = 0.3\ndelta2 = 0.2\ndelta3 = 0.4\ndelta4 = 0.1\n")

    def test_delta_mismatch_allowed_when_opted_in(self):
        cfg = parse_config(
            "delta1 = 0.3\ndelta2 = 0.2\ndelta3 = 0.4\ndelta4 = 0.1\n"
            "allow_non_ods = true\n"
        )
        assert not cfg.drive.is_ods_valid

    def test_overrides_replace_file_values(self):
        cfg = parse_config("omega = 2\n", {"omega": "0.2"})
        assert cfg.drive.omega12 == 0.2

    def test_round_trip(self):
        cfg = parse_config("omega = 0.7\nmethod = rk4-fixed\nstep = 0.1\n"
                           "target_alpha = 0.5\nn_periods = 7\n"
                           "ramp_shape = counterintuitive\n")
        assert cfg.schedule.shape == "counterintuitive"
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = parse_config("")
        assert parse_config(render_config(cfg)) == cfg


class TestEstimatePeriod:
    def test_recovers_rotation_period(self):
        T = 4 * math.pi / 0.1
        t = np.linspace(0, 2 * T, 4001)
        rho11 = np.cos(0.05 * t) ** 2
        assert estimate_period(t, rho11, 1 - rho11) == pytest.approx(T, rel=1e-6)

    def test_nan_without_crossings(self):
        t = np.linspace(0, 10, 100)
        assert math.isnan(estimate_period(t, np.ones_like(t), np.zeros_like(t)))


class TestMain:
    def test_simulate_writes_trajectory(self, tmp_path, capsys):
        code = main(["simulate", "--set", "t_final=50", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) > 10
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0)  # rho11(0)
        out = capsys.readouterr().out
        assert "max rho33" in out and "adiabaticity ratio" in out

    def test_simulate_deterministic(self, tmp_path):
        for sub in ("x", "y"):
            d = tmp_path / sub
            d.mkdir()
            assert main(["simulate", "--set", "t_final=50", "--out", str(d)]) == EXIT_OK
        assert (tmp_path / "x" / "trajectory.csv").read_bytes() == \
               (tmp_path / "y" / "trajectory.csv").read_bytes()

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = 0.2\nt_final = 40\n")
        assert main(["simulate", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_plan_prints_schedule(self, tmp_path, capsys):
        code = main(["plan", "--set", "target_alpha=0.7853981633974483",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "delta_phi" in out
        dphi = float(out.split("delta_phi = ")[1].splitlines()[0])
        assert dphi == pytest.approx(3 * math.pi / 2)

    def test_plan_without_target_fails(self, tmp_path, capsys):
        assert main(["plan", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_plan_verify(self, tmp_path, capsys):
        code = main(["plan", "--set", "target_alpha=0.5", "--verify",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        fid = float(out.split("F = ")[1].split(",")[0])
        assert fid > 0.95

    def test_fig2_variants_write_csv_and_script(self, tmp_path, capsys):
        code = main(["fig2", "a", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "fig2a.csv").exists()
        assert (tmp_path / "fig2a.gnuplot").read_text().startswith("# gnuplot")
        out = capsys.readouterr().out
        period = float(out.split("period estimate: ")[1].splitlines()[0])
        assert period == pytest.approx(2 * math.pi / 0.05, rel=0.01)

    def test_fig3_short_scan(self, tmp_path, capsys):
        code = main(["fig3", "--n-max", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "n,t,F,F2"
        assert len(lines) == 5  # n = 0..3
        assert (tmp_path / "fig3.gnuplot").exists()
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] > 0.95
        # the inset starts from the same |1> as the scan
        inset = (tmp_path / "fig3_inset.csv").read_text().splitlines()
        assert float(inset[1].split(",")[2]) == float(lines[1].split(",")[2]) == 1.0

    def test_fig3_rejects_other_initial_state(self, tmp_path, capsys):
        code = main(["fig3", "--n-max", "3", "--set", "initial_state=2",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "initial_state" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--set", "bogus=1",
                     "--out", str(tmp_path)]) == EXIT_PARSE
        assert "config error" in capsys.readouterr().err

    def test_malformed_override_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--set", "omega",
                     "--out", str(tmp_path)]) == EXIT_PARSE

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--set", "delta3=0.4", "--set", "delta4=0.1",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_counterintuitive_off_node_exit_code(self, tmp_path, capsys):
        # sin(delta t_on) and cos(delta t_on) are both nonzero at t_on = 10
        code = main(["simulate", "--set", "ramp_shape=counterintuitive",
                     "--set", "t_on=10", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "counterintuitive" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "omega=nan", "gamma2_deph=inf", "abs_tol=nan", "tau=nan", "sample_interval=1e-12",
    ])
    def test_non_finite_or_unbounded_exit_code(self, tmp_path, capsys, override):
        # each is rejected before integration instead of hanging or printing NaN
        code = main(["simulate", "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_negative_rate_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--set", "gamma2_deph=-1",
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
