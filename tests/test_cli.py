import contextlib
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonsim import cli, config, optimizer, simulator
from platoonsim.cli import _platoon_metrics_batch, main
from platoonsim.config import (
    apply_overrides,
    build_optimizer_config,
    build_scenario,
    load_config,
)
from platoonsim.controller import beta_upper_bound
from platoonsim.errors import ConfigError, NumericalBlowupError
from platoonsim.metrics import WindowSums, default_fuel_coefficients, load_fuel_coefficients
from platoonsim.optimizer import OptimizerConfig, optimize
from platoonsim.simulator import LeadProfile, Scenario

from conftest import unclamped_idm


def short_config(*overrides):
    cp = load_config("scenario1")
    apply_overrides(cp, SHORT[1::2] + list(overrides))
    return cp


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def saturating_table(path):
    """The bundled fuel table with a constant term far above the exponent cap."""
    coeffs = default_fuel_coefficients()
    with open(path, "w") as fh:
        fh.write("units: kmh\n")
        for name, mat in (("accel", coeffs.k_accel), ("decel", coeffs.k_decel)):
            mat = mat.copy()
            mat[0, 0] = 100.0
            fh.write(f"regime: {name}\n")
            for row in mat:
                fh.write(" ".join(f"{val:.17g}" for val in row) + "\n")
    return path


SHORT = [
    "--set", "scenario.t_f=60",
    "--set", "scenario.metric_window=10 50",
    "--set", "scenario.lead_profile=0:21 10:21 20:18 30:18 40:21",
]


class TestConfig:
    def test_presets_parse(self):
        for name in ("scenario1", "scenario2"):
            sc = build_scenario(load_config(name))
            assert sc.n_followers == 10
            assert sc.mpr == 0.1
            assert sc.controller.kind == "ts-ops"
        sc2 = build_scenario(load_config("scenario2"))
        assert sc2.metric_window == (100.0, 300.0)
        assert sc2.hv_model.delta == 15.5
        assert sc2.controller.phi2 == 0.04

    def test_optimizer_defaults_from_envelope(self):
        cp = load_config("scenario1")
        sc = build_scenario(cp)
        ocfg = build_optimizer_config(cp, sc)
        assert ocfg.beta_max == pytest.approx(0.0642, abs=5e-5)
        assert ocfg.epsilon == 1e-5
        assert ocfg.n_max == 300

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no/such/file.cfg"):
            load_config("no/such/file.cfg")

    def test_override_validation(self):
        cp = load_config("scenario1")
        with pytest.raises(ConfigError):
            apply_overrides(cp, ["notdotted=3"])
        apply_overrides(cp, ["scenario.dt=0.2"])
        assert build_scenario(cp).dt == 0.2

    @pytest.mark.parametrize(
        "override, reason",
        [
            ("controller.kind=%(x)", "invalid interpolation syntax in '%(x)' at position 0"),
            ("DEFAULT.mpr=0.2", "Invalid section name: 'DEFAULT'"),
        ],
    )
    def test_override_that_configparser_rejects_exits_1(self, tmp_path, capsys, override, reason):
        # ConfigParser.set raises ValueError here; it is a config error that
        # names the override, not a traceback
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), "--set", override])
        assert code == 1
        assert capsys.readouterr().err == f"config error: override {override!r}: {reason}\n"
        assert not (tmp_path / "trajectory.csv").exists()

    def test_bad_value_reports_key(self):
        cp = load_config("scenario1")
        apply_overrides(cp, ["hv_model.a=fast"])
        with pytest.raises(ConfigError, match=r"\[hv_model\] a"):
            build_scenario(cp)

    @pytest.mark.parametrize(
        "override, named",
        [
            ("controller.betta=0.5", r"\[controller\] betta"),
            ("optimizer.per_av=true", r"\[optimizer\] per_av"),
            ("scenario.Metric_Windows=1 2", r"\[scenario\] metric_windows"),
            ("solver.dt=0.1", r"\[solver\] dt"),
            # an unknown section without keys
            ("solver", r"\[solver\]$"),
        ],
    )
    def test_unknown_key_rejected(self, override, named):
        cp = load_config("scenario1")
        if "=" in override:
            apply_overrides(cp, [override])
            named = "key " + named
        else:
            cp.add_section(override)
            named = "section " + named
        with pytest.raises(ConfigError, match="unknown config " + named):
            build_scenario(cp)

    def test_key_table_names_builder_fields(self):
        # each key sets a field of what it builds, so a typo in the table
        # fails here rather than when a config sets that key
        for section, keys in config._KEYS.items():
            for key, (builder, field, parse) in keys.items():
                assert field in inspect.signature(builder).parameters, (section, key)
                assert callable(parse), (section, key)
        builders = {builder for keys in config._KEYS.values() for builder, _, _ in keys.values()}
        assert all(map(dataclasses.is_dataclass, builders - {load_fuel_coefficients}))

    @pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"),
                                              ("-1", "-1.0")])
    @pytest.mark.parametrize("command", [
        ["run"], ["tune"], ["grid", "--beta-range", "0:5:2", "--gamma-range", "1:1:1"]])
    def test_bad_envelope_s0_exits_1_naming_it(self, tmp_path, capsys, command, value, shown):
        # an infinite envelope made the beta bound inf, so `grid` accepted
        # any beta range and `tune` blamed beta_max, a key nobody set
        code = main([command[0], "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", f"controller.envelope_s0={value}", *command[1:]])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"config error: envelope_s0 must be positive and finite, got {shown}\n")
        assert os.listdir(tmp_path) == []

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        path = tmp_path / "no_hv.cfg"
        path.write_text("[av_model]\nk1 = 0.02\nk2 = 0.13\neta = 21.51\ntau = 1.71\nlength = 5\n")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: missing required key [hv_model] a\n"

    def test_left_out_keys_take_the_dataclass_defaults(self):
        cp = load_config("scenario1")
        for section in ("scenario", "controller", "optimizer"):
            cp.remove_section(section)
        sc = build_scenario(cp)
        assert sc == Scenario(
            hv_model=sc.hv_model, av_model=sc.av_model, lead=LeadProfile((0.0,), (21.0,))
        )
        point = replace(sc, mpr=0.1)
        assert build_optimizer_config(cp, point) == OptimizerConfig(
            beta_max=beta_upper_bound(point.envelope_s0_effective(), 2.0, 500.0, math.pi / 2)
        )


class TestUsageErrors:
    # argparse's usage errors exit 1, the config-error code; 2 stays the
    # code of a numerical failure

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["run", "--scenario", "scenario1", "--bogus"], "unrecognized arguments: --bogus"),
        (["grid", "--scenario", "scenario1", "--beta-range", "-inf:0.05:2",
          "--gamma-range", "0.5:1.0:2"], "argument --beta-range: expected one argument"),
        # controller.kind, scenario.dt and scenario.integrator are set with --set only
        (["run", "--scenario", "scenario1", "--controller", "ts-trc"],
         "unrecognized arguments: --controller ts-trc"),
        (["run", "--scenario", "scenario1", "--dt", "0.05"], "unrecognized arguments: --dt 0.05"),
        (["run", "--scenario", "scenario1", "--integrator", "euler"],
         "unrecognized arguments: --integrator euler"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: platoonsim")
        assert err.endswith(f"error: {message}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: platoonsim")


class TestUnreadableInputs:
    # an input that cannot be read is one config-error line and exit 1,
    # before any integration

    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        def fail(*args, **kw):
            raise AssertionError("integrated despite an unreadable input")

        monkeypatch.setattr(cli, "simulate", fail)

    def run_with(self, tmp_path, capsys, *argv):
        code = main(["run", "--out", str(tmp_path / "out"), *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1
        return err

    def test_missing_fuel_table(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        err = self.run_with(tmp_path, capsys, "--scenario", "scenario1",
                            "--set", f"metrics.fuel_coefficients={missing}")
        assert f"cannot read fuel coefficients {missing}" in err

    def test_non_numeric_fuel_table(self, tmp_path, capsys):
        table = tmp_path / "coeffs.txt"
        table.write_text("units: kmh\nregime: accel\n1 2 x 4\n")
        err = self.run_with(tmp_path, capsys, "--scenario", "scenario1",
                            "--set", f"metrics.fuel_coefficients={table}")
        assert "could not convert string to float: 'x'" in err

    @pytest.mark.parametrize("extra, message", [
        ("regime: accel\n" + "0 0 0 0\n" * 4, "repeats regime 'accel'"),
        ("units: ms\n", "repeats its units: 'units: ms'"),
    ])
    def test_fuel_table_repeating_a_label(self, tmp_path, capsys, extra, message):
        # the bundled table plus a second block of a regime, or a second
        # units line, which a reader keeping the last one would load silently
        table = tmp_path / "coeffs.txt"
        bundled = resources.files("platoonsim").joinpath("data/vt_micro_fuel.txt")
        table.write_text(bundled.read_text() + extra)
        err = self.run_with(tmp_path, capsys, "--scenario", "scenario1",
                            "--set", f"metrics.fuel_coefficients={table}")
        assert f"cannot read fuel coefficients {table}: coefficient file {message}" in err

    def test_scenario_is_a_directory(self, tmp_path, capsys):
        err = self.run_with(tmp_path, capsys, "--scenario", str(tmp_path))
        assert f"cannot read {tmp_path}" in err


class TestRun:
    def test_writes_artifacts(self, tmp_path, capsys):
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT])
        assert code == 0
        for name in ("trajectory.csv", "metrics.csv", "safety.csv"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "platoon ASV" in out and "violations: 0" in out

    def test_missing_scenario_exits_1(self, tmp_path, capsys):
        code = main(["run", "--scenario", "missing.cfg", "--out", str(tmp_path)])
        assert code == 1
        assert "missing.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("gap", ["0", "-3"])
    def test_bad_init_spacing_exits_1(self, tmp_path, capsys, gap):
        spacing = " ".join(["30"] * 4 + [gap] + ["30"] * 5)
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", f"scenario.init_spacing={spacing}"])
        assert code == 1
        assert "init_spacing must be positive" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("profile", ["0:21 100:inf", "0:21 inf:18", "0:21 nan:18"])
    def test_non_finite_lead_knot_exits_1(self, tmp_path, capsys, profile):
        # these used to run: ASV 12.6555 m/s, ASV 0.0000, and a blow-up at
        # t = 0.1 s (exit 2)
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", f"scenario.lead_profile={profile}"])
        assert code == 1
        assert "profile knots must be finite" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_minus_inf_speed_is_a_blowup(self, tmp_path, capsys, integrator):
        # a first spacing that rounds to 0 gives follower 1 a = -inf; under
        # Euler its speed was -inf, clamped to 0 and counted as a floor hit,
        # and the run exited 0 with an FC of nan; both integrators now fail
        spacing = " ".join(["1e-200"] + ["30"] * 9)
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", f"scenario.init_spacing={spacing}",
                     "--set", f"scenario.integrator={integrator}", "--set", "scenario.t_f=20",
                     "--set", "scenario.metric_window=0 20"])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure: non-finite state for vehicle 1 at t=0.100 s" in err
        assert "speed floor" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_zero_beta_equals_none(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--scenario", "scenario1", "--out", str(out_a), *SHORT,
                     "--set", "controller.beta=0"]) == 0
        assert main(["run", "--scenario", "scenario1", "--out", str(out_b), *SHORT,
                     "--set", "controller.kind=none"]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "controller.betta=0.5"])
        assert code == 1
        assert "unknown config key [controller] betta" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_nan_safe_spacing_exits_1(self, tmp_path, capsys):
        # NaN would compare False against every spacing and pass the audit
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "scenario.min_safe_spacing=nan", "--strict-safety"])
        assert code == 1
        assert "min_safe_spacing must be positive and finite" in capsys.readouterr().err

    def test_strict_safety_exit_code(self, tmp_path):
        # an absurd safe-spacing threshold guarantees violations
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "scenario.min_safe_spacing=50", "--strict-safety"])
        assert code == 3
        rows = read_csv(tmp_path / "safety.csv")
        assert len(rows) > 1

    def test_custom_fuel_table(self, tmp_path, capsys):
        # doubling the constant term roughly squares the rate scale, which
        # must show up in the reported fuel numbers
        from platoonsim.metrics import default_fuel_coefficients

        coeffs = default_fuel_coefficients()
        table = tmp_path / "coeffs.txt"
        with open(table, "w") as fh:
            fh.write("units: kmh\n")
            for name, mat in (("accel", coeffs.k_accel), ("decel", coeffs.k_decel)):
                fh.write(f"regime: {name}\n")
                for i, row in enumerate(mat):
                    row = row.copy()
                    if i == 0:
                        row[0] *= 0.5
                    fh.write(" ".join(f"{val:.12g}" for val in row) + "\n")
        out_custom = tmp_path / "custom"
        out_default = tmp_path / "default"
        assert main(["run", "--scenario", "scenario1", "--out", str(out_custom), *SHORT,
                     "--set", f"metrics.fuel_coefficients={table}"]) == 0
        assert main(["run", "--scenario", "scenario1", "--out", str(out_default), *SHORT]) == 0
        fc_custom = float(read_csv(out_custom / "metrics.csv")[-1][2])
        fc_default = float(read_csv(out_default / "metrics.csv")[-1][2])
        assert fc_custom > 10 * fc_default

    def test_integrator_and_dt_set_through_config(self, tmp_path):
        dumped = tmp_path / "effective.cfg"
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "scenario.integrator=euler", "--set", "scenario.dt=0.05",
                     "--dump-config", str(dumped)])
        assert code == 0
        sc = build_scenario(load_config(str(dumped)))
        assert (sc.integrator, sc.dt) == ("euler", 0.05)

    def test_erf_kernel_without_scipy_exits_1(self, tmp_path, capsys, monkeypatch):
        # a NumPy-only install: importing scipy.special fails
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "controller.kernel=erf"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: the erf kernel needs SciPy (the 'erf' extra)\n"
        )
        assert not (tmp_path / "trajectory.csv").exists()

    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys, monkeypatch):
        # every command creates --out before any work, so it fails fast
        def fail(*args, **kw):
            raise AssertionError("work done before --out was created")

        monkeypatch.setattr(cli, "optimize", fail)
        monkeypatch.setattr(cli, "simulate", fail)
        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        out = tmp_path / "taken"
        out.write_text("")
        for argv in (["run"], ["tune"], ["sweep", "--tune-first", "--mprs", "0.1"],
                     ["grid", "--beta-range", "0:0.05:2", "--gamma-range", "1:1:1"]):
            assert main([*argv, "--scenario", "scenario1", "--out", str(out), *SHORT]) == 1
            assert capsys.readouterr() == (
                "", f"config error: cannot write {out}: File exists\n"), argv

    @pytest.mark.parametrize("argv, message", [
        (["run", "--set", "controller.betta=1"], "unknown config key [controller] betta"),
        (["run", "--set", "metrics.fuel_coefficients=missing.txt"],
         "cannot read fuel coefficients missing.txt: "
         "[Errno 2] No such file or directory: 'missing.txt'"),
        (["tune", "--set", "optimizer.epsilon=2"], "epsilon must be in (0, 1), got 2.0"),
        (["sweep", "--mprs", "0.1,x"],
         "bad --mprs list: could not convert string to float: 'x'"),
        (["sweep", "--mprs", "0,0.1", "--tune-first", "--set", "optimizer.epsilon=2"],
         "epsilon must be in (0, 1), got 2.0"),
        (["grid", "--beta-range", "0:1", "--gamma-range", "1:1:1"],
         "bad range '0:1', expected LO:HI:N"),
        (["tune", "--set", "controller.kind=none"],
         "only the 'ts-ops' controller is tunable, got 'none'"),
        (["tune", "--set", "scenario.mpr=0"], "scenario has no AV to tune"),
        (["sweep", "--tune-first", "--mprs", "0.1", "--set", "controller.kind=ts-trc"],
         "only the 'ts-ops' controller is tunable, got 'ts-trc'"),
    ], ids=["run", "run-fuel-table", "tune", "sweep", "sweep-tune-first", "grid",
            "tune-untunable-kind", "tune-no-av", "sweep-tune-first-untunable-kind"])
    def test_config_error_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch, argv, message):
        # --dump-config is written and --out created once the command's
        # inputs have passed their checks, so a config error leaves neither
        def fail(*args, **kw):
            raise AssertionError("work done before the inputs were checked")

        monkeypatch.setattr(cli, "optimize", fail)
        monkeypatch.setattr(cli, "simulate", fail)
        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        monkeypatch.chdir(tmp_path)
        out, dumped = tmp_path / "new" / "sub", tmp_path / "dumped.cfg"
        assert main([*argv, "--scenario", "scenario1", "--out", str(out),
                     "--dump-config", str(dumped)]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not (tmp_path / "new").exists()
        assert not dumped.exists()

    def test_dump_config_into_missing_dir_exits_1(self, tmp_path, capsys):
        dumped = tmp_path / "missing" / "x.cfg"
        code = main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--dump-config", str(dumped)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write {dumped}: No such file or directory\n"
        )

    def test_dump_config_roundtrip(self, tmp_path):
        dumped = tmp_path / "effective.cfg"
        assert main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "scenario.mpr=0.5", "--dump-config", str(dumped)]) == 0
        original = load_config("scenario1")
        apply_overrides(original, ["scenario.t_f=60", "scenario.metric_window=10 50",
                                   "scenario.lead_profile=0:21 10:21 20:18 30:18 40:21",
                                   "scenario.mpr=0.5"])
        assert build_scenario(load_config(str(dumped))) == build_scenario(original)


# three followers (HV, AV, HV) behind a lead that brakes from 21 to 15 m/s
# within 1 s, over 2 s in steps of 0.5 s: small enough to pin every byte
TINY = [
    "--set", "scenario.n_followers=3", "--set", "scenario.mpr=0.4",
    "--set", "scenario.t_f=2", "--set", "scenario.dt=0.5",
    "--set", "scenario.metric_window=0 2", "--set", "scenario.lead_profile=0:21 1:15",
]
TINY_TRACE = (
    "iter,beta,gamma,J,lambda_beta,lambda_gamma\r\n"
    "1,0.05,1,1.819916959,-3.539152371,-0.00504538394\r\n"
    "2,0.05035391524,1.000000505,1.818672884,-3.53784045,-0.005081166242\r\n"
    "3,0.05070769928,1.000001013,1.81742973,-3.536528844,-0.005116937797\r\n"
)


class TestOutputBytes:
    """Every CSV a command writes, byte for byte: the header, csv's "\\r\\n"
    endings and each column's number format."""

    def test_run_metrics_and_safety(self, tmp_path, capsys):
        # the first HV's spacing drops below 32 m at 1.5 s and 2 s
        assert main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *TINY,
                     "--set", "scenario.min_safe_spacing=32"]) == 0
        assert (tmp_path / "metrics.csv").read_bytes() == (
            b"vehicle,asv,fc\r\n"
            b"1,1.197407,0.947185\r\n"
            b"2,0.155392,2.516375\r\n"
            b"3,0.019959,3.137096\r\n"
            b"platoon,0.457586,2.200219\r\n"
        )
        assert (tmp_path / "safety.csv").read_bytes() == (
            b"t,vehicle,spacing\r\n"
            b"1.500000,1,31.037966\r\n"
            b"2.000000,1,29.273074\r\n"
        )
        assert capsys.readouterr() == (
            "platoon ASV 0.4576 m/s, platoon FC 2.20 ml, safety violations: 2\n", "")

    def test_run_without_violations_writes_the_header(self, tmp_path):
        assert main(["run", "--scenario", "scenario1", "--out", str(tmp_path), *TINY]) == 0
        assert (tmp_path / "safety.csv").read_bytes() == b"t,vehicle,spacing\r\n"

    def test_tune_trace_and_gains(self, tmp_path, capsys):
        assert main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *TINY,
                     "--set", "optimizer.n_max=3", "--set", "optimizer.epsilon=1e-4"]) == 0
        assert (tmp_path / "trace.csv").read_bytes() == TINY_TRACE.encode()
        assert (tmp_path / "theta_opt.csv").read_bytes() == (
            b"beta,gamma,J\r\n"
            b"0.0507077,1,1.81743\r\n"
        )
        assert capsys.readouterr() == (
            "best gains: beta=0.0507 gamma=1.0000 (J=1.817430, 3 iterations, "
            "max-iterations)\n", "")

    def test_failed_tune_keeps_the_completed_rows(self, tmp_path, capsys, monkeypatch):
        # the third iteration's run blows up: the trace holds the first two
        # rows of the full descent's, and no gains are written
        terms, calls = optimizer._descent_terms, []

        def failing_terms(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericalBlowupError(2, 1.5)
            return terms(*args)

        monkeypatch.setattr(optimizer, "_descent_terms", failing_terms)
        assert main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *TINY,
                     "--set", "optimizer.n_max=3", "--set", "optimizer.epsilon=1e-4"]) == 2
        rows = TINY_TRACE.split("\r\n")
        assert (tmp_path / "trace.csv").read_bytes() == "\r\n".join(rows[:3] + [""]).encode()
        assert not (tmp_path / "theta_opt.csv").exists()
        assert capsys.readouterr() == (
            "", "numerical failure: non-finite state for vehicle 2 at t=1.500 s\n")


    # scenario 1 at MPR 0.7 under ts-trc, whose AV rows are positions, not a
    # slice; scenario 2 at MPR 0.3; scenario 2 at full penetration behind a
    # lead that stops, whose spacings fall below the safe minimum
    @pytest.mark.parametrize("preset, sets, violations, digest", [
        ("scenario1", ["scenario.mpr=0.7", "controller.kind=ts-trc"], 0,
         "d0e599154a03a77c4b418838a7c7ffe8f89c23e43666b2fe4c000f99e8263531"),
        ("scenario2", ["scenario.mpr=0.3"], 0,
         "11b35462ea83e0ff714af6556ef7874cb029976e0563f72483a8b28562ddaf96"),
        ("scenario2", ["scenario.mpr=1.0", "scenario.lead_profile=0:21 5:21 9:0"], 2899,
         "f61f8d3e07f120515005790a69ea234226f59655f3023d457cfb097f79f63c33"),
    ], ids=["ts-trc-positions", "ts-ops", "stop"])
    def test_run_trajectory(self, tmp_path, capsys, preset, sets, violations, digest):
        assert main(["run", "--scenario", preset, "--out", str(tmp_path), *SHORT,
                     *(arg for item in sets for arg in ("--set", item))]) == 0
        assert capsys.readouterr().out.endswith(f"safety violations: {violations}\n")
        data = (tmp_path / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestWindowPolicy:
    def test_window_past_the_grid_fails_every_command(self, tmp_path, capsys):
        # dt 0.7 would end the 500 s grid at 499.8 s, short of the window's
        # end; a horizon that is not a whole number of steps fails first
        window = ["--set", "scenario.dt=0.7", "--set", "scenario.metric_window=100 500"]
        commands = [
            ["run"],
            ["sweep", "--mprs", "0,1"],
            ["grid", "--beta-range", "0:0.05:2", "--gamma-range", "1:1:1"],
        ]
        errors = []
        for cmd in commands:
            out = tmp_path / cmd[0]
            assert main([*cmd, "--scenario", "scenario1", "--out", str(out), *window]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()  # no --out directory, so no CSV
        assert errors[0] == "config error: t_f 500.0 is not a whole number of dt 0.7 steps\n"
        assert errors == [errors[0]] * 3


    def test_bad_window_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # the window is checked when the scenario is built: no command tunes
        # or integrates anything first
        def fail(*args, **kw):
            raise AssertionError("work done before the window was checked")

        monkeypatch.setattr(cli, "optimize", fail)
        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        monkeypatch.setattr(cli, "simulate", fail)
        window = ["--set", "scenario.dt=0.7", "--set", "scenario.metric_window=100 500"]
        commands = [
            ["run"],
            ["tune"],
            ["sweep", "--mprs", "0.1,0.5"],
            ["sweep", "--mprs", "0.1,0.5", "--tune-first"],
            ["grid", "--beta-range", "0:0.05:2", "--gamma-range", "1:1:1"],
        ]
        for cmd in commands:
            out = tmp_path / cmd[0]
            assert main([*cmd, "--scenario", "scenario1", "--out", str(out), *window]) == 1
            err = capsys.readouterr().err
            assert err == "config error: t_f 500.0 is not a whole number of dt 0.7 steps\n", cmd


    @pytest.mark.parametrize("t_f, window", [("20", "0 15"), ("10", "0 10")])
    def test_horizon_off_the_grid_exits_1(self, tmp_path, capsys, t_f, window):
        # 0.3 s steps end at 20.1 s or 9.9 s, not at t_f: no run and no --out
        out = tmp_path / "out"
        assert main(["run", "--scenario", "scenario1", "--out", str(out),
                     "--set", f"scenario.t_f={t_f}", "--set", "scenario.dt=0.3",
                     "--set", f"scenario.metric_window={window}"]) == 1
        assert capsys.readouterr() == (
            "", f"config error: t_f {t_f}.0 is not a whole number of dt 0.3 steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("window", ["0 0.05", "12.34 12.36"], ids=["first", "between"])
    def test_window_of_fewer_than_two_samples_fails_every_command(
        self, tmp_path, capsys, monkeypatch, window
    ):
        # sample 0 alone, or no sample at all: no metric has two samples to
        # integrate, so every command exits 1 before any work
        def fail(*args, **kw):
            raise AssertionError("work done before the window was checked")

        monkeypatch.setattr(cli, "optimize", fail)
        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        monkeypatch.setattr(cli, "simulate", fail)
        commands = [
            ["run"],
            ["tune"],
            ["sweep", "--mprs", "0,0.5"],
            ["grid", "--beta-range", "0:0.05:2", "--gamma-range", "1:1:1"],
        ]
        t1, t2 = map(float, window.split())
        for cmd in commands:
            out = tmp_path / cmd[0]
            assert main([*cmd, "--scenario", "scenario1", "--out", str(out),
                         "--set", f"scenario.metric_window={window}"]) == 1
            assert capsys.readouterr() == ("", (
                f"config error: metric window ({t1}, {t2}) holds fewer than 2 samples "
                "at dt 0.1\n"
            )), cmd
            assert not out.exists()  # no --out directory, so no CSV


class TestWindowEnd:
    # the lead stops within 4 s after 51 s, so every lane clamps at 0 m/s
    # only after the metric window's end at 50 s
    LATE_STOP = [*SHORT, "--set",
                 "scenario.lead_profile=0:21 10:21 20:18 30:18 40:21 51:21 55:0"]

    def test_sweep_and_grid_ignore_clamps_after_t2(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path),
                     *self.LATE_STOP, "--mprs", "0.5,1"]) == 0
        assert main(["grid", "--scenario", "scenario1", "--out", str(tmp_path),
                     *self.LATE_STOP, "--beta-range", "0:0.05:2",
                     "--gamma-range", "1:1:1"]) == 0
        assert "speed floor" not in capsys.readouterr().err

    def test_run_still_reports_the_clamp(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="platoonsim.simulator"):
            assert main(["run", "--scenario", "scenario1", "--out", str(tmp_path),
                         *self.LATE_STOP]) == 0
        assert "speed floor at 0 m/s engaged" in caplog.text


class TestTune:
    def test_short_tune(self, tmp_path, capsys):
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "optimizer.n_max=3", "--set", "optimizer.epsilon=1e-4"])
        assert code == 0
        trace = read_csv(tmp_path / "trace.csv")
        assert trace[0] == ["iter", "beta", "gamma", "J", "lambda_beta", "lambda_gamma"]
        assert 2 <= len(trace) <= 4
        theta = read_csv(tmp_path / "theta_opt.csv")
        assert theta[0] == ["beta", "gamma", "J"]
        out = capsys.readouterr().out
        assert "beta=" in out and "gamma=" in out

    @pytest.mark.parametrize(
        "sets, stop",
        [
            # behind a flat lead J is 0 at any gains, so the descent converges
            (("scenario.lead_profile=0:21",), "2 iterations, converged"),
            (("optimizer.n_max=1",), "1 iterations, max-iterations"),
        ],
        ids=["converged", "max-iterations"],
    )
    def test_prints_the_best_gains_whatever_the_stop(self, tmp_path, capsys, sets, stop):
        # the gains shown are the best iterate's, which need not be where
        # the descent stopped, so the line does not call them converged
        sets = [arg for key in sets for arg in ("--set", key)]
        assert main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT, *sets]) == 0
        beta, gamma, _ = map(float, read_csv(tmp_path / "theta_opt.csv")[1])
        out = capsys.readouterr().out
        assert out.startswith(f"best gains: beta={beta:.4f} gamma={gamma:.4f} (J=")
        assert out.endswith(f", {stop})\n")

    def test_no_av_exits_1(self, tmp_path, capsys):
        # the preset states its envelope, so the descent's own check stops it
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", "scenario.mpr=0"])
        assert code == 1
        assert capsys.readouterr().err == "config error: scenario has no AV to tune\n"
        assert not (tmp_path / "trace.csv").exists()

    def test_closed_loop_sensitivity(self, tmp_path):
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "optimizer.n_max=2", "--set", "optimizer.sensitivity=closed-loop"])
        assert code == 0
        assert len(read_csv(tmp_path / "trace.csv")) == 3

    def test_coupled_sensitivity_is_gone(self, tmp_path, capsys):
        # the hand-derived "coupled" mode gave way to "closed-loop"
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", "optimizer.sensitivity=coupled"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: sensitivity mode must be 'exogenous' or 'closed-loop', "
            "got 'coupled'\n"
        )
        assert not (tmp_path / "trace.csv").exists()

    def test_beta_max_is_not_a_key(self, tmp_path, capsys):
        # the ceiling on beta is the envelope bound; a config cannot raise it
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", "optimizer.beta_max=1.0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: unknown config key [optimizer] beta_max\n"
        )
        assert not (tmp_path / "trace.csv").exists()

    def test_start_above_the_bound_is_projected_onto_it(self, tmp_path):
        # full 500 s horizon, so the bound is 0.0641967
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", "optimizer.beta0=0.5", "--set", "optimizer.n_max=1"])
        assert code == 0
        assert read_csv(tmp_path / "theta_opt.csv")[1][0] == "0.0641967"

    def test_no_av_without_envelope_exits_1(self, tmp_path, capsys):
        # without controller.envelope_s0 the beta bound has no AV to read
        cp = load_config("scenario1")
        cp.remove_option("controller", "envelope_s0")
        config.dump_config(cp, tmp_path / "no_envelope.cfg")
        code = main(["tune", "--scenario", str(tmp_path / "no_envelope.cfg"),
                     "--out", str(tmp_path), "--set", "scenario.mpr=0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: scenario has no AV, so no control envelope exists\n"
        )
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("failing_call", [1, 3])
    def test_failed_descent_keeps_its_trace(self, tmp_path, capsys, monkeypatch, failing_call):
        # the descent's run blows up on its third (first) call: the two
        # completed iterations (none) are written before the exit 2
        terms = optimizer._descent_terms
        calls = []

        def failing_terms(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise NumericalBlowupError(4, 12.3)
            return terms(*args)

        monkeypatch.setattr(optimizer, "_descent_terms", failing_terms)
        code = main(["tune", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "optimizer.n_max=5", "--set", "optimizer.epsilon=1e-4"])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: non-finite state for vehicle 4 at t=12.300 s\n"
        )
        trace = read_csv(tmp_path / "trace.csv")
        assert trace[0] == ["iter", "beta", "gamma", "J", "lambda_beta", "lambda_gamma"]
        assert [row[0] for row in trace[1:]] == [str(k) for k in range(1, failing_call)]
        assert not (tmp_path / "theta_opt.csv").exists()


class TestSweep:
    def test_improvements_zero_at_baseline(self, tmp_path):
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", "0,0.5,1"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["mpr", "asv", "fc", "asv_impr_pct", "fc_impr_pct"]
        assert len(rows) == 4
        assert float(rows[1][3]) == 0.0 and float(rows[1][4]) == 0.0
        # any AV share improves on the baseline (the full-horizon ordering
        # across MPRs is covered by the acceptance suite)
        assert float(rows[2][3]) > 0.0 and float(rows[3][3]) > 0.0

    def test_bad_mprs_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--mprs", "0,1.5"]) == 1

    @pytest.mark.parametrize("mprs", [",", "", " , "], ids=["comma", "empty", "blanks"])
    def test_empty_mprs_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, mprs):
        # a list of no penetration rate is a config error, not a sweep of
        # the baseline alone with a header-only sweep.csv
        def fail(*args, **kw):
            raise AssertionError("work done for an empty --mprs list")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        monkeypatch.setattr(cli, "optimize", fail)
        for extra in ([], ["--tune-first"]):
            out = tmp_path / f"out{len(extra)}"
            assert main(["sweep", "--scenario", "scenario1", "--out", str(out),
                         "--mprs", mprs, *extra]) == 1
            err = capsys.readouterr().err
            assert err == "config error: --mprs lists no penetration rate\n"
            assert not (out / "sweep.csv").exists()

    def test_controller_kind_switches_baseline(self, tmp_path):
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", "0,1", "--set", "controller.kind=ts-trc"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert float(rows[2][3]) > 0.0

    def test_round_off_baseline_asv_gives_no_ratio(self, tmp_path, capsys):
        # a flat lead holds the platoon at equilibrium: both ASVs are
        # round-off (about 1e-16 m/s), and their ratio is no improvement
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--set", "scenario.lead_profile=0:21", "--set", "scenario.t_f=60",
                     "--set", "scenario.metric_window=10 50", "--mprs", "0,0.5"])
        assert code == 0
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("baseline ASV ") and line.endswith(
            " m/s is below 1e-09 m/s: asv_impr not computed")
        assert float(line.split()[2]) < 1e-9
        rows = read_csv(tmp_path / "sweep.csv")[1:]
        assert [row[3] for row in rows] == ["nan", "nan"]
        assert all(float(row[1]) == 0.0 and float(row[4]) == 0.0 for row in rows)
        assert captured.out.count("asv_impr=nan%") == 2

    def test_tune_first(self, tmp_path):
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", "0,0.5", "--tune-first",
                     "--set", "optimizer.n_max=2", "--set", "optimizer.epsilon=1e-4"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 3

    # sweep.csv and stdout of `sweep --tune-first --mprs 0.1,1.0 --set
    # optimizer.n_max=3`, as the descent over the whole platoon wrote them:
    # the AV block starts behind a 4-follower prefix at MPR 0.1 and at the
    # first follower at MPR 1.0
    TUNE_FIRST_ENDS = {
        "scenario1": (
            "mpr,asv,fc,asv_impr_pct,fc_impr_pct\r\n"
            "0.100,0.959853,242.458228,1.693777,0.092266\r\n"
            "1.000,0.802317,240.836921,17.828269,0.760344\r\n",
            "mpr=0.10 asv=0.9599 fc=242.46 asv_impr=1.69% fc_impr=0.09%\n"
            "mpr=1.00 asv=0.8023 fc=240.84 asv_impr=17.83% fc_impr=0.76%\n",
        ),
        "scenario2": (
            "mpr,asv,fc,asv_impr_pct,fc_impr_pct\r\n"
            "0.100,1.041431,330.130408,7.129632,0.455142\r\n"
            "1.000,0.602887,322.945989,46.237162,2.621474\r\n",
            "mpr=0.10 asv=1.0414 fc=330.13 asv_impr=7.13% fc_impr=0.46%\n"
            "mpr=1.00 asv=0.6029 fc=322.95 asv_impr=46.24% fc_impr=2.62%\n",
        ),
    }

    @pytest.mark.parametrize("preset", sorted(TUNE_FIRST_ENDS))
    def test_tune_first_at_both_ends_of_the_prefix(self, tmp_path, capsys, preset):
        assert main(["sweep", "--scenario", preset, "--out", str(tmp_path),
                     "--tune-first", "--mprs", "0.1,1.0",
                     "--set", "optimizer.n_max=3"]) == 0
        csv_text, stdout = self.TUNE_FIRST_ENDS[preset]
        assert (tmp_path / "sweep.csv").read_bytes() == csv_text.encode()
        assert capsys.readouterr() == (stdout, "")

    def test_batch_matches_one_engine_per_mpr(self, tmp_path):
        mprs = [0.0, 0.3, 0.7, 1.0]
        assert main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", ",".join(map(str, mprs))]) == 0
        sc = build_scenario(short_config())
        coeffs = default_fuel_coefficients()

        def metrics(mpr):
            point = replace(sc, mpr=mpr)
            raw = simulator.PlatoonEngine(point).run(record=("v", "a"))
            return _platoon_metrics_batch(point, raw, coeffs)

        asv0, fc0 = metrics(0.0)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["mpr", "asv", "fc", "asv_impr_pct", "fc_impr_pct"])
        for mpr in mprs:
            asv_m, fc_m = metrics(mpr)
            vals = (asv_m, fc_m, 100.0 * (1.0 - asv_m / asv0), 100.0 * (1.0 - fc_m / fc0))
            writer.writerow([f"{mpr:.3f}"] + [f"{val:.6f}" for val in vals])
        assert (tmp_path / "sweep.csv").read_bytes() == expected.getvalue().encode()

    def test_tune_first_gains_per_lane(self, tmp_path, monkeypatch):
        built = []

        class SpyEngine(simulator.PlatoonEngine):
            def __init__(self, scenario, **kw):
                super().__init__(scenario, **kw)
                built.append(self)

        monkeypatch.setattr(cli, "PlatoonEngine", SpyEngine)
        tune = ["--set", "optimizer.n_max=2", "--set", "optimizer.epsilon=1e-4"]
        assert main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", "0,0.5,1", "--tune-first", *tune]) == 0
        assert len(built) == 1  # one batched run for the baseline and every MPR
        engine = built[0]
        cp = short_config(*tune[1::2])
        sc = build_scenario(cp)
        expected = [(sc.controller.beta, sc.controller.gamma)] * 2
        for mpr in (0.5, 1.0):
            point = replace(sc, mpr=mpr)
            theta, _ = optimize(point, build_optimizer_config(cp, point))
            expected.append((theta.beta, theta.gamma))
        got = list(zip(engine.beta[:, 0].tolist(), engine.gamma[:, 0].tolist()))
        assert got == expected
        assert expected[2] != expected[3]
        assert np.array_equal(engine.av_mask, simulator.av_mask_for(10, [0, 0, 0.5, 1]))

    def test_blowup_gives_nan_rows(self, tmp_path, capsys, monkeypatch):
        # lanes whose first follower is an AV go non-finite (MPR 0.5 and 1);
        # the others must match a clean sweep exactly
        args = ["sweep", "--scenario", "scenario1", *SHORT, "--mprs", "0,0.5,0.2,1"]
        assert main(args + ["--out", str(tmp_path / "clean")]) == 0
        clean = read_csv(tmp_path / "clean" / "sweep.csv")
        capsys.readouterr()
        real = simulator.ovrv_accel_arrays
        real_index = simulator._av_index
        columns = []

        def spy_index(mask, batch_shape):
            # the AV law sees the AV entries only; keep each entry's follower,
            # the index of the vehicle axis, which leads in the engine
            index = real_index(mask, batch_shape)
            columns.append(index[0])
            return index

        def first_follower_nan(s, dv, v, p):
            acc = real(s, dv, v, p)
            acc[columns[-1] == 0] = np.nan
            return acc

        monkeypatch.setattr(simulator, "_av_index", spy_index)
        monkeypatch.setattr(simulator, "ovrv_accel_arrays", first_follower_nan)
        assert main(args + ["--out", str(tmp_path / "bad")]) == 2
        rows = read_csv(tmp_path / "bad" / "sweep.csv")
        assert rows[1] == clean[1] and rows[3] == clean[3]
        assert float(rows[1][3]) == 0.0
        for row in (rows[2], rows[4]):
            assert np.isnan([float(val) for val in row[1:]]).all()
        err = capsys.readouterr().err
        assert "mpr=0.5: non-finite state for vehicle 1" in err
        assert "mpr=1.0: non-finite state for vehicle 1" in err
        assert "mpr=0.0:" not in err and "mpr=0.2:" not in err

    def test_floor_hits_reported_per_mpr(self, tmp_path, capsys):
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", "scenario.lead_profile=0:21 5:21 9:0", "--mprs", "0.5,1"])
        assert code == 0
        err = capsys.readouterr().err
        for label in ("baseline", "mpr=0.5", "mpr=1.0"):
            assert f"{label}: speed floor engaged" in err
        assert "during the run" not in err  # no aggregate over the batch

    def test_saturation_reported_per_mpr(self, tmp_path, capsys):
        table = saturating_table(tmp_path / "coeffs.txt")
        code = main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", f"metrics.fuel_coefficients={table}", "--mprs", "0.5,1"])
        assert code == 0
        err = capsys.readouterr().err
        # window 10..50 s at dt 0.1: 401 samples of 10 followers
        for label in ("baseline", "mpr=0.5", "mpr=1.0"):
            assert f"{label}: fuel-rate saturation in 4010 samples" in err
        assert main(["sweep", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--mprs", "0.5,1"]) == 0
        assert "saturation" not in capsys.readouterr().err

    def test_outputs_deterministic(self, tmp_path):
        args = ["sweep", "--scenario", "scenario1", *SHORT, "--mprs", "0,1"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b


@functools.lru_cache(maxsize=None)
def grid_per_point(preset, overrides, beta_range, gamma_range):
    """grid.csv bytes (None after a failure), stderr and exit code of a `grid`
    of `preset` with the `section.key=value` strings `overrides`, from one
    engine per point. A blow-up names the point that fails first: at the
    earliest time, the lowest lane."""
    cp = load_config(preset)
    apply_overrides(cp, list(overrides))
    sc = build_scenario(cp)
    coeffs = config.build_fuel_coefficients(cp)
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["beta", "gamma", "asv", "fc"])
    lines, failures = [], []
    points = itertools.product(cli._parse_range(beta_range), cli._parse_range(gamma_range))
    for lane, (b, g) in enumerate(points):
        label = f"beta={b:.6g} gamma={g:.6g}"
        engine, sums = simulator.PlatoonEngine(sc, beta=b, gamma=g), WindowSums(sc, coeffs)
        try:
            engine.run(record=("v", "a"), fold=sums)
        except NumericalBlowupError as err:
            failures.append((err.time, lane, f"numerical failure: {label}: {err}\n"))
            continue
        asv_m, fc_m = sums.platoon()
        writer.writerow([f"{b:.6g}", f"{g:.6g}", f"{asv_m:.6f}", f"{fc_m:.6f}"])
        if engine.floor_hits:
            lines.append(f"{label}: speed floor engaged {engine.floor_hits} times\n")
        if sums.saturated:
            lines.append(f"{label}: fuel-rate saturation in {sums.saturated} samples\n")
    if failures:
        return None, min(failures)[2], 2
    return out.getvalue().encode(), "".join(lines), 0


def check_grid(tmp_path, preset, overrides, beta_range, gamma_range):
    """Run `grid` and compare grid.csv, stdout, stderr and the exit code
    with `grid_per_point`'s; returns the stderr."""
    out, stdout, stderr = tmp_path / "grid", io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["grid", "--scenario", preset, "--out", str(out),
                     *(arg for item in overrides for arg in ("--set", item)),
                     "--beta-range", beta_range, "--gamma-range", gamma_range])
    csv_bytes, err, exit_code = grid_per_point(preset, tuple(overrides), beta_range, gamma_range)
    assert (code, stderr.getvalue()) == (exit_code, err)
    if code:
        assert stdout.getvalue() == "" and not (out / "grid.csv").exists()
    else:
        points = len(cli._parse_range(beta_range)) * len(cli._parse_range(gamma_range))
        assert stdout.getvalue() == f"grid of {points} points written to grid.csv\n"
        assert (out / "grid.csv").read_bytes() == csv_bytes
    return stderr.getvalue()


# the short scenario as `section.key=value` strings
SHORT_SETS = tuple(SHORT[1::2])
# leads of `SHORT`'s length: a brake from 10 s, and a stop from 5 s, where
# every follower's speed clamps at 0 m/s
GRID_LEADS = {"brake": "0:21 10:21 20:18 30:18 40:21", "stop": "0:21 5:21 9:0"}
# metric windows: from 0 s, before the head's end; from 40 s, after it;
# one that ends between two samples, where the AV block's runs end.
# Sample 0 alone is rejected (`TestWindowPolicy`)
GRID_WINDOWS = {"early": "0 50", "late": "40 50", "off-grid": "40 45.05"}


class TestGrid:
    def test_grid_artifacts(self, tmp_path):
        code = main(["grid", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--beta-range", "0:0.0642:2", "--gamma-range", "0.5:1.0:2"])
        assert code == 0
        rows = read_csv(tmp_path / "grid.csv")
        assert rows[0] == ["beta", "gamma", "asv", "fc"]
        assert len(rows) == 5

    def test_infeasible_beta_range_exits_1(self, tmp_path, capsys):
        # full 500 s horizon, so the feasibility ceiling is 0.0642
        code = main(["grid", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--beta-range", "0:0.2:3", "--gamma-range", "0.5:1.0:2"])
        assert code == 1
        assert "feasible" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, bad", [
        ("--beta-range", "nan:nan:1"),
        ("--beta-range", "-inf:0.05:2"),
        ("--gamma-range", "0:inf:2"),
        ("--gamma-range", "nan:1:2"),
    ])
    def test_non_finite_range_exits_1(self, tmp_path, capsys, monkeypatch, flag, bad):
        def fail(*args, **kw):
            raise AssertionError("integrated a non-finite range")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        ranges = {"--beta-range": "0:0.05:2", "--gamma-range": "0.5:1.0:2", flag: bad}
        code = main(["grid", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     *(f"{key}={val}" for key, val in ranges.items())])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: bad range {bad!r}: LO and HI must be finite\n"
        )

    def test_one_point_range_needs_hi_equal_lo(self, tmp_path, capsys, monkeypatch):
        # linspace with N = 1 would drop HI and run LO alone
        def fail(*args, **kw):
            raise AssertionError("integrated a range that drops HI")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        # N > 1 with HI = LO would run N identical lanes
        for bad in ("0.03:0.05:1", "0.05:0.05:3"):
            code = main(["grid", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                         "--beta-range", bad, "--gamma-range", "0.5:1.0:2"])
            assert code == 1
            assert capsys.readouterr().err == (
                f"config error: bad range '{bad}': need HI >= LO, N = 1 if HI = LO, "
                "else N >= 2\n"
            )

    def test_tanh_range_reaches_its_own_bound(self, tmp_path, capsys, monkeypatch):
        # tanh is bounded by 1, not by arctan's pi/2, so on the full 500 s
        # horizon its bound is (52.42 - 2) / 500 = 0.10084
        args = ["grid", "--scenario", "scenario1", "--out", str(tmp_path),
                "--set", "controller.kernel=tanh", "--gamma-range", "1:1:1", "--beta-range"]
        assert main([*args, "0.1:0.10084:2"]) == 0
        assert len(read_csv(tmp_path / "grid.csv")) == 3

        def fail(*args, **kw):
            raise AssertionError("integrated a range above the bound")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        capsys.readouterr()
        assert main([*args, "0.1:0.101:2"]) == 1
        assert capsys.readouterr().err == (
            "config error: beta range [0.1, 0.101] leaves the feasible interval "
            "[0, 0.10084]\n"
        )

    def test_corner_minimum_at_ten_percent(self, tmp_path):
        # over the feasible box, both metrics bottom out at the largest
        # beta/gamma corner (full horizon, single middle AV)
        code = main(["grid", "--scenario", "scenario1", "--out", str(tmp_path),
                     "--beta-range", "0:0.0642:4", "--gamma-range", "0.25:1.0:4"])
        assert code == 0
        rows = read_csv(tmp_path / "grid.csv")[1:]
        asv_col = np.array([float(r[2]) for r in rows]).reshape(4, 4)
        fc_col = np.array([float(r[3]) for r in rows]).reshape(4, 4)
        assert np.unravel_index(asv_col.argmin(), (4, 4)) == (3, 3)
        assert np.unravel_index(fc_col.argmin(), (4, 4)) == (3, 3)

    def test_scenario2_slope_steeper_along_beta(self, tmp_path):
        code = main(["grid", "--scenario", "scenario2", "--out", str(tmp_path),
                     "--beta-range", "0:0.0642:3", "--gamma-range", "0.25:1.0:3"])
        assert code == 0
        rows = read_csv(tmp_path / "grid.csv")[1:]
        asv_col = np.array([float(r[2]) for r in rows]).reshape(3, 3)
        drop_beta = asv_col[0, -1] - asv_col[-1, -1]  # along beta at max gamma
        drop_gamma = asv_col[-1, 0] - asv_col[-1, -1]  # along gamma at max beta
        assert drop_beta > drop_gamma > 0

    def test_floor_hits_reported_per_point(self, tmp_path):
        # the lead stops, so the all-HV prefix ahead of the AV (followers
        # 1-4) clamps on its own: its clamps count in every lane, and each
        # lane's count equals its own engine's
        overrides = (*SHORT_SETS, f"scenario.lead_profile={GRID_LEADS['stop']}")
        err = check_grid(tmp_path, "scenario1", overrides, "0:0.05:2", "1:1:1")
        assert "beta=0 gamma=1: speed floor engaged" in err
        assert "beta=0.05 gamma=1: speed floor engaged" in err
        sc = build_scenario(short_config(*overrides[len(SHORT_SETS):]))
        assert sc.av_indices == (5,)
        prefix = simulator.PlatoonEngine(sc, av_mask=np.zeros(4, bool))
        prefix.run(record=("v",))
        assert prefix.floor_hits > 0

    def test_saturation_reported_per_point(self, tmp_path, capsys):
        table = saturating_table(tmp_path / "coeffs.txt")
        assert main(["grid", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", f"metrics.fuel_coefficients={table}",
                     "--beta-range", "0:0.05:2", "--gamma-range", "1:1:1"]) == 0
        err = capsys.readouterr().err
        assert "beta=0 gamma=1: fuel-rate saturation in 4010 samples" in err
        assert "beta=0.05 gamma=1: fuel-rate saturation in 4010 samples" in err

    # budget None keeps the engine's default block; 8505 values, over 81
    # lanes x 13 values (`v` of the AV block's six followers and its leader,
    # and their `a`), give eight-sample blocks
    @pytest.mark.parametrize("budget", [None, 8505])
    def test_one_engine_matches_engine_per_point(self, tmp_path, monkeypatch, budget):
        ranges = "0:0.0642:9", "0.25:1.5:9"
        grid_per_point("scenario1", SHORT_SETS, *ranges)  # cached, so not spied on
        if budget is not None:
            monkeypatch.setattr(simulator, "_FOLD_VALUES", budget)
        runs, blocks = [], []
        run = simulator.PlatoonEngine.run

        def spy_run(engine, *args, fold=None, **kw):
            runs.append((engine.n, engine.batch_shape, fold is not None))

            def counted(t, fields):
                blocks.append(len(t))
                fold(t, fields)

            return run(engine, *args, fold=fold and counted, **kw)

        monkeypatch.setattr(simulator.PlatoonEngine, "run", spy_run)
        # 9 x 9 points, one lane each: the all-HV prefix lane (followers
        # 1-4); unbatched runs of the AV block (followers 5-10) at the
        # first point's gains, `_STAGE_BLOCK` steps each, to the one that
        # holds its head's end (step 101, so one run); and one batched,
        # folded run of the block
        check_grid(tmp_path, "scenario1", SHORT_SETS, *ranges)
        assert runs == [(4, (1,), False), (6, (), False), (6, (81,), True)]
        block = max(1, simulator._FOLD_VALUES // (81 * 13))
        assert max(blocks) <= block and sum(blocks) == 401
        if budget is not None:
            assert block == 8 and len(blocks) == 51

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset, overrides, betas, gammas, message", [
        # a first spacing that rounds to 0: follower 1, in the prefix, fails
        # in every lane at the first step
        ("scenario1", ("scenario.init_spacing=" + " ".join(["1e-200"] + ["30"] * 9),),
         "0:0.05:2", "0.5:1:2", "beta=0 gamma=0.5: non-finite state for vehicle 1 at t=0.100 s"),
        # the same for follower 6, right behind the AV at follower 5: the
        # block fails in every lane
        ("scenario1", ("scenario.init_spacing=" + " ".join(["30"] * 5 + ["1e-200"] + ["30"] * 4),),
         "0:0.05:2", "0.5:1:2", "beta=0 gamma=0.5: non-finite state for vehicle 6 at t=0.100 s"),
        # scenario 2's HVs behind a lead that slows to 2 m/s: under the
        # unclamped law, negative RK4 stage speeds give NaN powers, at times
        # that depend on the gains.
        # By t2 = 24 s only the lanes at beta = 1 fail, in follower 5 of the
        # block behind the AV at follower 3, gamma = 4 first
        ("scenario2", ("scenario.t_f=30", "scenario.metric_window=0 24", "scenario.mpr=0.2",
                       "scenario.lead_profile=0:21 5:21 8:2"),
         "0:1:4", "0.5:4:2", "beta=1 gamma=4: non-finite state for vehicle 5 at t=23.600 s"),
    ], ids=["prefix", "behind-av", "some-lanes"])
    def test_blowup_names_the_point(self, tmp_path, monkeypatch, preset, overrides, betas,
                                    gammas, message):
        # the unclamped law equals the engine's at every speed but a
        # negative one, so it moves only the third case's blow-up
        monkeypatch.setattr(simulator, "idm_accel_arrays", unclamped_idm)
        err = check_grid(tmp_path, preset, overrides, betas, gammas)
        assert err == f"numerical failure: {message}\n"

    # no AV; the AVs at 3 and 7 under ts-trc; every follower an
    # AV without a controller
    @pytest.mark.parametrize("preset, sets, message", [
        ("scenario1", ("scenario.mpr=0",), "scenario has no AV to tune"),
        ("scenario1", ("scenario.mpr=0.2", "controller.kind=ts-trc"),
         "only the 'ts-ops' controller is tunable, got 'ts-trc'"),
        ("scenario2", ("scenario.mpr=1.0", "controller.kind=none"),
         "only the 'ts-ops' controller is tunable, got 'none'"),
    ], ids=["no-av", "ts-trc", "none"])
    def test_no_gains_act_exits_1_as_tune_does(self, tmp_path, capsys, monkeypatch, preset,
                                               sets, message):
        # every point of such a grid would be the same run
        def fail(*args, **kw):
            raise AssertionError("integrated a grid whose gains cannot act")

        monkeypatch.setattr(simulator.PlatoonEngine, "run", fail)
        args = ["--scenario", preset, *SHORT, *(arg for key in sets for arg in ("--set", key))]
        assert main(["tune", "--out", str(tmp_path / "tune"), *args]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert main(["grid", "--out", str(tmp_path / "grid"), *args,
                     "--beta-range", "0:0.05:2", "--gamma-range", "0.5:2:2"]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not (tmp_path / "grid" / "grid.csv").exists()

    @settings(max_examples=12, deadline=None)
    @given(
        preset=st.sampled_from(["scenario1", "scenario2"]),
        mpr=st.sampled_from(["0.1", "0.2", "0.5", "1.0"]),
        kernel=st.sampled_from(["arctan", "tanh"]),
        integrator=st.sampled_from(["rk4", "euler"]),
        lead=st.sampled_from(sorted(GRID_LEADS)),
        window=st.sampled_from(sorted(GRID_WINDOWS)),
        beta=st.tuples(st.floats(0.0, 0.0642), st.floats(0.0, 0.0642)).map(sorted),
    )
    # an all-HV prefix (followers 1-4 ahead of the AV at 5); none (the AVs
    # at 1, 3, 5, 7 and 9); every follower an AV
    @example(preset="scenario1", mpr="0.1", kernel="tanh", integrator="euler",
             lead="stop", window="early", beta=[0.0, 0.0642])
    @example(preset="scenario2", mpr="0.1", kernel="arctan", integrator="rk4",
             lead="brake", window="late", beta=[0.01, 0.05])
    @example(preset="scenario1", mpr="0.5", kernel="arctan", integrator="rk4",
             lead="stop", window="late", beta=[0.02, 0.06])
    @example(preset="scenario2", mpr="1.0", kernel="tanh", integrator="euler",
             lead="brake", window="early", beta=[0.0, 0.03])
    # scenario 2 behind the stopping lead blows up
    @example(preset="scenario2", mpr="0.5", kernel="arctan", integrator="rk4",
             lead="stop", window="early", beta=[0.0, 0.0642])
    @example(preset="scenario1", mpr="0.1", kernel="arctan", integrator="rk4",
             lead="brake", window="off-grid", beta=[0.01, 0.05])
    def test_decomposed_grid_equals_engine_per_point(
        self, tmp_path_factory, preset, mpr, kernel, integrator, lead, window, beta
    ):
        # grid.csv, stdout, stderr and the exit code of the ts-ops grid,
        # which integrates each gain-free step once, against one engine per
        # point
        overrides = (*SHORT_SETS, f"scenario.mpr={mpr}", f"controller.kernel={kernel}",
                     f"scenario.integrator={integrator}",
                     f"scenario.lead_profile={GRID_LEADS[lead]}",
                     f"scenario.metric_window={GRID_WINDOWS[window]}")
        betas = f"{beta[0]!r}:{beta[1]!r}:2" if beta[0] < beta[1] else f"{beta[0]!r}:{beta[0]!r}:1"
        with np.errstate(all="ignore"):
            check_grid(tmp_path_factory.mktemp("grid"), preset, overrides, betas,
                       "0.5:2:2")

    def test_single_point_matches_run_metrics(self, tmp_path):
        beta, gamma = 0.05, 0.8
        assert main(["grid", "--scenario", "scenario1", "--out", str(tmp_path), *SHORT,
                     "--set", f"controller.beta={beta}", "--set", f"controller.gamma={gamma}",
                     "--beta-range", f"{beta}:{beta}:1",
                     "--gamma-range", f"{gamma}:{gamma}:1"]) == 0
        run_dir = tmp_path / "run"
        assert main(["run", "--scenario", "scenario1", "--out", str(run_dir), *SHORT,
                     "--set", f"controller.beta={beta}",
                     "--set", f"controller.gamma={gamma}"]) == 0
        grid_rows = read_csv(tmp_path / "grid.csv")
        metr_rows = read_csv(run_dir / "metrics.csv")
        asv_grid, fc_grid = float(grid_rows[1][2]), float(grid_rows[1][3])
        platoon = metr_rows[-1]
        assert asv_grid == pytest.approx(float(platoon[1]), abs=1e-6)
        assert fc_grid == pytest.approx(float(platoon[2]), abs=1e-6)


def fresh_env():
    """This process's environment with the tested platoonsim's source first on
    PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


# runs each argv of the JSON list through `main`, then prints the exit codes
# and the SciPy modules the process has loaded as the last line
STARTUP_PROBE = """
import json, sys
from platoonsim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


class TestFreshInterpreter:
    def probe(self, tmp_path, *extra):
        commands = [
            ["run"],
            ["tune", "--set", "optimizer.n_max=1"],
            ["sweep", "--mprs", "1.0"],
            ["grid", "--beta-range", "0:0.05:2", "--gamma-range", "0.5:1.0:2"],
        ]
        argvs = [[cmd, "--scenario", "scenario1", "--out", str(tmp_path / cmd),
                  *SHORT, *rest, *extra] for cmd, *rest in commands]
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs)],
            env=fresh_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_commands_never_load_scipy(self, tmp_path):
        result = self.probe(tmp_path)
        assert result == {"codes": [0, 0, 0, 0], "scipy": []}

    def test_erf_kernel_loads_scipy_special(self, tmp_path):
        result = self.probe(tmp_path, "--set", "controller.kernel=erf")
        assert result["codes"] == [0, 0, 0, 0]
        assert "scipy.special" in result["scipy"]

    def test_python_m_platoonsim(self, tmp_path, capsys):
        def python_m(*argv):
            return subprocess.run(
                [sys.executable, "-m", "platoonsim", *argv],
                env=fresh_env(), capture_output=True, text=True, timeout=120,
            )

        proc = python_m("run", "--scenario", "scenario1", "--out", str(tmp_path / "m"),
                        *SHORT)
        assert main(["run", "--scenario", "scenario1", "--out", str(tmp_path / "main"),
                     *SHORT]) == 0
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("platoon ASV")
        proc = python_m("run", "--scenario", "missing.cfg", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert "missing.cfg" in proc.stderr
        proc = python_m()
        assert proc.returncode == 1
        assert "the following arguments are required: command" in proc.stderr


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these names; one renamed or deleted here
    # would make a traced benchmark run raise AttributeError
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, (module, attr, cls) in tracer.TARGETS.items():
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), span
