"""Scenario config files: INI-style sections with dotted-key overrides.

Sections: [scenario], [hv_model], [av_model], [controller], [optimizer],
[metrics]. Two bundled presets, "scenario1" and "scenario2", encode the two
standard parameter sets and the shared lead-vehicle speed profile.
"""

from __future__ import annotations

import configparser
import os
from importlib import resources

from .controller import ControllerParams, beta_upper_bound
from .dynamics import IdmParams, OvrvParams
from .errors import ConfigError
from .metrics import (
    FuelCoefficients,
    default_fuel_coefficients,
    load_fuel_coefficients,
)
from .optimizer import OptimizerConfig
from .simulator import ControllerConfig, LeadProfile, Scenario

__all__ = [
    "load_config",
    "apply_overrides",
    "build_scenario",
    "build_optimizer_config",
    "build_fuel_coefficients",
    "dump_config",
    "preset_names",
]

_PRESETS = ("scenario1", "scenario2")

# every key a config may set, per section; `_get` reads no other key and
# `build_scenario` rejects any option not listed here
_KEYS = {
    "scenario": (
        "n_followers", "mpr", "lead_profile", "t_f", "dt", "metric_window",
        "min_safe_spacing", "integrator", "init_spacing",
    ),
    "hv_model": ("a", "b", "v0", "s0", "t", "delta", "length"),
    "av_model": ("k1", "k2", "eta", "tau", "length"),
    "controller": (
        "kind", "beta", "gamma", "kernel", "phi1", "phi2", "phi3", "v_star",
        "envelope_s0",
    ),
    "optimizer": ("beta_max", "beta0", "gamma0", "epsilon", "phi", "n_max", "sensitivity"),
    "metrics": ("fuel_coefficients",),
}


def preset_names() -> tuple[str, ...]:
    return _PRESETS


def load_config(source: str) -> configparser.ConfigParser:
    """Load a scenario config from a file path or a bundled preset name."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if source in _PRESETS:
        ref = resources.files("platoonsim").joinpath(f"presets/{source}.cfg")
        cp.read_string(ref.read_text(), source=source)
        return cp
    if not os.path.exists(source):
        raise ConfigError(f"scenario file not found: {source}")
    try:
        with open(source) as fh:
            cp.read_file(fh, source=source)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {source}: {err}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {source}: {err}") from err
    return cp


def apply_overrides(cp: configparser.ConfigParser, overrides) -> None:
    """Apply repeatable `section.key=value` settings on top of the config."""
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value"
            )
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key.strip(), value.strip())


def dump_config(cp: configparser.ConfigParser, path) -> None:
    with open(path, "w") as fh:
        cp.write(fh)


def _get(cp, section, key, cast, fallback=None, required=False):
    if key not in _KEYS[section]:
        raise KeyError(f"[{section}] {key} is missing from the table of known keys")
    try:
        if not cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return fallback
        raw = cp.get(section, key)
        return cast(raw)
    except (ValueError, configparser.Error) as err:
        raise ConfigError(f"bad value for [{section}] {key}: {err}") from err


def _parse_profile(raw: str) -> LeadProfile:
    times, speeds = [], []
    for knot in raw.split():
        t_str, _, v_str = knot.partition(":")
        if not v_str:
            raise ValueError(f"knot {knot!r} must look like time:speed")
        times.append(float(t_str))
        speeds.append(float(v_str))
    return LeadProfile(tuple(times), tuple(speeds))


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def build_scenario(cp: configparser.ConfigParser) -> Scenario:
    """Construct a validated Scenario from a parsed config.

    Any option outside the table of known keys is a ConfigError, in every
    section, so a misspelt or retired key cannot be silently ignored.
    """
    for section in cp.sections():
        for key in cp.options(section):
            if key not in _KEYS.get(section, ()):
                raise ConfigError(f"unknown config key [{section}] {key}")
    try:
        hv = IdmParams(
            a=_get(cp, "hv_model", "a", float, required=True),
            b=_get(cp, "hv_model", "b", float, required=True),
            v0=_get(cp, "hv_model", "v0", float, required=True),
            s0=_get(cp, "hv_model", "s0", float, required=True),
            T=_get(cp, "hv_model", "t", float, required=True),
            delta=_get(cp, "hv_model", "delta", float, required=True),
            length=_get(cp, "hv_model", "length", float, required=True),
        )
        av = OvrvParams(
            k1=_get(cp, "av_model", "k1", float, required=True),
            k2=_get(cp, "av_model", "k2", float, required=True),
            eta=_get(cp, "av_model", "eta", float, required=True),
            tau=_get(cp, "av_model", "tau", float, required=True),
            length=_get(cp, "av_model", "length", float, required=True),
        )
        controller = ControllerConfig(
            kind=_get(cp, "controller", "kind", str, fallback="none"),
            beta=_get(cp, "controller", "beta", float, fallback=0.0),
            gamma=_get(cp, "controller", "gamma", float, fallback=1.0),
            kernel=_get(cp, "controller", "kernel", str, fallback="arctan"),
            phi1=_get(cp, "controller", "phi1", float, fallback=1.0),
            phi2=_get(cp, "controller", "phi2", float, fallback=0.1),
            phi3=_get(cp, "controller", "phi3", float, fallback=0.01),
            v_star=_get(cp, "controller", "v_star", float),
            envelope_s0=_get(cp, "controller", "envelope_s0", float),
        )
        window = _get(
            cp, "scenario", "metric_window", _parse_floats, fallback=(100.0, 250.0)
        )
        if len(window) != 2:
            raise ConfigError("metric_window needs exactly two times")
        init_spacing = _get(cp, "scenario", "init_spacing", _parse_floats)
        scenario = Scenario(
            n_followers=_get(cp, "scenario", "n_followers", int, fallback=10),
            mpr=_get(cp, "scenario", "mpr", float, fallback=0.0),
            hv_model=hv,
            av_model=av,
            controller=controller,
            lead=_get(
                cp,
                "scenario",
                "lead_profile",
                _parse_profile,
                fallback=LeadProfile((0.0,), (21.0,)),
            ),
            t_f=_get(cp, "scenario", "t_f", float, fallback=500.0),
            dt=_get(cp, "scenario", "dt", float, fallback=0.1),
            metric_window=(float(window[0]), float(window[1])),
            min_safe_spacing=_get(
                cp, "scenario", "min_safe_spacing", float, fallback=2.0
            ),
            integrator=_get(cp, "scenario", "integrator", str, fallback="rk4"),
            init_spacing=init_spacing,
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return scenario


def build_optimizer_config(
    cp: configparser.ConfigParser, scenario: Scenario
) -> OptimizerConfig:
    """Optimizer settings; beta_max defaults to the scenario's safety bound."""
    beta_max = _get(cp, "optimizer", "beta_max", float)
    if beta_max is None:
        beta_max = beta_upper_bound(
            scenario.envelope_s0_effective(),
            scenario.min_safe_spacing,
            scenario.t_f,
        )
    try:
        return OptimizerConfig(
            beta_max=beta_max,
            theta0=ControllerParams(
                beta=_get(cp, "optimizer", "beta0", float, fallback=0.05),
                gamma=_get(cp, "optimizer", "gamma0", float, fallback=1.0),
            ),
            epsilon=_get(cp, "optimizer", "epsilon", float, fallback=1e-5),
            phi=_get(cp, "optimizer", "phi", float, fallback=1e-6),
            n_max=_get(cp, "optimizer", "n_max", int, fallback=300),
            sensitivity=_get(
                cp, "optimizer", "sensitivity", str, fallback="exogenous"
            ),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_fuel_coefficients(cp: configparser.ConfigParser) -> FuelCoefficients:
    """The table `metrics.fuel_coefficients` names, else the bundled one."""
    path = _get(cp, "metrics", "fuel_coefficients", str)
    if not path:
        return default_fuel_coefficients()
    try:
        return load_fuel_coefficients(path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read fuel coefficients {path}: {err}") from err
