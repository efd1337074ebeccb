"""Scenario config files: INI-style sections with dotted-key overrides.

Sections: [scenario], [hv_model], [av_model], [controller], [optimizer],
[metrics]. Two bundled presets, "scenario1" and "scenario2", encode the two
standard parameter sets and the shared lead-vehicle speed profile.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import replace
from importlib import resources

from .controller import ControllerParams
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


def _parse_window(raw: str) -> tuple[float, ...]:
    window = _parse_floats(raw)
    if len(window) != 2:
        raise ConfigError("metric_window needs exactly two times")
    return window


def _keys(builder, **parsers) -> dict:
    """Table entries for keys that set fields of `builder`: each key names
    its parser, or (field, parser) when the field has another name."""
    return {
        key: (builder, *spec) if isinstance(spec, tuple) else (builder, key, spec)
        for key, spec in parsers.items()
    }


# every key a config may set, per section, in the order the keys are
# parsed: key -> (what its value builds, the field it sets there, its
# parser). A key that a config leaves out keeps that field's default, and
# `build_scenario` rejects every other key and section.
_KEYS = {
    "hv_model": _keys(
        IdmParams, a=float, b=float, v0=float, s0=float, t=("T", float),
        delta=float, length=float,
    ),
    "av_model": _keys(OvrvParams, k1=float, k2=float, eta=float, tau=float, length=float),
    "controller": _keys(
        ControllerConfig, kind=str, beta=float, gamma=float, kernel=str,
        phi1=float, phi2=float, phi3=float, v_star=float, envelope_s0=float,
    ),
    "scenario": _keys(
        Scenario, metric_window=_parse_window, init_spacing=_parse_floats,
        n_followers=int, mpr=float, lead_profile=("lead", _parse_profile),
        t_f=float, dt=float, min_safe_spacing=float, integrator=str,
    ),
    "optimizer": {
        **_keys(ControllerParams, beta0=("beta", float), gamma0=("gamma", float)),
        **_keys(OptimizerConfig, epsilon=float, phi=float, n_max=int, sensitivity=str),
    },
    "metrics": _keys(load_fuel_coefficients, fuel_coefficients=("path", str)),
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
        try:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key.strip(), value.strip())
        except ValueError as err:  # e.g. a stray '%' or the DEFAULT section
            raise ConfigError(f"override {item!r}: {err}") from err


def dump_config(cp: configparser.ConfigParser, path) -> None:
    with open(path, "w") as fh:
        cp.write(fh)


def _fields(cp, section: str, required: bool = False) -> dict:
    """The fields that `section` sets, as {builder: {field: value}}, parsed
    in table order; with `required`, a key left out is a ConfigError."""
    out = {builder: {} for builder, _, _ in _KEYS[section].values()}
    for key, (builder, field, parse) in _KEYS[section].items():
        if not cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            continue
        try:
            out[builder][field] = parse(cp.get(section, key))
        except ConfigError:
            raise
        except (ValueError, configparser.Error) as err:
            raise ConfigError(f"bad value for [{section}] {key}: {err}") from err
    return out


def build_scenario(cp: configparser.ConfigParser) -> Scenario:
    """Construct a validated Scenario from a parsed config.

    Any section or option outside the table of known keys is a ConfigError,
    so a misspelt or retired key cannot be silently ignored.
    """
    for section in cp.sections():
        for key in cp.options(section):
            if key not in _KEYS.get(section, ()):
                raise ConfigError(f"unknown config key [{section}] {key}")
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
    try:
        hv = IdmParams(**_fields(cp, "hv_model", required=True)[IdmParams])
        av = OvrvParams(**_fields(cp, "av_model", required=True)[OvrvParams])
        controller = ControllerConfig(**_fields(cp, "controller")[ControllerConfig])
        fields = _fields(cp, "scenario")[Scenario]
        # a config without a profile gets a flat lead, not Scenario's dip
        fields.setdefault("lead", LeadProfile((0.0,), (21.0,)))
        return Scenario(hv_model=hv, av_model=av, controller=controller, **fields)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_optimizer_config(
    cp: configparser.ConfigParser, scenario: Scenario
) -> OptimizerConfig:
    """Optimizer settings; the ceiling on beta is the scenario's safety bound."""
    fields = _fields(cp, "optimizer")
    try:
        theta0 = replace(OptimizerConfig.theta0, **fields[ControllerParams])
        return OptimizerConfig(scenario.beta_bound(), theta0, **fields[OptimizerConfig])
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_fuel_coefficients(cp: configparser.ConfigParser) -> FuelCoefficients:
    """The table `metrics.fuel_coefficients` names, else the bundled one."""
    path = _fields(cp, "metrics")[load_fuel_coefficients].get("path")
    if not path:
        return default_fuel_coefficients()
    try:
        return load_fuel_coefficients(path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read fuel coefficients {path}: {err}") from err
