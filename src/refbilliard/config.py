"""Run configuration: a small sectioned text format mapped onto RunConfig.

The file has three sections.  ``[params]`` carries the four physical
constants, ``[profile]`` the boundary perturbation, ``[command]`` the action
to run with its generic knobs::

    [params]
    energy_E = 2.5
    offset_h = 2.0
    mass_mu = 2.0
    stiffness_om = 1.0

    [profile]
    epsilon = 0.01
    fourier_cos = 2:1.0

    [command]
    command = section
    seeds = 9
    iterations = 400

Fourier coefficients are ``harmonic:weight`` pairs separated by commas; the
harmonic index is the angular frequency of the term (``fourier_sin`` has
no harmonic 0, since sin 0 xi = 0).  Unknown sections or keys are rejected
with the offending location in the message.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Dict, Tuple

from .boundary import PerturbationProfile
from .params import PhysParams

COMMANDS = ("params-report", "shift-profile", "section", "orbit",
            "periodic", "twist", "caustics", "oracle-check")

_PARAM_KEYS = ("energy_E", "offset_h", "mass_mu", "stiffness_om")
_PROFILE_KEYS = ("epsilon", "fourier_cos", "fourier_sin")
_COMMAND_KEYS = ("command", "seeds", "iterations")


class ConfigError(ValueError):
    """Malformed run configuration (message carries section/key context)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run request: physics, boundary, command and its knobs."""

    params: PhysParams
    profile: PerturbationProfile
    command: str
    seeds: int = 9
    iterations: int = 400
    source: str = "<memory>"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"[command] command = {self.command!r} is not one of "
                f"{', '.join(COMMANDS)}")
        if self.seeds < 1:
            raise ConfigError("[command] seeds must be a positive integer")
        if self.iterations < 1:
            raise ConfigError(
                "[command] iterations must be a positive integer")


def _float_of(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a number") from None


def _int_of(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not an integer") from None


def _fourier_of(section: str, key: str, raw: str) -> Tuple[float, ...]:
    """Parse ``harmonic:weight`` pairs into an index-aligned tuple."""
    raw = raw.strip()
    if not raw:
        return ()
    terms: Dict[int, float] = {}
    for piece in raw.split(","):
        if ":" not in piece:
            raise ConfigError(
                f"[{section}] {key}: expected harmonic:weight, got "
                f"{piece.strip()!r}")
        idx_s, w_s = piece.split(":", 1)
        try:
            idx = int(idx_s)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: harmonic {idx_s.strip()!r} is not an "
                "integer") from None
        if idx < 0:
            raise ConfigError(
                f"[{section}] {key}: harmonic {idx} is negative")
        if idx == 0 and key == "fourier_sin":
            raise ConfigError(
                f"[{section}] {key}: harmonic 0 has no sine term "
                "(sin 0 xi = 0)")
        if idx in terms:
            raise ConfigError(
                f"[{section}] {key}: harmonic {idx} is given twice")
        terms[idx] = _float_of(section, key, w_s)
    coeffs = [0.0] * (max(terms) + 1)
    for idx, w in terms.items():
        coeffs[idx] = w
    return tuple(coeffs)


def _check_keys(cp: configparser.ConfigParser, section: str,
                allowed: Tuple[str, ...], source: str) -> None:
    if not cp.has_section(section):
        raise ConfigError(f"{source}: missing required section [{section}]")
    for key in cp.options(section):
        if key not in allowed:
            raise ConfigError(
                f"{source}: [{section}] has unknown key {key!r}; allowed: "
                f"{', '.join(allowed)}")


def parse_config(text: str, source: str = "<memory>") -> RunConfig:
    """Build a :class:`RunConfig` from configuration text."""
    cp = configparser.ConfigParser(interpolation=None)
    # keep key case so diagnostics echo what the user wrote
    cp.optionxform = str
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    for sec in cp.sections():
        if sec not in ("params", "profile", "command"):
            raise ConfigError(f"{source}: unknown section [{sec}]")
    _check_keys(cp, "params", _PARAM_KEYS, source)
    _check_keys(cp, "command", _COMMAND_KEYS, source)
    if cp.has_section("profile"):
        _check_keys(cp, "profile", _PROFILE_KEYS, source)

    values = {}
    for key in _PARAM_KEYS:
        if not cp.has_option("params", key):
            raise ConfigError(f"{source}: [params] is missing key {key!r}")
        values[key] = _float_of("params", key, cp.get("params", key))
    try:
        params = PhysParams(**values)
    except Exception as exc:
        raise ConfigError(f"{source}: [params] rejected: {exc}") from None

    epsilon, f_cos, f_sin = 0.0, (), ()
    if cp.has_section("profile"):
        if cp.has_option("profile", "epsilon"):
            epsilon = _float_of("profile", "epsilon",
                                cp.get("profile", "epsilon"))
        if cp.has_option("profile", "fourier_cos"):
            f_cos = _fourier_of("profile", "fourier_cos",
                                cp.get("profile", "fourier_cos"))
        if cp.has_option("profile", "fourier_sin"):
            f_sin = _fourier_of("profile", "fourier_sin",
                                cp.get("profile", "fourier_sin"))
    try:
        profile = PerturbationProfile(fourier_cos=f_cos, fourier_sin=f_sin,
                                      epsilon=epsilon)
    except Exception as exc:
        raise ConfigError(f"{source}: [profile] rejected: {exc}") from None

    if not cp.has_option("command", "command") or \
            not cp.get("command", "command").strip():
        raise ConfigError(f"{source}: [command] is missing key 'command'")
    kwargs = {"command": cp.get("command", "command").strip()}
    if cp.has_option("command", "seeds"):
        kwargs["seeds"] = _int_of("command", "seeds",
                                  cp.get("command", "seeds"))
    if cp.has_option("command", "iterations"):
        kwargs["iterations"] = _int_of("command", "iterations",
                                       cp.get("command", "iterations"))
    return RunConfig(params=params, profile=profile, source=source, **kwargs)


def load_config(path: str) -> RunConfig:
    """Read and validate the configuration file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, source=path)
