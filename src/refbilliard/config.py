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
harmonic index is the angular frequency of the term, at most
:data:`_MAX_HARMONIC` (``fourier_sin`` has no harmonic 0, since
sin 0 xi = 0).  One table, :data:`_SCHEMA`, declares every section and key;
unknown sections or keys are rejected with the offending location in the
message, and every message starts with the source file's name.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Dict, Tuple

from .boundary import PerturbationProfile
from .errors import DomainError
from .params import PhysParams

COMMANDS = ("params-report", "shift-profile", "section", "orbit",
            "periodic", "twist", "caustics", "oracle-check")


#: the highest harmonic a Fourier key may name; coefficients are stored
#: dense, one per harmonic up to the highest
_MAX_HARMONIC = 1024


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


def _value(section: str, key: str, kind, raw: str):
    """``raw`` as a value of type ``kind`` (see :data:`_SCHEMA`)."""
    if kind is str:
        return raw.strip()
    if kind is _fourier_of:
        return _fourier_of(section, key, raw)
    try:
        return kind(raw)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not {noun}") from None


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
        if idx > _MAX_HARMONIC:
            raise ConfigError(
                f"[{section}] {key}: harmonic {idx} is above the bound "
                f"{_MAX_HARMONIC}")
        if idx in terms:
            raise ConfigError(
                f"[{section}] {key}: harmonic {idx} is given twice")
        terms[idx] = _value(section, key, float, w_s)
    coeffs = [0.0] * (max(terms) + 1)
    for idx, w in terms.items():
        coeffs[idx] = w
    return tuple(coeffs)


#: each section's keys in order, with each key's value type (float, int,
#: str or :func:`_fourier_of`) and whether it is required; a section with a
#: required key is required itself.  An absent optional key takes the
#: default of PhysParams, PerturbationProfile or RunConfig.
_SCHEMA = {
    "params": {"energy_E": (float, True), "offset_h": (float, True),
               "mass_mu": (float, True), "stiffness_om": (float, True)},
    "profile": {"epsilon": (float, False), "fourier_cos": (_fourier_of, False),
                "fourier_sin": (_fourier_of, False)},
    "command": {"command": (str, True), "seeds": (int, False),
                "iterations": (int, False)},
}


def parse_config(text: str, source: str = "<memory>") -> RunConfig:
    """Build a :class:`RunConfig` from configuration text; every message
    starts with ``source``."""
    cp = configparser.ConfigParser(interpolation=None)
    # keep key case so diagnostics echo what the user wrote
    cp.optionxform = str
    try:
        cp.read_string(text, source=source)
        return _run_config(cp)
    except (configparser.Error, ConfigError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _run_config(cp: configparser.ConfigParser) -> RunConfig:
    """The :class:`RunConfig` that the parsed sections of ``cp`` give."""
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
    values = {}
    for sec, keys in _SCHEMA.items():
        if not cp.has_section(sec) and any(r for _, r in keys.values()):
            raise ConfigError(f"missing required section [{sec}]")
        for key in cp.options(sec) if cp.has_section(sec) else ():
            if key not in keys:
                raise ConfigError(
                    f"[{sec}] has unknown key {key!r}; allowed: "
                    f"{', '.join(keys)}")
        values[sec] = {}
        for key, (kind, required) in keys.items():
            raw = cp.get(sec, key, fallback=None)
            # a blank command is no command
            if raw is None or (kind is str and not raw.strip()):
                if required:
                    raise ConfigError(f"[{sec}] is missing key {key!r}")
                continue
            values[sec][key] = _value(sec, key, kind, raw)

    built = {}
    for sec, cls in (("params", PhysParams),
                     ("profile", PerturbationProfile)):
        try:
            built[sec] = cls(**values[sec])
        except DomainError as exc:
            raise ConfigError(f"[{sec}] rejected: {exc}") from None
    return RunConfig(**built, **values["command"])


def load_config(path: str) -> RunConfig:
    """Read and validate the configuration file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, source=path)
