"""The run config's error paths, each with its full message, and the values
that a blank or absent key gives."""

import configparser

import pytest

from refbilliard import ConfigError, RunConfig, parse_config
from refbilliard.config import _MAX_HARMONIC, load_config

PARAMS = """\
[params]
energy_E = 2.5
offset_h = 2.0
mass_mu = 2.0
stiffness_om = 1.0
"""

COMMAND = "[command]\ncommand = twist\n"

CONFIG = PARAMS + COMMAND


def _message(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text, "run.cfg")
    return str(info.value)


# one fault each: every message names the source, also those of a single
# value and of RunConfig's own checks
@pytest.mark.parametrize("text, message", [
    (CONFIG + "iterations = 0\n",
     "run.cfg: [command] iterations must be a positive integer"),
    (CONFIG + "seeds = 0\n",
     "run.cfg: [command] seeds must be a positive integer"),
    (CONFIG + "seeds = x\n",
     "run.cfg: [command] seeds = 'x' is not an integer"),
    (CONFIG + "iterations = 2.5\n",
     "run.cfg: [command] iterations = '2.5' is not an integer"),
    (CONFIG + "tol = 1\n", "run.cfg: [command] has unknown key 'tol'; "
     "allowed: command, seeds, iterations"),
    (PARAMS + "[command]\nseeds = 3\n",
     "run.cfg: [command] is missing key 'command'"),
    (PARAMS + "[command]\ncommand =\n",
     "run.cfg: [command] is missing key 'command'"),
    (PARAMS + "[command]\ncommand = shrug\n",
     "run.cfg: [command] command = 'shrug' is not one of params-report, "
     "shift-profile, section, orbit, periodic, twist, caustics, "
     "oracle-check"),
    (CONFIG + "[extra]\n", "run.cfg: unknown section [extra]"),
    (PARAMS, "run.cfg: missing required section [command]"),
    (COMMAND, "run.cfg: missing required section [params]"),
    (PARAMS.replace("mass_mu = 2.0\n", "") + COMMAND,
     "run.cfg: [params] is missing key 'mass_mu'"),
    (PARAMS.replace("energy_E = 2.5", "energy_E =") + COMMAND,
     "run.cfg: [params] energy_E = '' is not a number"),
    (PARAMS.replace("mass_mu = 2.0", "mass_mu = -1") + COMMAND,
     "run.cfg: [params] rejected: requires mass_mu > 0, got -1.0"),
    (PARAMS.replace("stiffness_om", "Stiffness_om") + COMMAND,
     "run.cfg: [params] has unknown key 'Stiffness_om'; allowed: energy_E, "
     "offset_h, mass_mu, stiffness_om"),
    (CONFIG + "[profile]\nfourier = 2:1\n",
     "run.cfg: [profile] has unknown key 'fourier'; allowed: epsilon, "
     "fourier_cos, fourier_sin"),
    (CONFIG + "[profile]\nepsilon = nan\n",
     "run.cfg: [profile] rejected: epsilon and Fourier coefficients must be "
     "finite"),
    (CONFIG + "[profile]\nepsilon = 0.6\nfourier_cos = 1:2\n",
     "run.cfg: [profile] rejected: radius 1 + eps*f(xi) must stay positive"),
    (CONFIG + "[profile]\nepsilon = 1e\n",
     "run.cfg: [profile] epsilon = '1e' is not a number"),
    (CONFIG + "[profile]\nfourier_cos = 2:1, 3: x\n",
     "run.cfg: [profile] fourier_cos = ' x' is not a number"),
    (CONFIG + "[profile]\nfourier_cos = 2\n",
     "run.cfg: [profile] fourier_cos: expected harmonic:weight, got '2'"),
    (CONFIG + "[profile]\nfourier_cos = y:1\n",
     "run.cfg: [profile] fourier_cos: harmonic 'y' is not an integer"),
    (CONFIG + "[profile]\nfourier_cos = -2:1\n",
     "run.cfg: [profile] fourier_cos: harmonic -2 is negative"),
    (CONFIG + "[profile]\nfourier_cos = 2:1, 2:1\n",
     "run.cfg: [profile] fourier_cos: harmonic 2 is given twice"),
    (CONFIG + "[profile]\nfourier_sin = 0:1\n",
     "run.cfg: [profile] fourier_sin: harmonic 0 has no sine term "
     "(sin 0 xi = 0)"),
    (CONFIG + "[profile]\nfourier_cos = 1025:1\n",
     "run.cfg: [profile] fourier_cos: harmonic 1025 is above the bound 1024"),
    (CONFIG + "[profile]\nfourier_sin = 2:1, 1000000:1\n",
     "run.cfg: [profile] fourier_sin: harmonic 1000000 is above the bound "
     "1024"),
])
def test_each_fault_has_its_message(text, message):
    assert _message(text) == message


@pytest.mark.parametrize("text", [
    "energy_E = 2.5\n" + CONFIG,          # no section header
    "[params]\nenergy_E\n" + COMMAND,     # a key without a value
    CONFIG + PARAMS,                      # a section given twice
])
def test_syntax_errors_carry_the_parsers_message(text):
    cp = configparser.ConfigParser(interpolation=None)
    with pytest.raises(configparser.Error) as parser:
        cp.read_string(text, source="run.cfg")
    assert _message(text) == f"run.cfg: {parser.value}"


def test_an_unreadable_path_is_a_config_error(tmp_path):
    path = str(tmp_path / "absent.cfg")
    with pytest.raises(OSError) as opened:
        open(path, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"cannot read config {path!r}: {opened.value}"


def test_a_value_error_from_a_file_names_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG + "seeds = x\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value) == \
        f"{path}: [command] seeds = 'x' is not an integer"


def test_a_run_config_built_directly_names_no_source():
    cfg = parse_config(CONFIG)
    with pytest.raises(ConfigError) as info:
        RunConfig(cfg.params, cfg.profile, "twist", iterations=0)
    assert str(info.value) == "[command] iterations must be a positive integer"


def test_empty_fourier_values_give_the_circle():
    cfg = parse_config(CONFIG + "[profile]\nepsilon = 0.01\nfourier_cos =\n"
                       "fourier_sin =\n")
    assert cfg.profile.fourier_cos == () and cfg.profile.fourier_sin == ()
    assert cfg.profile.epsilon == 0.01 and cfg.profile.is_circle


def test_the_highest_harmonic_a_config_may_name():
    assert _MAX_HARMONIC == 1024
    cfg = parse_config(CONFIG + "[profile]\nepsilon = 0.01\n"
                       "fourier_cos = 1024:0.5\nfourier_sin = 1024:0.25\n")
    assert len(cfg.profile.fourier_cos) == len(cfg.profile.fourier_sin) == 1025
    assert cfg.profile.fourier_cos[1024] == 0.5
    assert cfg.profile.fourier_sin[1024] == 0.25


def test_absent_keys_take_their_defaults():
    cfg = parse_config(CONFIG + "[profile]\n")
    assert (cfg.seeds, cfg.iterations) == (9, 400)
    assert cfg.profile.epsilon == 0.0 and cfg.profile.is_circle
    assert cfg.command == "twist"

