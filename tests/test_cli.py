"""Config parsing and the command-line pipelines' artifacts."""

import csv
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refbilliard
from refbilliard import ConfigError, RunConfig, parse_config
from refbilliard.cli import _CHUNK, _write_block, _write_csv, main
from refbilliard.svgplot import (HEIGHT, MARGIN, WIDTH, SvgCanvas, _fmt,
                                 column_piece)

BASE = """\
[params]
energy_E = 2.5
offset_h = 2.0
mass_mu = 2.0
stiffness_om = 1.0

[command]
command = {command}
seeds = {seeds}
iterations = {iterations}
"""

PROFILE = """\
[profile]
epsilon = 0.01
fourier_cos = 2:1.0
"""


def write_cfg(tmp_path, command, seeds=3, iterations=5, profile=""):
    text = BASE.format(command=command, seeds=seeds,
                       iterations=iterations) + profile
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- config parsing ------------------------------------------------------------


def test_parse_config_full():
    cfg = parse_config(BASE.format(command="section", seeds=7,
                                   iterations=50) + PROFILE)
    assert isinstance(cfg, RunConfig)
    assert cfg.params.energy_E == 2.5
    assert cfg.params.stiffness_om == 1.0
    assert cfg.profile.epsilon == 0.01
    assert cfg.profile.fourier_cos == (0.0, 0.0, 1.0)
    assert cfg.command == "section"
    assert cfg.seeds == 7
    assert cfg.iterations == 50


def test_parse_config_defaults_to_circle():
    cfg = parse_config(BASE.format(command="twist", seeds=9, iterations=400))
    assert cfg.profile.is_circle
    assert cfg.profile.epsilon == 0.0


def test_parse_config_fourier_pairs():
    text = BASE.format(command="orbit", seeds=1, iterations=1) + \
        "[profile]\nepsilon = 0.005\nfourier_cos = 3:0.5, 1:-0.25\n" \
        "fourier_sin = 2:1.0\n"
    cfg = parse_config(text)
    assert cfg.profile.fourier_cos == (0.0, -0.25, 0.0, 0.5)
    assert cfg.profile.fourier_sin == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("mutation, fragment", [
    ("[extra]\nx = 1\n", "unknown section"),
    ("", "missing required section"),
    ("[params]\nener = 1\n", "unknown key"),
    ("[params]\nenergy_E = abc\n", "is not a number"),
])
def test_parse_config_structural_errors(mutation, fragment):
    if "missing required section" in fragment:
        text = "[command]\ncommand = twist\n"
    else:
        text = mutation + "[params]\nenergy_E = 2.5\noffset_h = 2.0\n" \
            "mass_mu = 2.0\nstiffness_om = 1.0\n[command]\ncommand = twist\n"
        if mutation.startswith("[params]"):
            text = mutation + "[command]\ncommand = twist\n"
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_parse_config_missing_param_key():
    text = "[params]\nenergy_E = 2.5\noffset_h = 2.0\nmass_mu = 2.0\n" \
        "[command]\ncommand = twist\n"
    with pytest.raises(ConfigError, match="missing key 'stiffness_om'"):
        parse_config(text)


def test_parse_config_bad_fourier():
    head = BASE.format(command="twist", seeds=1, iterations=1)
    with pytest.raises(ConfigError, match="harmonic:weight"):
        parse_config(head + "[profile]\nfourier_cos = 1.0\n")
    with pytest.raises(ConfigError, match="is not an integer"):
        parse_config(head + "[profile]\nfourier_cos = x:1.0\n")
    with pytest.raises(ConfigError, match="negative"):
        parse_config(head + "[profile]\nfourier_cos = -1:1.0\n")
    with pytest.raises(ConfigError,
                       match=r"fourier_cos: harmonic 2 is given twice"):
        parse_config(head + "[profile]\nfourier_cos = 2:1.0, 2:0.5\n")
    # sin 0 xi = 0: the term would be dropped without a word
    with pytest.raises(ConfigError, match=r"fourier_sin: harmonic 0"):
        parse_config(head + "[profile]\nfourier_sin = 0:1.0, 2:0.5\n")


def test_parse_config_rejects_bad_physics():
    text = "[params]\nenergy_E = 1.0\noffset_h = 2.0\nmass_mu = 2.0\n" \
        "stiffness_om = 3.0\n[command]\ncommand = twist\n"
    with pytest.raises(ConfigError, match=r"\[params\] rejected"):
        parse_config(text)


def test_parse_config_rejects_unknown_command():
    with pytest.raises(ConfigError, match="not one of"):
        parse_config(BASE.format(command="shrug", seeds=1, iterations=1))


def test_parse_config_rejects_bad_knobs():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(BASE.format(command="twist", seeds=0, iterations=1))
    text = BASE.format(command="twist", seeds=1, iterations=1) \
        .replace("iterations = 1", "tol = -1")
    with pytest.raises(ConfigError, match="tol"):
        parse_config(text)


# -- command-line entry --------------------------------------------------------


def test_main_without_config_prints_usage(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--config" in err


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[params]\nenergy_E = oops\n")
    assert main(["--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_params_report_pipeline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "params-report")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "params_report.csv")
    assert rows[0] == ["key", "value"]
    table = {k: v for k, v in rows[1:]}
    assert float(table["action_bound_Ic"]) == pytest.approx(math.sqrt(2.0))
    assert float(table["brake_radius"]) == pytest.approx(math.sqrt(5.0))
    assert float(table["kepler_energy"]) == pytest.approx(4.5)
    assert float(table["n_twist_roots"]) == 2.0


def test_shift_profile_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, "shift-profile")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "shift_profile.csv")
    assert rows[0] == ["I", "f", "g", "theta", "f_prime", "g_prime",
                       "theta_prime"]
    anchor = next(r for r in rows[1:] if float(r[0]) == 1.0)
    assert float(anchor[1]) == pytest.approx(math.atan(4.0), abs=1e-10)
    assert float(anchor[2]) == pytest.approx(-math.pi, abs=1e-10)
    assert float(anchor[3]) == pytest.approx(math.atan(4.0) - math.pi,
                                             abs=1e-10)
    assert (tmp_path / "shift_profile.svg").exists()


def test_section_pipeline_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "section", seeds=3, iterations=5)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    for name in ("section.csv", "section.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = read_csv(out1 / "section.csv")
    assert rows[0] == ["seed_id", "k", "xi", "action_I", "status"]
    # 3 seeds x (5 iterations + initial state)
    assert len(rows) == 1 + 3 * 6


def test_orbit_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, "orbit", iterations=3)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "orbit_trace.csv")
    assert rows[0] == ["k", "xi", "action_I", "status"]
    assert len(rows) == 1 + 4
    assert all(r[3] == "running" for r in rows[1:])
    assert (tmp_path / "orbit.svg").exists()


def test_periodic_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, "periodic")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "periodic.csv")
    assert rows[0] == ["m", "n", "kind", "residual", "xis", "actions"]
    by_mn = {}
    for r in rows[1:]:
        by_mn.setdefault((r[0], r[1]), []).append(r)
    # the collision line is the only (0,1) cycle of these parameters
    assert len(by_mn[("0", "1")]) == 1
    assert float(by_mn[("0", "1")][0][5]) == 0.0
    # half-turn resonances are out of the shift range
    assert by_mn[("1", "2")][0][2] == "none"
    assert by_mn[("1", "2")][0][3] == "RangeEmpty"
    # quarter-turn resonances come in two action families
    assert len(by_mn[("1", "4")]) == 2


def test_periodic_on_zero_coefficients_is_the_circle(tmp_path):
    # eps != 0 with every coefficient zero is the unit circle: the same
    # closed-form families, to the byte
    for name, profile in (("circle", ""), ("zeros", "[profile]\n"
                                           "epsilon = 0.01\n"
                                           "fourier_cos = 2:0.0\n")):
        out = tmp_path / name
        out.mkdir()
        cfg = write_cfg(out, "periodic", profile=profile)
        assert main(["--config", cfg, "--out", str(out)]) == 0
    assert (tmp_path / "zeros" / "periodic.csv").read_bytes() == \
        (tmp_path / "circle" / "periodic.csv").read_bytes()


def test_twist_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, "twist")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    prof = read_csv(tmp_path / "twist_profile.csv")
    assert prof[0] == ["I", "theta_prime", "sign"]
    assert set(r[2] for r in prof[1:]) <= {"+", "-", "0"}
    roots = read_csv(tmp_path / "twist_roots.csv")
    assert roots[0] == ["root_I"]
    vals = sorted(float(r[0]) for r in roots[1:])
    assert len(vals) == 2
    assert vals[1] == pytest.approx(0.9511882584724819, abs=1e-9)
    assert (tmp_path / "twist.svg").exists()


def test_caustics_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, "caustics")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "caustics.csv")
    assert rows[0] == ["kind", "zeta", "x", "y"]
    kinds = set(r[0] for r in rows[1:])
    assert kinds == {"outer", "inner"}
    assert (tmp_path / "caustics.svg").exists()


def test_oracle_check_pipeline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "oracle-check", seeds=3)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max |dxi|" in out
    rows = read_csv(tmp_path / "oracle_check.csv")
    assert rows[0] == ["alpha0", "xi1_map", "xi1_ode", "dxi", "dI"]
    # the middle seed is the radial collision ray, which the unregularized
    # oracle cannot integrate; its row records the failure by name
    radial = next(r for r in rows[1:] if float(r[0]) == 0.0)
    assert radial[1] == "" and radial[4] == "EventDetectionFailed"
    for r in rows[1:]:
        if r[1] == "":
            continue
        assert float(r[3]) < 1e-6
        assert float(r[4]) < 1e-9


def write_params_cfg(tmp_path, command, params, profile=""):
    """A config with the four physical constants ``params`` (E, h, mu, om)."""
    text = ("[params]\n" + "".join(
        f"{key} = {val!r}\n" for key, val in zip(
            ("energy_E", "offset_h", "mass_mu", "stiffness_om"), params)) +
        profile + f"[command]\ncommand = {command}\n")
    path = tmp_path / f"{command}.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", refbilliard.COMMANDS)
def test_a_boundary_beyond_the_braking_radius_fails_typed(tmp_path, capsys,
                                                         command):
    # r = 1 + 0.8 cos xi reaches 1.8 > sqrt(2E/om) = 1.732, where V_E < 0:
    # each command exits 0, or 1 naming a library error, never a traceback
    cfg = write_params_cfg(tmp_path, command, (1.5, 2.0, 2.0, 1.0),
                           "[profile]\nepsilon = 0.8\nfourier_cos = 1:1.0\n")
    code = main(["--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1)
    if code:
        name = re.match(rf"{command} failed: (\w+): ", err).group(1)
        assert issubclass(getattr(refbilliard, name),
                          refbilliard.BilliardError)


@pytest.mark.parametrize("command, table", [
    ("shift-profile", "shift_profile.csv"), ("twist", "twist_profile.csv")])
def test_shift_grid_stays_inside_sqrt_e_h_mu(tmp_path, command, table):
    # E + h + mu = 0.11 < I_c^2 = 2: the circle's band ends at sqrt(0.11)
    cfg = write_params_cfg(tmp_path, command, (2.5, -2.4, 0.01, 1.0))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / table)
    values = np.array([[float(c) for c in r[:2 if command == "twist" else 7]]
                       for r in rows[1:]])
    assert len(values) == 201 and np.all(np.isfinite(values))
    assert values[-1, 0] == pytest.approx(0.96 * math.sqrt(0.11), rel=1e-12)


def test_svg_output_uses_polylines_only(tmp_path):
    cfg = write_cfg(tmp_path, "shift-profile")
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "shift_profile.svg").getroot()
    assert root.tag.endswith("svg")
    tags = {child.tag.split("}")[-1] for child in root.iter()}
    assert tags <= {"svg", "polyline", "text"}
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) >= 3
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert any(t == "I" for t in texts)
    assert any(t == "shift" for t in texts)


def test_section_verbose_reports_stage_seconds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "section", seeds=2, iterations=4)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    quiet = capsys.readouterr().out
    assert main(["--config", cfg, "--out", str(tmp_path / "b"),
                 "--verbose"]) == 0
    loud = capsys.readouterr().out
    assert "seconds:" not in quiet
    line = re.search(r"seconds: iterate (\d+\.\d{3}) \((\d+) returns, "
                     r"(\d+\.\d) us/return\), csv \d+\.\d{3}, "
                     r"svg \d+\.\d{3}\n", loud)
    assert line
    # two seeds of four returns on the circle, none cut short; the seconds
    # are printed to 1 ms and the microseconds per return to 0.1
    assert int(line[2]) == 8
    assert float(line[3]) == pytest.approx(1e6 * float(line[1]) / 8,
                                           abs=1e6 * 0.0005 / 8 + 0.05)
    for name in ("section.csv", "section.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_section_svg_points_run_in_xi_order(tmp_path):
    cfg = write_cfg(tmp_path, "section", seeds=2, iterations=30,
                    profile=PROFILE)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "section.svg").getroot()
    curves = [e.get("points") for e in root.iter()
              if e.tag.endswith("polyline") and e.get("stroke-width") == "1.2"]
    assert len(curves) == 2
    for points in curves:
        xs = [float(p.split(",")[0]) for p in points.split()]
        assert len(xs) == 31 and xs == sorted(xs)


# -- the writers against the per-cell code they replaced -----------------------


def reference_csv(path, header, rows):
    """csv.writer on cells formatted one at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else "%.12g" % c
                          for c in row] for row in rows)


CSV_TABLES = {
    "numbers": (["a", "b", "c", "d"], [
        (0, 1, 2.5, -3),
        (-7, 10 ** 13, math.nan, 1e13),
        (math.inf, -math.inf, -0.0, 1e-300),
        (np.float64(0.1), np.float64(-1e-7), np.int64(12), 1.0 / 3.0),
        [True, 2 ** 40, 123456789012.5, -1e-320],
    ]),
    "strings": (["id", "x", "status"], [
        (1, 0.5, "running"),
        (2, 0.25, "a b"),
        (3, 0.125, "say 'hi'"),
        (4, 1e-9, "100%"),
        (5, 2e9, "%s %d %%"),
        (6, math.nan, ""),
        (7, -0.0, " padded "),
        (8, 9.0, np.str_("numpy str")),
        (9, 10.0, "running"),
    ]),
    # a float or an exception name in one column, as periodic.csv's residual
    "switching": (["m", "kind", "residual", "xis"], [
        ("1", "none", "RangeEmpty", ""),
        ("1", "circular", 1.25e-15, "0.1 0.2"),
        ("1", "circular", 0.30000000000000004, "0.3 0.4"),
        ("2", "none", "TotalReflectionTermination", ""),
        ("3", "circular", 7.0, "1"),
    ]),
    # a lone empty field is quoted, so a one-column table holds none
    "one column": (["v"], [(1.5,), ("a",), (" ",), (np.str_("b"),)]),
}


@pytest.mark.parametrize("table", sorted(CSV_TABLES))
def test_write_csv_matches_per_cell_reference(tmp_path, table):
    header, rows = CSV_TABLES[table]
    reference_csv(tmp_path / "ref.csv", header, rows)
    # no cell of these tables is one csv quotes
    assert b'"' not in (tmp_path / "ref.csv").read_bytes()
    # a generator: the writer streams its rows
    _write_csv(str(tmp_path), "new.csv", header, (row for row in rows))
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


#: strings csv must quote, or that a ``%`` format must escape
TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n%'), max_size=3)
NUMBER = st.one_of(
    st.floats(),  # nan, +-inf and -0.0 among them
    st.integers(-10 ** 14, 10 ** 14),
    # %.12g writes 1e+12 where %d would write the digits
    st.sampled_from([10 ** 12 - 1, 10 ** 12, -10 ** 12, 2 ** 53 + 1, True]),
    st.floats().map(np.float64),
    st.integers(-2 ** 62, 2 ** 62).map(np.int64),
)
SCALAR = st.one_of(NUMBER, TEXT, TEXT.map(np.str_), st.just(""))
#: strings csv does not quote, the only ones a block with columns takes
PLAIN = st.text(alphabet=st.sampled_from("ab %"), max_size=3)
RANGE_START = st.one_of(st.integers(-5, 5),
                        st.integers(10 ** 12 - 3, 10 ** 12 + 3),
                        st.integers(-10 ** 12 - 3, -10 ** 12 + 3))
COLUMN_TYPES = (range, np.ndarray)


def columns(n):
    """Column cells of ``n`` values, of every kind the writer takes."""
    def rows(values):
        return st.lists(values, min_size=n, max_size=n)
    return st.one_of(
        st.tuples(RANGE_START, st.sampled_from([1, -1])).map(
            lambda a: range(a[0], a[0] + a[1] * n, a[1])),
        rows(st.floats()).map(np.array),
        rows(st.integers(-2 ** 62, 2 ** 62)).map(
            lambda v: np.array(v, dtype=np.int64)),
        rows(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    )


@st.composite
def csv_tables(draw):
    """A header of strings csv does not quote and blocks of one width: rows
    of any scalars, csv's quoted cells and lone empty fields among them, and
    blocks mixing column cells with scalars csv does not quote."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(PLAIN, min_size=width, max_size=width))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 3))
        cells = draw(st.sampled_from([
            SCALAR, st.one_of(NUMBER, PLAIN, PLAIN.map(np.str_),
                              columns(n))]))
        blocks.append(tuple(draw(cells) for _ in range(width)))
    return header, blocks


def expand(block):
    """The rows a block stands for."""
    cols = [c for c in block if isinstance(c, COLUMN_TYPES)]
    if not cols:
        return [tuple(block)]
    return [tuple(c[i] if isinstance(c, COLUMN_TYPES) else c for c in block)
            for i in range(len(cols[0]))]


def chunk_blocks(n):
    """Blocks of ``n`` rows mixing bit-constant and varying columns, a
    ``%`` in a string cell, as the writer's chunks cut them."""
    varying = np.linspace(-1.0, 1.0, n)
    return [(range(n), np.full(n, 0.25), varying, "a %s%%"),
            (np.full(n, -0.0), "b", varying[::-1], np.full(n, 7, np.int64)),
            (7, np.full(n, np.nan), np.arange(n) % 3 == 0, varying)]


@settings(max_examples=300)
@given(table=csv_tables())
@example(table=(["v"], [("",), (np.array([]),), (1.5,)]))
@example(table=(["k", "s"], [(range(10 ** 12 - 2, 10 ** 12 + 1), "x%sy"),
                             (range(3, -1, -1), np.str_("a b"))]))
# bit-constant columns: signed zeros (a mix must not fold), nan, infinities,
# one row, ints
@example(table=(["a", "b", "c"], [
    (np.full(3, -0.0), np.array([0.0, -0.0, 0.0]), np.full(3, 1.5)),
    (np.full(2, np.nan), np.full(2, np.inf), np.full(2, -np.inf)),
    (np.array([np.nan, 1.0]), np.full(2, 3, np.int64), np.ones(2, bool)),
    ("x", np.array([-0.0]), np.array([-7], np.int64)),
]))
@example(table=(["k", "c", "v", "s"], chunk_blocks(_CHUNK - 1)))
@example(table=(["k", "c", "v", "s"], chunk_blocks(_CHUNK)))
@example(table=(["k", "c", "v", "s"], chunk_blocks(_CHUNK + 1)))
@example(table=(["k", "c", "v", "s"], chunk_blocks(2 * _CHUNK + 1)))
def test_write_csv_blocks_match_the_expanded_rows(tmp_path_factory, table):
    header, blocks = table
    rows = [row for block in blocks for row in expand(block)]
    tmp = tmp_path_factory.mktemp("blocks")
    reference_csv(tmp / "ref.csv", header, rows)
    # csv writes a quote only in a field it quotes, and leaves a carriage
    # return bare, which reads back as a line end: the writer takes neither
    ref = (tmp / "ref.csv").read_bytes()
    if b'"' in ref or b"\r" in ref:
        with pytest.raises(ValueError):
            _write_csv(str(tmp), "new.csv", header, iter(blocks))
        return
    _write_csv(str(tmp), "new.csv", header, iter(blocks))
    assert (tmp / "new.csv").read_bytes() == ref


@pytest.mark.parametrize("block, error", [
    ((1, [0.5, 0.25]), TypeError),  # a list column
    ((np.array(["a", "b"]), 1.0), ValueError),  # a str-array column
    ((range(2), "a,b"), ValueError),  # a scalar csv quotes, with columns
    # scalars csv quotes, in a row of scalars
    ((2, "a,b"), ValueError),
    ((3, 'say "hi"'), ValueError),
    ((4, "line\nbreak"), ValueError),
    ((5, "carriage\rreturn"), ValueError),
    ((8, np.str_("numpy, str")), ValueError),
    (("2", "Range,Empty"), ValueError),
    (("",), ValueError),  # a lone empty field
    ((",",), ValueError),
])
def test_write_csv_rejects_what_it_does_not_take(tmp_path, block, error):
    header = ["a", "b"][:len(block)]
    with pytest.raises(error):
        _write_csv(str(tmp_path), "new.csv", header, [block])


@pytest.mark.parametrize("values, piece", [
    (np.full(4, -0.0), "-0"),
    (np.full(4, 0.0), "0"),
    (np.full(1, 0.1), "0.1"),
    (np.full(3, np.nan), "nan"),
    (np.full(3, -np.inf), "-inf"),
    (np.full(3, 12, np.int64), "12"),
    (np.full(3, 1e12), "1e+12"),
    (np.array([0.0, -0.0]), None),  # equal, but not the same bits
    (np.array([1.0, 2.0]), None),
    (np.array([]), None),
])
def test_a_column_of_one_bit_pattern_is_formatted_once(values, piece):
    got = column_piece(values, "%.12g")
    if piece is None:
        assert got == ("%.12g", (values.tolist(),))
    else:
        assert got == (piece, ())


class CountingFile:
    """A file that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_block_writes_a_chunk_at_a_time():
    n = 2 * _CHUNK + 1
    fh = CountingFile()
    _write_block(fh, (range(n), np.full(n, 0.5), np.linspace(0.0, 1.0, n)))
    assert [w.count("\n") for w in fh.writes] == [_CHUNK, _CHUNK, 1]
    assert fh.writes[-1] == "%d,0.5,1\n" % (n - 1)


def reference_bounds(canvas):
    """The pure-Python bounds of the per-point renderer."""
    xs = [x for c in canvas._curves for x in c[0].tolist() if math.isfinite(x)]
    ys = [y for c in canvas._curves for y in c[1].tolist() if math.isfinite(y)]
    if not xs or not ys:
        return -1.0, 1.0, -1.0, 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.04 * (x1 - x0), 0.04 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
    if canvas.equal_aspect:
        vw = WIDTH - 2 * MARGIN
        vh = HEIGHT - 2 * MARGIN
        s = max((x1 - x0) / vw, (y1 - y0) / vh)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = cx - 0.5 * s * vw, cx + 0.5 * s * vw
        y0, y1 = cy - 0.5 * s * vh, cy + 0.5 * s * vh
    return x0, x1, y0, y1


def reference_points(canvas):
    """Each curve's points attribute, one ``_fmt`` call per coordinate."""
    x0, x1, y0, y1 = reference_bounds(canvas)
    W, H, M = WIDTH, HEIGHT, MARGIN
    return [" ".join(
        f"{_fmt(M + (x - x0) / (x1 - x0) * (W - 2 * M))},"
        f"{_fmt(H - M - (y - y0) / (y1 - y0) * (H - 2 * M))}"
        for x, y in zip(xs.tolist(), ys.tolist())
        if math.isfinite(x) and math.isfinite(y))
        for xs, ys, _ in canvas._curves]


THETA = np.linspace(0.0, 2.0 * math.pi, 97)
SVG_CASES = {
    "non-finite": (False, [
        ([0.0, 1.0, math.nan, 2.0, 3.0, math.inf],
         [1.0, math.inf, 2.0, -math.inf, 0.5, 0.0]),
        (np.linspace(-1.3, 2.9, 41), np.sin(np.linspace(-1.3, 2.9, 41))),
        ([math.nan, 1.0], [0.0, math.nan]),
    ]),
    "single point": (False, [([0.3], [0.7])]),
    "zero width": (False, [([1.0] * 5, [0.1, 0.2, 0.15, -0.4, 0.3])]),
    "flat": (False, [([0.0, 1e-13], [2.0, 2.0])]),
    "equal aspect": (True, [
        (1.3 * np.cos(THETA), 0.7 * np.sin(THETA)),
        ([-0.2, 0.1, 0.45], [0.05, -0.3, 0.2]),
    ]),
    "empty": (True, []),
    # a pixel coordinate of one bit pattern is a literal of the point format
    "horizontal": (False, [(np.linspace(-math.pi, math.pi, 4001),
                            np.full(4001, 0.7))]),
    "signed zero": (False, [(np.linspace(0.0, 1.0, 5), np.full(5, -0.0)),
                            (np.linspace(0.5, 1.5, 5), np.full(5, 0.0)),
                            ([0.0, 1.0], [-0.0, 0.0])]),
    "vertical": (True, [(np.full(301, -0.25), np.linspace(-1.0, 2.0, 301)),
                        ([0.5, 0.5], [1.0, 1.0])]),
}


@pytest.mark.parametrize("case", sorted(SVG_CASES))
def test_svg_render_matches_per_point_reference(case):
    equal_aspect, curves = SVG_CASES[case]
    canvas = SvgCanvas(title=case, equal_aspect=equal_aspect)
    for i, (xs, ys) in enumerate(curves):
        canvas.add_polyline(xs, ys, label=f"curve {i}")
    assert canvas._bounds() == reference_bounds(canvas)
    svg = canvas.render()
    drawn = re.findall(r'<polyline points="([^"]*)" fill="none" '
                       r'stroke="#[0-9a-f]{6}" stroke-width="1.2"/>', svg)
    assert drawn == reference_points(canvas)


# the child renders a canvas whose y span, 1e8 to the next float, is two
# ulps wide: the tick step is below half an ulp of the ticks, and a tick
# loop that does not check for progress never ends.  The address-space cap
# turns such a loop into a quick MemoryError.
_TINY_SPAN = """\
import math, resource
from refbilliard.svgplot import SvgCanvas
with open("/proc/self/statm") as fh:
    cap = int(fh.read().split()[0]) * resource.getpagesize() + 2 ** 28
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
canvas = SvgCanvas()
canvas.add_polyline([0.0, 1.0], [1e8, math.nextafter(1e8, 2e8)])
print(canvas.render().count("<polyline"))
"""


def test_svg_render_ends_on_a_span_of_two_ulps(tmp_path):
    src = os.path.dirname(os.path.dirname(refbilliard.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _TINY_SPAN],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    # the frame, at least one tick on each axis, and the curve
    assert int(proc.stdout) >= 4


@pytest.mark.parametrize("equal_aspect", [False, True])
def test_svg_render_rejects_a_span_beyond_the_float_range(equal_aspect):
    # padding a span of 2e308 reaches inf, which would put nan coordinates
    # and an inf tick into the file
    canvas = SvgCanvas(equal_aspect=equal_aspect)
    canvas.add_polyline([0.0, 1.0], [-1e308, 1e308])
    with pytest.raises(ValueError, match="float range"):
        canvas.render()
    wide = SvgCanvas(equal_aspect=equal_aspect)
    wide.add_polyline([0.0, 1.0], [-5e307, 5e307])
    assert "nan" not in wide.render()
