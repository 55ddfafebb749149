"""Command-line front end: config-driven runs emitting CSV and SVG artifacts.

Every run is described by a config file (see :mod:`refbilliard.config`); the
command named there selects one pipeline.  All output is deterministic:
fixed grids, fixed iteration orders, fixed float formatting.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from itertools import chain
from time import perf_counter
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ._util import wrap_pi
from .boundary import PerturbationProfile, boundary
from .caustics import circular_caustic_radii, perturbed_caustic
from .config import ConfigError, RunConfig, load_config
from .errors import BilliardError
from .orbits import find_periodic, iterate
from .oracle import ode_return_map
from .params import PhysParams, potential
from .returnmap import (circular_shift, fixed_point_thresholds,
                        outgoing_state, return_map, twist_at_zero,
                        twist_critical_set)
from .svgplot import SvgCanvas


def _num(v: float) -> str:
    return "%.12g" % v


#: a delimiter, quote or line break: csv would quote the cell holding it
#: (or write a bare carriage return, which reads back as a line end)
_QUOTED = re.compile('[,"\r\n]')


def _write_csv(out: str, name: str, header: Sequence[str],
               blocks: Iterable[Sequence]) -> None:
    """Stream ``header`` and ``blocks`` to ``out``/``name`` as CSV, numbers
    as ``%.12g``, strings as they are, and print the ``wrote`` line.

    A block is a row whose cells may be columns (a ``range`` or a 1-D
    numeric array, all of one length); it stands for ``len(column)`` rows,
    its scalar cells repeated on each.  A row of scalars is a block of one
    row.  Each scalar is formatted once into a ``%`` format, which then
    formats the block's rows from its columns.  No cell is quoted: a string
    cell that csv would quote (one holding a delimiter, quote or line
    break, or a lone empty field) raises :class:`ValueError`.
    """
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for block in chain((header,), blocks):
            _write_block(fh, tuple(block))
    print(f"wrote {path}")


def _column(cell) -> Tuple[Sequence, str]:
    """A column cell's values and its ``%`` piece."""
    if isinstance(cell, range):
        # below 1e12 an int's %.12g is its digits, which %d writes sooner
        small = not cell or max(abs(cell[0]), abs(cell[-1])) < 10 ** 12
        return cell, "%d" if small else "%.12g"
    if cell.dtype.kind not in "biuf":
        raise ValueError(f"a column holds numbers, not {cell.dtype}")
    return cell.tolist(), "%.12g"


def _write_block(fh, block: tuple) -> None:
    """Write the rows ``block`` stands for (see :func:`_write_csv`)."""
    columns, pieces = [], []
    for cell in block:
        if isinstance(cell, (range, np.ndarray)):
            values, piece = _column(cell)
            columns.append(values)
        elif isinstance(cell, str):
            if _QUOTED.search(cell) or (not cell and len(block) == 1):
                raise ValueError(f"csv would quote the cell {cell!r}")
            piece = cell.replace("%", "%%")
        else:
            piece = _num(cell)
        pieces.append(piece)
    if len({len(c) for c in columns}) > 1:
        raise ValueError("the columns of a block differ in length")
    fmt = ",".join(pieces) + "\n"
    fh.writelines(map(fmt.__mod__, zip(*columns) if columns else [()]))


def _write_svg(out: str, name: str, canvas: SvgCanvas, xlabel: str,
               ylabel: str) -> None:
    """Write ``canvas`` to ``out``/``name`` and print the ``wrote`` line."""
    path = os.path.join(out, name)
    canvas.write(path, xlabel=xlabel, ylabel=ylabel)
    print(f"wrote {path}")


def _say(verbose: bool, *parts) -> None:
    if verbose:
        print(*parts)


# -- command pipelines -------------------------------------------------------------


def _cmd_params_report(cfg: RunConfig, out: str, verbose: bool) -> int:
    p = cfg.params
    rows: List[Tuple[str, float]] = [
        ("energy_E", p.energy_E), ("offset_h", p.offset_h),
        ("mass_mu", p.mass_mu), ("stiffness_om", p.stiffness_om),
        ("epsilon", cfg.profile.epsilon),
        ("action_bound_Ic", p.action_bound_Ic), ("omega", p.omega),
        ("kepler_energy", p.kepler_energy),
        ("brake_radius", p.brake_radius),
        ("lc_Omega_sq", p.lc_Omega_sq),
        ("twist_at_zero", twist_at_zero(p)),
    ]
    try:
        mu_bar, h_bar = fixed_point_thresholds(p)
    except BilliardError:
        mu_bar, h_bar = math.nan, math.nan
    rows += [("mu_bar", mu_bar), ("h_bar", h_bar)]
    roots = twist_critical_set(p)
    rows.append(("n_twist_roots", float(len(roots))))
    _write_csv(out, "params_report.csv", ["key", "value"], rows)
    for key, value in rows:
        _say(verbose, f"  {key} = {_num(value)}")
    return 0


def _shift_grid(params: PhysParams, n: int) -> np.ndarray:
    Ic = params.action_bound_Ic
    grid = list(np.linspace(-0.96 * Ic, 0.96 * Ic, n))
    for anchor in (-1.0, 1.0):
        if abs(anchor) < 0.96 * Ic:
            grid.append(anchor)
    return np.array(sorted(set(float(g) for g in grid)))


def _cmd_shift_profile(cfg: RunConfig, out: str, verbose: bool) -> int:
    grid = _shift_grid(cfg.params, 201)
    rows = []
    for I in grid:
        s = circular_shift(float(I), cfg.params)
        rows.append((I, s.f_val, s.g_val, s.total, s.f_prime, s.g_prime,
                     s.total_prime))
    _write_csv(out, "shift_profile.csv", ["I", "f", "g", "theta", "f_prime",
                                          "g_prime", "theta_prime"], rows)
    canvas = SvgCanvas(title="circular shift components")
    cols = list(zip(*rows))
    canvas.add_polyline(cols[0], cols[1], label="f")
    canvas.add_polyline(cols[0], cols[2], label="g")
    canvas.add_polyline(cols[0], cols[3], label="theta")
    _write_svg(out, "shift_profile.svg", canvas, "I", "shift")
    return 0


def _section_orbit(I0: float, cfg: RunConfig
                   ) -> Tuple[np.ndarray, np.ndarray, str]:
    """The orbit from (0, ``I0``): xi and action_I of every state, and its
    status."""
    trace = iterate(outgoing_state(0.0, I0, cfg.profile, cfg.params),
                    cfg.iterations, cfg.profile, cfg.params)
    states = trace.states
    return (np.array([st.xi for st in states]),
            np.array([st.action_I for st in states]), trace.status)


def _cmd_section(cfg: RunConfig, out: str, verbose: bool) -> int:
    Ic = cfg.params.action_bound_Ic
    seeds_I = np.linspace(-0.9 * Ic, 0.9 * Ic, cfg.seeds)
    t0 = perf_counter()
    per_seed = [_section_orbit(float(I), cfg) for I in seeds_I]
    t1 = perf_counter()
    _write_csv(out, "section.csv",
               ["seed_id", "k", "xi", "action_I", "status"],
               [(j, range(len(xi)), xi, I, status)
                for j, (xi, I, status) in enumerate(per_seed)])
    t2 = perf_counter()

    canvas = SvgCanvas(title="Poincare section")
    for j, (xi, I, status) in enumerate(per_seed):
        # the points in (xi, I) order; lexsort's last key is the primary one
        order = np.lexsort((I, xi))
        canvas.add_polyline(xi[order], I[order], label=f"seed {j}")
        _say(verbose, f"  seed {j}: I0 = {_num(seeds_I[j])}, "
             f"{len(xi)} points, {status}")
    _write_svg(out, "section.svg", canvas, "xi", "I")
    returns = sum(len(xi) - 1 for xi, _, _ in per_seed)
    per_return = f"{1e6 * (t1 - t0) / returns:.1f}" if returns else "nan"
    _say(verbose, f"  seconds: iterate {t1 - t0:.3f} ({returns} returns, "
         f"{per_return} us/return), csv {t2 - t1:.3f}, "
         f"svg {perf_counter() - t2:.3f}")
    return 0


def _cmd_orbit(cfg: RunConfig, out: str, verbose: bool) -> int:
    I0 = 0.5 * cfg.params.action_bound_Ic
    trace = iterate(outgoing_state(0.0, I0, cfg.profile, cfg.params),
                    cfg.iterations, cfg.profile, cfg.params, keep_arcs=True)
    rows = [(k, st.xi, st.action_I, trace.status)
            for k, st in enumerate(trace.states)]
    _write_csv(out, "orbit_trace.csv", ["k", "xi", "action_I", "status"], rows)

    canvas = SvgCanvas(title="physical-plane trajectory", equal_aspect=True)
    xs_b, ys_b = _boundary_polyline(cfg.profile)
    canvas.add_polyline(xs_b, ys_b, label="boundary")
    pts = np.vstack([arc.sample(64) for arc in trace.arcs]) \
        if trace.arcs else np.zeros((0, 2))
    canvas.add_polyline(pts[:, 0], pts[:, 1], label="orbit")
    _write_svg(out, "orbit.svg", canvas, "x", "y")
    _say(verbose, f"  I0 = {_num(I0)}, status {trace.status}, "
         f"rotation {trace.rotation_estimate[0]:.6f}")
    return 0


def _boundary_polyline(profile: PerturbationProfile, n: int = 721):
    xi = np.linspace(-math.pi, math.pi, n)
    r = profile.radius(xi)
    return r * np.cos(xi), r * np.sin(xi)


_CATALOGUE = ((0, 1), (1, 2), (-1, 2), (1, 3), (-1, 3), (1, 4), (-1, 4))


def _cmd_periodic(cfg: RunConfig, out: str, verbose: bool) -> int:
    rows = []
    for m, n in _CATALOGUE:
        try:
            orbits = find_periodic(m, n, cfg.profile, cfg.params)
        except BilliardError as exc:
            rows.append((str(m), str(n), "none", type(exc).__name__, "", ""))
            _say(verbose, f"  ({m},{n}): {type(exc).__name__}")
            continue
        for orb in orbits:
            rows.append((str(m), str(n), orb.kind, orb.residual,
                         " ".join(_num(x) for x in orb.xis),
                         " ".join(_num(a) for a in orb.actions)))
        _say(verbose, f"  ({m},{n}): {len(orbits)} orbit(s)")
    _write_csv(out, "periodic.csv",
               ["m", "n", "kind", "residual", "xis", "actions"], rows)
    return 0


def _cmd_twist(cfg: RunConfig, out: str, verbose: bool) -> int:
    p = cfg.params
    roots = twist_critical_set(p)
    grid = _shift_grid(p, 201)
    rows = [(I, circular_shift(float(I), p).total_prime) for I in grid]
    rows = [(I, tp, "+" if tp > 0 else ("-" if tp < 0 else "0"))
            for I, tp in rows]
    _write_csv(out, "twist_profile.csv", ["I", "theta_prime", "sign"], rows)
    _write_csv(out, "twist_roots.csv", ["root_I"], [(r,) for r in roots])

    canvas = SvgCanvas(title="twist profile")
    canvas.add_polyline([r[0] for r in rows], [r[1] for r in rows],
                        label="theta_prime")
    canvas.add_polyline([rows[0][0], rows[-1][0]], [0.0, 0.0], label="zero")
    _write_svg(out, "twist.svg", canvas, "I", "d theta / d I")
    _say(verbose, f"  twist_at_zero = {_num(twist_at_zero(p))}, "
         f"{len(roots)} critical root(s)")
    return 0


def _cmd_caustics(cfg: RunConfig, out: str, verbose: bool) -> int:
    I0 = 0.5 * cfg.params.action_bound_Ic
    R_E, R_I = circular_caustic_radii(I0, cfg.params)
    rows = []
    curves = {}
    for kind in ("outer", "inner"):
        curve = perturbed_caustic(I0, kind, cfg.profile, cfg.params)
        curves[kind] = curve
        rows += [(kind, z, x, y) for z, x, y in curve.samples]
        _say(verbose, f"  {kind}: {len(curve.samples)} samples, residual "
             f"{curve.max_envelope_residual:.3g}")
    _write_csv(out, "caustics.csv", ["kind", "zeta", "x", "y"], rows)

    canvas = SvgCanvas(title=f"caustics at I0 = {I0:.4f}", equal_aspect=True)
    xs_b, ys_b = _boundary_polyline(cfg.profile)
    canvas.add_polyline(xs_b, ys_b, label="boundary")
    for kind in ("outer", "inner"):
        s = curves[kind].samples
        canvas.add_polyline(s[:, 1], s[:, 2], label=f"{kind} caustic")
    _write_svg(out, "caustics.svg", canvas, "x", "y")
    _say(verbose, f"  circular radii R_E = {_num(R_E)}, R_I = {_num(R_I)}")
    return 0


def _cmd_oracle_check(cfg: RunConfig, out: str, verbose: bool) -> int:
    xi0 = 0.3
    geom = boundary(xi0, cfg.profile)
    ve = potential(geom.point_c, "outer", cfg.params)
    alphas = np.linspace(-math.pi / 2 + 0.2, math.pi / 2 - 0.2,
                         max(cfg.seeds, 3))
    rows = []
    worst_xi, worst_I = 0.0, 0.0
    for a in alphas:
        I0 = math.sqrt(ve) * math.sin(float(a)) * geom.metric
        state = outgoing_state(xi0, I0, cfg.profile, cfg.params)
        try:
            res = return_map(state, cfg.profile, cfg.params)
            orc = ode_return_map(xi0, float(a), cfg.profile, cfg.params)
        except BilliardError as exc:
            rows.append((a, "", "", "", type(exc).__name__))
            continue
        dxi = abs(wrap_pi(res.state.xi - orc.xi1))
        dI = abs(res.state.action_I - orc.action_I1)
        worst_xi, worst_I = max(worst_xi, dxi), max(worst_I, dI)
        rows.append((a, res.state.xi, orc.xi1, dxi, dI))
    _write_csv(out, "oracle_check.csv",
               ["alpha0", "xi1_map", "xi1_ode", "dxi", "dI"], rows)
    print(f"max |dxi| = {worst_xi:.3e}, max |dI| = {worst_I:.3e}")
    return 0


_PIPELINES = {
    "params-report": _cmd_params_report,
    "shift-profile": _cmd_shift_profile,
    "section": _cmd_section,
    "orbit": _cmd_orbit,
    "periodic": _cmd_periodic,
    "twist": _cmd_twist,
    "caustics": _cmd_caustics,
    "oracle-check": _cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refbilliard",
        description="Kepler-oscillator refraction billiard toolbox")
    parser.add_argument("--config", metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory for CSV/SVG artifacts")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-artifact summaries")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        parser.print_usage(sys.stderr)
        print("error: --config PATH is required; the config names the "
              "command to run", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    try:
        return _PIPELINES[cfg.command](cfg, args.out, args.verbose)
    except BilliardError as exc:
        print(f"{cfg.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
