"""Command-line front end: config-driven runs emitting CSV and SVG artifacts.

Every run is described by a config file (see :mod:`refbilliard.config`); the
command named there selects one pipeline.  All output is deterministic:
fixed grids, fixed iteration orders, fixed float formatting.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from itertools import chain, compress, repeat
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


#: a character that makes csv quote the string cell holding it
_QUOTED = re.compile('[,"\r\n]')


def _write_csv(path: str, header: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    """Stream ``header`` and ``rows`` to ``path`` as CSV: numbers as
    ``%.12g``, strings as they are.

    Each row is one ``%`` operation on a format built from its cell types,
    rebuilt when the types change.  A row that csv would quote (a string
    cell holding a delimiter, quote or line break, or a lone empty field)
    goes through :mod:`csv` instead, so the bytes are those of
    ``csv.writer`` on the formatted cells.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        types = None
        for row in chain((header,), rows):
            row = tuple(row)
            row_types = tuple(map(type, row))
            if row_types != types:
                types = row_types
                is_text = [issubclass(t, str) for t in types]
                fmt = ",".join("%s" if s else "%.12g" for s in is_text) + "\n"
            if row == ("",) or any(map(_QUOTED.search,
                                       compress(row, is_text))):
                writer.writerow([c if isinstance(c, str) else _num(c)
                                 for c in row])
            else:
                fh.write(fmt % row)


def _say(verbose: bool, *parts) -> None:
    if verbose:
        print(*parts)


# -- command pipelines -------------------------------------------------------------


def _cmd_params_report(cfg: RunConfig, out: str, workers: int,
                       verbose: bool) -> int:
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
    path = os.path.join(out, "params_report.csv")
    _write_csv(path, ["key", "value"], rows)
    print(f"wrote {path}")
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


def _cmd_shift_profile(cfg: RunConfig, out: str, workers: int,
                       verbose: bool) -> int:
    grid = _shift_grid(cfg.params, 201)
    rows = []
    for I in grid:
        s = circular_shift(float(I), cfg.params)
        rows.append((I, s.f_val, s.g_val, s.total, s.f_prime, s.g_prime,
                     s.total_prime))
    path = os.path.join(out, "shift_profile.csv")
    _write_csv(path, ["I", "f", "g", "theta", "f_prime", "g_prime",
                      "theta_prime"], rows)
    print(f"wrote {path}")
    canvas = SvgCanvas(title="circular shift components")
    cols = list(zip(*rows))
    canvas.add_polyline(cols[0], cols[1], label="f")
    canvas.add_polyline(cols[0], cols[2], label="g")
    canvas.add_polyline(cols[0], cols[3], label="theta")
    spath = os.path.join(out, "shift_profile.svg")
    canvas.write(spath, xlabel="I", ylabel="shift")
    print(f"wrote {spath}")
    return 0


def _section_orbit(args) -> Tuple[np.ndarray, np.ndarray, str]:
    """One seed's orbit: xi and action_I of every state, and its status."""
    xi0, I0, iterations, profile, params = args
    trace = iterate(outgoing_state(xi0, I0, profile, params), iterations,
                    profile, params)
    states = trace.states
    return (np.array([st.xi for st in states]),
            np.array([st.action_I for st in states]), trace.status)


def _cmd_section(cfg: RunConfig, out: str, workers: int,
                 verbose: bool) -> int:
    Ic = cfg.params.action_bound_Ic
    seeds_I = np.linspace(-0.9 * Ic, 0.9 * Ic, cfg.seeds)
    jobs = [(0.0, float(I), cfg.iterations, cfg.profile, cfg.params)
            for I in seeds_I]
    # a fork pool starts all its workers up front: no more than the seeds
    workers = min(workers, len(jobs))
    t0 = perf_counter()
    if workers > 1:
        # imported here: a run with one worker never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_section_orbit, jobs))
    else:
        per_seed = [_section_orbit(job) for job in jobs]
    t1 = perf_counter()
    path = os.path.join(out, "section.csv")
    _write_csv(path, ["seed_id", "k", "xi", "action_I", "status"],
               chain.from_iterable(
                   zip(repeat(j), range(len(xi)), xi.tolist(), I.tolist(),
                       repeat(status))
                   for j, (xi, I, status) in enumerate(per_seed)))
    print(f"wrote {path}")
    t2 = perf_counter()

    canvas = SvgCanvas(title="Poincare section")
    for j, (xi, I, status) in enumerate(per_seed):
        # the points in (xi, I) order; lexsort's last key is the primary one
        order = np.lexsort((I, xi))
        canvas.add_polyline(xi[order], I[order], label=f"seed {j}")
        _say(verbose, f"  seed {j}: I0 = {_num(seeds_I[j])}, "
             f"{len(xi)} points, {status}")
    spath = os.path.join(out, "section.svg")
    canvas.write(spath, xlabel="xi", ylabel="I")
    print(f"wrote {spath}")
    returns = sum(len(xi) - 1 for xi, _, _ in per_seed)
    per_return = f"{1e6 * (t1 - t0) / returns:.1f}" if returns else "nan"
    _say(verbose, f"  seconds: iterate {t1 - t0:.3f} ({returns} returns, "
         f"{per_return} us/return), csv {t2 - t1:.3f}, "
         f"svg {perf_counter() - t2:.3f}")
    return 0


def _cmd_orbit(cfg: RunConfig, out: str, workers: int, verbose: bool) -> int:
    I0 = 0.5 * cfg.params.action_bound_Ic
    trace = iterate(outgoing_state(0.0, I0, cfg.profile, cfg.params),
                    cfg.iterations, cfg.profile, cfg.params,
                    method="geometric")
    rows = [(k, st.xi, st.action_I, trace.status)
            for k, st in enumerate(trace.states)]
    path = os.path.join(out, "orbit_trace.csv")
    _write_csv(path, ["k", "xi", "action_I", "status"], rows)
    print(f"wrote {path}")

    canvas = SvgCanvas(title="physical-plane trajectory", equal_aspect=True)
    xs_b, ys_b = _boundary_polyline(cfg.profile)
    canvas.add_polyline(xs_b, ys_b, label="boundary")
    pts = np.vstack([arc.sample(64) for arc in trace.arcs]) \
        if trace.arcs else np.zeros((0, 2))
    canvas.add_polyline(pts[:, 0], pts[:, 1], label="orbit")
    spath = os.path.join(out, "orbit.svg")
    canvas.write(spath, xlabel="x", ylabel="y")
    print(f"wrote {spath}")
    _say(verbose, f"  I0 = {_num(I0)}, status {trace.status}, "
         f"rotation {trace.rotation_estimate[0]:.6f}")
    return 0


def _boundary_polyline(profile: PerturbationProfile, n: int = 721):
    xi = np.linspace(-math.pi, math.pi, n)
    r = profile.radius(xi)
    return r * np.cos(xi), r * np.sin(xi)


_CATALOGUE = ((0, 1), (1, 2), (-1, 2), (1, 3), (-1, 3), (1, 4), (-1, 4))


def _cmd_periodic(cfg: RunConfig, out: str, workers: int,
                  verbose: bool) -> int:
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
    path = os.path.join(out, "periodic.csv")
    _write_csv(path, ["m", "n", "kind", "residual", "xis", "actions"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_twist(cfg: RunConfig, out: str, workers: int, verbose: bool) -> int:
    p = cfg.params
    roots = twist_critical_set(p)
    grid = _shift_grid(p, 201)
    rows = [(I, circular_shift(float(I), p).total_prime) for I in grid]
    rows = [(I, tp, "+" if tp > 0 else ("-" if tp < 0 else "0"))
            for I, tp in rows]
    path = os.path.join(out, "twist_profile.csv")
    _write_csv(path, ["I", "theta_prime", "sign"], rows)
    print(f"wrote {path}")
    rpath = os.path.join(out, "twist_roots.csv")
    _write_csv(rpath, ["root_I"], [(r,) for r in roots])
    print(f"wrote {rpath}")

    canvas = SvgCanvas(title="twist profile")
    canvas.add_polyline([r[0] for r in rows], [r[1] for r in rows],
                        label="theta_prime")
    canvas.add_polyline([rows[0][0], rows[-1][0]], [0.0, 0.0], label="zero")
    spath = os.path.join(out, "twist.svg")
    canvas.write(spath, xlabel="I", ylabel="d theta / d I")
    print(f"wrote {spath}")
    _say(verbose, f"  twist_at_zero = {_num(twist_at_zero(p))}, "
         f"{len(roots)} critical root(s)")
    return 0


def _cmd_caustics(cfg: RunConfig, out: str, workers: int,
                  verbose: bool) -> int:
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
    path = os.path.join(out, "caustics.csv")
    _write_csv(path, ["kind", "zeta", "x", "y"], rows)
    print(f"wrote {path}")

    canvas = SvgCanvas(title=f"caustics at I0 = {I0:.4f}", equal_aspect=True)
    xs_b, ys_b = _boundary_polyline(cfg.profile)
    canvas.add_polyline(xs_b, ys_b, label="boundary")
    for kind in ("outer", "inner"):
        s = curves[kind].samples
        canvas.add_polyline(s[:, 1], s[:, 2], label=f"{kind} caustic")
    spath = os.path.join(out, "caustics.svg")
    canvas.write(spath, xlabel="x", ylabel="y")
    print(f"wrote {spath}")
    _say(verbose, f"  circular radii R_E = {_num(R_E)}, R_I = {_num(R_I)}")
    return 0


def _cmd_oracle_check(cfg: RunConfig, out: str, workers: int,
                      verbose: bool) -> int:
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
    path = os.path.join(out, "oracle_check.csv")
    _write_csv(path, ["alpha0", "xi1_map", "xi1_ode", "dxi", "dI"], rows)
    print(f"wrote {path}")
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
    parser.add_argument("--workers", metavar="N", type=int, default=1,
                        help="worker processes for parallel sweeps")
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
        return _PIPELINES[cfg.command](cfg, args.out, max(args.workers, 1),
                                       args.verbose)
    except BilliardError as exc:
        print(f"{cfg.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
