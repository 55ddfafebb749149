"""The four benchmark workloads: generated inputs, the timed task, the checks.

Each workload follows the paper's chain at one link and leaves the others
alone (see NOTES.md for why each exists and which layer it should move):

* ``section-wavy``   CLI ``section`` on a perturbed interface (geometric map);
* ``periodic-wavy``  period-1 orbits and the (-1, 3) discrete action on a
                     perturbed interface (variational layer);
* ``circle-closed``  five CLI commands on the unit circle (closed form, CLI);
* ``curve-wavy``     invariant-curve probe, CLI ``caustics`` and
                     ``oracle-check`` on a perturbed interface.

A workload's seed picks its inputs: a rotation phase of the interface for
the perturbed ones, the offset and mass near the fig1 values for the circle.
The program only sees the generated config files (and, for library calls,
what ``load_config`` makes of them).

Per task, ``run`` is the timed part; ``account`` then reads the outputs,
counts operations and failures and fingerprints the outputs; ``check``
verifies the first task's outputs once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from contextlib import redirect_stdout

import numpy as np

from refbilliard import cli, config, orbits, oracle, returnmap, variational
from refbilliard.caustics import circular_caustic_radii
from refbilliard.errors import BilliardError

FIG1 = {"energy_E": 2.5, "offset_h": 2.0, "mass_mu": 2.0,
        "stiffness_om": 1.0}
LIGHT_MASS = dict(FIG1, mass_mu=0.5)
HERE = os.path.dirname(os.path.abspath(__file__))

# one-step agreement with the ODE oracle, as in tests/test_oracle.py
ORACLE_TOL_CIRCLE = (1e-9, 1e-10)
ORACLE_TOL_WAVY = (1e-8, 1e-9)
PHYSICAL_OUTCOMES = ("TotalReflectionTermination",)


class Tally:
    """Operations attempted and failed, with a label per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def write_config(path, params, command, profile=None, **knobs) -> str:
    lines = ["[params]"] + [f"{k} = {v!r}" for k, v in params.items()]
    if profile:
        lines += ["", "[profile]"] + [f"{k} = {v}" for k, v in profile.items()]
    lines += ["", "[command]", f"command = {command}"]
    lines += [f"{k} = {v}" for k, v in knobs.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def rotated_profile(phase: float, epsilon: float) -> dict:
    """r = 1 + eps cos 2(xi - phase), as a fourier_cos/fourier_sin pair."""
    return {"epsilon": repr(epsilon),
            "fourier_cos": f"2:{math.cos(2.0 * phase)!r}",
            "fourier_sin": f"2:{math.sin(2.0 * phase)!r}"}


def run_cli(path: str, out: str) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(["--config", path, "--out", out])


def read_rows(out: str, name: str) -> list:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def digest_files(out: str, names, extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for name in names:
        path = os.path.join(out, name)
        h.update(name.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def by_seed(rows) -> dict:
    seeds: dict = {}
    for row in rows:
        seeds.setdefault(int(row["seed_id"]), []).append(row)
    return seeds


def wrap_pi(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def oracle_step_ok(row, nxt, profile, params, tol) -> bool:
    """Row ``nxt`` is the ODE oracle's image of row ``row``."""
    xi, act = float(row["xi"]), float(row["action_I"])
    try:
        alpha = returnmap.outgoing_state(xi, act, profile, params).alpha
        orc = oracle.ode_return_map(xi, alpha, profile, params)
    except BilliardError:
        return False
    return (abs(wrap_pi(orc.xi1 - float(nxt["xi"]))) < tol[0] and
            abs(orc.action_I1 - float(nxt["action_I"])) < tol[1])


def sample_oracle_rows(tally, label, seeds, pick, rng, profile, params,
                       tol) -> None:
    """One-step oracle checks at ``pick`` random rows of each listed orbit."""
    for j, rows in seeds.items():
        for k in sorted(rng.sample(range(len(rows) - 1),
                                   min(pick, len(rows) - 1))):
            tally.op(oracle_step_ok(rows[k], rows[k + 1], profile, params,
                                    tol),
                     f"{label}: seed {j} step {k} disagrees with the oracle")


class Workload:
    """Inputs and checks of one workload; subclasses fill in the task."""

    name = ""
    # True when the outputs do not give the number of return-map
    # applications and the runner must count calls to return_map instead
    counts_map_calls = False

    def __init__(self, seed: int, smoke: bool, inputs: str):
        self.inputs = inputs
        self.rng = random.Random(seed)
        self.setup_config = ""
        self.sizes: dict = {}


class SectionWavy(Workload):
    name = "section-wavy"

    def __init__(self, seed, smoke, inputs):
        super().__init__(seed, smoke, inputs)
        self.phase = self.rng.uniform(0.0, math.pi)
        self.seeds, self.iterations = (2, 20) if smoke else (9, 400)
        self.config = write_config(
            os.path.join(inputs, "section.ini"), FIG1, "section",
            rotated_profile(self.phase, 0.01), seeds=self.seeds,
            iterations=self.iterations)
        self.setup_config = self.config
        self.sizes = {"epsilon": 0.01, "phase": self.phase,
                      "seeds": self.seeds, "iterations": self.iterations}

    def run(self, out):
        return run_cli(self.config, out)

    def account(self, rc, out, tally):
        tally.op(rc == 0, f"section exited with {rc}")
        seeds = by_seed(read_rows(out, "section.csv"))
        tally.op(len(seeds) == self.seeds, "section.csv lacks seeds")
        for j, rows in seeds.items():
            tally.op(rows[-1]["status"] != "failed", f"orbit {j} failed")
        returns = sum(len(rows) - 1 for rows in seeds.values())
        return returns, digest_files(out, ("section.csv", "section.svg"))

    def check(self, rc, out, tally):
        cfg = config.load_config(self.config)
        seeds = by_seed(read_rows(out, "section.csv"))
        Ic = cfg.params.action_bound_Ic
        # the ODE oracle cannot follow the near-collision orbit at I0 = 0
        away = {j: rows for j, rows in seeds.items()
                if abs(float(rows[0]["action_I"])) > 0.2 * Ic}
        sample_oracle_rows(tally, "section", away, 2, self.rng, cfg.profile,
                           cfg.params, ORACLE_TOL_WAVY)
        # rotating the interface rotates the orbits: the first returns of
        # each seed equal the unrotated map's from xi = -phase.  Later
        # returns are left out, where chaotic growth would amplify the
        # 1e-13 differences between the two computations.
        base = config.load_config(write_config(
            os.path.join(self.inputs, "section-phase0.ini"), FIG1, "section",
            rotated_profile(0.0, 0.01)))
        steps = min(10, self.iterations)
        for j, rows in seeds.items():
            I0 = float(rows[0]["action_I"])
            try:
                trace = orbits.iterate(
                    returnmap.outgoing_state(-self.phase, I0, base.profile,
                                             base.params),
                    steps, base.profile, base.params)
                ok = len(trace.states) == steps + 1 and all(
                    abs(wrap_pi(float(r["xi"]) - st.xi - self.phase)) < 1e-9
                    and abs(float(r["action_I"]) - st.action_I) < 1e-9
                    for r, st in zip(rows, trace.states))
            except BilliardError:
                ok = False
            tally.op(ok, f"section seed {j} is not the rotated orbit")


class PeriodicWavy(Workload):
    name = "periodic-wavy"
    counts_map_calls = True

    def __init__(self, seed, smoke, inputs):
        super().__init__(seed, smoke, inputs)
        self.phase = self.rng.uniform(0.0, math.pi)
        self.config = write_config(
            os.path.join(inputs, "periodic.ini"), LIGHT_MASS, "periodic",
            rotated_profile(self.phase, 0.01))
        self.setup_config = self.config
        self.cfg = config.load_config(self.config)
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as fh:
            self.ref = json.load(fh)
        path = self.ref["path"]
        self.path = path[::len(path) // 2] if smoke else path
        self.sizes = {"epsilon": 0.01, "phase": self.phase,
                      "classes": ["(0, 1)", "(-1, 3)"],
                      "path_points": len(self.path)}

    def run(self, out):
        prof, params = self.cfg.profile, self.cfg.params
        try:
            fixed = orbits.find_periodic(0, 1, prof, params)
        except BilliardError as exc:
            fixed = exc
        x_min = np.array(self.ref["pair"]["minimizer"]["xis"])
        x_max = np.array(self.ref["pair"]["minimax"]["xis"])
        path = []
        for point in self.path:
            t = point["t"]
            cycle = (1.0 - t) * x_min + t * x_max + self.phase
            try:
                path.append(variational.discrete_action(
                    cycle, -1, 3, prof, params,
                    action_hint=self.ref["action_hint"]))
            except BilliardError as exc:
                path.append(exc)
        return fixed, path

    def account(self, raw, out, tally):
        fixed, path = raw
        tally.op(not isinstance(fixed, BilliardError),
                 f"find_periodic(0, 1) raised {fixed!r}")
        for point, res in zip(self.path, path):
            tally.op(not isinstance(res, BilliardError),
                     f"discrete_action at t = {point['t']} raised {res!r}")
        parts = [repr(fixed)] if isinstance(fixed, BilliardError) else [
            repr((o.kind, o.xis.tolist(), o.actions.tolist(), o.residual))
            for o in fixed]
        parts += [repr(r) if isinstance(r, BilliardError)
                  else repr((r[0], r[1].tolist())) for r in path]
        return None, hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def check(self, raw, out, tally):
        fixed, path = raw
        prof, params = self.cfg.profile, self.cfg.params
        # (0, 1): the reference fixed points, rotated, and nothing else
        ok = not isinstance(fixed, BilliardError) and \
            len(fixed) == len(self.ref["fixed_points"]) and all(
                o.residual <= 1e-8 for o in fixed) and all(
                any(abs(wrap_pi(o.xis[0] - r["xi"] - self.phase)) <= 1e-8 and
                    abs(o.actions[0] - r["action_I"]) <= 1e-8 for o in fixed)
                for r in self.ref["fixed_points"])
        tally.op(ok, "(0, 1) orbits differ from the rotated reference")
        # (-1, 3): the reference minimizer and minimax, rotated, are
        # 3-cycles of the map through the reference states
        for kind, orb in self.ref["pair"].items():
            xis, acts = orb["xis"], orb["actions"]
            try:
                trace = orbits.iterate(
                    returnmap.outgoing_state(xis[0] + self.phase, acts[0],
                                             prof, params), 3, prof, params)
                resid = max(abs(trace.xis_lifted[3] - trace.xis_lifted[0] +
                                2.0 * math.pi),
                            abs(trace.states[3].action_I - acts[0]))
                ok = resid <= 1e-8 and all(
                    abs(wrap_pi(st.xi - x - self.phase)) <= 1e-8 and
                    abs(st.action_I - a) <= 1e-8
                    for st, x, a in zip(trace.states, xis, acts))
            except (BilliardError, IndexError):
                ok = False
            tally.op(ok, f"(-1, 3) {kind} is not a rotated 3-cycle")
        # the discrete action along the path matches the reference, with a
        # vanishing gradient at both ends and the minimax above the minimizer
        ok = all(not isinstance(r, BilliardError) and
                 abs(r[0] - p["W"]) <= 1e-8 and
                 float(np.max(np.abs(r[1] - p["grad"]))) <= 1e-8
                 for p, r in zip(self.path, path))
        tally.op(ok, "(-1, 3) discrete action differs from the reference")
        ok = ok and max(float(np.max(np.abs(path[0][1]))),
                        float(np.max(np.abs(path[-1][1])))) <= 1e-8 and \
            path[0][0] < path[-1][0]
        tally.op(ok, "(-1, 3) pair is not a minimizer/minimax pair")


class CircleClosed(Workload):
    name = "circle-closed"
    COMMANDS = ("params-report", "shift-profile", "twist", "periodic",
                "section")
    OUTPUTS = ("params_report.csv", "shift_profile.csv", "shift_profile.svg",
               "twist_profile.csv", "twist_roots.csv", "twist.svg",
               "periodic.csv", "section.csv", "section.svg")

    def __init__(self, seed, smoke, inputs):
        super().__init__(seed, smoke, inputs)
        # offset and mass only: f(I) depends on E and the stiffness alone,
        # so f(1) = arctan 4 holds for every seed
        self.params = dict(
            FIG1, offset_h=2.0 * (1.0 + 0.02 * self.rng.uniform(-1.0, 1.0)),
            mass_mu=2.0 * (1.0 + 0.02 * self.rng.uniform(-1.0, 1.0)))
        self.seeds, self.iterations = (4, 100) if smoke else (32, 4000)
        self.configs = [
            write_config(os.path.join(inputs, f"{cmd}.ini"), self.params, cmd,
                         **({"seeds": self.seeds,
                             "iterations": self.iterations}
                            if cmd == "section" else {}))
            for cmd in self.COMMANDS]
        self.setup_config = self.configs[-1]
        self.sizes = {"params": self.params, "commands": self.COMMANDS,
                      "seeds": self.seeds, "iterations": self.iterations}

    def run(self, out):
        return [run_cli(path, out) for path in self.configs]

    def account(self, rcs, out, tally):
        for cmd, rc in zip(self.COMMANDS, rcs):
            tally.op(rc == 0, f"{cmd} exited with {rc}")
        seeds = by_seed(read_rows(out, "section.csv"))
        tally.op(len(seeds) == self.seeds, "section.csv lacks seeds")
        for j, rows in seeds.items():
            tally.op(rows[-1]["status"] != "failed", f"orbit {j} failed")
        # a class either has circular orbits that close, or no circular
        # family has its rotation number (RangeEmpty is then the answer)
        classes: dict = {}
        for row in read_rows(out, "periodic.csv"):
            classes.setdefault((row["m"], row["n"]), []).append(row)
        # the CLI's periodic catalogue holds seven (m, n) classes
        tally.op(len(classes) == 7, "periodic.csv lacks classes")
        for mn, rows in classes.items():
            ok = all(r["kind"] == "circular" and float(r["residual"]) <= 1e-8
                     for r in rows) or (
                len(rows) == 1 and rows[0]["kind"] == "none" and
                rows[0]["residual"] == "RangeEmpty")
            tally.op(ok, f"periodic class {mn} failed")
        returns = sum(len(rows) - 1 for rows in seeds.values())
        return returns, digest_files(out, self.OUTPUTS)

    def check(self, rcs, out, tally):
        cfg = config.load_config(self.configs[-1])
        shift = read_rows(out, "shift_profile.csv")
        anchor = [r for r in shift if float(r["I"]) == 1.0]
        tally.op(len(anchor) == 1 and
                 abs(float(anchor[0]["f"]) - math.atan(4.0)) < 1e-10,
                 "shift_profile.csv: f(1) is not arctan 4")
        seeds = by_seed(read_rows(out, "section.csv"))
        for j, rows in seeds.items():
            tally.op(len({r["action_I"] for r in rows}) == 1,
                     f"section seed {j} does not keep a constant I")
        Ic = cfg.params.action_bound_Ic
        away = {j: rows for j, rows in seeds.items()
                if abs(float(rows[0]["action_I"])) > 0.3 * Ic}
        picked = dict(self.rng.sample(sorted(away.items()), min(4, len(away))))
        sample_oracle_rows(tally, "section", picked, 1, self.rng, cfg.profile,
                           cfg.params, ORACLE_TOL_CIRCLE)
        # every twist root sits at a sign change of the tabulated twist
        prof = read_rows(out, "twist_profile.csv")
        roots = [float(r["root_I"]) for r in read_rows(out, "twist_roots.csv")]
        changes = [(float(a["I"]), float(b["I"]))
                   for a, b in zip(prof, prof[1:])
                   if a["sign"] != b["sign"]]
        tally.op(len(changes) == len(roots) and all(
            any(lo <= r <= hi for lo, hi in changes) for r in roots),
            "twist roots do not match the twist profile's sign changes")
        report = {r["key"]: float(r["value"])
                  for r in read_rows(out, "params_report.csv")}
        tally.op(report.get("n_twist_roots") == len(roots),
                 "params_report.csv: n_twist_roots disagrees with twist")
        # circular cycles advance by 2 pi m / n at a constant action
        ok = True
        for row in read_rows(out, "periodic.csv"):
            if row["kind"] != "circular":
                continue
            step = 2.0 * math.pi * int(row["m"]) / int(row["n"])
            xis = [float(x) for x in row["xis"].split()]
            acts = {a for a in row["actions"].split()}
            ok = ok and len(acts) == 1 and all(
                abs(b - a - step) < 1e-9 for a, b in zip(xis, xis[1:]))
        tally.op(ok, "periodic.csv: a circular cycle is not uniform")


class CurveWavy(Workload):
    name = "curve-wavy"
    counts_map_calls = True
    COMMANDS = ("caustics", "oracle-check")

    def __init__(self, seed, smoke, inputs):
        super().__init__(seed, smoke, inputs)
        # 0.1 to 0.3 past 0 or pi/2, the probe's secant takes exactly one
        # refinement orbit; over all phases it takes none, one or two, and
        # the task's work jumps by 1500 returns (19 %) from seed to seed
        self.phase = self.rng.choice((0.0, 0.5 * math.pi)) + \
            self.rng.uniform(0.1, 0.3)
        profile = rotated_profile(self.phase, 1e-3)
        # seeds is read by oracle-check only: an even number of launches
        # leaves out the one along the normal, whose orbit passes next to the
        # Kepler singularity that the unregularized ODE oracle cannot
        # integrate through
        self.configs = [write_config(os.path.join(inputs, f"{cmd}.ini"),
                                     FIG1, cmd, profile, seeds=8)
                        for cmd in self.COMMANDS]
        self.setup_config = self.configs[0]
        self.cfg = config.load_config(self.configs[0])
        self.n_iter = 300 if smoke else 5000
        self.sizes = {"epsilon": 1e-3, "phase": self.phase,
                      "probe_n_iter": self.n_iter,
                      "commands": self.COMMANDS}

    def run(self, out):
        prof, params = self.cfg.profile, self.cfg.params
        try:
            probe = orbits.invariant_curve_probe(
                orbits.golden_target(params), prof, params,
                n_iter=self.n_iter)
        except BilliardError as exc:
            probe = exc
        return probe, [run_cli(path, out) for path in self.configs]

    def account(self, raw, out, tally):
        probe, rcs = raw
        tally.op(not isinstance(probe, BilliardError),
                 f"invariant_curve_probe raised {probe!r}")
        for cmd, rc in zip(self.COMMANDS, rcs):
            tally.op(rc == 0, f"{cmd} exited with {rc}")
        rows = read_rows(out, "oracle_check.csv")
        tally.op(len(rows) == self.cfg.seeds, "oracle_check.csv lacks rows")
        for row in rows:
            tally.op(row["dxi"] != "" or row["dI"] in PHYSICAL_OUTCOMES,
                     f"oracle-check row {row['alpha0']}: {row['dI']}")
        fields = repr(probe) if isinstance(probe, BilliardError) else repr((
            probe.seed_action, probe.measured_rho, probe.rho_error,
            probe.max_residual, probe.coefficients.tolist(), probe.n_iter,
            probe.status))
        return None, digest_files(
            out, ("caustics.csv", "caustics.svg", "oracle_check.csv"), fields)

    def check(self, raw, out, tally):
        probe, _ = raw
        params = self.cfg.params
        # acceptance criterion 11
        target = orbits.golden_target(params)
        tally.op(not isinstance(probe, BilliardError) and
                 probe.status == "running" and probe.max_residual < 5e-3 and
                 abs(probe.measured_rho - target) < 1e-4,
                 "probe misses criterion 11")
        rows = [r for r in read_rows(out, "oracle_check.csv") if r["dxi"]]
        tally.op(bool(rows) and all(
            float(r["dxi"]) < ORACLE_TOL_WAVY[0] and
            float(r["dI"]) < ORACLE_TOL_WAVY[1] for r in rows),
            "oracle-check: the map and the ODE oracle disagree")
        # the envelopes stay near the tangent circles of the unperturbed
        # orbit at the CLI's action I0 = Ic / 2
        R = dict(zip(("outer", "inner"),
                     circular_caustic_radii(0.5 * params.action_bound_Ic,
                                            params)))
        rows = read_rows(out, "caustics.csv")
        for kind, radius in R.items():
            pts = [math.hypot(float(r["x"]), float(r["y"]))
                   for r in rows if r["kind"] == kind]
            tally.op(len(pts) > 0 and all(
                abs(p - radius) < 0.1 * radius for p in pts),
                f"caustics.csv: the {kind} envelope is off its circle")


WORKLOADS = {w.name: w for w in (SectionWavy, PeriodicWavy, CircleClosed,
                                 CurveWavy)}
