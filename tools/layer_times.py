"""Time each layer of one geometric return alone, in µs per call.

Usage: ``python tools/layer_times.py [--count N]``.  Iterates the
benchmark's ``section`` seeds (E = 2.5, h = 2, mu = 2, om = 1; 9 seeds from
I = -0.9 I_c to 0.9 I_c at xi = 0, N returns each, default 400) on
r = 1 + 0.01 cos 2(xi - 0.7) and on the unit circle, with the ``src`` tree
next to this script.  Each layer runs over the inputs those returns met;
the time per call is the minimum over 7 repeats.  ``cold_s`` gives the
seconds of a cold start in a fresh interpreter, the minimum over 5 runs one
after another: ``import refbilliard`` with ``load_config`` on a ``section``
config of that wavy profile, the same with one ``return_map`` after it, and
``import refbilliard.cli``.  Prints one JSON line.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from refbilliard import (PerturbationProfile, PhysParams,  # noqa: E402
                         boundary, iterate, levi_civita_propagate,
                         outer_transit, outgoing_state, refract_in,
                         refract_out, return_map)
from refbilliard.returnmap import _angle_from_normal as angle  # noqa: E402

PARAMS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)


def _states(profile, count):
    Ic = PARAMS.action_bound_Ic
    return [s for j in range(9) for s in iterate(
        outgoing_state(0.0, (-0.9 + 0.225 * j) * Ic, profile, PARAMS),
        count, profile, PARAMS).states[:-1]]


def _per_call(fn, calls):
    best = math.inf
    for _ in range(7):
        t = perf_counter()
        for args in calls:
            fn(*args)
        best = min(best, perf_counter() - t)
    return round(1e6 * best / len(calls), 3)


#: a ``section`` config of r = 1 + 0.01 cos 2(xi - 0.7)
CONFIG = ("[params]\nenergy_E = 2.5\noffset_h = 2.0\nmass_mu = 2.0\n"
          "stiffness_om = 1.0\n[profile]\nepsilon = 0.01\n"
          f"fourier_cos = 2:{math.cos(1.4)!r}\n"
          f"fourier_sin = 2:{math.sin(1.4)!r}\n[command]\ncommand = section\n")

#: each cold-start step, run after ``import sys`` with the path of
#: :data:`CONFIG` as ``sys.argv[1]``
COLD = {"load_config": "import refbilliard\n"
                       "refbilliard.load_config(sys.argv[1])",
        "return_map": "import refbilliard as rb\n"
                      "cfg = rb.load_config(sys.argv[1])\n"
                      "state = rb.outgoing_state(0.0, 0.5, cfg.profile, "
                      "cfg.params)\nrb.return_map(state, cfg.profile, "
                      "cfg.params)",
        "cli": "import refbilliard.cli"}


def _cold_s():
    """Seconds of each :data:`COLD` step, the minimum over 5 fresh
    interpreters."""
    best = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "section.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        for key, code in COLD.items():
            probe = ("import sys, time\nt = time.perf_counter()\n"
                     f"sys.path.insert(0, {SRC!r})\n{code}\n"
                     "print(time.perf_counter() - t)")
            best[key] = min(float(subprocess.run(
                [sys.executable, "-c", probe, str(config)], check=True,
                capture_output=True, text=True).stdout) for _ in range(5))
    return {key: round(t, 4) for key, t in best.items()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=400)
    count = ap.parse_args(argv).count
    wavy = PerturbationProfile((0, 0, math.cos(1.4)), (0, 0, math.sin(1.4)),
                               0.01)
    circle = PerturbationProfile.circle()
    states = _states(wavy, count)
    arcs = [return_map(s, wavy, PARAMS).arcs for s in states]
    # (angle, point, params) at each arc's end, as the map refracts there
    ends = [[(angle(p[k].v1, boundary(p[k].xi1, wavy), k == 0),
              boundary(p[k].xi1, wavy).point_c, PARAMS) for p in arcs]
            for k in (0, 1)]
    times = {
        "return_map.circle": _per_call(return_map, [
            (s, circle, PARAMS) for s in _states(circle, count)]),
        "return_map.cos2": _per_call(return_map,
                                     [(s, wavy, PARAMS) for s in states]),
        "outer_transit": _per_call(outer_transit, [
            (s.xi, s.alpha, wavy, PARAMS) for s in states]),
        "levi_civita_propagate": _per_call(levi_civita_propagate, [
            (i.p0, i.v0, PARAMS, wavy) for _, i in arcs]),
        "refract_in": _per_call(refract_in, ends[0]),
        "refract_out": _per_call(refract_out, ends[1]),
        # consecutive states differ in xi, so every call misses the cache
        "boundary.miss": _per_call(boundary, [(s.xi, wavy) for s in states]),
        "radius_jet.float": _per_call(wavy.radius_jet,
                                      [(s.xi,) for s in states]),
    }
    print(json.dumps({"us_per_call": times, "calls": len(states),
                      "cold_s": _cold_s()}))


if __name__ == "__main__":
    main()
