"""Time each layer of one geometric return alone, in µs per call.

Usage: ``python tools/layer_times.py [--count N]``.  Iterates the
benchmark's ``section`` seeds (E = 2.5, h = 2, mu = 2, om = 1; 9 seeds from
I = -0.9 I_c to 0.9 I_c at xi = 0, N returns each, default 400) on
r = 1 + 0.01 cos 2(xi - 0.7) and on the unit circle, with the ``src`` tree
next to this script.  Each layer runs over the inputs those returns met;
the time per call is the minimum over 7 repeats.  Prints one JSON line.
"""

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
    print(json.dumps({"us_per_call": times, "calls": len(states)}))


if __name__ == "__main__":
    main()
