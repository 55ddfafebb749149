"""Regenerate reference.json, the phase-0 reference of periodic-wavy's checks.

Run from the repository root (takes about a minute):

    python3 perfbench/make_reference.py

It runs the full perturbed search ``find_periodic(-1, 3)`` once on the
unrotated interface r = 1 + 0.01 cos 2 xi at the light-mass constants, and
records its minimizer/minimax pair, the period-1 orbits, and the discrete
action with its gradient at nine points of the segment joining the pair.
The benchmark re-evaluates the segment on rotated interfaces, where every
value must agree with this file to 1e-8.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from refbilliard import config, orbits, variational  # noqa: E402
from workloads import LIGHT_MASS, rotated_profile, write_config  # noqa: E402


def main() -> None:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    cfg = config.load_config(write_config(
        os.path.join(HERE, "out", "reference.ini"), LIGHT_MASS, "periodic",
        rotated_profile(0.0, 0.01)))
    prof, params = cfg.profile, cfg.params
    # the seed family find_periodic picks: the largest-|I| circular root
    hint = max(variational.shift_inverse_all(-2.0 * math.pi / 3.0, params),
               key=abs)
    found = orbits.find_periodic(-1, 3, prof, params)
    pair = {}
    for orb in found:
        kind = orb.kind.replace("action-", "")
        W, grad = variational.discrete_action(orb.xis, -1, 3, prof, params,
                                              action_hint=hint)
        pair[kind] = {"xis": orb.xis.tolist(), "actions": orb.actions.tolist(),
                      "residual": orb.residual, "W": W}
    x_min = np.array(pair["minimizer"]["xis"])
    x_max = np.array(pair["minimax"]["xis"])
    path = []
    for t in np.linspace(0.0, 1.0, 9):
        W, grad = variational.discrete_action(
            (1.0 - t) * x_min + t * x_max, -1, 3, prof, params,
            action_hint=hint)
        path.append({"t": float(t), "W": W, "grad": grad.tolist()})
    fixed = [{"xi": float(o.xis[0]), "action_I": float(o.actions[0])}
             for o in orbits.find_periodic(0, 1, prof, params)]
    ref = {"params": LIGHT_MASS, "epsilon": 0.01, "phase": 0.0,
           "action_hint": hint, "fixed_points": fixed, "pair": pair,
           "path": path}
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
