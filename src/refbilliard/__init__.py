"""Refraction billiard with a Kepler interior and a harmonic exterior.

A zero-energy particle alternates between harmonic-oscillator arcs outside a
closed convex interface and Keplerian hyperbola arcs inside it, joined by a
generalized Snell law.  The package provides the closed-form circular return
map and its twist analysis, geometric propagation for perturbed interfaces,
a variational (generating-function) layer, orbit/periodic-orbit/rotation
machinery, caustic envelopes, an independent ODE oracle, and a config-driven
CLI emitting CSV/SVG artifacts.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

#: each submodule and the package exports it defines, imported on first use
_EXPORTS = {
    "arcs": "ArcSegment InnerConic OuterConic",
    "boundary": "BoundaryGeometry PerturbationProfile boundary",
    "caustics": "CausticCurve circular_caustic_radii envelope_equations "
    "perturbed_caustic tangency_check",
    "config": "COMMANDS ConfigError RunConfig load_config parse_config",
    "errors": "BilliardError CyclesUnresolved DegenerateEnvelope "
    "DegenerateStationarity DescentStalled DomainError EnergyMismatch "
    "EventDetectionFailed InsufficientLength OrbitTerminated OutOfActionRange "
    "RangeEmpty ResidualTooLarge ShootingDiverged SingularityError "
    "TangentialCrossing TotalReflectionTermination",
    "inner": "inner_arc_fixed_ends kepler_elements levi_civita_propagate",
    "oracle": "OracleReturn ode_return_map", "params": "PhysParams potential",
    "orbits": "CurveProbe OrbitTrace PeriodicOrbit StabilityReport curve_eval "
    "cycle_distance find_periodic golden_target invariant_curve_probe iterate "
    "linear_stability rotation_number",
    "outer": "outer_arc_fixed_ends outer_conic_of outer_shift_inverse "
    "outer_transit",
    "refraction": "CRITICAL_TOL RefractionResult critical_angle refract_in "
    "refract_out",
    "returnmap": "BoundaryState MapResult ShiftProfile circular_shift "
    "fixed_point_thresholds outgoing_state outgoing_velocity return_map "
    "tangent_map total_shift_grid twist_at_zero twist_critical_set",
    "variational": "GeneratingEval discrete_action "
    "find_nonhomothetic_fixed_point generating_function jacobi_length "
    "shift_inverse_all",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted({*_EXPORTS, *_OWNER})


class _Package(_ModuleType):
    def __getattr__(self, name):
        if name not in __all__:
            raise AttributeError(f"{__name__} has no attribute {name!r}")
        module = _import_module(f".{_OWNER.get(name, name)}", __name__)
        value = getattr(module, name) if name in _OWNER else module
        setattr(self, name, value)
        return value

    def __dir__(self):
        return sorted({*super().__dir__(), *__all__})

    def __setattr__(self, name, value):
        # importing the submodule boundary leaves the function bound
        if not (name in _EXPORTS and name in _OWNER
                and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
