"""Refraction billiard with a Kepler interior and a harmonic exterior.

A zero-energy particle alternates between harmonic-oscillator arcs outside a
closed convex interface and Keplerian hyperbola arcs inside it, joined by a
generalized Snell law.  The package provides the closed-form circular return
map and its twist analysis, geometric propagation for perturbed interfaces,
a variational (generating-function) layer, orbit/periodic-orbit/rotation
machinery, caustic envelopes, an independent ODE oracle, and a config-driven
CLI emitting CSV/SVG artifacts.
"""

from .arcs import ArcSegment, InnerConic, OuterConic
from .boundary import BoundaryGeometry, PerturbationProfile, boundary
from .caustics import (CausticCurve, circular_caustic_radii,
                       envelope_equations, perturbed_caustic, tangency_check)
from .config import COMMANDS, ConfigError, RunConfig, load_config, \
    parse_config
from .errors import (AntipodalEndpoints, BilliardError, DegenerateEnvelope,
                     DegenerateStationarity, DescentStalled, DomainError,
                     EnergyMismatch, EventDetectionFailed,
                     InsufficientLength, OrbitTerminated, OutOfActionRange,
                     RangeEmpty, ResidualTooLarge, ShootingDiverged,
                     SingularityError, TangentialCrossing,
                     TotalReflectionTermination)
from .inner import (inner_arc_fixed_ends, inner_shift, kepler_elements,
                    levi_civita_propagate, transversality_bound)
from .oracle import OracleReturn, ode_return_map
from .orbits import (CurveProbe, OrbitTrace, PeriodicOrbit, StabilityReport,
                     curve_eval, cycle_distance, find_periodic,
                     golden_target, invariant_curve_probe,
                     is_diophantine_surrogate, iterate, linear_stability,
                     rotation_number)
from .outer import (outer_arc_fixed_ends, outer_conic_of, outer_propagate,
                    outer_shift, outer_shift_inverse, outer_shift_prime,
                    outer_transit)
from .params import PhysParams, potential
from .refraction import (CRITICAL_TOL, RefractionResult, critical_angle,
                         refract_in, refract_out)
from .returnmap import (BoundaryState, MapResult, ShiftProfile,
                        action_of_velocity, circular_shift,
                        find_nonhomothetic_fixed_point,
                        fixed_point_thresholds, outgoing_state,
                        outgoing_velocity, return_map, tangent_map,
                        total_shift_grid, twist_at_zero, twist_critical_set)
from .variational import (GeneratingEval, discrete_action,
                          generating_function, jacobi_length,
                          shift_inverse_all)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
