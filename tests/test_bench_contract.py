"""The names the benchmark's traced runs wrap must exist in the package.

``perfbench/tracing.py`` finds each layer it times by (module, attribute)
and reads ``ArcSegment.chart`` off every interior transit.  It is loaded
here by path, read-only, so that a refactor which renames or removes one of
those names fails a test instead of the traced benchmark run.
"""

import cmath
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from refbilliard import (PerturbationProfile, PhysParams, outgoing_state,
                         potential, return_map)
from refbilliard.refraction import refract_out

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer(tracing, module, attr):
    return getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"),
                   attr, None)


def test_traced_layers_resolve(tracing):
    pairs = [(module, attr) for module, attr, _, _ in tracing.SPANS]
    pairs += [(module, attr) for module, attr, _ in tracing.COUNTED]
    missing = [f"{module}.{attr}" for module, attr in pairs
               if not callable(_layer(tracing, module, attr))]
    assert not missing
    assert callable(_layer(tracing, "svgplot", "SvgCanvas").write)


def test_interior_transit_feeds_the_chart_counter(tracing):
    observe = next(obs for module, attr, _, obs in tracing.SPANS
                   if (module, attr) == ("inner", "levi_civita_propagate"))
    propagate = _layer(tracing, "inner", "levi_civita_propagate")
    params = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0,
                        stiffness_om=1.0)
    profile = PerturbationProfile.cos_profile(2, 0.01)
    z0 = profile.radius(0.3) * cmath.exp(0.3j)
    v0 = -math.sqrt(2.0 * potential(z0, "inner", params)) * \
        cmath.exp(0.3j + 0.5j)
    arc = propagate(z0, v0, params, profile)
    assert arc.chart == "lc"
    tracer = tracing.Tracer()
    observe(tracer, arc)
    assert tracer.counts == {"inner.chart_lc": 1}
    assert "inner.chart_lc" in tracing.COUNTER_NAMES


# one geometric return: the launch frame, the entry frame and the exit frame,
# one transit per region and one refraction each way
GEOMETRIC_RETURN_CALLS = {
    ("boundary", "boundary"): 3,
    ("outer", "outer_transit"): 1,
    ("refraction", "refract_in"): 1,
    ("refraction", "refract_out"): 1,
    ("inner", "levi_civita_propagate"): 1,
}


def test_one_geometric_return_calls_each_traced_layer_as_counted(tracing):
    """The traced per-layer calls, and the total-reflection counter that
    reads the refraction results, see every step of a geometric return:
    return_map reaches each layer through its module-level name."""
    params = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0,
                        stiffness_om=1.0)
    profile = PerturbationProfile.cos_profile(2, 0.01)
    state = outgoing_state(0.3, 0.5, profile, params)
    calls = dict.fromkeys(GEOMETRIC_RETURN_CALLS, 0)
    results = []
    swaps = []
    for key in GEOMETRIC_RETURN_CALLS:
        original = _layer(tracing, *key)

        def counted(*args, _key=key, _fn=original, **kwargs):
            calls[_key] += 1
            result = _fn(*args, **kwargs)
            results.append((_key, result))
            return result

        swaps.append((original, counted))
    for original, counted in swaps:
        tracing.rebind(original, counted)
    try:
        for n in range(1, 4):
            state = return_map(state, profile, params).state
            assert calls == {key: n * count for key, count
                             in GEOMETRIC_RETURN_CALLS.items()}
    finally:
        for original, counted in swaps:
            tracing.rebind(counted, original)
    assert _layer(tracing, "boundary", "boundary") is swaps[0][0]
    observe = next(obs for module, attr, _, obs in tracing.SPANS
                   if (module, attr) == ("refraction", "refract_out"))
    tracer = tracing.Tracer()
    for key, result in results:
        if key[0] == "refraction":
            observe(tracer, result)
    assert tracer.counts == {}
    # an interior ray far past the critical angle is reflected, and counted
    steep = refract_out(1.5, profile.radius(0.3) * cmath.exp(0.3j), params)
    observe(tracer, steep)
    assert tracer.counts == {"refraction.total_reflections": 1}
