"""``tools/layer_times.py`` runs and prints one JSON line of µs per call and
of cold-start seconds."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"


def test_layer_times_prints_one_line_of_positive_times():
    proc = subprocess.run([sys.executable, str(TOOL), "--count", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["calls"] == 18
    assert set(out["us_per_call"]) == {
        "return_map.circle", "return_map.cos2", "outer_transit",
        "levi_civita_propagate", "refract_in", "refract_out",
        "boundary.miss", "radius_jet.float"}
    assert all(t > 0.0 for t in out["us_per_call"].values())
    assert set(out["cold_s"]) == {"load_config", "return_map", "cli"}
    assert all(t > 0.0 for t in out["cold_s"].values())
    # the tool stands apart from the benchmark it is compared with
    assert "perfbench" not in TOOL.read_text()
