"""Digest the CLI's outputs on a fixed set of runs, to check byte identity.

Usage::

    python tools/digest_outputs.py OUTDIR

Runs every CLI command (``refbilliard.config.COMMANDS``, read from the
``src`` tree next to this script) on the unit circle and on
r = 1 + 0.01 cos 2 xi at the trajectory-example parameters (E = 2.5, h = 2,
mu = 2, om = 1), plus
``periodic`` at the light mass mu = 0.5 on both boundaries, plus
``section`` on the circle at 32 seeds of 4000 returns (128 000 CSV rows),
plus the benchmark's wavy configs (``perfbench/workloads.py``) at fixed
phases, on r = 1 + eps cos 2(xi - phase) written with a cos and a sin term:
``section`` (eps = 0.01, phase 0.7, 9 seeds of 400 returns), ``periodic``
at mu = 0.5 (eps = 0.01, phase 0.7), and ``caustics`` and
``oracle-check`` (eps = 1e-3, phase 0.2, 8 seeds).  That is 23 runs, each
in a fresh interpreter with ``--verbose``, against the ``src``
tree next to this script, as many at once as there are CPUs.  Each run
writes its artifacts and its stdout (without the ``seconds:`` timing line)
under OUTDIR/<run>/.  The script prints a header line with the Python and
numpy versions, then one ``sha256  path`` line per file, paths relative to
OUTDIR.  Run it on two checkouts and ``diff`` the two listings: equal
digests mean byte-identical CSV, SVG and stdout.  ``tools/digests.txt`` is
the listing of the current tree; ``tests/test_digests.py`` checks it.
Exits 1 if any run fails.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the command list of the tree the runs use, so that a new command gets runs
sys.path.insert(0, str(SRC))
from refbilliard.config import COMMANDS  # noqa: E402

PROFILES = {"circle": "", "cos2": "epsilon = 0.01\nfourier_cos = 2:1.0\n"}


def rotated(phase: float, epsilon: float) -> str:
    """r = 1 + eps cos 2(xi - phase), written as the benchmark writes it."""
    return (f"epsilon = {epsilon!r}\n"
            f"fourier_cos = 2:{math.cos(2.0 * phase)!r}\n"
            f"fourier_sin = 2:{math.sin(2.0 * phase)!r}\n")


CONFIG = """\
[params]
energy_E = 2.5
offset_h = 2.0
mass_mu = {mu}
stiffness_om = 1.0

[profile]
{profile}
[command]
command = {command}
"""


def runs():
    """(name, config text) of every run, in a fixed order."""
    for prof, text in PROFILES.items():
        for command in COMMANDS:
            yield (f"{prof}-{command}",
                   CONFIG.format(mu=2.0, profile=text, command=command))
        yield (f"{prof}-periodic-mu0.5",
               CONFIG.format(mu=0.5, profile=text, command="periodic"))
    # the size of the benchmark's circle-closed section
    yield ("circle-section-large",
           CONFIG.format(mu=2.0, profile=PROFILES["circle"],
                         command="section")
           + "seeds = 32\niterations = 4000\n")
    # the benchmark's wavy configs, each at one fixed phase
    yield ("rot-section",
           CONFIG.format(mu=2.0, profile=rotated(0.7, 0.01),
                         command="section")
           + "seeds = 9\niterations = 400\n")
    yield ("rot-periodic-mu0.5",
           CONFIG.format(mu=0.5, profile=rotated(0.7, 0.01),
                         command="periodic"))
    for command in ("caustics", "oracle-check"):
        yield (f"rot-{command}",
               CONFIG.format(mu=2.0, profile=rotated(0.2, 1e-3),
                             command=command) + "seeds = 8\n")


def header() -> str:
    """The listing's first line: the toolchain the bits depend on."""
    import numpy
    return f"# python {platform.python_version()} numpy {numpy.__version__}"


def run(outdir: Path, name: str, text: str) -> tuple:
    """Run one config under OUTDIR/<name>/; (name, returncode, stderr)."""
    (outdir / f"{name}.ini").write_text(text)
    # relative paths, so that stdout does not depend on OUTDIR
    proc = subprocess.run(
        [sys.executable, "-m", "refbilliard", "--config", f"{name}.ini",
         "--out", name, "--verbose"],
        cwd=outdir, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True)
    (outdir / name).mkdir(exist_ok=True)
    stdout = "".join(line for line in proc.stdout.splitlines(True)
                     if not line.lstrip().startswith("seconds:"))
    (outdir / name / "stdout.txt").write_text(stdout)
    return name, proc.returncode, proc.stderr


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        done = list(pool.map(lambda job: run(outdir, *job), runs()))
    print(header())
    failed = 0
    for name, code, stderr in done:
        if code:
            failed += 1
            print(f"{name}: exit {code}\n{stderr}", file=sys.stderr)
        for path in sorted((outdir / name).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(outdir)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
