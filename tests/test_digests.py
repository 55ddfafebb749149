"""Byte identity of the CLI's outputs against the checked-in listing.

``tools/digests.txt`` holds the SHA-256 of every artifact and stdout of the
19 runs of ``tools/digest_outputs.py``, headed with the Python and numpy
versions it was made with: the bits depend on the toolchain.  A change that
moves a byte regenerates the listing with

    python tools/digest_outputs.py OUTDIR > tools/digests.txt

and names each changed file in CHANGES.md.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "_digest_outputs", TOOLS / "digest_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_digest_listing(tmp_path):
    tool = _tool()
    want = (TOOLS / "digests.txt").read_text().splitlines()
    here = tool.header()
    assert want[0] == here, (
        f"tools/digests.txt was made with {want[0].lstrip('# ')}, but this "
        f"toolchain is {here.lstrip('# ')}; regenerate the listing here "
        "before comparing bytes")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "digest_outputs.py"), str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want
