"""The README's code runs against the package as it is."""

import re
from pathlib import Path

import refbilliard

README = Path(__file__).resolve().parents[1] / "README.md"


def _block_after(marker):
    """The first ```python block after the line ``marker`` in the README."""
    text = README.read_text(encoding="utf-8")
    start = text.index(marker + "\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block after {marker!r}"
    return match.group(1)


def test_library_tour_short_session_runs():
    code = _block_after("A short session:")
    namespace = {"__name__": "readme_session"}
    exec(compile(code, str(README), "exec"), namespace)
    # the session ran to its last statement
    assert namespace["res_w"].arcs


def test_one_implementation_table_names_helpers_that_exist():
    # each helper of the "one implementation" table resolves from the
    # package, so the table cannot name a deleted helper
    text = README.read_text(encoding="utf-8")
    start = text.index("| job | helper |",
                       text.index("Each job has one implementation"))
    table = text[start:text.index("\n\n", start)].splitlines()[2:]
    helpers = [re.fullmatch(r"\|.*\| `([\w.]+)` \|", row).group(1)
               for row in table]
    assert len(helpers) >= 8
    for helper in helpers:
        obj = refbilliard
        for part in helper.split("."):
            obj = getattr(obj, part)
        assert callable(obj), helper
