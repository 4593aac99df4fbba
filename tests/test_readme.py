"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_its_bounds_hold():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    solution, bounds = scope["solution"], scope["bounds"]
    # TMS_b is certified: its pair contains the exact one.
    assert bounds.s_left <= solution.s_left < solution.s_right <= bounds.s_right
