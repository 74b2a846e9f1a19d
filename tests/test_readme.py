"""The README's library example runs against the package as it is.

A deleted or renamed export, or a changed signature it shows, then fails the
suite instead of leaving the documentation wrong.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_entry_points_block_runs():
    source = library_block()
    assert "from hornlog import" in source
    exec(compile(source, str(README), "exec"), {})
