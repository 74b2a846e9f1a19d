"""The CLI tests run ``python -m hornlog.cli`` in a child process.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path only;
exporting it lets the child import the same ``hornlog`` when the suite runs
as a plain ``python -m pytest``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
