"""Keeps the tests directory importable so test modules can share helpers."""
import os
from pathlib import Path

# pytest puts src on sys.path (pyproject's pythonpath); subprocesses the tests
# start, such as criterion 9's ``python -m grlr``, need it on PYTHONPATH too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
