"""Modules of ``bench/`` executed from their source text.

Tests that check the program against the benchmark's own code load it this
way, so nothing (not even bytecode) is written under ``bench/``.
"""

import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str) -> types.ModuleType:
    """``bench/<name>.py`` as a fresh module object."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module
