"""Import paths and the run stamp shared by the benchmark's modules.

The benchmark imports ``structhunt`` from the checkout's ``src/`` and reads
the instance builders in ``tests/`` (``pipeline_instances``, ``generators``,
``calibrate_split``) without changing them.  ``require_program`` fails
loudly when either directory is missing, so a copy of the benchmark without
the program exits non-zero instead of printing a result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def require_program() -> None:
    """Put src/ and tests/ on sys.path, or raise MissingProgram."""
    for need in (SRC / "structhunt" / "__init__.py",
                 TESTS / "pipeline_instances.py",
                 TESTS / "generators.py",
                 TESTS / "calibrate_split.py"):
        if not need.is_file():
            raise MissingProgram("missing %s" % need.relative_to(ROOT))
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" when the checkout
    is not a git repository (parent directories are never searched)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_stamp(seed: int) -> dict:
    """Machine and software identity, so results from different machines
    are never compared silently."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }
