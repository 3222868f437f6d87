"""Where the benchmark finds the lurwit sources and puts what a run leaves behind.

The benchmark always measures the package under `src/` of the checkout it
sits in, never an installed copy, so a run in a tree without the sources
fails instead of measuring something else.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "lurwit"
OUT_DIR = ROOT / ".perfbench-out"


class MissingSource(RuntimeError):
    """The checkout holds no lurwit sources to measure."""


def add_source_path() -> None:
    """Put the checkout's `src/` first on the import path."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSource(f"no lurwit package at {PACKAGE}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Fail unless `module` was loaded from the checkout's `src/lurwit`."""
    if Path(module.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingSource(f"lurwit was imported from {module.__file__}, not {PACKAGE}")


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under the run's output directory, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
