"""Python snippets run in a child process, the one place where tests set
``PYTHONPATH`` or a BLAS variable.

A test needs its own process when the module set is the thing checked
(what ``import wplab`` loads), or when OpenBLAS must start with a given
thread count and CPU kernel, which it reads once, when it loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wplab import lab

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARIABLES, CORETYPE_VARIABLE = lab.BLAS_VARIABLES[:2], lab.BLAS_VARIABLES[2]


def run_python(
    script: str,
    *args: object,
    threads: int | None = None,
    coretype: str | None = None,
) -> str:
    """Run ``python -c script *args`` with ``src`` first on ``PYTHONPATH``
    and return its stdout.  The BLAS thread count and OpenBLAS kernel are
    set only when given; otherwise the child inherits the caller's.  A
    child that exits non-zero fails the test with its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARIABLES, str(threads)))
    if coretype is not None:
        env[CORETYPE_VARIABLE] = coretype
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        pytest.fail(f"child exited {done.returncode}:\n{done.stderr}", pytrace=False)
    return done.stdout
