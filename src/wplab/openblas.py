"""Symbols of the OpenBLAS numpy itself runs on, reached through ctypes.

Other OpenBLAS copies may be mapped too (scipy's wheels bring their
own), so symbols are looked up through numpy's core extension, whose
handle searches only that module and the libraries it links.  The
scipy-openblas wheels export ``scipy_<name><suffix>`` and plain OpenBLAS
exports ``<name><suffix>``; a ``64_`` suffix marks the build whose
integer arguments are 64 bits wide.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Any, Optional

# (prefix, suffix) of the scipy-openblas wheels and of plain OpenBLAS,
# each with 64-bit or 32-bit integers
_VARIANTS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))


@functools.cache
def _numpy_core() -> Optional[ctypes.CDLL]:
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        return ctypes.CDLL(core.__file__)
    except OSError:
        return None


def symbol(name: str) -> Optional[tuple[str, Any, type]]:
    """``(exported name, function, integer type)`` of ``name`` in numpy's
    OpenBLAS, or None when no variant of it is exported.

    ``name`` is written as plain OpenBLAS exports it with 32-bit integers:
    ``openblas_get_config``, or ``dstevd_`` for a LAPACK routine.
    """
    lib = _numpy_core()
    if lib is None:
        return None
    for prefix, suffix in _VARIANTS:
        exported = f"{prefix}{name}{suffix}"
        try:
            fn = getattr(lib, exported)
        except AttributeError:
            continue
        return exported, fn, ctypes.c_int64 if suffix else ctypes.c_int32
    return None
