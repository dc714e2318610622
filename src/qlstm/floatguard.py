"""Debug instrumentation for the no-float guarantee of the integer path.

Every integer kernel reports the arrays it touches through :func:`note`.
While tracing is active, any array with a floating-point dtype increments
a global counter; a clean integer-only run therefore finishes with a count
of zero.  Tracing is off by default (``note`` is a cheap no-op) and is
switched on for a block with :func:`trace_float_ops`.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_tracing = False
_float_ops = 0


def float_op_count() -> int:
    return _float_ops


def note(*arrays) -> None:
    """Record arrays flowing through an integer kernel (no-op unless tracing)."""
    global _float_ops
    if not _tracing:
        return
    for a in arrays:
        if isinstance(a, np.ndarray) and a.dtype.kind == "f":
            _float_ops += 1
        elif isinstance(a, float):
            _float_ops += 1


@contextmanager
def trace_float_ops():
    """Enable float-op counting for the duration of the block.

    Yields a callable returning the number of floating-point arrays seen
    so far inside the block.
    """
    global _tracing, _float_ops
    prev_tracing, prev_count = _tracing, _float_ops
    _tracing, _float_ops = True, 0
    try:
        yield float_op_count
    finally:
        _tracing, _float_ops = prev_tracing, prev_count
