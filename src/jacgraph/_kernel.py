"""Kernel selection: the compiled extension when it was built and the
operands fit its 64-bit arithmetic, the pure-Python kernel otherwise.

A call whose operand bound reaches FAST_BOUND is routed to the pure
kernel, which computes with Python integers; so is every call when the
extension was not built.
"""

from __future__ import annotations

from . import _kernel_py
from .errors import EmptyGraphError, GuardLimitError

try:
    from . import _speedups
except ImportError:  # pragma: no cover - build dependent
    _speedups = None

HAVE_SPEEDUPS = _speedups is not None

MODE_SEMISTABLE = _kernel_py.MODE_SEMISTABLE
MODE_QUASISTABLE = _kernel_py.MODE_QUASISTABLE
MODE_STABLE = _kernel_py.MODE_STABLE

# headroom below 2**63 for the products and sums formed inside the kernel
FAST_BOUND = 1 << 60

# subset scans touch 2**n masks; refuse beyond this many vertices
SUBSET_SCAN_LIMIT = 20


def scan_guard(n: int, what: str):
    """Refuse a subset scan over no vertices or over too many."""
    if n == 0:
        raise EmptyGraphError(f"{what} needs at least one vertex")
    if n > SUBSET_SCAN_LIMIT:
        raise GuardLimitError(
            f"subset scan over {n} vertices exceeds the limit of {SUBSET_SCAN_LIMIT}"
        )


def select(value_bound: int):
    """The kernel module to use for operands bounded by ``value_bound``."""
    if _speedups is not None and value_bound < FAST_BOUND:
        return _speedups
    return _kernel_py


def implementations():
    """Available kernel modules, compiled one first."""
    mods = []
    if _speedups is not None:
        mods.append(_speedups)
    mods.append(_kernel_py)
    return mods


def implementation_name() -> str:
    return "compiled" if _speedups is not None else "pure"
