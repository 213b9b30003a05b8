"""Kernel selection: the compiled extension when it was built and the
operands fit its 64-bit arithmetic, the pure-Python kernel otherwise.

A call whose operand bound reaches FAST_BOUND is routed to the pure
kernel, which computes with Python integers; so is every call when the
extension was not built.
"""

from __future__ import annotations

from .errors import EmptyGraphError, GuardLimitError

try:
    from . import _speedups
except ImportError:  # pragma: no cover - build dependent
    _speedups = None

HAVE_SPEEDUPS = _speedups is not None

MODE_SEMISTABLE = 0
MODE_QUASISTABLE = 1
MODE_STABLE = 2

# headroom below 2**63 for the products and sums formed inside the kernel
FAST_BOUND = 1 << 60

# the compiled kernel's table, and classification on a dense graph, reach 2**n
# masks; refuse beyond this many vertices
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
    from . import _kernel_py

    return _kernel_py


def implementations():
    """Available kernel modules, compiled one first."""
    from . import _kernel_py

    mods = []
    if _speedups is not None:
        mods.append(_speedups)
    mods.append(_kernel_py)
    return mods


def implementation_name() -> str:
    return "compiled" if _speedups is not None else "pure"
