"""Kernel selection: the compiled extension when it was built and the
operands fit its 64-bit arithmetic, the pure-Python kernel otherwise.

A call whose operand bound reaches FAST_BOUND is routed to the pure
kernel, which computes with Python integers; so is every call when the
extension was not built, and so is every graph of more than its
MAX_VERTICES.  ``check_limit`` refuses a call once what it returns or walks
passes ``LIMIT``, the one size limit; the kernels stop at one row more.

``Layout`` owns the packed row format.  The caller builds one for its box
and hands it to the kernel it picks, which reads the box, the field size
and the code offsets from it and packs each multidegree into one int in
it; the library unpacks rows only where it builds ``Cochain``s, and the
command line writes them packed.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import NamedTuple

from .errors import GuardLimitError

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

# the most vertices the compiled kernel's arrays hold; no bound without it
MAX_VERTICES = sys.maxsize if _speedups is None else _speedups.MAX_VERTICES

# the most rows, subsets, points or forests one call may return or walk
LIMIT = 1 << 20


# the array typecode of each field size, and whether an array's items are
# read little-endian
_TYPECODE = {array(t).itemsize: t for t in "QLIHB"}
_SWAP = sys.byteorder == "little"


class Layout(NamedTuple):
    """How one int holds a multidegree d in the box ``[lo, hi]`` (vertex
    order): the packed row format, which both kernels and the command line
    read.  Vertex v owns the codes ``start[v] + j`` for its box width
    ``hi[v] - lo[v] + 1`` (none when its box is empty), ``start[v]`` the
    sum of the widths before it, and its field holds the code
    ``shift[v] + d_v``, ``shift[v] = start[v] - lo[v]``.  Every field takes
    ``size`` bytes, the fewest of 1, 2 and 4 that hold every code, and the
    fields are concatenated big-endian, vertex 0 most significant, so the
    order of the ints is that of the value tuples.  ``unit[v]`` is the
    lowest bit of v's field and ``origin`` the sum of ``shift[v] *
    unit[v]``, so d packs to ``origin`` plus ``d_v * unit[v]`` over the
    vertices.  Build one with ``Layout.of``."""

    lo: tuple
    hi: tuple
    size: int
    shift: tuple
    unit: tuple
    origin: int

    @classmethod
    def of(cls, lo, hi) -> "Layout":
        widths = [max(b - a + 1, 0) for a, b in zip(lo, hi)]
        count = sum(widths)
        if count > 1 << 32:
            raise OverflowError(f"a box of {count} codes is too wide to pack")
        size = 1 if count <= 1 << 8 else 2 if count <= 1 << 16 else 4
        last = len(lo) - 1
        unit = tuple([1 << 8 * size * (last - v) for v in range(last + 1)])
        shift = tuple(map(int.__sub__, accumulate(widths, initial=0), lo))
        origin = sum(map(int.__mul__, shift, unit))
        return cls(tuple(lo), tuple(hi), size, shift, unit, origin)

    def pack(self, values) -> int:
        """The int of one multidegree in the box."""
        return self.origin + sum(map(int.__mul__, values, self.unit))

    def codes(self, rows):
        """The codes of ``rows``, row after row: their bytes for one-byte
        fields, else an array."""
        size = self.size
        width = len(self.lo) * size
        raw = b"".join([row.to_bytes(width, "big") for row in rows])
        if size == 1:
            return raw
        codes = array(_TYPECODE[size], raw)
        if _SWAP:
            codes.byteswap()
        return codes

    def unpack(self, rows) -> list:
        """The value tuples of ``rows``."""
        values = [x for a, b in zip(self.lo, self.hi) for x in range(a, b + 1)]
        flat = map(values.__getitem__, self.codes(rows))
        return list(zip(*[flat] * len(self.lo)))


def check_limit(count: int, what: str):
    """Refuse a call whose count of ``what`` it returns or walks passes LIMIT."""
    if count > LIMIT:
        raise GuardLimitError(f"{count} {what} exceed the limit of {LIMIT}")


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
