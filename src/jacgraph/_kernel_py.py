"""Pure-Python subset-scan kernel for enumeration.

The reference for the compiled module ``jacgraph._speedups`` (hand-written
C): same interface, same algorithms, arbitrary-precision integers.  It is
used when the extension was not built, and for operand bounds at or above
``_kernel.FAST_BOUND``, where the compiled kernel's 64-bit arithmetic could
overflow.

All quantities are pre-scaled integers: a context with rational vertex
weights q scales everything by an even integer ``scale`` so that
``scale * q_W`` and ``scale * val(W) / 2`` are integers.  A stratum
context passes the data of its partial normalization (G - S, q_S): the
non-loop edges of G - S and ``base == scale * q_S``.  For a vertex subset
given as a bitmask ``m``, ``floor[m]`` is the least allowed value of
``scale * d_m`` for a semistable multidegree d (non-strict bound), and
the greatest is ``scale * total - floor[full ^ m]``, as the complement
holds the rest of the total.  The deficit of d on ``m`` is
``floor[m] - scale * d_m``; its positive part measures how far d is from
semistability.
"""

from __future__ import annotations

from typing import NamedTuple

MODE_SEMISTABLE = 0
MODE_QUASISTABLE = 1
MODE_STABLE = 2


class Tables(NamedTuple):
    n: int
    scale: int
    floor: list


def build_tables(n, edges, base, scale):
    """The per-subset floor table ``sum(base[v] for v in m) - scale/2 *
    cross(m)``, with ``cross(m)`` the number of ``edges`` (endpoint index
    pairs) with exactly one end in ``m``."""
    size = 1 << n
    half = scale // 2
    floor = [0] * size
    for m in range(1, size):
        lsb = m & -m
        floor[m] = floor[m ^ lsb] + base[lsb.bit_length() - 1]
    for a, b in edges:
        abit, bbit = 1 << a, 1 << b
        for m in range(size):
            if bool(m & abit) != bool(m & bbit):
                floor[m] -= half
    return Tables(n, scale, floor)


def box_enumerate(tables, v0, total, lo, hi, mode):
    """All integer vectors in the box with the given total that satisfy the
    per-subset bounds; strictness of the bounds depends on ``mode``.

    Depth-first over the vertices in index order.  When vertex k is
    assigned, every subset whose top vertex is k becomes decided, so its
    bounds are checked right away and failing branches are cut early.
    The suffix sums of the box bounds prune on the total as well.
    ``sums[m]`` holds ``scale * d_m``, so the subset checks need no
    multiplication.
    """
    n, scale, floor = tables
    size = 1 << n
    full = size - 1

    low = list(floor)
    high = [scale * total - x for x in reversed(floor)]
    if mode == MODE_QUASISTABLE:
        vbit = 1 << v0
        for m in range(1, full):
            if m & vbit:
                low[m] += 1
            else:
                high[m] -= 1
    elif mode == MODE_STABLE:
        for m in range(1, full):
            low[m] += 1
            high[m] -= 1

    suf_lo = [0] * (n + 1)
    suf_hi = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suf_lo[k] = suf_lo[k + 1] + lo[k]
        suf_hi[k] = suf_hi[k + 1] + hi[k]
    if suf_lo[0] > total or suf_hi[0] < total:
        return []

    sums = [0] * size
    d = [0] * n
    out = []

    def place(k, partial):
        base = 1 << k
        if k == n - 1:
            dv = total - partial
            if dv < lo[k] or dv > hi[k]:
                return
            step = scale * dv
            for m in range(base, full):
                sd = sums[m ^ base] + step
                if sd < low[m] or sd > high[m]:
                    return
            d[k] = dv
            out.append(tuple(d))
            return
        for dv in range(lo[k], hi[k] + 1):
            p2 = partial + dv
            if p2 + suf_lo[k + 1] > total or p2 + suf_hi[k + 1] < total:
                continue
            ok = True
            step = scale * dv
            for m in range(base, base << 1):
                sd = sums[m ^ base] + step
                sums[m] = sd
                if sd < low[m] or sd > high[m]:
                    ok = False
                    break
            if ok:
                d[k] = dv
                place(k + 1, p2)

    place(0, 0)
    return out

