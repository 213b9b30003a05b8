"""Pure-Python subset-scan kernel for enumeration.

The reference for the compiled module ``jacgraph._speedups`` (hand-written
C): same interface, same algorithms, arbitrary-precision integers.  It is
used when the extension was not built, and for operand bounds at or above
``_kernel.FAST_BOUND``, where the compiled kernel's 64-bit arithmetic could
overflow.

All quantities are pre-scaled integers: a context with rational vertex
weights q scales everything by an even integer ``scale`` so that
``scale * q_W`` and ``scale * val(W) / 2`` are integers.  For a vertex
subset given as a bitmask ``m``:

- ``floor_rhs[m]``  is the least allowed value of ``scale * d_m``,
- ``ceil_rhs[m]``   is the greatest allowed value of ``scale * d_m``,

for a semistable multidegree d (non-strict bounds).  The deficit of d on
``m`` is ``floor_rhs[m] - scale * d_m``; its positive part measures how
far d is from semistability.
"""

from __future__ import annotations

from typing import NamedTuple

MODE_SEMISTABLE = 0
MODE_QUASISTABLE = 1
MODE_STABLE = 2


class Tables(NamedTuple):
    n: int
    scale: int
    floor_rhs: list
    ceil_rhs: list


def build_tables(n, edges, s_flags, scaled_q, scale):
    """Per-subset bound tables.

    ``edges`` lists endpoint index pairs, ``s_flags`` marks the edges of
    the stratum S, ``scaled_q[i] == scale * q_i``.
    """
    size = 1 << n
    half = scale // 2
    qsum = [0] * size
    for m in range(1, size):
        lsb = m & -m
        qsum[m] = qsum[m ^ lsb] + scaled_q[lsb.bit_length() - 1]
    cross = [0] * size
    cross_s = [0] * size
    inside_s = [0] * size
    for (a, b), flag in zip(edges, s_flags):
        if a == b:
            if flag:
                bit = 1 << a
                for m in range(size):
                    if m & bit:
                        inside_s[m] += 1
            continue
        abit, bbit = 1 << a, 1 << b
        for m in range(size):
            a_in = m & abit
            b_in = m & bbit
            if bool(a_in) != bool(b_in):
                cross[m] += 1
                if flag:
                    cross_s[m] += 1
            elif flag and a_in:
                inside_s[m] += 1
    floor_rhs = [
        qsum[m] - half * cross[m] - scale * inside_s[m] for m in range(size)
    ]
    ceil_rhs = [
        qsum[m] + half * cross[m] - scale * (cross_s[m] + inside_s[m])
        for m in range(size)
    ]
    return Tables(n, scale, floor_rhs, ceil_rhs)


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
    n, scale, floor_rhs, ceil_rhs = tables
    size = 1 << n
    full = size - 1

    low = list(floor_rhs)
    high = list(ceil_rhs)
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

