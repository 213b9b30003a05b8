"""Pure-Python subset-scan kernel for enumeration.

The reference for the compiled module ``jacgraph._speedups`` (hand-written
C): same entry point, ``box_enumerate``, same plan, same search tree,
arbitrary-precision integers.  It is used when the extension was not
built, and for operand bounds at or above ``_kernel.FAST_BOUND``, where the
compiled kernel's 64-bit arithmetic could overflow.  Its box search checks
a whole level of subsets at once, on sums packed into one integer, and
like the compiled kernel it reads its box from the caller's
``_kernel.Layout`` and returns each output as one int in it.

All quantities are pre-scaled integers: a context with rational vertex
weights q scales everything by an even integer ``scale`` so that
``scale * q_W`` and ``scale * val(W) / 2`` are integers.  A stratum
context passes the data of its partial normalization (G - S, q_S): the
non-loop edges of G - S and ``base == scale * q_S``.  The total is the
degree budget ``sum(base) / scale``.  For a vertex subset given as a
bitmask ``m``, with ``base(m)`` the sum of ``base`` over m and ``cut(m)``
the number of edges with exactly one end in m, a semistable multidegree d
has ``base(m) - scale/2 * cut(m) <= scale * d_m <= base(m) + scale/2 *
cut(m)`` (non-strict bounds).  The complement holds the rest of the
total, so the upper bound on m is the lower bound on its complement.

Only some subsets can bind.  Both bounds are a sum over the vertices less
or plus ``scale/2`` per crossing edge, and an edge that crosses a piece of
m (a part that no edge joins to the rest of m) crosses m, so each bound on
m is the sum of the bounds on its pieces, and the bounds on a disconnected
m follow from those on its pieces.  Strictness carries over: in
quasistable mode the piece that holds the basepoint is strict and makes
the sum strict, in stable mode every piece is strict.  Take a connected W
whose remainder K - W in its component K of the graph falls into pieces;
call C1 the one with the highest vertex of K - W and C2 the union of the
others, so that W + C2 holds the last vertex only if W does.  Every edge
that leaves C2 ends in W, so the bounds on W + C2 are those on W plus the
opposite bounds on C2, and a search that checks W + C2 and the pieces of
C2 need not check W; of the two bounds combined, one is strict whenever
the bound on W is.  W + C2 and each piece of C2 have a connected
remainder in K.  So the plan checks both bounds on each connected subset
whose remainder in its component is connected or empty.

``build_tables`` lists the subsets the box search checks in a *plan*, read
off the connected subsets that ``graph._connected_subsets`` lists.  It
leaves out every subset that holds the last vertex, as the total fixes d
there and such a bound is the opposite bound on the complement.  It
computes the two bounds only on the plan's masks.  ``box_enumerate`` also
drops each bound that the box and the total already imply, gives a mask
left without a bound no field, and takes a level's passing values as one
interval.
"""

from __future__ import annotations

import sys

from ._kernel import MODE_QUASISTABLE, MODE_SEMISTABLE, MODE_STABLE
from .graph import _connected_subsets, _piece_masks

# per bit i, the table taking a byte to its bit i, for bytes.translate
_BIT = [bytes(b >> i & 1 for b in range(256)) for i in range(8)]


def build_tables(n, edges, base, scale):
    """``(bounds, plan)``: the plan of ``edges`` (endpoint index pairs) and
    the bounds its search reads, ``bounds[m] == (base(m) - scale/2 *
    cut(m), base(m) + scale/2 * cut(m))``, with ``cut(m)`` the number of
    ``edges`` with exactly one end in m, for every plan mask m and for no
    other mask.

    The plan is prefix-closed, so each plan mask m extends a plan mask (or
    the empty set) r = m - k, k its top vertex, of a lower level:

        base(m) = base(r) + base[k],  cut(m) = cut(r) + deg(k) - 2 e(k, r),

    where e(k, r) counts the edges from k into r, which crossed r and stop
    crossing.  e(k, r) is the sum of ``(layer & r).bit_count()`` over k's
    multiplicity layers, the j-th holding the neighbours joined to k by
    more than j edges."""
    half = scale // 2
    plan = _build_plan(n, edges)
    bounds = {0: (0, 0)}
    for k, (level, layers) in enumerate(zip(plan, _multiplicity_layers(n, edges))):
        own, bit = base[k], 1 << k
        deg = sum(layer.bit_count() for layer in layers)
        for m, _ in level:
            r = m ^ bit
            cross = deg
            for layer in layers:
                cross -= 2 * (layer & r).bit_count()
            low, high = bounds[r]
            cross *= half
            bounds[m] = low + own - cross, high + own + cross
    del bounds[0]
    return bounds, plan


def _multiplicity_layers(n, edges):
    """Per vertex v, the masks whose k-th holds the neighbours joined to v
    by more than k of ``edges``; loops are skipped."""
    count = [{} for _ in range(n)]
    for a, b in edges:
        if a != b:
            count[a][b] = count[a].get(b, 0) + 1
            count[b][a] = count[b].get(a, 0) + 1
    layers = []
    for nbrs in count:
        own = []
        for k in range(max(nbrs.values(), default=0)):
            own.append(sum(1 << w for w, c in nbrs.items() if c > k))
        layers.append(own)
    return layers


def _build_plan(n, edges):
    """The masks the box search keeps, by top vertex: ``plan[k]`` lists
    ``(mask, checked)`` in increasing mask order for the masks whose top
    vertex is k.  ``checked`` is true for a connected subset whose
    remainder in its component is connected or empty: the search checks
    both its bounds.  It is false for a prefix (a kept mask less its top
    vertex, repeated) that is kept only because a kept mask's sum is built
    from it.  No mask holding the last vertex is kept, so ``plan[n - 1]``
    is empty: the total fixes d there, and a bound on such a mask is the
    opposite bound on its complement."""
    full = (1 << n) - 1
    levels = list(_connected_subsets(n, edges))
    subsets = [c for level in levels for c in level]
    home = _piece_masks(n, edges)
    # a remainder in the last vertex's component holds that vertex, so only
    # the last level can list it; past 61 vertices the set of all subsets
    # would be slow to build, as CPython hashes an int mod 2^61 - 1
    connected = {c for c in subsets if not c & home[-1]}.union(*levels[-1:])
    checked = {
        c: True
        for c in subsets
        if c <= full >> 1  # c lacks the last vertex
        and ((rest := home[c.bit_length() - 1] ^ c) == 0 or rest in connected)
    }
    for m in list(checked):
        m ^= 1 << (m.bit_length() - 1)
        while m and m not in checked:
            checked[m] = False
            m ^= 1 << (m.bit_length() - 1)
    plan = [[] for _ in range(n)]
    for m in sorted(checked):
        plan[m.bit_length() - 1].append((m, checked[m]))
    return tuple(map(tuple, plan))


def box_enumerate(n, edges, base, scale, v0, mode, at, layout, limit):
    """All integer vectors in the box with total ``sum(base) / scale`` that
    satisfy the per-subset bounds of ``build_tables(n, edges, base,
    scale)``; strictness of the bounds depends on ``mode``.  Each output
    has the value of vertex k at position ``at[k]``, for ``at`` a
    permutation of ``range(n)``, and is packed into one int in ``layout``,
    a ``_kernel.Layout`` in output order: vertex k's box is
    ``layout.lo[at[k]]`` to ``layout.hi[at[k]]``.  Int order is the order
    of the value tuples.  The search stops once it holds ``limit + 1``
    outputs, which it returns.  Raises ValueError unless ``scale`` is
    positive and divides ``sum(base)``.

    Depth-first over the vertices in index order.  When vertex k is
    assigned, every subset whose top vertex is k becomes decided, so the
    bounds the plan keeps among them are checked right away and failing
    branches are cut early.  A bound the plan leaves out follows from kept
    bounds, so the outputs and their order (before ``at`` places them) are
    those of a search that checks every subset; a cut comes once the
    subsets of those kept bounds are decided.  In the level order of
    ``StratumContext._packed`` (breadth-first layers from the
    highest vertex of each component, farthest first), that is the level
    such a search cuts at.  The pieces of a disconnected subset lie below
    its top vertex.  For a connected W, each piece of C2 (see the module
    docstring) is cut off by W from the highest vertex of K, so it lies in
    farther layers than W's top vertex, which is then the top vertex of
    W + C2 too.  In another order a cut may come later.  The last vertex
    takes the rest of the total; the suffix sums of the box, which prune
    on the total, keep it in its box.

    A node that decides d_m has d_m between ``max(lo_m, total - hi_c)`` and
    ``min(hi_m, total - lo_c)``, with c the complement of m and ``lo_m`` the
    box's sum over m.  A bound that every such value meets is dropped, and
    a mask that loses both gets no field.  Dropped bounds never cut, so the
    search visits the same nodes.

    The sums live in one integer, the *state*, with a W-bit field per mask
    of levels 0 to n - 2 that keeps a bound, in level order (word-parallel
    arithmetic, Lamport, CACM 18(8), 1975).  A field holds ``scale * d``
    over the placed vertices of its mask plus the bias ``2**(W - 1)``;
    placing d_k adds ``d_k * step[k]``, which has ``scale`` in each field
    whose mask holds k, and going down a level shifts out the fields of the
    level.  The sign of a sum minus a bound is then a field's top bit: the
    lower bounds of level k hold when ``(state + cl) & gl == gl``, with
    -low in cl and the top bit in gl in each field with a lower check, and
    the upper bounds when ``(state + cu) & gu == 0``, with -(high + 1) in
    cu.  The plan is prefix-closed, so a field holds 0 or the sum over a
    plan mask, which lies in that mask's box.  With B the largest magnitude
    of a box end or kept bound, W = bits(2B + 2) + 1, rounded up to whole
    bytes, keeps every field in [0, 2**W), with or without a bound taken
    off, so no carry crosses a field and a test passes exactly when every
    row of its level does.

    Each field of level k has a mask that holds k, so it grows with d_k:
    the lower tests pass from some value of d_k on, the upper ones up to
    some value.  A node scans in from each end with one test alone and
    takes the values between untested.  The output is built the same way:
    its int is a constant plus ``d_k * unit[k]`` per vertex, ``unit[k]``
    the lowest bit of position ``at[k]``'s field, and at the last level,
    where vertex n - 2 rises as the last vertex falls, the values that pass
    are one arithmetic progression of ints.
    """
    whole = sum(base)
    if scale <= 0:
        raise ValueError(f"scale = {scale} is not positive")
    if whole % scale:
        raise ValueError(f"base sums to {whole}, not a multiple of scale = {scale}")
    total = whole // scale
    lo, hi = [layout.lo[p] for p in at], [layout.hi[p] for p in at]
    suf_lo = [0] * (n + 1)
    suf_hi = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suf_lo[k] = suf_lo[k + 1] + lo[k]
        suf_hi[k] = suf_hi[k + 1] + hi[k]
    if suf_lo[0] > total or suf_hi[0] < total:
        return []
    if n == 1:
        return [layout.pack([total])]
    bounds, plan = build_tables(n, edges, base, scale)

    # per level but the last, per mask with a bound: its scaled low and high
    # bound, or None for a bound left unchecked.  Strict bounds on proper
    # subsets: quasistable from below on those that hold v0 and from above
    # on the others, stable both ways on all.  box[m] holds scale times the
    # box sums lo_m and hi_m, built along the prefix chains of the plan.
    vbit = 1 << v0
    stable, quasi = mode == MODE_STABLE, mode == MODE_QUASISTABLE
    from_hi, from_lo = whole - scale * suf_hi[0], whole - scale * suf_lo[0]
    box = {0: (0, 0)}
    masks, lows, highs, ends = [], [], [], []
    for k, level in enumerate(plan[: n - 1]):
        pbit, k_lo, k_hi = 1 << k, scale * lo[k], scale * hi[k]
        for m, checked in level:
            m_lo, m_hi = box[m ^ pbit]
            box[m] = m_lo, m_hi = m_lo + k_lo, m_hi + k_hi
            if not checked:
                continue
            low, high = bounds[m]
            low += stable or quasi and m & vbit != 0
            high -= stable or quasi and not m & vbit
            if low <= m_lo or low <= from_hi + m_hi:
                low = None
            if high >= m_hi or high >= from_lo + m_lo:
                high = None
            if low is not None or high is not None:
                masks.append(m)
                lows.append(low)
                highs.append(high)
        ends.append(len(masks))

    # W-bit fields, one per mask with a bound, in level order, built as
    # little-endian bytes.  B bounds every box end and kept bound (a kept
    # low lies above the box's low end, a kept high below its high end).
    least = min(min(map(min, box.values())), min(filter(None, highs), default=0))
    most = max(max(map(max, box.values())), max(filter(None, lows), default=0))
    nbytes = ((2 * max(most, -least) + 2).bit_length() + 8) // 8
    zero, half, size = bytes(nbytes), 1 << (8 * nbytes - 1), len(masks) * nbytes
    state = int.from_bytes((zero[1:] + b"\x80") * len(masks), "little")

    def fields(bounds, less):
        # the bias 2**(W - 1) in the fields with a bound, which is gl (gu),
        # and 2**(W - 1) - bound - less in them, which is cl + gl (cu + gu)
        tops = bytearray(size)
        tops[nbytes - 1 :: nbytes] = bytes([0 if x is None else 0x80 for x in bounds])
        cells = b"".join(
            [zero if x is None else (half - x - less).to_bytes(nbytes, "little") for x in bounds]
        )
        return int.from_bytes(tops, "little"), int.from_bytes(cells, "little")

    gl, cl = fields(lows, 0)
    gu, cu = fields(highs, 1)
    # lanes[j] holds byte j of each mask at the start of its field;
    # translating it by _BIT leaves a 1 in the fields whose mask holds k
    mask_bytes = (n + 6) // 8
    packed = b"".join([m.to_bytes(mask_bytes, "little") for m in masks])
    lanes = [bytearray(size) for _ in range(mask_bytes)]
    for j, lane in enumerate(lanes):
        lane[::nbytes] = packed[j::mask_bytes]

    # an output is the layout's origin plus d_k * unit[k] over the vertices
    # k, unit[k] the lowest bit of the field at position at[k]
    unit = [layout.unit[p] for p in at]

    # per level k, on the state with the lower levels shifted out: step[k]
    # (no mask below level k holds k), its part in the level's own fields,
    # all of which hold k, the mask of those fields, the constants of the
    # two tests, the level's width and its vertex's unit in an output
    levels, start = [], 0
    for k, end in enumerate(ends):
        shift, width = 8 * nbytes * start, 8 * nbytes * (end - start)
        keep = (1 << width) - 1
        step = scale * int.from_bytes(lanes[k >> 3].translate(_BIT[k & 7]), "little") >> shift
        g_l, g_u = gl >> shift & keep, gu >> shift & keep
        c_l, c_u = (cl >> shift & keep) - g_l, (cu >> shift & keep) - g_u
        levels.append((step, step & keep, keep, c_l, g_l, c_u, g_u, width, unit[k]))
        start = end

    last_unit = unit[n - 1]
    out = []

    def place(k, partial, state, row):
        # the level's tests read only its own fields, ``here``; it returns
        # true once the outputs pass the limit
        step, own, keep, cl, gl, cu, gu, width, k_unit = levels[k]
        rest = total - partial
        first, last = rest - suf_hi[k + 1], rest - suf_lo[k + 1]
        first = lo[k] if lo[k] > first else first  # max and min cost a call
        last = hi[k] if hi[k] < last else last
        here = (state & keep) + first * own
        while first <= last and (here + cl) & gl != gl:
            first += 1
            here += own
        here += (last - first) * own
        while last >= first and (here + cu) & gu:
            last -= 1
            here -= own
        if k < n - 2:
            for dv in range(first, last + 1):
                if place(k + 1, partial + dv, (state + dv * step) >> width, row + dv * k_unit):
                    return True
        elif first <= last:
            # d_k = dv and the last vertex rest - dv, for dv from first to last
            move = k_unit - last_unit
            row += rest * last_unit + first * move
            out.extend(range(row, row + (last - first + 1) * move, move))
            return len(out) > limit

    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n)  # place recurses once per vertex
    try:
        place(0, 0, state, layout.origin)
    finally:
        sys.setrecursionlimit(depth)
    del out[limit + 1 :]
    return out
