"""Stratification bookkeeping: per-stratum multidegree sets, pushforward
degrees and the subdivision decomposition.

A stratum is an edge subset T, and its multidegrees are those of
``StratumContext(g, q, basepoint, T)``: the budget is ``total(q) - |T|``
and a stratum loop at v counts once inside every subset holding v.  Their
count is the spanning-tree number of the graph minus T.

The strata walk runs no box search.  Each spanning tree B of G has one
quasistable point d_B, the one in its tile of the graphical zonotope
(Shephard, Canad. J. Math. 26, 1974; Backman-Baker-Yuen, Forum Math.
Sigma 7, 2019), and one vertex w_B(e) per edge e outside it
(``_tile_point``).  The spanning trees of G - T are those of G that avoid
T, and

    Q_T = { d_B - sum of delta_{w_B(e)} over e in T : B avoids T }

with one point per tree: deleting e lowers by one whole unit each tile
coordinate whose vertex set holds w_B(e), which the rounding passes
through, and leaves the signs of the other edges as they are.  So each
tree gives a packed point and, per edge, what deleting that edge
subtracts from it (the unit of w_B(e)'s field, or None for a tree edge),
and the walk (``_walk``) builds the rows layer by layer in one flat loop:
a row T + (e,) is one comprehension over the points of T, keeping those
of the trees that avoid e, lowered.  A row's count is its length.  The
rows come out as columns, the strata in one list and their points in
another, which the command line formats as they are.  Subdividing every
edge at once packs all strata into a single quasistable enumeration whose
exceptional vertices carry only -1 or 0; bucketing by the -1 positions
recovers the strata independently of the walk, which there only counts
the trees that avoid each stratum.

A tree avoids T exactly when T lies among its m - n + 1 other edges, so
the strata up to codimension c hold tau(G) * sum(C(m - n + 1, k), k <= c)
points in sum(C(m, k), k <= c) rows: each sweep refuses a count past
``_kernel.LIMIT`` before any point (the rows before any work).
"""

from __future__ import annotations

from itertools import chain, combinations, islice, repeat
from math import comb
from typing import Iterable, NamedTuple

from ._kernel import Layout, check_limit
from .errors import BlowupValueError, GraphMismatchError
from .graph import Multigraph, Vertex, _bfs_forest
from .lattice import Cochain
from .polarization import Polarization
from .quasistable import StratumContext


def _edge_pairs(g, basepoint, q) -> tuple:
    """Endpoint index pairs of g, after the checks both whole-graph sweeps
    make: the polarization's graph and the basepoint."""
    if q.graph != g:
        raise GraphMismatchError("polarization bound to a different graph")
    g._check_vertex(basepoint)
    return g._pairs


def _subsets_to(m: int, depth: int) -> int:
    """The number of subsets of at most ``depth`` of m things."""
    return 1 << m if depth >= m else sum(map(comb, repeat(m), range(depth + 1)))


def _spanning_trees(n: int, pairs: list[tuple]) -> list[int]:
    """The spanning trees of the multigraph on the vertices 0..n-1 (n > 0)
    with the given endpoint index pairs, as bitmasks over the pair indices;
    loops never enter, and a disconnected graph has none.  The breadth-first
    order below is that of ``graph._bfs_forest`` from vertex 0.

    One frontier pass: the non-loop edges are taken in breadth-first order
    and the partial forests are grouped by the partition they make of the
    frontier, the vertices met that still have edges to come, which is all
    the later edges see.  Taking an edge merges two blocks, leaving it out
    keeps the partition; a block that loses its last frontier vertex can
    never be joined again, so its forests go unless it is the only block.
    It is refused once it holds more than ``_kernel.LIMIT`` forests.
    """
    queue = _bfs_forest(n, pairs, (0,))[3]
    if len(queue) < n:
        return []
    pos = [0] * n
    for rank, v in enumerate(queue):
        pos[v] = rank
    ranked = (sorted((pos[a], pos[b]), reverse=True) + [1 << k] for k, (a, b) in enumerate(pairs))
    steps = sorted(r for r in ranked if r[0] != r[1])  # [later rank, earlier rank, edge bit]
    last = {v: s for s, step in enumerate(steps) for v in step[:2]}
    front = []  # the frontier ranks in the order met
    states = {(): [0]}  # block of each, named by its least rank -> forests
    for s, (a, b, bit) in enumerate(steps):
        for v in (b, a):
            if v not in front:
                front.append(v)
                states = {names + (v,): forests for names, forests in states.items()}
        i, j = front.index(a), front.index(b)
        gone = [v for v in (a, b) if last[v] == s]
        if gone:
            out = [front.index(v) for v in gone]
            keep = [t for t in range(len(front)) if t not in out]
            front = [front[t] for t in keep]
        nxt = {}
        for names, forests in states.items():
            x, y = names[i], names[j]
            branches = [(names, forests)]
            if x != y:
                if x > y:
                    x, y = y, x
                merged = tuple([x if c == y else c for c in names])
                branches.append((merged, [t | bit for t in forests]))
            for names, got in branches:
                if gone:
                    kept = [names[t] for t in keep]
                    lost = {names[t] for t in out}.difference(kept)
                    if lost and (kept or len(lost) > 1):
                        continue
                    for c in gone:
                        if c in kept:  # its least remaining vertex names the block now
                            kept = [front[kept.index(c)] if z == c else z for z in kept]
                    names = tuple(kept)
                if (had := nxt.setdefault(names, got)) is not got:
                    had += got  # no older state reads its list again
        check_limit(sum(map(len, nxt.values())), "partial spanning forests")
        states = nxt
    return states[()]


def _tile_point(ctx: StratumContext, pairs, tree: int) -> tuple[tuple, list]:
    """The quasistable multidegree of ``ctx`` in the tile of one spanning
    tree of G - S, and the tree's w_B.  ``pairs`` are the endpoint index
    pairs of G - S, loops included, and ``tree`` is a bitmask over them.
    Their order and orientation are any fixed choice (the strata walk takes
    edge order, the equality witness moves one pair last): each gives a
    tiling with one tile per tree.  w_B gives, per pair outside the tree,
    the vertex index whose value drops by one when the pair is deleted (the
    pair's first end for a loop), and None per tree pair.

    The tree is rooted at the basepoint, read as the breadth-first forest
    over its pairs (``graph._bfs_forest``).  A pair e = (a, b) outside it
    takes the sign s_e = -1 when e has the largest index on its fundamental
    cycle, and otherwise +1 when the tree path from a to b crosses that
    largest edge from its first end to its second, else -1; w_B(e) is a
    for s_e = +1 and b for s_e = -1.  The point has
    ``d_C = ceil((base_C + scale/2 * sum(s_e * (v_e)_C) - scale/2) / scale)``
    on the vertex set C below each tree edge, with v_e = delta_a - delta_b,
    and the basepoint takes the rest of the budget.
    """
    n, scale, v0 = len(ctx._base), ctx.scale, ctx._v0
    half = scale // 2
    # breadth first from the basepoint: x's tree edge up[x] to parent[x]
    parent, up, depth, order = _bfs_forest(n, pairs, (v0,), tree)
    acc, w = [0] * n, [None] * len(pairs)
    for k in range(len(pairs)):
        if tree >> k & 1:
            continue
        a, b = pairs[k]
        top, sign, x, y = k, -1, a, b
        while x != y:  # up from both ends to their common ancestor
            if depth[x] >= depth[y]:
                if up[x] > top:  # the tree path from a to b runs x -> parent
                    top, sign = up[x], 1 if pairs[up[x]][0] == x else -1
                x = parent[x]
            else:
                if up[y] > top:  # ... and parent -> y
                    top, sign = up[y], -1 if pairs[up[y]][0] == y else 1
                y = parent[y]
        acc[a] += sign  # a loop (a == b) adds nothing and has w = a
        acc[b] -= sign
        w[k] = a if sign > 0 else b
    total = [x + half * s for x, s in zip(ctx._base, acc)]  # subtree sums, leaves up
    d = [0] * n
    for v in reversed(order[1:]):
        c = -((half - total[v]) // scale)
        total[parent[v]] += total[v]
        d[v] += c
        d[parent[v]] -= c
    d[v0] += ctx.budget
    return tuple(d), w


def _walk(ids: list, depth: int, root: list, finish) -> tuple[list, list]:
    """The subsets T of at most ``depth`` of the edges, as tuples of the
    edge ids ``ids``, by size and then lexicographically in edge order, and
    a value for each, two lists in that order.  The points of T are pairs
    (d, low): T = () holds those of ``root``, and T + (e,) those of T with
    ``low[e]`` not None, each lowered to ``d - low[e]``.  ``finish`` takes
    the list of the points of a whole layer of strata and gives their
    values.

    One flat loop over the layers, each layer a slice of the rows: a child
    row is one comprehension over its parent's points, and the children of
    an empty row share its empty list.  A layer is finished once its
    children are made, so only two layers of points are kept."""
    m = len(ids)
    rows, starts = [root], [0]  # starts: the first edge index past each T
    begin = 0
    for _ in range(depth):
        end = len(rows)
        for start, parent in zip(starts[begin:end], rows[begin:end]):
            if start == m:
                continue
            starts += range(start + 1, m + 1)
            if parent:
                rows += [
                    [(d - x, low) for d, low in parent if (x := low[e]) is not None]
                    for e in range(start, m)
                ]
            else:
                rows += [parent] * (m - start)
        rows[begin:end] = finish(rows[begin:end])
        begin = end
    rows[begin:] = finish(rows[begin:])
    strata = list(chain.from_iterable(combinations(ids, k) for k in range(depth + 1)))
    return strata, rows


def stratum_multidegrees(
    g: Multigraph,
    stratum: Iterable,
    basepoint: Vertex,
    q: Polarization,
) -> list[Cochain]:
    """Quasistable multidegrees of one stratum, bound to g."""
    return StratumContext(g, q, basepoint, stratum).enumerate("quasistable")


class StratumRow(NamedTuple):
    stratum: tuple
    codimension: int
    connected: bool
    expected_count: int
    multidegrees: tuple[Cochain, ...]


class StrataReport(NamedTuple):
    graph: Multigraph
    basepoint: Vertex
    rows: tuple[StratumRow, ...]
    complete: bool
    total_multidegrees: int
    subdivided_complexity: int


def strata_rows(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    max_codim: int | None = None,
) -> tuple[Layout, list[tuple], list[list[int]], bool, int, int]:
    """The rows of ``strata_report`` as columns: the layout they are
    packed in, the strata, tuples of edge ids, and per stratum its rows,
    sorted ints in the layout, whose count is the stratum's expected count;
    then the report's ``complete``, ``total_multidegrees`` and
    ``subdivided_complexity``.  Empty rows may share one list.

    The layout is G's singleton box with each vertex's low end lowered by
    its loops: a stratum T's singleton box is G's less one unit per
    T-loop at the low end and less one per T-edge at the high end, so it
    holds every row of every stratum."""
    if max_codim is not None and max_codim < 0:
        raise ValueError(f"max_codim must be nonnegative, got {max_codim}")
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q)
    ids = g.edge_ids()
    depth = m if max_codim is None else min(max_codim, m)
    check_limit(_subsets_to(m, depth), f"strata up to codimension {depth}")
    n = g.num_vertices  # at least one: the basepoint is a vertex
    trees = _spanning_trees(n, pairs)
    if trees:  # m - n + 1 edges outside each tree
        points = len(trees) * _subsets_to(m - n + 1, depth)
        check_limit(points, f"points in the strata up to codimension {depth}")
    ctx = StratumContext(g, q, basepoint)
    lo, hi = ctx.singleton_box()
    for a, b in pairs:
        lo[a] -= a == b
    layout = Layout.of(lo, hi)
    unit = layout.unit
    root = []
    for t in trees:
        d, w = _tile_point(ctx, pairs, t)
        root.append((layout.pack(d), [None if u is None else unit[u] for u in w]))
    strata, rows = _walk(
        ids, depth, root, lambda layer: [sorted([d for d, _ in p]) if p else p for p in layer]
    )
    total = sum(map(len, rows))
    # a spanning tree of the subdivision takes both halves of each edge of a
    # spanning tree of g and one of the two halves of every other edge
    subdivided = len(trees) << (m - n + 1) if trees else 0
    return layout, strata, rows, depth == m, total, subdivided


def strata_report(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    max_codim: int | None = None,
) -> StrataReport:
    """One row per edge subset up to the requested codimension.

    Rows are ordered by size and then lexicographically in edge order; a
    stratum lies in the closure of each of its subsets.  A row holds one
    tile point per spanning tree of G that avoids its stratum, carried down
    from its parent (the row without its last edge), and ``expected_count``
    is their number, so the count and the set agree by construction.  Two
    checks stay independent of the walk: the tests compare every row with a
    direct box search of its stratum, and ``blowup_decomposition`` (the
    ``blowup-check`` command) enumerates the subdivision apart.
    """
    layout, strata, rows, complete, total, subdivided = strata_rows(g, basepoint, q, max_codim)
    # every row's multidegrees unpacked in one call, each row taking its own
    points = iter(layout.unpack([d for packed in rows for d in packed]))
    return StrataReport(
        graph=g,
        basepoint=basepoint,
        rows=tuple(
            StratumRow(
                stratum=stratum,
                codimension=len(stratum),
                connected=len(packed) > 0,
                expected_count=len(packed),
                multidegrees=tuple(Cochain._of(g, t) for t in islice(points, len(packed))),
            )
            for stratum, packed in zip(strata, rows)
        ),
        complete=complete,
        total_multidegrees=total,
        subdivided_complexity=subdivided,
    )


class PushforwardDegrees(NamedTuple):
    """Degrees seen on the original graph after a stratum normalization.

    Per vertex: the normalization value plus one for each stratum loop at
    the vertex.  Per vertex subset: the vertex degrees plus one for each
    non-loop stratum edge inside the subset.  The grand total gains |S|.
    """

    graph: Multigraph
    stratum: frozenset
    vertex_degrees: Cochain
    total: int

    def degree_of(self, W: Iterable[Vertex]) -> int:
        g = self.graph
        W = g.vertex_subset(W)
        inside = sum(
            1
            for eid in self.stratum
            if not (e := g.edge(eid)).is_loop and e.u in W and e.v in W
        )
        return self.vertex_degrees.sum_over(W) + inside


def pushforward_multidegree(
    g: Multigraph, stratum: Iterable, d: Cochain
) -> PushforwardDegrees:
    """Transfer a multidegree from the stratum-deleted graph back to g."""
    S = g.edge_subset(stratum)
    if d.graph.vertices != g.vertices:
        raise GraphMismatchError(
            "multidegree lives on a graph with a different vertex listing"
        )
    loops = [0] * g.num_vertices
    for e, (a, b) in zip(g.edges, g._pairs):
        if a == b and e.id in S:
            loops[a] += 1
    vertex_degrees = Cochain(g, tuple(x + k for x, k in zip(d.values, loops)))
    return PushforwardDegrees(
        graph=g,
        stratum=S,
        vertex_degrees=vertex_degrees,
        total=d.total + len(S),
    )


class BlowupBucket(NamedTuple):
    stratum: tuple
    count: int
    expected_count: int
    multidegrees: tuple[Cochain, ...]


class BlowupDecomposition(NamedTuple):
    graph: Multigraph
    subdivided_graph: Multigraph
    basepoint: Vertex
    exceptional_vertices: tuple[tuple, ...]
    total: int
    expected_total: int
    buckets: tuple[BlowupBucket, ...]


def blowup_rows(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
) -> tuple[Multigraph, Layout, list[tuple], list[list[int]], list[int], int, int]:
    """The buckets of ``blowup_decomposition`` as columns: the
    subdivision, the layout of its rows, the strata, per stratum its
    bucket's rows, sorted ints of multidegrees on the subdivision (empty
    ones may share one list), and its expected count, the trees of G that
    avoid it; then ``total`` and ``expected_total``.  The exceptional
    vertices come last, so a row's low m fields are its bucket's key."""
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q)
    ids = g.edge_ids()
    n = g.num_vertices
    check_limit(1 << m, "buckets, one per edge subset,")
    trees = _spanning_trees(n, pairs)
    expected = len(trees) << (m - n + 1) if trees else 0  # as in strata_rows
    check_limit(expected, "points in the subdivision's quasistable set")
    q_sub = q.blown_up(ids)
    sub = q_sub.graph  # the middle vertex of edge k is vertex n + k
    layout, found = StratumContext(sub, q_sub, basepoint)._packed("quasistable")
    low = (1 << 8 * layout.size * m) - 1
    keyed: dict[int, list[int]] = {}
    for row in found:
        keyed.setdefault(row & low, []).append(row)
    grouped: dict[tuple, list[int]] = {}
    firsts = layout.unpack([rows[0] for rows in keyed.values()])
    for rows, first in zip(keyed.values(), firsts):
        values = first[n:]
        for eid, value in zip(ids, values):
            if value not in (-1, 0):
                raise BlowupValueError(f"exceptional vertex for edge {eid!r} carries {value}")
        grouped[tuple([eid for eid, value in zip(ids, values) if value == -1])] = rows

    # the walk only counts the trees that avoid each stratum: no point to lower
    root = [(0, [None if t >> k & 1 else 0 for k in range(m)]) for t in trees]
    strata, counts = _walk(ids, m, root, lambda layer: list(map(len, layer)))
    empty = []
    rows = [grouped.get(stratum, empty) for stratum in strata]
    return sub, layout, strata, rows, counts, len(found), expected


def blowup_decomposition(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
) -> BlowupDecomposition:
    """Quasistable multidegrees of the full subdivision, bucketed by their
    -1 pattern on the exceptional vertices.

    Every exceptional vertex must carry -1 or 0 (anything else raises
    BlowupValueError), the bucket of a given -1 pattern S matches the
    stratum count of S, and the grand total is the spanning-tree count of
    the subdivision.  Before it is built the call is refused when the 2**m
    buckets or the tau(G) * 2**(m - n + 1) multidegrees pass ``_kernel.LIMIT``.
    """
    sub, layout, strata, rows, counts, total, expected_total = blowup_rows(g, basepoint, q)
    points = iter(layout.unpack([d for packed in rows for d in packed]))
    return BlowupDecomposition(
        graph=g,
        subdivided_graph=sub,
        basepoint=basepoint,
        exceptional_vertices=tuple(zip(g.edge_ids(), sub.vertices[g.num_vertices :])),
        total=total,
        expected_total=expected_total,
        buckets=tuple(
            BlowupBucket(
                stratum=stratum,
                count=len(packed),
                expected_count=count,
                multidegrees=tuple(Cochain._of(sub, t) for t in islice(points, len(packed))),
            )
            for stratum, packed, count in zip(strata, rows, counts)
        ),
    )
