"""Stratification bookkeeping: per-stratum multidegree sets, pushforward
degrees and the subdivision decomposition.

A stratum is an edge subset T, and its multidegrees are those of
``StratumContext(g, q, basepoint, T)``: the budget is ``total(q) - |T|``
and a stratum loop at v counts once inside every subset holding v.  Their
count is the spanning-tree number of the graph minus T.

The strata walk enumerates only the empty stratum.  Each larger stratum
comes from its parent T - e by specialisation: a multidegree that is not
free at the node e = (u, v) has one generalisation per branch, and the
stability inequalities give

    Q_T = (Q_{T-e} - delta_u) & (Q_{T-e} - delta_v)

for every kind; a loop (u = v) is the single shift by delta_u.  Beside each
set the walk carries the spanning trees of G that avoid T, filtered from
the parent row's (the trees of G - (T - e) that do not hold e), so the
expected count comes from the graph alone.  Only the previous layer is
kept.  Subdividing every edge at once packs all strata into a single
quasistable enumeration whose exceptional vertices carry only -1 or 0;
bucketing by the -1 positions recovers the strata independently of the
walk.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ._kernel import SUBSET_SCAN_LIMIT
from .errors import BlowupValueError, GraphMismatchError, GuardLimitError
from .graph import Multigraph, Vertex
from .lattice import Cochain, _spanning_tree
from .polarization import Polarization
from .quasistable import StratumContext

EDGE_GUARD_DEFAULT = 16


def _edge_pairs(g, basepoint, q, guard_edges: int, action: str) -> tuple:
    """Endpoint index pairs of g, after the checks both whole-graph sweeps
    make: the polarization's graph, the basepoint and the edge guard."""
    if q.graph != g:
        raise GraphMismatchError("polarization bound to a different graph")
    g._check_vertex(basepoint)
    if g.num_edges > guard_edges:
        raise GuardLimitError(
            f"{action} the guard of {guard_edges} "
            "(JACGRAPH_GUARD_EDGES overrides it on the command line)"
        )
    return g._pairs


def _specialise(parent: list[tuple], members: set, u: int, v: int) -> list[tuple]:
    """The value tuples of stratum T from the sorted ones of T - e, where e
    joins the vertex indices u and v and ``members`` is the parent as a
    set: the d with d + delta_u and d + delta_v both in the parent.
    Translation keeps the order, so the result is sorted too."""
    out = []
    for t in parent:
        d = t[:u] + (t[u] - 1,) + t[u + 1 :]
        if u == v or d[:v] + (d[v] + 1,) + d[v + 1 :] in members:
            out.append(d)
    return out


def _spanning_trees(n: int, pairs: list[tuple]) -> list[int]:
    """The spanning trees of the multigraph on the vertices 0..n-1 (n > 0)
    with the given endpoint index pairs, as bitmasks over the pair indices;
    loops never enter, and a disconnected graph has none.  The breadth-first
    order below is that of ``_spanning_tree``.

    One frontier pass: the non-loop edges are taken in breadth-first order
    and the partial forests are grouped by the partition they make of the
    frontier, the vertices met that still have edges to come, which is all
    the later edges see.  Taking an edge merges two blocks, leaving it out
    keeps the partition; a block that loses its last frontier vertex can
    never be joined again, so its forests go unless it is the only block.
    """
    tree = _spanning_tree(n, pairs)
    if tree is None:
        return []
    pos = [0] * n
    for rank, v in enumerate(tree[3]):
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
        states = nxt
    return states[()]


def _avoiding(trees: list[int], e: int) -> list[int]:
    """The trees that do not hold edge index e."""
    bit = 1 << e
    return [t for t in trees if not t & bit]


def _walk(m: int, depth: int, root, children):
    """(T, value) for the subsets T of at most ``depth`` of the edge indices
    0..m-1, by size and then lexicographically.  ``children(value, edges)``
    gives the values of T + (e,) for the e in ``edges``, the indices past
    the last of T, from the value of T; only the previous layer is kept."""
    layer = {(): root}
    for size in range(depth + 1):
        yield from layer.items()
        if size < depth:
            nxt = {}
            for combo, value in layer.items():
                edges = range(combo[-1] + 1 if combo else 0, m)
                if edges:
                    nxt.update(zip([combo + (e,) for e in edges], children(value, edges)))
            layer = nxt


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
    guard_edges: int = EDGE_GUARD_DEFAULT,
) -> tuple[list[tuple], bool, int, int]:
    """The rows of ``strata_report`` as plain data, with its ``complete``,
    ``total_multidegrees`` and ``subdivided_complexity``.  A row is
    ``(stratum, value tuples, expected count)``, the stratum a tuple of
    edge ids."""
    if max_codim is not None and max_codim < 0:
        raise ValueError(f"max_codim must be nonnegative, got {max_codim}")
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q, guard_edges, f"strata over {m} edges exceed")
    ids = g.edge_ids()
    depth = m if max_codim is None else min(max_codim, m)
    n = g.num_vertices

    trees = _spanning_trees(n, pairs)

    def children(parent, edges):
        tuples, left = parent
        members = set(tuples)
        return [(_specialise(tuples, members, *pairs[e]), _avoiding(left, e)) for e in edges]

    root = (StratumContext(g, q, basepoint)._value_tuples("quasistable"), trees)
    rows = [
        (tuple(map(ids.__getitem__, combo)), tuples, len(left))
        for combo, (tuples, left) in _walk(m, depth, root, children)
    ]
    total = sum(len(tuples) for _, tuples, _ in rows)
    # a spanning tree of the subdivision takes both halves of each edge of a
    # spanning tree of g and one of the two halves of every other edge
    return rows, depth == m, total, len(trees) << (m - n + 1) if trees else 0


def strata_report(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    max_codim: int | None = None,
    guard_edges: int = EDGE_GUARD_DEFAULT,
) -> StrataReport:
    """One row per edge subset up to the requested codimension.

    Rows are ordered by size and then lexicographically in edge order; a
    stratum lies in the closure of each of its subsets.  Only the empty
    stratum is enumerated, every other row is specialised from its parent
    (the row without its last edge).  ``expected_count`` is the number of
    the spanning trees of G that avoid the stratum, filtered from the parent
    row's, so it is computed apart from the sets.
    """
    rows, complete, total, subdivided = strata_rows(g, basepoint, q, max_codim, guard_edges)
    return StrataReport(
        graph=g,
        basepoint=basepoint,
        rows=tuple(
            StratumRow(
                stratum=stratum,
                codimension=len(stratum),
                connected=count > 0,
                expected_count=count,
                multidegrees=tuple(Cochain._of(g, t) for t in tuples),
            )
            for stratum, tuples, count in rows
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
    guard_edges: int = EDGE_GUARD_DEFAULT,
) -> tuple[Multigraph, list[tuple], int, int]:
    """The buckets of ``blowup_decomposition`` as plain data: the
    subdivision, the rows ``(stratum, value tuples, expected count)`` with
    the value tuples on the subdivision, ``total`` and ``expected_total``."""
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q, guard_edges, f"subdividing {m} edges exceeds")
    ids = g.edge_ids()
    n = g.num_vertices
    if n + m > SUBSET_SCAN_LIMIT:
        raise GuardLimitError(
            f"subdividing {m} edges of a {n}-vertex graph gives {n + m} vertices, "
            f"over the subset-scan limit of {SUBSET_SCAN_LIMIT}"
        )
    q_sub = q.blown_up(ids)
    sub = q_sub.graph  # the middle vertex of edge k is vertex n + k
    found = StratumContext(sub, q_sub, basepoint)._value_tuples("quasistable")
    grouped: dict[tuple, list[tuple]] = {}
    for t in found:
        for eid, value in zip(ids, t[n:]):
            if value not in (-1, 0):
                raise BlowupValueError(f"exceptional vertex for edge {eid!r} carries {value}")
        neg = tuple(k for k, value in enumerate(t[n:]) if value == -1)
        grouped.setdefault(neg, []).append(t)

    trees = _spanning_trees(n, pairs)
    walk = _walk(m, m, trees, lambda left, edges: [_avoiding(left, e) for e in edges])
    rows = [
        (tuple(map(ids.__getitem__, combo)), grouped.get(combo, []), len(left))
        for combo, left in walk
    ]
    return sub, rows, len(found), len(trees) << (m - n + 1) if trees else 0  # as in strata_rows


def blowup_decomposition(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    guard_edges: int = EDGE_GUARD_DEFAULT,
) -> BlowupDecomposition:
    """Quasistable multidegrees of the full subdivision, bucketed by their
    -1 pattern on the exceptional vertices.

    Every exceptional vertex must carry -1 or 0 (anything else raises
    BlowupValueError), the bucket of a given -1 pattern S matches the
    stratum count of S, and the grand total is the spanning-tree count of
    the subdivision.  The subdivision has n + m vertices, so it is refused
    past the subset-scan limit before it is built.
    """
    sub, rows, total, expected_total = blowup_rows(g, basepoint, q, guard_edges)
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
                count=len(tuples),
                expected_count=count,
                multidegrees=tuple(Cochain._of(sub, t) for t in tuples),
            )
            for stratum, tuples, count in rows
        ),
    )
