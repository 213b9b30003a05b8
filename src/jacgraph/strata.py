"""Stratification bookkeeping: per-stratum multidegree sets, the closure
poset over edge subsets, pushforward degrees and the subdivision
decomposition.

A stratum is an edge subset S.  Its multidegree set is computed on the
loop-free core of the graph with the non-loop part of S as the deleted
edges; the count always matches the spanning-tree number of the graph
minus S.  Subdividing every edge at once packs all strata into a single
quasistable enumeration whose exceptional vertices carry only -1 or 0;
bucketing by the -1 positions recovers the strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import _kernel
from .errors import BlowupValueError, GraphMismatchError, GuardLimitError
from .graph import Multigraph, Vertex, _adjacency_masks, _mask_pieces
from .lattice import Cochain, _tree_count, complexity
from .polarization import Polarization
from .quasistable import StratumContext, _bfs_order, _ScaledStratum

EDGE_GUARD_DEFAULT = 16


def _stratum_sweep(g: Multigraph, basepoint: Vertex, q: Polarization):
    """``f(chosen)``: the sorted quasistable value tuples of the stratum of
    edge indices ``chosen``, from integer data computed once per graph.
    Loops never matter: the scan runs on the graph without loops, with
    the non-loop part of the stratum deleted, on the total-degree budget
    ``total(q) - |non-loop part|``."""
    g._check_vertex(basepoint)
    _kernel.scan_guard(g.num_vertices, "stability")
    pos = g._vpos
    core = [i for i, e in enumerate(g.edges) if not e.is_loop]
    pairs = [(pos[g.edges[i].u], pos[g.edges[i].v]) for i in core]
    scale, scaled_q = q._scaled()
    v0, total, zeros = pos[basepoint], q.total, [0] * g.num_vertices
    order = _bfs_order(g.num_vertices, pairs, v0)

    def multidegrees(chosen) -> list[tuple]:
        s_flags = [i in chosen for i in core]
        ints = _ScaledStratum(pairs, s_flags, zeros, scaled_q, scale, v0, total - sum(s_flags))
        return ints.enumerate(_kernel.MODE_QUASISTABLE, order)

    return multidegrees


def _edge_pairs(g, basepoint, q, guard_edges: int, action: str) -> list[tuple]:
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
    return [(g._vpos[e.u], g._vpos[e.v]) for e in g.edges]


def stratum_multidegrees(
    g: Multigraph,
    stratum: Iterable,
    basepoint: Vertex,
    q: Polarization,
) -> list[Cochain]:
    """Quasistable multidegrees of one stratum, in enumeration coordinates,
    bound to g (see ``_stratum_sweep`` for the loop-free scan)."""
    if q.graph != g:
        raise GraphMismatchError("polarization bound to a different graph")
    S = g.edge_subset(stratum)
    sweep = _stratum_sweep(g, basepoint, q)
    return [Cochain(g, t) for t in sweep({i for i, e in enumerate(g.edges) if e.id in S})]


@dataclass(frozen=True)
class StratumRow:
    stratum: tuple
    codimension: int
    connected: bool
    expected_count: int
    multidegrees: tuple[Cochain, ...]
    normalization_multidegrees: tuple[tuple, ...]
    closure_children: tuple[tuple, ...]


@dataclass(frozen=True)
class StrataReport:
    graph: Multigraph
    basepoint: Vertex
    rows: tuple[StratumRow, ...]
    complete: bool
    total_multidegrees: int
    subdivided_complexity: int


def strata_report(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    max_codim: int | None = None,
    guard_edges: int = EDGE_GUARD_DEFAULT,
) -> StrataReport:
    """One row per edge subset up to the requested codimension.

    Rows are ordered by size and then lexicographically in edge order.
    ``closure_children`` lists the one-edge-larger subsets present in the
    report: the immediate covers of the stratum in the closure order
    (larger stratum = deeper in the closure).
    """
    if max_codim is not None and max_codim < 0:
        raise ValueError(f"max_codim must be nonnegative, got {max_codim}")
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q, guard_edges, f"strata over {m} edges exceed")
    ids = g.edge_ids()
    depth = m if max_codim is None else min(max_codim, m)
    sweep = _stratum_sweep(g, basepoint, q)
    n, full = g.num_vertices, (1 << g.num_vertices) - 1

    rows = []
    for size in range(depth + 1):
        for combo in combinations(range(m), size):
            kept = [p for i, p in enumerate(pairs) if i not in combo]
            tuples = sweep(combo)
            s_loops = [sum(pairs[i] == (v, v) for i in combo) for v in range(n)]
            grow = range(m) if size < depth else ()
            covers = [sorted(combo + (j,)) for j in grow if j not in combo]
            rows.append(
                StratumRow(
                    stratum=tuple(ids[i] for i in combo),
                    codimension=size,
                    connected=next(_mask_pieces(full, _adjacency_masks(n, kept))) == full,
                    expected_count=_tree_count(n, kept),
                    multidegrees=tuple(Cochain(g, t) for t in tuples),
                    normalization_multidegrees=tuple(
                        tuple(x - k for x, k in zip(t, s_loops)) for t in tuples
                    ),
                    closure_children=tuple(tuple(ids[i] for i in c) for c in covers),
                )
            )

    # the subdivision puts vertex n + k in the middle of edge k
    halves = [p for k, (a, b) in enumerate(pairs) for p in ((a, n + k), (n + k, b))]
    return StrataReport(
        graph=g,
        basepoint=basepoint,
        rows=tuple(rows),
        complete=depth == m,
        total_multidegrees=sum(len(r.multidegrees) for r in rows),
        subdivided_complexity=_tree_count(n + m, halves),
    )


@dataclass(frozen=True)
class PushforwardDegrees:
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
    loops = [
        sum(1 for eid in S if (e := g.edge(eid)).is_loop and e.u == v)
        for v in g.vertices
    ]
    vertex_degrees = Cochain(
        g, tuple(d.values[i] + loops[i] for i in range(g.num_vertices))
    )
    return PushforwardDegrees(
        graph=g,
        stratum=S,
        vertex_degrees=vertex_degrees,
        total=d.total + len(S),
    )


@dataclass(frozen=True)
class BlowupBucket:
    stratum: tuple
    count: int
    expected_count: int
    multidegrees: tuple[Cochain, ...]


@dataclass(frozen=True)
class BlowupDecomposition:
    graph: Multigraph
    subdivided_graph: Multigraph
    basepoint: Vertex
    exceptional_vertices: tuple[tuple, ...]
    total: int
    expected_total: int
    buckets: tuple[BlowupBucket, ...]


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
    the subdivision.
    """
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q, guard_edges, f"subdividing {m} edges exceeds")
    ids = g.edge_ids()
    n = g.num_vertices
    q_sub = q.blown_up(ids)
    sub = q_sub.graph  # the middle vertex of edge k is vertex n + k
    found = StratumContext(sub, q_sub, basepoint).enumerate("quasistable")

    grouped: dict[tuple, list[Cochain]] = {}
    for d in found:
        for eid, value in zip(ids, d.values[n:]):
            if value not in (-1, 0):
                raise BlowupValueError(f"exceptional vertex for edge {eid!r} carries {value}")
        neg = tuple(k for k, value in enumerate(d.values[n:]) if value == -1)
        grouped.setdefault(neg, []).append(d)

    buckets = [
        BlowupBucket(
            stratum=tuple(ids[i] for i in combo),
            count=len(grouped.get(combo, ())),
            expected_count=_tree_count(n, [p for i, p in enumerate(pairs) if i not in combo]),
            multidegrees=tuple(grouped.get(combo, ())),
        )
        for size in range(m + 1)
        for combo in combinations(range(m), size)
    ]
    return BlowupDecomposition(
        graph=g,
        subdivided_graph=sub,
        basepoint=basepoint,
        exceptional_vertices=tuple(zip(ids, sub.vertices[n:])),
        total=len(found),
        expected_total=complexity(sub),
        buckets=tuple(buckets),
    )
