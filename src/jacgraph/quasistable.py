"""Semistable, quasistable and stable multidegrees on a polarized graph.

A *stratum context* fixes a multigraph, a polarization q, a basepoint
vertex and an edge subset S (the stratum).  Multidegrees live on the
total-degree budget ``total(q) - |S|``.  For a vertex subset W write

    deficit(d, W) =  q_W - val(W)/2 - d_W - |S-edges inside W|
    excess(d, W)  =  d_W + |S-edges inside W| - q_W - val(W)/2 + val_S(W)

with val the crossing valence in the full graph.  A multidegree is

- semistable  when no subset has positive deficit,
- quasistable when additionally every proper subset through the
  basepoint has strictly negative deficit,
- stable      when every proper nonempty subset does.

``excess(d, W) == deficit(d, complement(W))``, so one maximisation serves
both.  The S-edges count modularly against W (half a unit per endpoint
inside), so the deficit is ``q_S(W) - d_W`` minus half the crossing
valence of W in G - S, with ``q_S = q.normalized(S)``: a stratum context
has the stability data of the plain context on the partial normalization
(G - S, q_S).  The maximal deficit is one s-t minimum cut (Picard &
Ratliff, Networks 5, 1975), and the subsets maximizing either functional
are closed under intersection and union.

The reduction jumps next to the stratum's rational centre by one exact
solve of the reduced Laplacian system, which leaves every deficit at most
half a cut, then walks d by unit Laplacian steps of the least maximizers
to the distinguished quasistable representative of its class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import _kernel
from .errors import (
    DegreeBudgetError,
    DisconnectedGraphError,
    GraphMismatchError,
    ReductionGuardError,
)
from .graph import Multigraph, Vertex, _bfs_forest, _bridge_mask, _piece_masks
from .lattice import Cochain, _reduced_laplacian, _solve
from .polarization import Polarization

KINDS = ("semistable", "quasistable", "stable")

_MODE = {
    "semistable": _kernel.MODE_SEMISTABLE,
    "quasistable": _kernel.MODE_QUASISTABLE,
    "stable": _kernel.MODE_STABLE,
}


class DefectReport(NamedTuple):
    """Worst-case defect data of a multidegree.

    ``max_excess == max_deficit`` always (complement symmetry).  The core
    sets are the intersections of all maximizing subsets; both are
    themselves maximizers.  ``basepoint_deficit_core`` intersects the
    zero-deficit subsets through the basepoint and is None unless the
    multidegree is semistable.
    """

    max_excess: Fraction
    max_deficit: Fraction
    excess_core: frozenset
    deficit_core: frozenset
    basepoint_deficit_core: frozenset | None


class ReduceReport(NamedTuple):
    """The reduced multidegree, the number of unit steps after the jump,
    and the integral potential z with ``output - input`` the Laplacian of
    z on the stratum-deleted graph (None when not recorded)."""

    output: "Cochain"
    steps: int
    potential: "Cochain | None" = None


class StratumContext:
    """Ambient data for multidegree stability questions.

    The context keeps the integer data of the partial normalization
    (G - S, q_S): the non-loop edges ``_kept`` of G - S as endpoint index
    pairs, ``_base == scale * q_S`` with
    ``scale`` even and clearing the denominators, the basepoint index
    ``_v0`` and the degree budget.

    Scaled by ``scale``, the deficit of a multidegree d on a vertex set W
    is ``sum(w_v for v in W) - scale/2 * val_{G-S}(W)`` with
    ``w_v = base_v - scale*d_v``.  In the network with a source s and a
    sink t, an arc ``s -> v`` of capacity ``w_v`` when it is positive,
    ``v -> t`` of capacity ``-w_v`` when it is negative, and ``scale/2``
    both ways per kept edge, the cut with source side ``{s} | W`` costs the
    sum of the positive ``w_v`` minus ``deficit(W)``.  So a maximum flow
    gives the maximal deficit, and its residual graph the least and
    greatest maximizers.
    """

    def __init__(
        self,
        graph: Multigraph,
        q: Polarization,
        basepoint: Vertex,
        stratum: Iterable = (),
    ):
        if q.graph != graph:
            raise GraphMismatchError("polarization bound to a different graph")
        graph._check_vertex(basepoint)
        self.graph = graph
        self.q = q
        self.basepoint = basepoint
        self.stratum = graph.edge_subset(stratum)

        # the partial normalization (G - S, q_S): an S-edge takes half a
        # unit from each end, an S-loop a whole unit from its vertex, so
        # the scaled values sum to scale * (total(q) - |S|)
        self.scale, base = q._scaled()
        base, half, kept = list(base), self.scale // 2, []
        for e, (a, b) in zip(graph.edges, graph._pairs):
            if e.id not in self.stratum:
                if a != b:
                    kept.append((a, b))
            else:
                base[a] -= half
                base[b] -= half
        self._kept, self._base, self._v0 = kept, base, graph._vpos[basepoint]
        self.budget = sum(base) // self.scale
        self._net = None
        self._deleted = None

    # -- plumbing --------------------------------------------------------

    @property
    def deleted_graph(self) -> Multigraph:
        """The graph with the stratum edges removed (same vertices): the
        graph itself for the empty stratum, as a Multigraph never changes."""
        if self._deleted is None:
            self._deleted = self.graph.delete_edges(self.stratum) if self.stratum else self.graph
        return self._deleted

    def _check_cochain(self, d: Cochain):
        if d.graph != self.graph:
            raise GraphMismatchError("multidegree bound to a different graph")

    def _require_budget(self, d: Cochain):
        if d.total != self.budget:
            raise DegreeBudgetError(
                f"total degree {d.total} does not meet the budget {self.budget}"
            )

    # -- pointwise defect functionals ------------------------------------

    def deficit(self, d: Cochain, W: Iterable[Vertex]) -> Fraction:
        """How far d falls below its floor on W; exact rational."""
        self._check_cochain(d)
        self._require_budget(d)
        g = self.graph
        W = g.vertex_subset(W)
        if not W:
            return Fraction(0)
        return (
            self.q.sum_over(W)
            - Fraction(g.valence(W), 2)
            - d.sum_over(W)
            - g.induced_edge_count(self.stratum, W)
        )

    def excess(self, d: Cochain, W: Iterable[Vertex]) -> Fraction:
        """How far d rises above its ceiling on W; equals the deficit of
        the complement."""
        self._check_cochain(d)
        self._require_budget(d)
        return self.deficit(d, self.graph.complement(W))

    def defects(self, d: Cochain) -> DefectReport:
        self._check_cochain(d)
        self._require_budget(d)
        g = self.graph
        full = (1 << g.num_vertices) - 1
        best, least, greatest, bp = self._defect_cut(d.values)
        worst = Fraction(best, self.scale)
        return DefectReport(
            max_excess=worst,
            max_deficit=worst,
            excess_core=g._vertex_set(full ^ greatest),
            deficit_core=g._vertex_set(least),
            basepoint_deficit_core=g._vertex_set(bp) if bp is not None else None,
        )

    # -- stability predicates --------------------------------------------

    def is_semistable(self, d: Cochain) -> bool:
        self._check_cochain(d)
        if d.total != self.budget:
            return False
        return self._defect_cut(d.values)[0] == 0

    def is_quasistable(self, d: Cochain) -> bool:
        self._check_cochain(d)
        if d.total != self.budget:
            return False
        return self._defect_cut(d.values)[3] == (1 << self.graph.num_vertices) - 1

    def is_stable(self, d: Cochain) -> bool:
        """No positive deficit, and no nonempty proper subset of deficit 0.
        On the budget the excesses sum to 0, so with none positive after the
        flow all are 0; the zero-deficit sets are then the residual-closed
        ones, and none is proper exactly when the residual graph is strongly
        connected: the basepoint reaches every vertex and every vertex
        reaches it."""
        self._check_cochain(d)
        if d.total != self.budget:
            return False
        excess, res = self._max_flow(d.values)
        full, v0 = (1 << len(excess)) - 1, [self._v0]
        return not any(excess) and self._reach(res, v0) == full == self._reach(res, v0, False)

    # -- minimum cut -----------------------------------------------------

    def _network(self):
        """``(cap, nbrs)``: the capacity matrix between vertices and each
        vertex's neighbours in G - S."""
        if self._net is None:
            n, half = len(self._base), self.scale // 2
            cap = [[0] * n for _ in range(n)]
            for a, b in self._kept:
                cap[a][b] += half
                cap[b][a] += half
            nbrs = [[j for j in range(n) if cap[i][j]] for i in range(n)]
            self._net = cap, nbrs
        return self._net

    def _max_flow(self, vals):
        """A maximum flow in the network of the multidegree ``vals`` by
        shortest augmenting paths (Edmonds-Karp), with s and t left
        implicit: returns ``(excess, res)``, where ``excess[v]`` is the
        unused capacity of ``s -> v`` when positive and minus that of
        ``v -> t`` when negative, and ``res`` holds the residual capacities
        between vertices.  The maximal scaled deficit is the sum of the
        positive excesses."""
        cap, nbrs = self._network()
        excess = [x - self.scale * d for x, d in zip(self._base, vals)]
        res = [row[:] for row in cap]
        sources = [v for v, e in enumerate(excess) if e > 0]
        while sources:
            # breadth first from s: every vertex with unused source capacity
            parent = [-1] * len(excess)
            for v in sources:
                parent[v] = v
            queue, sink = list(sources), -1
            for u in queue:
                row = res[u]
                for x in nbrs[u]:
                    if parent[x] < 0 and row[x] > 0:
                        parent[x] = u
                        if excess[x] < 0:
                            sink = x
                            break
                        queue.append(x)
                if sink >= 0:
                    break
            if sink < 0:
                break
            push, root = -excess[sink], sink
            while parent[root] != root:
                push = min(push, res[parent[root]][root])
                root = parent[root]
            push = min(push, excess[root])
            excess[root] -= push
            excess[sink] += push
            x = sink
            while x != root:
                u = parent[x]
                res[u][x] -= push
                res[x][u] += push
                x = u
            if not excess[root]:
                sources.remove(root)
        return excess, res

    def _reach(self, res, starts, forward: bool = True) -> int:
        """Bitmask of the vertices that the vertices ``starts`` reach in the
        residual graph, or that reach them when ``forward`` is false."""
        nbrs = self._network()[1]
        seen = 0
        queue = list(starts)
        for v in queue:
            seen |= 1 << v
        for u in queue:
            for x in nbrs[u]:
                if not seen >> x & 1 and (res[u][x] if forward else res[x][u]) > 0:
                    seen |= 1 << x
                    queue.append(x)
        return seen

    def _defect_cut(self, vals):
        """``(best, least, greatest, bp)`` for a multidegree ``vals`` on the
        budget: the maximal scaled deficit, the least and greatest vertex
        bitmasks attaining it, and, when ``best == 0``, the least
        zero-deficit bitmask through the basepoint (else None).

        The least maximizer is what s reaches in the residual graph, the
        greatest is everything that does not reach t.  On the budget the
        whole vertex set has deficit 0, so when ``best == 0`` forcing a
        vertex to the source side by an unbounded arc from s leaves the
        maximum flow as it is: nothing augments, and the least
        zero-deficit set through that vertex is what it reaches."""
        excess, res = self._max_flow(vals)
        best = sum(e for e in excess if e > 0)
        least = self._reach(res, [v for v, e in enumerate(excess) if e > 0])
        to_t = self._reach(res, [v for v, e in enumerate(excess) if e < 0], forward=False)
        bp = self._reach(res, [self._v0]) if best == 0 else None
        return best, least, ((1 << len(vals)) - 1) ^ to_t, bp

    # -- reduction -------------------------------------------------------

    def _centre_jump(self, vals) -> list[int]:
        """A rounding z of the solution y, 0 at the basepoint, of
        ``L y = c - d`` for the multidegree d of ``vals``, with L the
        Laplacian of the stratum-deleted graph, which must be connected,
        and c the stratum's rational centre q_S (``scale * c`` is
        ``_base``).  With ``w = z - y``, ``|w| <= 1/2``, the deficit
        of ``d + L z`` on W sums ``w_a - w_b - 1/2 <= 1/2`` over the edges
        of that graph from a in W to b outside: every deficit is at most
        half a cut."""
        n, v0, scale = len(vals), self._v0, self.scale
        rhs = [b - scale * x for x, b in zip(vals, self._base)]
        top, x = _solve(_reduced_laplacian(n, self._kept, v0, rhs))
        # y = x / (top * scale) rounded half up; // floors for either sign
        z = [(2 * xv + top * scale) // (2 * top * scale) for xv in x]
        z.insert(v0, 0)
        return z

    def _apply_delta(self, vals, z):
        """vals += Laplacian(z), in place, for the Laplacian of the
        stratum-deleted graph: each kept edge (a, b) moves ``z[a] - z[b]``
        from a to b."""
        for a, b in self._kept:
            move = z[a] - z[b]
            vals[a] -= move
            vals[b] += move

    def _reduce(self, d: Cochain, to_quasistable: bool):
        self._check_cochain(d)
        self._require_budget(d)
        n = self.graph.num_vertices
        full = (1 << n) - 1
        if len(_bfs_forest(n, self._kept, (self._v0,))[3]) < n:
            raise DisconnectedGraphError(
                "reduction needs the stratum-deleted graph to be connected"
            )
        vals = list(d.values)
        best, _, greatest, bp = self._defect_cut(vals)
        z = self._centre_jump(vals) if best > 0 else [0] * n
        if best > 0:
            self._apply_delta(vals, z)
            best, _, greatest, bp = self._defect_cut(vals)
        # Unit steps: a chip out along each edge leaving the least excess
        # maximizer X while a deficit is positive, then a chip in along each
        # edge entering the least zero-deficit set B through the basepoint.
        # The excess is supermodular, so after a step none exceeds ``best``,
        # and if ``best`` stays level the new X strictly contains the old
        # (whose excess fell by its cut); likewise B strictly grows.  So
        # ``best`` falls at least every n - 1 steps, B reaches every vertex
        # within n - 1, and n * (best + 2) steps is past any correct walk.
        limit = n * (best + 2)
        steps = 0
        while best > 0 or (to_quasistable and bp != full):
            if steps == limit:
                raise ReductionGuardError(f"reduction exceeded its step bound {limit}")
            mask, sign = (full ^ greatest, 1) if best > 0 else (bp, -1)
            step = [sign * (mask >> v & 1) for v in range(n)]
            self._apply_delta(vals, step)
            z = [x + y for x, y in zip(z, step)]
            steps += 1
            best, _, greatest, bp = self._defect_cut(vals)
            if sign < 0 and best != 0:
                raise ReductionGuardError(
                    "internal error: semistability lost during basepoint descent"
                )
        return Cochain._of(self.graph, tuple(vals)), steps, Cochain._of(self.graph, tuple(z))

    def reduce_to_semistable(self, d: Cochain) -> Cochain:
        """A semistable multidegree in the class of d (same total degree,
        difference a Laplacian image of the stratum-deleted graph)."""
        return self._reduce(d, to_quasistable=False)[0]

    def reduce_to_quasistable(self, d: Cochain) -> Cochain:
        """The unique quasistable multidegree in the class of d."""
        return self._reduce(d, to_quasistable=True)[0]

    def reduce_report(self, d: Cochain) -> ReduceReport:
        out, steps, z = self._reduce(d, to_quasistable=True)
        return ReduceReport(output=out, steps=steps, potential=z)

    # -- enumeration -----------------------------------------------------

    def singleton_box(self) -> tuple[list[int], list[int]]:
        """Componentwise bounds satisfied by every semistable multidegree,
        from the one-vertex subsets and their complements:
        ``ceil((base_v - scale/2 * val(v)) / scale)`` up to
        ``floor((base_v + scale/2 * val(v)) / scale)``, valences in G - S."""
        val = [0] * len(self._base)
        for a, b in self._kept:
            val[a] += 1
            val[b] += 1
        half, scale = self.scale // 2, self.scale
        lo = [-((half * k - x) // scale) for x, k in zip(self._base, val)]
        hi = [(x + half * k) // scale for x, k in zip(self._base, val)]
        return lo, hi

    def _rhs_bound(self) -> int:
        """A bound on every subset bound either kernel forms: a subset sum
        of ``_base`` less (lower) or plus (upper) ``scale/2`` per crossing
        kept edge, moved by at most 1 for strictness."""
        return 2 * sum(abs(x) for x in self._base) + self.scale // 2 * len(self._kept) + 1

    def enumerate(self, kind: str = "quasistable") -> list[Cochain]:
        """All multidegrees of the requested kind, sorted by their value
        tuples in vertex order."""
        g = self.graph
        layout, rows = self._packed(kind)
        return [Cochain._of(g, t) for t in layout.unpack(rows)]

    def _packed(self, kind: str) -> tuple[_kernel.Layout, list[int]]:
        """The multidegrees of ``enumerate(kind)`` as ``(layout, rows)``:
        each row one int in ``layout``, the ``_kernel.Layout`` of the
        singleton box, which the kernel reads its box from and packs in;
        sorted, which sorts their value tuples.

        The box search takes the breadth-first layers from vertex n - 1,
        farthest first and each by index, after those of the other
        components, each taken likewise from its highest vertex: the forest
        that ``graph._bfs_forest`` grows from the roots n - 1, ..., 0,
        sorted by tree (the one met last first), depth (descending) and
        index.  The last vertex, whose value the total fixes, is then n - 1,
        the least significant sort key: along the innermost level only it
        and a lower vertex change, the lower one rising, so the rows, which
        the kernel packs in vertex order, come in sorted runs for the one
        sort of ints.  In each component, a piece that a connected W cuts off from
        the highest vertex lies in farther layers than W's top vertex, so
        the kernel decides the bounds that imply W's at W's own level (see
        ``_kernel_py.box_enumerate``).  Refused past ``_kernel.LIMIT`` rows."""
        if kind not in _MODE:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        lo, hi = self.singleton_box()
        layout = _kernel.Layout.of(lo, hi)
        if any(a > b for a, b in zip(lo, hi)):
            return layout, []
        n = len(self._base)
        parent, _, depth, queue = _bfs_forest(n, self._kept, range(n - 1, -1, -1))
        tree, met = 0, [0] * n  # minus the count of trees grown up to v's
        for v in queue:
            tree -= parent[v] == v
            met[v] = tree
        order = sorted(range(n), key=lambda v: (met[v], -depth[v], v))
        bound = (
            self._rhs_bound()
            + self.scale * (sum(max(abs(a), abs(b)) for a, b in zip(lo, hi)) + 1)
        )
        impl = _kernel.select(bound if n <= _kernel.MAX_VERTICES else _kernel.FAST_BOUND)
        inv = sorted(range(n), key=order.__getitem__)
        raw = impl.box_enumerate(
            n,
            [(inv[a], inv[b]) for a, b in self._kept],
            [self._base[old] for old in order],
            self.scale,
            inv[self._v0],
            _MODE[kind],
            order,
            layout,
            _kernel.LIMIT,
        )
        _kernel.check_limit(len(raw), f"{kind} rows found so far")
        raw.sort()
        return layout, raw


def semistable_equality_witness(g: Multigraph, q: Polarization):
    """For a non-general polarization, a connected proper subset with
    connected complement together with a semistable multidegree sitting
    exactly on the subset's floor.

    Returns ``(subset, multidegree)`` or None when q is general.  When q
    is degenerate (not non-degenerate) the subset is moreover not a spine.
    The multidegree is one tile point of G (``strata._tile_point``).  Its
    tree is the first edge f = (a, b) crossing from the complement into the
    subset Z, moved to the last index, plus breadth-first trees of the two
    sides grown from a and b over the edges that do not cross; it is
    rooted at a.  So f tops the fundamental cycle of every other crossing
    edge, each of which takes half a unit from Z, and the point has
    ``d_Z = ceil(q_Z - val(Z)/2)``, which is Z's floor as Z is integral
    (rooted at b the same tree gives the floor plus one).
    """
    from .strata import _tile_point

    if q.graph != g:
        raise GraphMismatchError("polarization bound to a different graph")
    if not g.is_connected():
        raise DisconnectedGraphError("witness search needs a connected graph")
    hit = q.integral_witness()
    if hit is None:
        return None
    # Y is already connected: a piece of an integral subset is integral,
    # has a smaller mask, and is not a spine when the subset is not.  An
    # edge that crosses a piece of its complement crosses Y, so a non-bridge
    # edge crosses one of them exactly when Y is not a spine
    n = g.num_vertices
    br = _bridge_mask(n, g._pairs)
    kept = [p for k, p in enumerate(g._pairs) if not br >> k & 1]
    m = g._mask(hit[0])
    keep = sum(1 << k for k, (a, b) in enumerate(g._pairs) if not (m >> a ^ m >> b) & 1)
    pieces = [c for c in dict.fromkeys(_piece_masks(n, g._pairs, keep)) if not c & m]
    z = next((c for c in pieces if any((c >> a ^ c >> b) & 1 for a, b in kept)), pieces[0])
    Z = g._vertex_set(z)
    f = next(k for k, (x, y) in enumerate(g._pairs) if (z >> x ^ z >> y) & 1)
    a, b = g._pairs[f] if z >> g._pairs[f][1] & 1 else g._pairs[f][::-1]
    pairs = [*g._pairs[:f], *g._pairs[f + 1 :], (a, b)]
    within = sum(1 << k for k, (x, y) in enumerate(pairs) if not (z >> x ^ z >> y) & 1)
    up = _bfs_forest(g.num_vertices, pairs, (a, b), within)[1]
    tree = sum(1 << k for k in up if k >= 0) | 1 << (len(pairs) - 1)
    point, _ = _tile_point(StratumContext(g, q, g.vertices[a]), pairs, tree)
    return Z, Cochain._of(g, point)
