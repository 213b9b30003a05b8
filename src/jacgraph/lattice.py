"""Integer cochains, the graph Laplacian and the degree class group.

Everything here is exact integer arithmetic: the Laplacian image lattice,
its Smith normal form, and the spanning-tree count via a fraction-free
determinant.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping

from .errors import (
    DegreeMismatchError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphMismatchError,
    GraphConstructionError,
)
from .graph import Multigraph, Vertex


class Cochain:
    """An integer value per vertex (a multidegree), bound to its graph."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: Multigraph, values):
        self.graph = graph
        if isinstance(values, Mapping):
            missing = [v for v in graph.vertices if v not in values]
            if missing:
                raise GraphConstructionError(f"cochain misses values for {missing!r}")
            if len(values) != len(graph.vertices):
                extra = [v for v in values if v not in graph._vpos]
                raise GraphConstructionError(f"cochain has values for non-vertices {extra!r}")
            vals = tuple(int(values[v]) for v in graph.vertices)
        else:
            vals = tuple(int(x) for x in values)
            if len(vals) != len(graph.vertices):
                raise GraphConstructionError(
                    f"expected {len(graph.vertices)} values, got {len(vals)}"
                )
        self.values = vals

    def __getitem__(self, v: Vertex) -> int:
        return self.values[self.graph._vpos[v]]

    @property
    def total(self) -> int:
        return sum(self.values)

    def sum_over(self, W: Iterable[Vertex]) -> int:
        W = self.graph.vertex_subset(W)
        return sum(self[v] for v in W)

    def as_dict(self) -> dict:
        return dict(zip(self.graph.vertices, self.values))

    def rebind(self, graph: Multigraph) -> "Cochain":
        """The same values on another graph with an identical vertex listing."""
        if graph.vertices != self.graph.vertices:
            raise GraphMismatchError("cannot rebind: vertex listings differ")
        return Cochain(graph, self.values)

    def __add__(self, other):
        self._check_peer(other)
        return Cochain(self.graph, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check_peer(other)
        return Cochain(self.graph, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return Cochain(self.graph, tuple(-a for a in self.values))

    def _check_peer(self, other):
        if not isinstance(other, Cochain):
            raise TypeError(f"expected a Cochain, got {type(other).__name__}")
        if other.graph != self.graph:
            raise GraphMismatchError("cochains bound to different graphs")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self.values == other.values and self.graph == other.graph

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        pairs = ", ".join(f"{v!r}: {x}" for v, x in zip(self.graph.vertices, self.values))
        return f"Cochain({{{pairs}}})"


def characteristic(g: Multigraph, W: Iterable[Vertex]) -> Cochain:
    """Indicator cochain of the vertex subset W."""
    W = g.vertex_subset(W)
    return Cochain(g, tuple(1 if v in W else 0 for v in g.vertices))


def laplacian_matrix(g: Multigraph) -> list[list[int]]:
    """Matrix of d -> Laplacian(d) in the vertex basis: off-diagonal entries
    are edge multiplicities, the diagonal is minus the vertex valence.
    Loops do not appear."""
    pos = g._vpos
    return _laplacian(g.num_vertices, [(pos[e.u], pos[e.v]) for e in g.edges])


def _laplacian(n: int, pairs) -> list[list[int]]:
    """``laplacian_matrix`` of the multigraph on vertices 0..n-1 with the
    given endpoint index pairs."""
    m = [[0] * n for _ in range(n)]
    for a, b in pairs:
        if a != b:
            m[a][b] += 1
            m[b][a] += 1
            m[a][a] -= 1
            m[b][b] -= 1
    return m


def laplacian_apply(g: Multigraph, d: Cochain) -> Cochain:
    """Image of d under the Laplacian; the result always has total zero."""
    if d.graph != g:
        raise GraphMismatchError("cochain bound to a different graph")
    mat = laplacian_matrix(g)
    vals = tuple(
        sum(mat[i][j] * d.values[j] for j in range(g.num_vertices))
        for i in range(g.num_vertices)
    )
    return Cochain(g, vals)


def laplacian_pairing(g: Multigraph, V: Iterable[Vertex], W: Iterable[Vertex]) -> int:
    """Sum of the Laplacian of the indicator of V over the subset W.

    Evaluates the closed form
    -valence(V & W, complement(V | W)) + valence(W - V, V - W)
    instead of expanding the matrix.
    """
    V = g.vertex_subset(V)
    W = g.vertex_subset(W)
    both = V & W
    neither = g.complement(V | W)
    return -g.valence(both, neither) + g.valence(W - V, V - W)


# -- determinants and Smith normal form --------------------------------------


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat: list[list[int]]):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (D, U, V) with U * mat * V == D, D diagonal with nonnegative
    entries satisfying the divisibility chain d1 | d2 | ... .
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    a = [list(map(int, row)) for row in mat]
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        ai, ak = a[i], a[k]
        for j in range(nc):
            ai[j] -= q * ak[j]
        ui, uk = U[i], U[k]
        for j in range(nr):
            ui[j] -= q * uk[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k
        for i in range(nr):
            a[i][j] -= q * a[i][k]
        for i in range(nc):
            V[i][j] -= q * V[i][k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    def diagonalize(t0):
        t = t0
        while True:
            pivot = None
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            while True:
                pi, pj = pivot
                if pi != t:
                    swap_rows(t, pi)
                if pj != t:
                    swap_cols(t, pj)
                if a[t][t] < 0:
                    negate_row(t)
                p = a[t][t]
                dirty = False
                for i in range(t + 1, nr):
                    if a[i][t]:
                        row_sub(i, t, a[i][t] // p)
                        if a[i][t]:
                            dirty = True
                for j in range(t + 1, nc):
                    if a[t][j]:
                        col_sub(j, t, a[t][j] // p)
                        if a[t][j]:
                            dirty = True
                if not dirty:
                    break
                # a smaller remainder appeared somewhere in row/column t
                pivot = None
                best = None
                for i in range(t, nr):
                    for j in range(t, nc):
                        x = a[i][j]
                        if x and (best is None or abs(x) < best):
                            best = abs(x)
                            pivot = (i, j)
            t += 1

    diagonalize(0)

    # enforce the divisibility chain d1 | d2 | ...
    rank = min(nr, nc)
    while True:
        fixed = True
        for t in range(rank - 1):
            dt, ds = a[t][t], a[t + 1][t + 1]
            if dt and ds and ds % dt:
                # mixing the rows makes the gcd reachable at position t
                row_sub(t, t + 1, -1)
                diagonalize(t)
                fixed = False
                break
            if dt == 0 and ds:
                swap_rows(t, t + 1)
                swap_cols(t, t + 1)
                fixed = False
        if fixed:
            break

    return a, U, V


@dataclass(frozen=True)
class PicardGroup:
    """Finite abelian group presented by its invariant factors (> 1 only)."""

    invariant_factors: tuple[int, ...]
    order: int

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


def complexity(g: Multigraph) -> int:
    """Number of spanning trees, computed from a reduced Laplacian
    determinant.  A single vertex has one spanning tree; a disconnected
    graph has none."""
    n = g.num_vertices
    if n == 0:
        raise EmptyGraphError("complexity of the empty graph is undefined")
    lap = laplacian_matrix(g)
    reduced = [[-lap[i][j] for j in range(1, n)] for i in range(1, n)]
    return det_bareiss(reduced)


def _tree_count(n: int, pairs) -> int:
    """``complexity`` of the multigraph on vertices 0..n-1 with the given
    endpoint index pairs."""
    lap = _laplacian(n, pairs)
    return det_bareiss([[-x for x in row[1:]] for row in lap[1:]])


def picard_group(g: Multigraph) -> PicardGroup:
    """Degree class group: degree-zero cochains modulo the Laplacian image.

    The group is finite exactly when the graph is connected, and its order
    equals the spanning-tree count.
    """
    if g.num_vertices == 0:
        raise EmptyGraphError("degree class group of the empty graph is undefined")
    if not g.is_connected():
        raise DisconnectedGraphError("degree class group is infinite: graph is disconnected")
    d, _, _ = smith_normal_form(laplacian_matrix(g))
    diag = [d[i][i] for i in range(g.num_vertices)]
    nonzero = [x for x in diag if x]
    factors = tuple(x for x in nonzero if x > 1)
    return PicardGroup(invariant_factors=factors, order=prod(nonzero) if nonzero else 1)


def same_class(g: Multigraph, d1: Cochain, d2: Cochain) -> bool:
    """Whether two multidegrees differ by a Laplacian image.

    Solvability of Laplacian * x = d1 - d2 over the integers is decided
    through the Smith transform: with U * L * V diagonal, the system is
    solvable iff each diagonal entry divides the matching entry of
    U * (d1 - d2) and the remaining entries vanish.
    """
    for d in (d1, d2):
        if d.graph != g:
            raise GraphMismatchError("cochain bound to a different graph")
    if d1.total != d2.total:
        raise DegreeMismatchError(
            f"total degrees differ: {d1.total} vs {d2.total}"
        )
    if not g.is_connected():
        raise DisconnectedGraphError("multidegree classes need a connected graph")
    n = g.num_vertices
    dmat, U, _ = smith_normal_form(laplacian_matrix(g))
    b = [d1.values[i] - d2.values[i] for i in range(n)]
    c = [sum(U[i][j] * b[j] for j in range(n)) for i in range(n)]
    for i in range(n):
        di = dmat[i][i]
        if di == 0:
            if c[i] != 0:
                return False
        elif c[i] % di != 0:
            return False
    return True
