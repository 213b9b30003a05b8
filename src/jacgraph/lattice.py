"""Integer cochains, the graph Laplacian and the degree class group.

Everything here is exact integer arithmetic: the Laplacian image lattice,
its invariant factors, and the spanning-tree count as the order of the
group they present.  No floats anywhere.
"""

from __future__ import annotations

import operator
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple

from .errors import (
    DegreeMismatchError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphMismatchError,
    GraphConstructionError,
)
from .graph import Multigraph, Vertex, _VertexValues, _bfs_forest


def _integer(x) -> int:
    """A cochain value as an exact int; floats, fractions and strings are
    rejected, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphConstructionError(f"cochain value {x!r} is not an integer") from None


class Cochain(_VertexValues):
    """An integer value per vertex (a multidegree), bound to its graph."""

    __slots__ = ()
    _noun, _convert, _zero = "cochain", staticmethod(_integer), 0

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


def characteristic(g: Multigraph, W: Iterable[Vertex]) -> Cochain:
    """Indicator cochain of the vertex subset W."""
    W = g.vertex_subset(W)
    return Cochain(g, tuple(1 if v in W else 0 for v in g.vertices))


def laplacian_matrix(g: Multigraph) -> list[list[int]]:
    """Matrix of d -> Laplacian(d) in the vertex basis: off-diagonal entries
    are edge multiplicities, the diagonal is minus the vertex valence.
    Loops do not appear."""
    return _laplacian(g.num_vertices, g._pairs)


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
    x, vals = d.values, [0] * g.num_vertices
    for a, b in g._pairs:
        move = x[a] - x[b]  # 0 on a loop
        vals[a] -= move
        vals[b] += move
    return Cochain._of(g, tuple(vals))


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


# -- determinants and invariant factors ---------------------------------------


def _integer_rows(mat) -> list[list[int]]:
    """A copy of the integer matrix ``mat``, entries converted by
    ``operator.index``; rows of different lengths raise ValueError."""
    rows = [list(map(operator.index, row)) for row in mat]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows differ in length")
    return rows


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination) of a
    square matrix; any other shape raises ValueError."""
    rows = _integer_rows(mat)
    if rows and len(rows[0]) != len(rows):
        raise ValueError(f"determinant of a non-square {len(rows)} x {len(rows[0])} matrix")
    return _bareiss(rows)


def _bareiss(a: list[list[int]]) -> int:
    """Bareiss elimination in place of the square block of the first
    ``len(a)`` columns, carrying any further columns along; returns its
    determinant.  Entries stay integers (minors), and a nonsingular block
    ends upper triangular with the determinant, up to sign, as last pivot."""
    n = len(a)
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        prow = a[k]
        p = prow[k]
        cols = range(k + 1, len(prow))
        for row in a[k + 1 :]:
            f = row[k]
            for j in cols:
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[k] = 0
        prev = p
    return sign * prev


def _solve(a: list[list[int]]) -> tuple[int, list[int]]:
    """``(D, D * x)`` for the solution x of the nonsingular square system
    with augmented matrix ``a`` (eliminated in place), D being its
    determinant up to sign: ``_bareiss``, then back substitution, whose
    divisions are exact because ``D * x`` is integral (Cramer's rule)."""
    _bareiss(a)
    top = a[-1][-2] if a else 1
    return top, _back_substitute(a, top, len(a))


def _back_substitute(a: list[list[int]], top: int, t: int) -> list[int]:
    """``top * x`` for the solution x of the square system that ``_bareiss``
    left in ``a``, with right-hand side its column t; ``top`` is the last
    pivot, and every division is exact."""
    n = len(a)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        x[i] = (top * row[t] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
    return x


def invariant_factors(mat: list[list[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix: its
    min(rows, cols) invariant factors, nonnegative, each dividing the
    next, zeros last.  Ragged rows raise ValueError."""
    rows = _integer_rows(mat)
    return _smith(
        [{j: x for j, x in enumerate(row) if x} for row in rows],
        len(rows[0]) if rows else 0,
    )


def _smith(rows: list[dict], ncols: int) -> tuple[int, ...]:
    """``invariant_factors`` of the matrix with ``ncols`` columns whose rows
    are given sparse, as dicts column -> nonzero entry (consumed).

    SNF(c * A) = c * SNF(A), so the content c, the gcd of all entries, is
    divided out first.  Then unit pivots are eliminated in Markowitz order
    (Management Sci. 3, 1957): the shortest row that holds a +-1, and in it
    the unit of the shortest column.  Clearing that column touches only the
    rows that hold it, after which the pivot's row and column drop out with
    an invariant factor 1.  What is left holds no unit; it goes to
    ``_core_factors``.
    """
    size = min(len(rows), ncols)
    content = 0
    for row in rows:
        content = gcd(content, *row.values())
        if content == 1:
            break
    if not content:
        return (0,) * size
    if content > 1:
        rows = [{j: x // content for j, x in row.items()} for row in rows]
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    units = 0
    while heap:
        length, r = heappop(heap)
        prow = rows[r]
        if prow is None or len(prow) != length:
            continue  # eliminated, or pushed again since it changed
        pivots = [(len(cols[j]), j) for j, x in prow.items() if x == 1 or x == -1]
        if not pivots:
            continue  # pushed again if an elimination gives it a unit
        c = min(pivots)[1]
        p = prow.pop(c)
        rows[r] = None
        units += 1
        for j in prow:
            cols[j].discard(r)
        hit = cols[c]
        hit.discard(r)
        step = [(j, -p * x) for j, x in prow.items()]  # 1/p = p for a unit
        for i in hit:
            row = rows[i]
            f = row.pop(c)
            for j, x in step:
                y = row.get(j, 0) + f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            heappush(heap, (len(row), i))
    core = [row for row in rows if row]
    left = sorted({j for row in core for j in row})
    factors = (1,) * units + _core_factors([[row.get(j, 0) for j in left] for row in core])
    return tuple(content * x for x in factors) + (0,) * (size - len(factors))


def _core_factors(a: list[list[int]]) -> tuple[int, ...]:
    """``invariant_factors`` of a dense matrix without unit entries.

    A square nonsingular A of order k is read off its determinantal
    divisors where they suffice: c, the gcd of its entries; g, the gcd of
    its minors of order k - 1, which are the entries of its adjugate; and
    |det A|.  The factors are c, ..., c, |det A| / g when g = c^(k-1), and
    c, g / c, |det A| / g when k = 3.  One Bareiss elimination of [A | I]
    gives det A and, in its last row, one row of the adjugate up to sign;
    when that row leaves g = c^(k-1) open, ``_back_substitute`` gives the
    other rows.  Any other matrix goes to the dense loop.
    """
    k = len(a)
    if k and k == len(a[0]):
        aug = [row + [int(i == t) for t in range(k)] for i, row in enumerate(a)]
        det = abs(_bareiss(aug))
        if det:
            c = gcd(*(x for row in a for x in row))
            g = gcd(*aug[-1][k:])
            if g != c ** (k - 1):
                for t in range(k, 2 * k):
                    g = gcd(g, *_back_substitute(aug, aug[-1][k - 1], t))
            if g == c ** (k - 1):
                return (c,) * (k - 1) + (det // g,)
            if k == 3:
                return (c, g // c, det // g)
    return _euclid_factors(a)


def _euclid_factors(a: list[list[int]]) -> tuple[int, ...]:
    """``invariant_factors`` of a dense matrix, eliminated in place.

    Row and column reduction by a pivot of least absolute value; once a
    pivot's row and column are clear it is recorded and both are dropped.
    The gcd of all entries divides every entry ever formed, so the pivot
    scan stops at the first entry that small.
    Only the diagonal is wanted, so the divisibility chain is then fixed
    on it alone: diag(a, b) and diag(gcd, lcm) present the same group.
    """
    size = min(len(a), len(a[0]) if a else 0)
    diag = []
    content = 0
    for row in a:
        content = gcd(content, *row)
        if content == 1:
            break
    while True:
        best = 0
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                if x and (not best or abs(x) < best):
                    best, pi, pj = abs(x), i, j
            if best == content:
                break  # nothing smaller to find
        if not best:
            break
        prow = a[pi]
        p = prow[pj]
        # row i -= q_i * row pi, on the nonzero entries of row pi only, q_i
        # the nearest integer to row[pj] / p, so that the remainders are at
        # most |p| / 2
        p2 = 2 * p
        nonzero = [(j, x) for j, x in enumerate(prow) if x]
        for row in a:
            if row is not prow and row[pj]:
                q = (2 * row[pj] + p) // p2
                for j, y in nonzero:
                    row[j] -= q * y
        # column j -= q_j * column pj; rows with a zero at pj are unchanged
        cols = [(j, (2 * x + p) // p2) for j, x in nonzero if j != pj]
        for row in a:
            y = row[pj]
            if y:
                for j, q in cols:
                    row[j] -= q * y
        if sum(map(abs, prow)) == abs(p) and all(row is prow or not row[pj] for row in a):
            diag.append(abs(p))
            del a[pi]
            for row in a:
                del row[pj]
    # units already divide everything, so only the other pivots are paired
    rest = [x for x in diag if x != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            rest[i], rest[j] = gcd(rest[i], rest[j]), lcm(rest[i], rest[j])
    return (1,) * (len(diag) - len(rest)) + tuple(rest) + (0,) * (size - len(diag))


class PicardGroup(NamedTuple):
    """Finite abelian group presented by its invariant factors (> 1 only)."""

    invariant_factors: tuple[int, ...]
    order: int

    def __str__(self):
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


def complexity(g: Multigraph) -> int:
    """Number of spanning trees: the order of the degree class group
    (``picard_group``) on a connected graph, 0 on a disconnected one.  A
    single vertex has one spanning tree."""
    if g.num_vertices == 0:
        raise EmptyGraphError("complexity of the empty graph is undefined")
    try:
        return picard_group(g).order
    except DisconnectedGraphError:
        return 0


def _reduced_laplacian(n: int, pairs, drop: int = 0, rhs=()) -> list[list[int]]:
    """``_laplacian(n, pairs)`` without the row and column of ``drop``, each
    row followed by its entry of ``rhs`` if given; on a connected graph its
    determinant is the spanning-tree count up to sign."""
    return [
        row[:drop] + row[drop + 1 :] + list(rhs[i : i + 1])
        for i, row in enumerate(_laplacian(n, pairs))
        if i != drop
    ]


def picard_group(g: Multigraph) -> PicardGroup:
    """Degree class group: degree-zero cochains modulo the Laplacian image.

    The group is finite exactly when the graph is connected, and its order
    equals the spanning-tree count.  It is also the discriminant group of
    the integral flow lattice (Bacher, de la Harpe and Nagnibeda, Bull. SMF
    125, 1997), presented by the Gram matrix of the b1 fundamental cycles of
    a spanning tree.  That matrix is eliminated instead of the n x n
    Laplacian when 2 * b1 <= n - 1.
    """
    n = g.num_vertices
    if n == 0:
        raise EmptyGraphError("degree class group of the empty graph is undefined")
    pairs = [(a, b) for a, b in g._pairs if a != b]
    parent, up, depth, queue = _bfs_forest(n, pairs, (0,))
    if len(queue) < n:
        raise DisconnectedGraphError("degree class group is infinite: graph is disconnected")
    # loops are cycles of norm 1 and drop out: b1 counts the other cotree edges
    tree = set(up)
    cotree = [p for k, p in enumerate(pairs) if k not in tree]
    b1 = len(cotree)
    if 2 * b1 <= n - 1:
        factors = _smith(_cycle_gram(parent, depth, cotree), b1)
    else:
        factors = _smith(_laplacian_rows(n, pairs), n - 1)
    return PicardGroup(
        invariant_factors=tuple(x for x in factors if x > 1), order=prod(x for x in factors if x)
    )


def _laplacian_rows(n: int, pairs) -> list[dict]:
    """The Laplacian of the loopless multigraph on 0..n-1 with the given
    endpoint index pairs, without the row and column of vertex 0, as sparse
    rows (vertex v at index v - 1, the degree on the diagonal); on a
    connected graph it is nonsingular, of determinant the tree count."""
    rows = [{v: 0} for v in range(n)]
    for a, b in pairs:
        rows[a][a] += 1
        rows[b][b] += 1
        rows[a][b] = rows[a].get(b, 0) - 1
        rows[b][a] = rows[b].get(a, 0) - 1
    return [{j - 1: x for j, x in row.items() if j} for row in rows[1:]]


def _cycle_gram(parent, depth, cotree) -> list[dict]:
    """Gram matrix I + C^T C of the fundamental cycles of the cotree pairs
    of a breadth-first spanning tree (``graph._bfs_forest``), as sparse
    rows.  C[t][f] is +1 or -1 when the tree edge t lies on the cycle of f,
    signed by its direction (tree edges point away from the root, f from
    its first end to its second).  Each cycle walks from both ends of f up
    to their common ancestor, and each tree edge then pairs only the cycles
    through it.  Two cycles share one tree path, which each runs through in
    one direction, so no entry cancels."""
    through = [[] for _ in parent]
    for f, (a, b) in enumerate(cotree):
        while a != b:
            if depth[a] >= depth[b]:
                through[a].append((f, 1))
                a = parent[a]
            else:
                through[b].append((f, -1))
                b = parent[b]
    gram = [{f: 1} for f in range(len(cotree))]
    for cycles in through:
        for f, s in cycles:
            row = gram[f]
            for h, t in cycles:
                row[h] = row.get(h, 0) + s * t
    return gram


def same_class(g: Multigraph, d1: Cochain, d2: Cochain) -> bool:
    """Whether two multidegrees differ by a Laplacian image.

    b = d1 - d2 has total zero, so on a connected graph L y = b has one
    rational solution with y = 0 at the first vertex, that of the reduced
    Laplacian system, whose determinant D is the tree count up to sign.  One
    fraction-free elimination gives D * y, and b is a Laplacian image
    exactly when y is integral: when D divides every entry of D * y.
    """
    for d in (d1, d2):
        if d.graph != g:
            raise GraphMismatchError("cochain bound to a different graph")
    if d1.total != d2.total:
        raise DegreeMismatchError(f"total degrees differ: {d1.total} vs {d2.total}")
    if not g.is_connected():
        raise DisconnectedGraphError("multidegree classes need a connected graph")
    b = [x - y for x, y in zip(d1.values, d2.values)]
    top, x = _solve(_reduced_laplacian(g.num_vertices, g._pairs, 0, b))
    return all(v % top == 0 for v in x)
