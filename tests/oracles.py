"""Slow, independent reference implementations used to pin expected values.

Everything here recomputes from first principles with exact arithmetic
and naive algorithms: spanning trees by exhaustive edge selection,
stability by checking every vertex subset with Fraction sums, lattice
membership by rational elimination, invariant factors from minors and
by the dense elimination the library used to run.  Nothing imports the kernels;
``floor_table`` and ``ceil_table`` are the subset bounds from the whole
graph with the stratum edges flagged, ``box_search`` is the kernels' box
search checking every subset against ``floor_table``, ``defect_scan``, the subset scan
that the minimum cut replaced, reads a floor table as plain data, and
``same_class``, the class test that the single solve replaced, compares
two invariant-factor eliminations.

``load_problem_reference`` is the CLI's problem-file loader as it stood
before its one-pass rewrite, with the rational parser it called, kept
verbatim: ``isinstance`` checks, ``Edge(...)`` calls and a ``Fraction``
total.  ``test_cli`` checks the loader against it.

``kirchhoff_count`` is the matrix-tree determinant by rational
elimination, for graphs too large for ``spanning_tree_count``.
``level_order`` is the layered bitmask search that ordered the box
search's vertices before the breadth-first forest did.
``classification_scan`` is the library's classification as it stood
before it walked connected subsets, kept verbatim: a scan of all 2^n masks
in bitmask order with a 2^n table of residue sums, reading the
polarization's ``_integrality``; its vertex guard is gone with the
library's.

``strata_walk_reference`` and ``blowup_walk_reference`` are
``strata.strata_rows`` and ``strata.blowup_rows`` as they stood before the
flat walk, kept verbatim but for their names and their edge and vertex
guards (the library's one size limit replaced them), with the generator
``_walk`` they shared and the callbacks they handed it (``children`` and
``_avoiding``): one (stratum, rows, count) tuple per row.  They are
exceptions to the above: they run the library's spanning-tree lister, tile
function and, for the buckets, quasistable enumeration, so ``test_strata``
checks the walk alone against them.

``tile_points`` is one more exception: it runs the library's spanning-tree
lister and tile function, one quasistable point per spanning tree, as a
fast second oracle for the quasistable kind where the brute force is too
slow.  ``test_strata`` checks it against the box search.
"""

from __future__ import annotations

import json
import math
import re
from math import gcd, lcm
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from jacgraph._kernel import Layout
from jacgraph.cli import Problem, ProblemFileError
from jacgraph.errors import BlowupValueError
from jacgraph.graph import Edge, Multigraph, Vertex
from jacgraph.polarization import Polarization
from jacgraph.quasistable import StratumContext
from jacgraph.strata import _edge_pairs, _spanning_trees, _tile_point


def spanning_trees(n: int, pairs) -> list[int]:
    """The spanning trees of the multigraph on the vertices 0..n-1 with the
    given endpoint index pairs, as bitmasks over the pair indices: every
    (n-1)-subset of the non-loop pairs that union-find accepts as a forest."""
    non_loops = [k for k, (a, b) in enumerate(pairs) if a != b]
    trees = []
    for pick in combinations(non_loops, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        acyclic = True
        for k in pick:
            ru, rv = find(pairs[k][0]), find(pairs[k][1])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            trees.append(sum(1 << k for k in pick))
    return trees


def tile_points(g, q, basepoint, S=()) -> list[tuple]:
    """The sorted tile points of the stratum context (g, q, basepoint, S):
    ``strata._tile_point`` for every spanning tree of G - S."""
    from jacgraph import StratumContext
    from jacgraph.strata import _spanning_trees, _tile_point

    ctx = StratumContext(g, q, basepoint, S)
    pairs = [p for e, p in zip(g.edges, g._pairs) if e.id not in ctx.stratum]
    return sorted(_tile_point(ctx, pairs, t)[0] for t in _spanning_trees(g.num_vertices, pairs))


def spanning_tree_count(g) -> int:
    """Count spanning trees by trying every (n-1)-subset of non-loop edges."""
    names = list(g.vertices)
    if not names:
        raise ValueError("empty graph")
    pos = {v: i for i, v in enumerate(names)}
    return len(spanning_trees(len(names), [(pos[e.u], pos[e.v]) for e in g.edges]))


def kirchhoff_count(g) -> int:
    """Count spanning trees by the matrix-tree theorem: the determinant of
    the Laplacian less the first row and column, by Gaussian elimination
    over Fraction; loops add nothing, and a disconnected graph gives 0."""
    names = list(g.vertices)
    if not names:
        raise ValueError("empty graph")
    pos = {v: i for i, v in enumerate(names)}
    size = len(names) - 1
    lap = [[Fraction(0)] * len(names) for _ in names]
    for e in g.edges:
        a, b = pos[e.u], pos[e.v]
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    rows = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for i in range(size):
        pivot = next((r for r in range(i, size) if rows[r][i]), None)
        if pivot is None:
            return 0
        rows[i], rows[pivot] = rows[pivot], rows[i]
        det *= rows[i][i] if pivot == i else -rows[i][i]
        for r in range(i + 1, size):
            if rows[r][i]:
                factor = rows[r][i] / rows[i][i]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[i])]
    assert det.denominator == 1 and det >= 0
    return int(det)


def level_order(n: int, adj: list[int]) -> list[int]:
    """The vertex order of the box search by layered bitmask search over the
    neighbour masks ``adj``: the breadth-first layers from vertex n - 1,
    farthest first and each by index, after those of the other components,
    each taken likewise from its highest vertex."""
    order, seen = [], 0
    for root in range(n - 1, -1, -1):
        if seen >> root & 1:
            continue
        level, seen = [root], seen | 1 << root
        while level:
            order[:0] = level
            reached = 0
            for i in level:
                reached |= adj[i]
            reached &= ~seen
            seen |= reached
            level = [j for j in range(n) if reached >> j & 1]
    return order


def crossing_count(g, W) -> int:
    """Non-loop edges with exactly one endpoint in W."""
    W = set(W)
    return sum(1 for e in g.edges if e.u != e.v and (e.u in W) != (e.v in W))


def stratum_inside_count(g, S, W) -> int:
    """Edges of S all of whose endpoints lie in W (loops included)."""
    W = set(W)
    total = 0
    for e in g.edges:
        if e.id in S and e.u in W and e.v in W:
            total += 1
    return total


def valence_between(g, S, W1, W2) -> int:
    """Edges of S with one endpoint in W1 and the other in W2."""
    W1, W2 = set(W1), set(W2)
    return sum(
        1
        for e in g.edges
        if e.id in S and ((e.u in W1 and e.v in W2) or (e.u in W2 and e.v in W1))
    )


def adjacency(g, u, v) -> int:
    """Non-loop edges joining the distinct vertices u and v."""
    return sum(1 for e in g.edges if u != v and {e.u, e.v} == {u, v})


def loops_at(g, v) -> int:
    return sum(1 for e in g.edges if e.u == e.v == v)


def components(g) -> list[frozenset]:
    """Connected components by a union-find on the vertex labels, ordered
    by their first vertex."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for e in g.edges:
        root[find(e.u)] = find(e.v)
    groups: dict = {}
    for v in g.vertices:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in groups.values()]


def brute_force_multidegrees(g, q, basepoint, S, kind):
    """All multidegrees of the given kind, straight from the definition.

    The search box comes from the singleton subsets (floors) and their
    complements (ceilings), widened by two on each side so that an
    off-by-one in the tighter production bound would show up as a
    disagreement.
    """
    names = list(g.vertices)
    n = len(names)
    S = frozenset(S)
    budget = int(sum((q[v] for v in names), Fraction(0))) - len(S)

    def floor_bound(W):
        return (
            sum((q[v] for v in W), Fraction(0))
            - Fraction(crossing_count(g, W), 2)
            - stratum_inside_count(g, S, W)
        )

    lows, highs = [], []
    for v in names:
        lows.append(math.floor(floor_bound({v})) - 2)
        # d_v = budget - d_rest and d_rest is bounded below on the rest
        highs.append(math.floor(budget - floor_bound(set(names) - {v})) + 2)

    # every proper nonempty subset W as (positions, floor_bound(W), strict)
    conditions = []
    for r in range(1, n):
        for W in combinations(range(n), r):
            if kind == "stable":
                strict = True
            elif kind == "quasistable":
                strict = basepoint in {names[i] for i in W}
            else:
                strict = False
            conditions.append((W, floor_bound({names[i] for i in W}), strict))

    def _check():
        for W, bound, strict in conditions:
            d_w = sum(values[i] for i in W)
            if not (d_w > bound if strict else d_w >= bound):
                return False
        return True

    results = []
    values = [0] * n

    def place(k, remaining):
        if k == n - 1:
            if lows[k] <= remaining <= highs[k]:
                values[k] = remaining
                if _check():
                    results.append(tuple(values))
            return
        lo = max(lows[k], remaining - sum(highs[k + 1 :]))
        hi = min(highs[k], remaining - sum(lows[k + 1 :]))
        for x in range(lo, hi + 1):
            values[k] = x
            place(k + 1, remaining - x)

    place(0, budget)
    return sorted(results)


def _subset_counts(m, edges, s_flags):
    """``(cross, cross_s, inside_s)`` for the vertex bitmask m: edges with
    one end in m, stratum edges among those, and stratum edges (loops
    included) with both ends in m."""
    cross = cross_s = inside_s = 0
    for (a, b), flag in zip(edges, s_flags):
        a_in, b_in = m >> a & 1, m >> b & 1
        if a_in != b_in:
            cross += 1
            cross_s += flag
        elif flag and a_in:
            inside_s += 1
    return cross, cross_s, inside_s


def floor_table(n, edges, s_flags, scaled_q, scale):
    """Per vertex bitmask W, the least allowed ``scale * d_W`` of a
    semistable multidegree: ``scale * (q_W - val(W)/2 - |S inside W|)``
    over the whole graph, for endpoint index pairs ``edges`` with the
    stratum marked by ``s_flags`` and ``scaled_q[i] == scale * q_i``."""
    out = []
    for m in range(1 << n):
        cross, _, inside_s = _subset_counts(m, edges, s_flags)
        qsum = sum(x for i, x in enumerate(scaled_q) if m >> i & 1)
        out.append(qsum - scale // 2 * cross - scale * inside_s)
    return out


def ceil_table(n, edges, s_flags, scaled_q, scale):
    """Per vertex bitmask W, the greatest allowed ``scale * d_W``:
    ``scale * (q_W + val(W)/2 - |S crossing W| - |S inside W|)``."""
    out = []
    for m in range(1 << n):
        cross, cross_s, inside_s = _subset_counts(m, edges, s_flags)
        qsum = sum(x for i, x in enumerate(scaled_q) if m >> i & 1)
        out.append(qsum + scale // 2 * cross - scale * (cross_s + inside_s))
    return out


@lru_cache(maxsize=16)
def _plain_floor(n, edges, scaled_q, scale):
    # box_search runs many boxes on one graph; the table depends only on it
    return floor_table(n, edges, [False] * len(edges), scaled_q, scale)


def box_search(n, edges, scaled_q, scale, v0, total, lo, hi, kind):
    """The box search of the kernels without their plan or their dropped
    bounds: depth-first over the vertices in index order, each value from
    ``lo`` to ``hi``, a branch cut once some decided proper subset breaks a
    bound or the rest of the total no longer fits the box of the vertices
    left.  With ``floor`` the ``floor_table`` of ``edges`` (nothing
    flagged), every proper nonempty subset m has ``scale * d_m`` at least
    ``floor[m]`` and at most ``scale * total - floor[full ^ m]``, strictly as
    ``kind`` says.  The outputs come in increasing order."""
    full = (1 << n) - 1
    floor = _plain_floor(n, tuple(map(tuple, edges)), tuple(scaled_q), scale)
    d = [0] * n
    out = []

    def fine(m):
        sd = scale * sum(d[i] for i in range(n) if m >> i & 1)
        low, high = floor[m], scale * total - floor[full ^ m]
        if kind == "stable" or kind == "quasistable" and m >> v0 & 1:
            low += 1
        if kind == "stable" or kind == "quasistable" and not m >> v0 & 1:
            high -= 1
        return low <= sd <= high

    def place(k, rest):
        for x in range(lo[k], hi[k] + 1):
            left = rest - x
            if not sum(lo[k + 1 :]) <= left <= sum(hi[k + 1 :]):
                continue
            d[k] = x
            if all(fine(m) for m in range(1 << k, min(2 << k, full))):
                if k == n - 1:
                    out.append(tuple(d))
                else:
                    place(k + 1, left)

    place(0, total)
    return out


def defect_scan(tables, d, v0):
    """Max deficit over all vertex subsets plus the maximizer geometry.

    Returns ``(best, and_acc, or_acc, count, bp_and)`` where ``best`` is
    the maximal scaled deficit (0 exactly when d is semistable), the
    accumulators AND/OR all maximizer masks, ``count`` is their number and
    ``bp_and`` ANDs the zero-deficit masks through v0 (None unless
    ``best == 0``).  The maximizer family is closed under intersection
    and union, so the accumulators are its least and greatest elements.
    """
    n, scale, floor_rhs = tables
    size = 1 << n
    sums = [0] * size
    best = 0
    for m in range(1, size):
        lsb = m & -m
        s = sums[m ^ lsb] + d[lsb.bit_length() - 1]
        sums[m] = s
        e = floor_rhs[m] - scale * s
        if e > best:
            best = e
    and_acc = size - 1
    or_acc = 0
    count = 0
    for m in range(size):
        if floor_rhs[m] - scale * sums[m] == best:
            and_acc &= m
            or_acc |= m
            count += 1
    bp_and = None
    if best == 0:
        vbit = 1 << v0
        bp_and = size - 1
        for m in range(size):
            if m & vbit and floor_rhs[m] - scale * sums[m] == 0:
                bp_and &= m
    return best, and_acc, or_acc, count, bp_and


def in_laplacian_image(g, b_values) -> bool:
    """Whether an integer vector lies in the image of the standard Laplacian.

    Solves the rational system with one coordinate pinned to zero and
    checks the solution for integrality; valid for connected graphs.
    """
    names = list(g.vertices)
    n = len(names)
    if sum(b_values) != 0:
        return False
    if n == 1:
        return b_values[0] == 0
    pos = {v: i for i, v in enumerate(names)}
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.u == e.v:
            continue
        i, j = pos[e.u], pos[e.v]
        lap[i][j] += 1
        lap[j][i] += 1
        lap[i][i] -= 1
        lap[j][j] -= 1
    # drop the last variable and the last equation (rank n-1 when connected)
    m = n - 1
    aug = [[lap[i][j] for j in range(m)] + [Fraction(b_values[i])] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return False
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    xs = [aug[i][m] / aug[i][i] for i in range(m)]
    if any(x.denominator != 1 for x in xs):
        return False
    # the dropped equation must also hold
    check = sum(lap[n - 1][j] * xs[j] for j in range(m))
    return check == b_values[n - 1]


def same_class(g, d1, d2) -> bool:
    """Whether two multidegrees differ by a Laplacian image, by two
    eliminations: b = d1 - d2 has total zero, so on a connected graph its
    class lies in the finite degree class group, and appending b to the
    Laplacian as a column divides the torsion order by the order of that
    class.  The two torsion orders agree exactly when b is in the image.
    Raises what ``jacgraph.same_class`` raises, in the same order."""
    from jacgraph import (
        DegreeMismatchError,
        DisconnectedGraphError,
        GraphMismatchError,
        laplacian_matrix,
    )

    for d in (d1, d2):
        if d.graph != g:
            raise GraphMismatchError("cochain bound to a different graph")
    if d1.total != d2.total:
        raise DegreeMismatchError(f"total degrees differ: {d1.total} vs {d2.total}")
    if len(components(g)) > 1:
        raise DisconnectedGraphError("multidegree classes need a connected graph")
    lap = laplacian_matrix(g)
    augmented = [row + [x - y] for row, x, y in zip(lap, d1.values, d2.values)]
    return math.prod(x for x in dense_invariant_factors(lap) if x) == math.prod(
        x for x in dense_invariant_factors(augmented) if x
    )


def invariant_factors(mat) -> tuple[int, ...]:
    """Smith invariant factors as quotients D_k / D_(k-1) of the
    determinantal divisors, D_k being the gcd of all k x k minors, each
    minor by cofactor expansion.  Past the rank every D_k is 0."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                dk = math.gcd(dk, _cofactor_det([[mat[i][j] for j in c] for i in r]))
        out.append(dk // prev if prev else 0)
        prev = dk
    return tuple(out)


def dense_invariant_factors(mat) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix, by the dense
    elimination ``jacgraph.invariant_factors`` ran before it worked on
    sparse rows with unit pivots: its min(rows, cols) invariant factors,
    nonnegative, each dividing the next, zeros last.

    Row and column reduction by a pivot of least absolute value; once a
    pivot's row and column are clear it is recorded and both are dropped.
    The gcd of all entries divides every entry ever formed, so the pivot
    scan stops at the first entry that small.
    Only the diagonal is wanted, so the divisibility chain is then fixed
    on it alone: diag(a, b) and diag(gcd, lcm) present the same group.
    """
    a = [list(map(int, row)) for row in mat]
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
        # row i -= q_i * row pi, on the nonzero entries of row pi only
        nonzero = [(j, x) for j, x in enumerate(prow) if x]
        for row in a:
            if row is not prow and row[pj]:
                q = row[pj] // p
                for j, y in nonzero:
                    row[j] -= q * y
        # column j -= q_j * column pj; rows with a zero at pj are unchanged
        cols = [(j, x // p) for j, x in nonzero if j != pj]
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


def _cofactor_det(m) -> int:
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def adjusted_total(g, q, W) -> Fraction:
    """Subset total of q minus half the crossing valence."""
    return sum((q[v] for v in W), Fraction(0)) - Fraction(crossing_count(g, W), 2)


def is_bridge(g, eid) -> bool:
    """Whether deleting the edge raises the number of components."""
    return len(components(g.delete_edges([eid]))) > len(components(g))


def is_integral_at(g, q, W) -> bool:
    """Every connected piece of W and of its complement, taken from the
    induced subgraphs, has an integer adjusted total."""
    W = frozenset(W)
    for side in (W, g.complement(W)):
        for piece in components(g.induced_subgraph(side)):
            if adjusted_total(g, q, piece).denominator != 1:
                return False
    return True


def is_spine(g, W) -> bool:
    """Every non-loop edge crossing W is a bridge (checked by deletion)."""
    W = frozenset(W)
    return all(
        is_bridge(g, e.id)
        for e in g.edges
        if e.u != e.v and (e.u in W) != (e.v in W)
    )


def classification(g, q):
    """``(general, nondegenerate, witness)`` from a subset-by-subset scan.

    Proper nonempty subsets are built as frozensets in bitmask order
    (bit i is the i-th vertex).  The witness is the first integral
    non-spine subset, else the first integral spine, as
    ``(subset, is_spine)``; None when no subset is integral.
    """
    names = list(g.vertices)
    n = len(names)
    general = True
    spine_hit = None
    for mask in range(1, (1 << n) - 1):
        W = frozenset(names[i] for i in range(n) if mask >> i & 1)
        if not is_integral_at(g, q, W):
            continue
        general = False
        if not is_spine(g, W):
            return False, False, (W, False)
        if spine_hit is None:
            spine_hit = W
    return general, True, (None if spine_hit is None else (spine_hit, True))


# -- the classification scan before it walked connected subsets -----------------


def _integral_masks(q):
    """Integral proper subsets as ``(mask, is_spine)``, in bitmask order.
    Residue sums grow one top bit at a time, so the scan pays only up to
    where the caller stops; a mask whose sum is not 0 mod scale is never
    integral, as its pieces partition it."""
    g = q.graph
    n = g.num_vertices
    scale, resid, test = q._integrality()
    br = g.bridges()
    kept = [p for e, p in zip(g.edges, g._pairs) if e.id not in br]
    sums = [0]  # residue sums mod scale, indexed by mask
    for k in range(n):
        sums += [(s + resid[k]) % scale for s in sums]
        for mask in range(1 << k, min(2 << k, (1 << n) - 1)):
            if not sums[mask] and test(mask):  # spine: no non-bridge edge crosses
                yield mask, not any((mask >> a ^ mask >> b) & 1 for a, b in kept)


def classification_scan(q):
    """``(is_general(), is_nondegenerate(), integral_witness())`` of q, each
    from its own scan of ``_integral_masks``."""
    general = next(_integral_masks(q), None) is None
    nondegenerate = all(spine for _, spine in _integral_masks(q))
    hit = None
    for mask, spine in _integral_masks(q):
        if hit is None or not spine:
            hit = mask, spine
        if not spine:
            break
    witness = None if hit is None else (q.graph._vertex_set(hit[0]), hit[1])
    return general, nondegenerate, witness


# -- the problem-file loader before its one-pass rewrite ------------------------

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _text_fraction(text: str) -> Fraction | None:
    """The rational ``text`` spells in the grammar ``_RATIONAL``; None when
    it does not match or its denominator is zero."""
    if _RATIONAL.fullmatch(text := text.strip()):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    return None


def parse_rational(value) -> Fraction:
    if type(value) is int:  # not a bool
        return Fraction(value)
    if isinstance(value, float):
        raise ProblemFileError(f'float {value!r} rejected; write rationals as "p/q" strings')
    if isinstance(value, str):
        if (parsed := _text_fraction(value)) is not None:
            return parsed
        raise ProblemFileError(f"cannot parse rational {value!r}")
    raise ProblemFileError(f"not a rational: {value!r}")


def load_problem_reference(path: str, basepoint_flag=None, stratum_flag=None) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise ProblemFileError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFileError("problem file must be a JSON object")

    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ProblemFileError("'vertices' must be a list")
    pos, genus = {}, {}
    for entry in raw_vertices:
        if isinstance(entry, str):
            name, gv = entry, 0
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            name, gv = entry["name"], entry.get("genus", 0)
            if not isinstance(gv, int) or isinstance(gv, bool) or gv < 0:
                raise ProblemFileError(f"genus of {name!r} must be a nonnegative integer")
        else:
            raise ProblemFileError(f"cannot interpret vertex entry {entry!r}")
        if name in pos:
            raise ProblemFileError(f"duplicate vertex name {name!r}")
        pos[name], genus[name] = len(pos), gv

    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ProblemFileError("'edges' must be a list")
    by_id, pairs, explicit = {}, [], None
    for k, entry in enumerate(raw_edges):
        if not isinstance(entry, dict) or "endpoints" not in entry:
            raise ProblemFileError(f"cannot interpret edge entry {entry!r}")
        ends = entry["endpoints"]
        if not (isinstance(ends, list) and len(ends) == 2):
            raise ProblemFileError(f"edge {k} needs exactly two endpoints")
        u, v = ends
        for w in (u, v):
            if not isinstance(w, str) or w not in pos:
                raise ProblemFileError(f"edge {k} endpoint {w!r} is not a vertex")
        eid = entry.get("id")
        if eid is None:
            eid = f"e{k}"
            if explicit is None:  # the ids given anywhere in the file
                ids = (e.get("id") for e in raw_edges if isinstance(e, dict))
                explicit = {x for x in ids if isinstance(x, str)}
            if eid in explicit:
                raise ProblemFileError(f"default id {eid!r} collides with an explicit edge id")
        elif not isinstance(eid, str):
            raise ProblemFileError(f"edge id {eid!r} must be a string")
        by_id[eid] = Edge(eid, u, v)
        pairs.append((pos[u], pos[v]))
    if len(by_id) != len(pairs):
        raise ProblemFileError("duplicate edge ids")
    graph = Multigraph._of(pos, by_id, tuple(pairs), genus)

    pol = None
    if "polarization" in data:
        raw_pol = data["polarization"]
        if not isinstance(raw_pol, dict):
            raise ProblemFileError("'polarization' must be an object")
        if unknown := [k for k in raw_pol if k not in pos]:
            raise ProblemFileError(f"polarization names unknown vertices {unknown!r}")
        if missing := [v for v in pos if v not in raw_pol]:
            raise ProblemFileError(f"polarization misses vertices {missing!r}")
        parsed = {k: parse_rational(v) for k, v in raw_pol.items()}  # errors in file order
        values = tuple(parsed[v] for v in pos)
        total = sum(values, Fraction(0))
        if total.denominator != 1:
            raise ProblemFileError(f"polarization total {total} is not an integer")
        pol = Polarization._of(graph, values)

    basepoint = basepoint_flag if basepoint_flag is not None else data.get("basepoint")
    if basepoint is None and pos:
        basepoint = graph.vertices[0]
    if basepoint is not None and not (isinstance(basepoint, str) and basepoint in pos):
        raise ProblemFileError(f"basepoint {basepoint!r} is not a vertex")

    raw_stratum = stratum_flag if stratum_flag is not None else data.get("stratum", [])
    if stratum_flag is None and not isinstance(raw_stratum, list):
        raise ProblemFileError("'stratum' must be a list of edge ids")
    if bad := [eid for eid in raw_stratum if not isinstance(eid, str) or eid not in by_id]:
        raise ProblemFileError(f"stratum names unknown edges {bad!r}")
    stratum = frozenset(raw_stratum)
    if len(stratum) != len(list(raw_stratum)):
        raise ProblemFileError("stratum lists an edge twice")

    return Problem(graph, pol, basepoint, stratum)


# -- the strata walk as a generator ---------------------------------------------


def _avoiding(trees: list[int], e: int) -> list[int]:
    """The trees that do not hold edge index e."""
    bit = 1 << e
    return [t for t in trees if not t & bit]


def _walk(ids: list, depth: int, root, children):
    """(T, value) for the subsets T of at most ``depth`` of the edges, as
    tuples of the edge ids ``ids``, by size and then lexicographically in
    edge order.  ``children(value, edges)`` gives the values of T + (e,)
    for the edge indices e in ``edges``, those past the last of T, from the
    value of T; only the previous layer is kept."""
    layer = [(0, (), root)]  # (the first index past T, T, value)
    for size in range(depth + 1):
        for _, stratum, value in layer:
            yield stratum, value
        if size < depth:
            nxt = []
            for start, stratum, value in layer:
                edges = range(start, len(ids))
                if edges:
                    values = children(value, edges)
                    nxt += [(e + 1, stratum + (ids[e],), v) for e, v in zip(edges, values)]
            layer = nxt


def strata_walk_reference(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
    max_codim: int | None = None,
) -> tuple[Layout, list[tuple], bool, int, int]:
    """The rows of ``strata_report`` as plain data, after the layout they
    are packed in, with its ``complete``, ``total_multidegrees`` and
    ``subdivided_complexity``.  A row is ``(stratum, rows, expected
    count)``, the stratum a tuple of edge ids and its rows sorted ints in
    the layout.

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
    n = g.num_vertices  # at least one: the basepoint is a vertex
    trees = _spanning_trees(n, pairs)
    ctx = StratumContext(g, q, basepoint)
    lo, hi = ctx.singleton_box()
    for a, b in pairs:
        lo[a] -= a == b
    layout = Layout.of(lo, hi)
    unit = layout.unit

    def children(parent, edges):
        # the trees that avoid e keep their point, lowered at w_B(e)
        out = []
        for e in edges:
            kept = []
            for d, w in parent:
                if (u := w[e]) is not None:
                    kept.append((d - unit[u], w))
            out.append(kept)
        return out

    root = []
    for t in trees:
        d, w = _tile_point(ctx, pairs, t)
        root.append((layout.pack(d), w))
    rows = [
        (stratum, sorted([d for d, _ in points]), len(points))
        for stratum, points in _walk(ids, depth, root, children)
    ]
    total = sum(len(packed) for _, packed, _ in rows)
    # a spanning tree of the subdivision takes both halves of each edge of a
    # spanning tree of g and one of the two halves of every other edge
    return layout, rows, depth == m, total, len(trees) << (m - n + 1) if trees else 0


def blowup_walk_reference(
    g: Multigraph,
    basepoint: Vertex,
    q: Polarization,
) -> tuple[Multigraph, Layout, list[tuple], int, int]:
    """The buckets of ``blowup_decomposition`` as plain data: the
    subdivision, the layout of its rows, the rows ``(stratum, rows,
    expected count)`` with the rows sorted ints of multidegrees on the
    subdivision, ``total`` and ``expected_total``.  The exceptional vertices
    come last, so a row's low m fields are its bucket's key."""
    m = g.num_edges
    pairs = _edge_pairs(g, basepoint, q)
    ids = g.edge_ids()
    n = g.num_vertices
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

    trees = _spanning_trees(n, pairs)
    walk = _walk(ids, m, trees, lambda left, edges: [_avoiding(left, e) for e in edges])
    rows = [(stratum, grouped.get(stratum, []), len(left)) for stratum, left in walk]
    expected = len(trees) << (m - n + 1) if trees else 0  # as in strata_rows
    return sub, layout, rows, len(found), expected
