"""Slow, independent reference implementations used to pin expected values.

Everything here recomputes from first principles with exact arithmetic
and naive algorithms: spanning trees by exhaustive edge selection,
stability by checking every vertex subset with Fraction sums, lattice
membership by rational elimination.  Nothing imports the kernels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def spanning_tree_count(g) -> int:
    """Count spanning trees by trying every (n-1)-subset of non-loop edges."""
    names = list(g.vertices)
    n = len(names)
    if n == 0:
        raise ValueError("empty graph")
    pos = {v: i for i, v in enumerate(names)}
    non_loops = [e for e in g.edges if e.u != e.v]
    count = 0
    for pick in combinations(non_loops, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        acyclic = True
        for e in pick:
            ru, rv = find(pos[e.u]), find(pos[e.v])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


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


def _subset_ok(g, q, S, W, d_map, strict) -> bool:
    lhs = Fraction(sum(d_map[v] for v in W) + stratum_inside_count(g, S, W))
    rhs = sum((q[v] for v in W), Fraction(0)) - Fraction(crossing_count(g, W), 2)
    return lhs > rhs if strict else lhs >= rhs


def brute_force_multidegrees(g, q, basepoint, S, kind):
    """All multidegrees of the given kind, straight from the definition.

    The search box comes from the singleton subsets, widened by two on
    each side so that an off-by-one in the tighter production bound
    would show up as a disagreement.
    """
    names = list(g.vertices)
    n = len(names)
    S = frozenset(S)
    budget = int(sum((q[v] for v in names), Fraction(0))) - len(S)

    lows = []
    for v in names:
        bound = q[v] - Fraction(crossing_count(g, {v}), 2) - stratum_inside_count(g, S, {v})
        lo = bound.numerator // bound.denominator  # floor
        lows.append(lo - 2)

    results = []
    values = [0] * n

    def place(k, remaining):
        if k == n - 1:
            lo = lows[k]
            hi = budget - sum(lows[:k])
            if lo <= remaining <= hi:
                values[k] = remaining
                d_map = dict(zip(names, values))
                if _check(d_map):
                    results.append(tuple(values))
            return
        hi = remaining - sum(lows[k + 1 :])
        for x in range(lows[k], hi + 1):
            values[k] = x
            place(k + 1, remaining - x)

    def _check(d_map):
        for r in range(1, n):
            for W in combinations(names, r):
                if kind == "stable":
                    strict = True
                elif kind == "quasistable":
                    strict = basepoint in W
                else:
                    strict = False
                if not _subset_ok(g, q, S, W, d_map, strict):
                    return False
        return True

    place(0, budget)
    return sorted(results)


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


def adjusted_total(g, q, W) -> Fraction:
    """Subset total of q minus half the crossing valence."""
    return sum((q[v] for v in W), Fraction(0)) - Fraction(crossing_count(g, W), 2)


def is_bridge(g, eid) -> bool:
    """Whether deleting the edge raises the number of components."""
    return len(g.delete_edges([eid]).components()) > len(g.components())


def is_integral_at(g, q, W) -> bool:
    """Every connected piece of W and of its complement, taken from the
    induced subgraphs, has an integer adjusted total."""
    W = frozenset(W)
    for side in (W, g.complement(W)):
        for piece in g.induced_subgraph(side).components():
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
