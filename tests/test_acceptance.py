"""End-to-end acceptance suite.

Each test covers one advertised guarantee of the package and prints a
single machine-readable verdict line (bypassing capture) so a plain
pytest run shows the per-criterion outcome.
"""

import functools
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from jacgraph import (
    Cochain,
    Multigraph,
    Polarization,
    StratumContext,
    blowup_decomposition,
    complexity,
    picard_group,
    same_class,
    semistable_equality_witness,
    strata_report,
)

import corpus as corpus_mod
import oracles


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL {description}", file=sys.__stdout__)
                raise
            print(f"[criterion {num}] PASS {description}", file=sys.__stdout__)

        return run

    return wrap


def _context(case):
    return StratumContext(case.graph, case.q, case.basepoint, case.stratum)


@criterion(1, "quasistable count equals the stratum-deleted spanning-tree count")
def test_criterion_1_quasistable_count(corpus_cases):
    assert len(corpus_cases) >= 200
    started = time.monotonic()
    for case in corpus_cases:
        found = _context(case).enumerate("quasistable")
        expected = complexity(case.graph.delete_edges(case.stratum))
        assert len(found) == expected, case.index
        assert len({d.values for d in found}) == len(found), case.index
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(2, "reduction reaches the unique class-equivalent quasistable multidegree")
def test_criterion_2_unique_representative(corpus_cases):
    rng = random.Random(97)
    started = time.monotonic()
    for case in corpus_cases:
        ctx = _context(case)
        gdel = ctx.deleted_graph
        listed = ctx.enumerate("quasistable")
        n = case.graph.num_vertices
        for _ in range(10):
            vals = [rng.randint(-6, 8) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            d = Cochain(case.graph, vals)
            out = ctx.reduce_to_quasistable(d)
            assert ctx.is_quasistable(out), case.index
            d_del, out_del = d.rebind(gdel), out.rebind(gdel)
            assert same_class(gdel, d_del, out_del), case.index
            equivalent = [
                e for e in listed if same_class(gdel, e.rebind(gdel), d_del)
            ]
            assert equivalent == [out], case.index
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion(3, "degree class group order equals the spanning-tree count")
def test_criterion_3_kirchhoff(corpus_cases):
    for case in corpus_cases:
        g = case.graph
        trees = oracles.spanning_tree_count(g)
        assert complexity(g) == trees, case.index
        assert picard_group(g).order == trees, case.index


@criterion(4, "subdividing S multiplies out to the sum over subsets of S")
def test_criterion_4_blowup_complexity():
    for case in corpus_mod.small_cases():
        g = case.graph
        ids = g.edge_ids()
        for r in range(len(ids) + 1):
            for S in combinations(ids, r):
                subdivided, _ = g.subdivide_edges(S)
                total = sum(
                    complexity(g.delete_edges(S2))
                    for r2 in range(len(S) + 1)
                    for S2 in combinations(S, r2)
                )
                assert complexity(subdivided) == total, (case.index, S)


@criterion(5, "strata counts, blowup buckets and grand totals are consistent")
def test_criterion_5_stratification():
    for case in corpus_mod.small_cases():
        g = case.graph
        report = strata_report(g, case.basepoint, case.q)
        assert report.complete
        for row in report.rows:
            assert len(row.multidegrees) == row.expected_count, (
                case.index,
                row.stratum,
            )
        assert report.total_multidegrees == report.subdivided_complexity, case.index

        decomposition = blowup_decomposition(g, case.basepoint, case.q)
        mids = {x for _, x in decomposition.exceptional_vertices}
        assert decomposition.total == decomposition.expected_total, case.index
        by_stratum = {b.stratum: b for b in decomposition.buckets}
        for row in report.rows:
            bucket = by_stratum[row.stratum]
            assert bucket.count == bucket.expected_count == len(row.multidegrees), (
                case.index,
                row.stratum,
            )
            for d in bucket.multidegrees:
                assert all(d[x] in (-1, 0) for x in mids), case.index


@criterion(6, "general/non-degenerate classification matches the stability sets")
def test_criterion_6_classification(corpus_cases):
    for case in corpus_cases:
        g, q = case.graph, case.q
        ctx = StratumContext(g, q, case.basepoint)
        semistable = {d.values for d in ctx.enumerate("semistable")}
        stable = {d.values for d in ctx.enumerate("stable")}
        general = q.is_general()
        assert general == (semistable == stable), case.index
        assert q.is_nondegenerate() == q.contracted().is_general(), case.index
        if not general:
            hit = semistable_equality_witness(g, q)
            assert hit is not None, case.index
            Z, witness = hit
            assert g.induced_subgraph(Z).is_connected(), case.index
            assert g.induced_subgraph(g.complement(Z)).is_connected(), case.index
            assert ctx.is_semistable(witness), case.index
            assert ctx.deficit(witness, Z) == 0, case.index


@criterion(7, "worked micro-instances keep their frozen values")
def test_criterion_7_micro_goldens():
    banana = Multigraph(["u", "v"], [("u", "v"), ("u", "v")])
    half = Fraction(1, 2)

    ctx = StratumContext(banana, Polarization(banana, [half, half]), "u")
    assert [d.values for d in ctx.enumerate("quasistable")] == [(0, 1), (1, 0)]

    ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
    assert [d.values for d in ctx.enumerate("semistable")] == [
        (0, 1),
        (1, 0),
        (2, -1),
    ]
    assert [d.values for d in ctx.enumerate("stable")] == [(1, 0)]
    assert [d.values for d in ctx.enumerate("quasistable")] == [(1, 0), (2, -1)]

    assert picard_group(banana).invariant_factors == (2,)
    triangle = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert picard_group(triangle).invariant_factors == (3,)

    report = strata_report(banana, "u", Polarization(banana, [1, 0]))
    assert [len(r.multidegrees) for r in report.rows] == [2, 1, 1, 0]
    assert report.total_multidegrees == 4

    path = Multigraph(["u", "v"], [("u", "v")])
    q = Polarization(path, [half, half])
    assert not q.is_general()
    assert q.is_nondegenerate()


@criterion(8, "quasistable counts do not depend on the basepoint")
def test_criterion_8_basepoint_invariance(corpus_cases):
    for case in corpus_cases:
        counts = {
            v0: len(
                StratumContext(case.graph, case.q, v0, case.stratum).enumerate(
                    "quasistable"
                )
            )
            for v0 in case.graph.vertices
        }
        assert len(set(counts.values())) == 1, case.index


@criterion(9, "every stratum multidegree generalises along both branches of each node")
def test_criterion_9_generalisations(corpus_cases):
    for case in corpus_cases:
        g, q, bp, T = case.graph, case.q, case.basepoint, case.stratum
        found = StratumContext(g, q, bp, T).enumerate("quasistable")
        for eid in T:
            e = g.edge(eid)
            parent = {
                d.values for d in StratumContext(g, q, bp, T - {eid}).enumerate("quasistable")
            }
            for d in found:
                for end in (e.u, e.v):
                    i = g.vertices.index(end)
                    up = d.values[:i] + (d.values[i] + 1,) + d.values[i + 1 :]
                    assert up in parent, (case.index, eid, d.values)


@criterion(10, "the group law of reduction on the quasistable set matches the invariant factors")
def test_criterion_10_group_law(corpus_cases):
    # With an origin o in Q, d1 + d2 := reduce(d1 + d2 - o) makes Q the degree
    # class group of the stratum-deleted graph (the component group of the
    # Neron model), so its element orders are those of the product of Z/f
    # over picard_group's factors f.
    def complete(n, mult):
        names = [f"k{i}" for i in range(n)]
        return Multigraph(names, [(a, b) for a, b in combinations(names, 2) for _ in range(mult)])

    rng = random.Random(59)
    # corpus groups are small (177 of them trivial); add some with two or
    # three invariant factors
    chain = Multigraph(
        ["b0", "b1", "b2", "b3"],
        [("b0", "b0")] + [("b0", "b1")] * 2 + [("b1", "b2")] * 3 + [("b2", "b3")] * 4,
    )
    extra = [complete(4, 1), complete(5, 1), complete(3, 2), chain]
    contexts = [_context(case) for case in corpus_cases]
    for g in extra:
        values = [Fraction(rng.randint(-6, 6), 3) for _ in g.vertices[1:]]
        values.insert(0, 1 - sum(values, Fraction(0)))
        contexts.append(StratumContext(g, Polarization(g, values), g.vertices[0]))
    checked = 0
    for ctx in contexts:
        gdel = ctx.deleted_graph
        if not gdel.is_connected():
            continue
        qs = [d.values for d in ctx.enumerate("quasistable")]
        origin = qs[0]

        def add(a, b):
            d = Cochain(ctx.graph, [x + y - o for x, y, o in zip(a, b, origin)])
            return ctx.reduce_to_quasistable(d).values

        order = {origin: 1}
        for x in qs:
            if x in order:
                continue
            multiples = [x]
            while multiples[-1] != origin:
                assert len(multiples) < len(qs), (ctx.graph, x)
                multiples.append(add(multiples[-1], x))
            m = len(multiples)
            for k, y in enumerate(multiples, 1):
                assert order.setdefault(y, m // gcd(k, m)) == m // gcd(k, m), qs
        assert len(order) == len(qs)
        factors = picard_group(gdel).invariant_factors
        expected = Counter(
            lcm(1, *(f // gcd(a, f) for a, f in zip(t, factors)))
            for t in product(*(range(f) for f in factors))
        )
        assert Counter(order.values()) == expected, (ctx.graph, factors)
        checked += 1
    assert checked >= 200 + len(extra)


@criterion(11, "a stratum context is the plain context of its partial normalization")
def test_criterion_11_partial_normalization(corpus_cases):
    # (G, q, S) and (G - S, q_S) have the same multidegrees of every kind
    # and the same reduction, with q_S from the Fraction path of
    # Polarization.normalized
    rng = random.Random(61)
    for case in corpus_cases:
        g, q, bp, S = case.graph, case.q, case.basepoint, case.stratum
        ctx = StratumContext(g, q, bp, S)
        plain = StratumContext(g.delete_edges(S), q.normalized(S), bp)
        assert plain.budget == ctx.budget, case.index
        for kind in ("semistable", "quasistable", "stable"):
            got = [d.values for d in ctx.enumerate(kind)]
            assert got == [d.values for d in plain.enumerate(kind)], (case.index, kind)
        n = g.num_vertices
        for _ in range(3):
            vals = [rng.randint(-8, 9) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            out = ctx.reduce_to_quasistable(Cochain(g, vals)).values
            assert out == plain.reduce_to_quasistable(Cochain(plain.graph, vals)).values, (
                case.index,
                vals,
            )
