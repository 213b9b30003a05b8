import random
from fractions import Fraction

import pytest

from jacgraph import (
    BlowupValueError,
    Cochain,
    GraphMismatchError,
    GuardLimitError,
    Multigraph,
    Polarization,
    StratumContext,
    blowup_decomposition,
    complexity,
    pushforward_multidegree,
    strata_report,
    stratum_multidegrees,
    lattice,
)
from jacgraph import _kernel, strata
from jacgraph.strata import _spanning_trees, _tile_point, blowup_rows, strata_rows

import corpus as corpus_mod
import oracles


def _check_unchecked(d, g):
    """A cochain the library built without the constructor's checks is the
    one the constructor builds: a tuple of exactly num_vertices plain ints."""
    assert type(d.values) is tuple
    assert len(d.values) == g.num_vertices
    assert all(type(x) is int for x in d.values)
    assert d == Cochain(g, d.values)


class TestUncheckedCochains:
    def test_enumerations(self, corpus_cases):
        sizes = set()
        for case in corpus_cases:
            g = case.graph
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            for kind in ("semistable", "quasistable", "stable"):
                for d in ctx.enumerate(kind):
                    _check_unchecked(d, g)
                    sizes.add(g.num_vertices)
        assert 1 in sizes

    def test_strata_and_blowup(self):
        # the corpus cases of at most 7 edges: a blow-up of more takes
        # seconds on the pure kernel
        sizes = set()
        for case in corpus_mod.small_cases(7):
            g = case.graph
            for row in strata_report(g, case.basepoint, case.q).rows:
                for d in row.multidegrees:
                    _check_unchecked(d, g)
                    sizes.add(g.num_vertices)
            dec = blowup_decomposition(g, case.basepoint, case.q)
            for bucket in dec.buckets:
                for d in bucket.multidegrees:
                    _check_unchecked(d, dec.subdivided_graph)
        assert 1 in sizes


def _never(*args):
    raise AssertionError("a refused call does no work")


def _banana(k):
    """Two vertices joined by k parallel edges."""
    return Multigraph(["u", "v"], [("u", "v")] * k)


class TestStratumMultidegrees:
    def test_banana_empty_stratum(self, banana):
        q = Polarization(banana, [1, 0])
        mds = stratum_multidegrees(banana, [], "u", q)
        assert [d.values for d in mds] == [(1, 0), (2, -1)]
        assert all(d.graph == banana for d in mds)

    def test_banana_one_edge(self, banana):
        q = Polarization(banana, [1, 0])
        assert [d.values for d in stratum_multidegrees(banana, ["e0"], "u", q)] == [
            (1, -1)
        ]

    def test_loop_stratum_ignores_loop_in_budget(self):
        g = Multigraph(["x"], [("x", "x")])
        q = Polarization(g, [0])
        mds = stratum_multidegrees(g, ["e0"], "x", q)
        assert [d.values for d in mds] == [(-1,)]

    def test_polarization_graph_checked(self, banana, path2):
        with pytest.raises(GraphMismatchError):
            stratum_multidegrees(banana, [], "u", Polarization(path2, [1, 0]))

    def test_counts_match_deleted_complexity(self, corpus_cases):
        for case in corpus_cases[:40]:
            mds = stratum_multidegrees(
                case.graph, case.stratum, case.basepoint, case.q
            )
            assert len(mds) == complexity(case.graph.delete_edges(case.stratum))


class TestStrataReport:
    def test_banana_golden(self, banana):
        q = Polarization(banana, [1, 0])
        rep = strata_report(banana, "u", q)
        assert [r.stratum for r in rep.rows] == [(), ("e0",), ("e1",), ("e0", "e1")]
        assert [len(r.multidegrees) for r in rep.rows] == [2, 1, 1, 0]
        assert [r.expected_count for r in rep.rows] == [2, 1, 1, 0]
        assert [r.codimension for r in rep.rows] == [0, 1, 1, 2]
        assert [r.connected for r in rep.rows] == [True, True, True, False]
        assert rep.total_multidegrees == 4
        assert rep.subdivided_complexity == 4
        assert rep.complete

    def test_normalization_subtracts_loops(self):
        g = Multigraph(["x"], [("x", "x")])
        q = Polarization(g, [0])
        rows = {r.stratum: r for r in strata_report(g, "x", q).rows}
        assert [d.values for d in rows[("e0",)].multidegrees] == [(-1,)]
        assert [d.values for d in rows[()].multidegrees] == [(0,)]

    def test_max_codim_truncates(self, triangle):
        q = Polarization(triangle, [1, 0, 0])
        rep = strata_report(triangle, "a", q, max_codim=1)
        assert len(rep.rows) == 4
        assert not rep.complete
        # the subdivision count is reported regardless of truncation
        assert rep.subdivided_complexity == complexity(
            triangle.subdivide_edges(triangle.edge_ids())[0]
        )

    def test_guard(self, triangle, monkeypatch):
        # the triangle's 1 + 3 + 3 + 1 strata are counted before any tree
        # is listed, and its 3 trees times 1 + 1 points per tree (each
        # avoids the empty stratum and its one other edge) before any
        # tile point is made
        q = Polarization(triangle, [1, 0, 0])
        monkeypatch.setattr(_kernel, "LIMIT", 7)
        assert len(strata_report(triangle, "a", q, max_codim=2).rows) == 7
        monkeypatch.setattr(strata, "_spanning_trees", _never)
        with pytest.raises(
            GuardLimitError, match="^8 strata up to codimension 3 exceed the limit of 7$"
        ):
            strata_report(triangle, "a", q)
        monkeypatch.undo()
        monkeypatch.setattr(_kernel, "LIMIT", 5)
        assert strata_report(triangle, "a", q, max_codim=0).total_multidegrees == 3
        monkeypatch.setattr(strata, "_tile_point", _never)
        with pytest.raises(GuardLimitError, match=(
            "^6 points in the strata up to codimension 1 exceed the limit of 5$"
        )):
            strata_report(triangle, "a", q, max_codim=1)

    def test_default_guard_boundary(self, monkeypatch):
        # no edge guard: 17 parallel edges, once refused, answer; codimension
        # 1 holds 17 * (1 + 16) points, which a limit of that answers and
        # one less refuses
        g = _banana(17)
        q = Polarization(g, [1, 0])
        rep = strata_report(g, "u", q, max_codim=0)
        assert [row.stratum for row in rep.rows] == [()]
        assert len(rep.rows[0].multidegrees) == rep.rows[0].expected_count == 17
        monkeypatch.setattr(_kernel, "LIMIT", 17 * 17)
        assert strata_report(g, "u", q, max_codim=1).total_multidegrees == 17 * 17
        monkeypatch.setattr(_kernel, "LIMIT", 17 * 17 - 1)
        with pytest.raises(GuardLimitError, match="^289 points in the strata"):
            strata_report(g, "u", q, max_codim=1)

    def test_no_vertex_limit(self):
        # the walk scans no vertex subsets, so past the 20-vertex limit of
        # enumeration: 21 isolated vertices have no spanning tree and give
        # one empty row, and a 22-vertex path its one point and empty
        # rows below it
        g = Multigraph([f"v{i}" for i in range(21)], [])
        assert strata_rows(g, "v0", Polarization(g, [0] * 21))[1:] == ([()], [[]], True, 0, 0)
        names = [f"v{i}" for i in range(22)]
        g = Multigraph(names, list(zip(names, names[1:])))
        layout, listed, rows, complete, total, _ = strata_rows(
            g, "v0", Polarization(g, [0] * 22), max_codim=1
        )
        assert listed == [()] + [(eid,) for eid in g.edge_ids()]
        assert layout.unpack(rows[0]) == [(0,) * 22]
        assert rows[1:] == [[]] * 21
        assert (complete, total) == (False, 1)

    def test_counts_and_totals(self, corpus_cases):
        for case in corpus_mod.small_cases()[:30]:
            rep = strata_report(case.graph, case.basepoint, case.q)
            for row in rep.rows:
                assert len(row.multidegrees) == row.expected_count
                if not row.connected:
                    assert row.expected_count == 0
            assert rep.total_multidegrees == rep.subdivided_complexity


def _shift(t, i, by):
    return t[:i] + (t[i] + by,) + t[i + 1 :]


class TestSpecialisation:
    def test_identity_against_direct_enumeration(self, corpus_cases):
        # Q_T = (Q_{T-e} - delta_u) & (Q_{T-e} - delta_v) for every kind,
        # a single shift for a loop
        checks = 0
        for case in corpus_cases:
            g, q, bp, T = case.graph, case.q, case.basepoint, case.stratum
            for kind in ("semistable", "quasistable", "stable"):
                found = {d.values for d in StratumContext(g, q, bp, T).enumerate(kind)}
                for eid in T:
                    e = g.edge(eid)
                    u, v = g.vertices.index(e.u), g.vertices.index(e.v)
                    parent = StratumContext(g, q, bp, T - {eid}).enumerate(kind)
                    down_u = {_shift(d.values, u, -1) for d in parent}
                    down_v = {_shift(d.values, v, -1) for d in parent}
                    assert found == down_u & down_v, (case.index, kind, eid)
                    checks += 1
        assert checks >= 1000

    def test_rows_equal_direct_contexts(self):
        for case in corpus_mod.small_cases():
            g, q, bp = case.graph, case.q, case.basepoint
            for row in strata_report(g, bp, q).rows:
                direct = StratumContext(g, q, bp, row.stratum).enumerate("quasistable")
                assert row.multidegrees == tuple(direct), (case.index, row.stratum)


class TestPushforward:
    def test_loop_example(self):
        g = Multigraph(["x"], [("x", "x")])
        push = pushforward_multidegree(g, ["e0"], Cochain(g, [-1]))
        assert push.vertex_degrees.values == (0,)
        assert push.total == 0
        assert push.degree_of({"x"}) == 0

    def test_bridge_example(self, path2):
        push = pushforward_multidegree(path2, ["e0"], Cochain(path2, [1, -1]))
        assert push.vertex_degrees.values == (1, -1)
        assert push.degree_of({"u"}) == 1
        assert push.degree_of({"u", "v"}) == 1  # the stratum edge joins in
        assert push.total == 1
        swapped = Multigraph(["v", "u"], [("v", "u")])
        with pytest.raises(GraphMismatchError, match="different vertex listing"):
            pushforward_multidegree(path2, ["e0"], Cochain(swapped, [1, -1]))

    def test_total_matches_whole_graph_degree(self, corpus_cases):
        for case in corpus_cases[:25]:
            g = case.graph
            gdel = g.delete_edges(case.stratum)
            q_norm = case.q.normalized(case.stratum)
            ctx = StratumContext(gdel, q_norm, case.basepoint)
            for d in ctx.enumerate("quasistable")[:4]:
                push = pushforward_multidegree(g, case.stratum, d)
                assert push.degree_of(g.vertices) == push.total
                assert push.total == d.total + len(case.stratum)
                for v in g.vertices:
                    assert push.degree_of({v}) == push.vertex_degrees[v]


class TestBlowup:
    def test_banana(self, banana):
        q = Polarization(banana, [1, 0])
        dec = blowup_decomposition(banana, "u", q)
        assert dec.total == 4
        assert dec.expected_total == 4
        assert dict(dec.exceptional_vertices) == {"e0": "e0*", "e1": "e1*"}
        counts = {b.stratum: b.count for b in dec.buckets}
        assert counts == {
            (): 2,
            ("e0",): 1,
            ("e1",): 1,
            ("e0", "e1"): 0,
        }

    def test_single_loop(self):
        g = Multigraph(["x"], [("x", "x")])
        dec = blowup_decomposition(g, "x", Polarization(g, [0]))
        assert dec.total == 2
        assert dec.expected_total == 2
        counts = {b.stratum: (b.count, b.expected_count) for b in dec.buckets}
        assert counts == {(): (1, 1), ("e0",): (1, 1)}

    def test_exceptional_values_bounded(self, corpus_cases):
        # a BlowupValueError anywhere here would mean a value outside {-1, 0}
        for case in corpus_mod.small_cases()[:30]:
            dec = blowup_decomposition(case.graph, case.basepoint, case.q)
            mids = {x for _, x in dec.exceptional_vertices}
            for b in dec.buckets:
                assert b.count == b.expected_count
                for d in b.multidegrees:
                    assert all(d[x] in (-1, 0) for x in mids)

    def test_guard(self, triangle, monkeypatch):
        # the triangle's 2**3 buckets are counted before any tree is
        # listed; K4's 2**6 buckets pass a limit of 100, and its 16 trees
        # times 2**3 points are counted before the subdivision is built
        q = Polarization(triangle, [1, 0, 0])
        monkeypatch.setattr(_kernel, "LIMIT", 7)
        monkeypatch.setattr(strata, "_spanning_trees", _never)
        with pytest.raises(GuardLimitError, match=(
            "^8 buckets, one per edge subset, exceed the limit of 7$"
        )):
            blowup_decomposition(triangle, "a", q)
        monkeypatch.undo()
        names = ["a", "b", "c", "d"]
        k4 = Multigraph(names, [(x, y) for i, x in enumerate(names) for y in names[:i]])
        monkeypatch.setattr(_kernel, "LIMIT", 100)
        monkeypatch.setattr(StratumContext, "_packed", _never)
        with pytest.raises(GuardLimitError, match=(
            "^128 points in the subdivision's quasistable set exceed the limit of 100$"
        )):
            blowup_decomposition(k4, "a", Polarization(k4, [1, 0, 0, 0]))

    def test_subdivision_vertex_guard(self):
        # no vertex guard: a 10-cycle with a chord subdivides to 21
        # vertices, past the old limit of 20, and its 35 trees give
        # 35 * 2**2 points in 2**11 buckets
        names = [f"c{i}" for i in range(10)]
        cycle = [(names[i], names[(i + 1) % 10]) for i in range(10)]
        g = Multigraph(names, [*cycle, ("c0", "c5")])
        dec = blowup_decomposition(g, "c0", Polarization(g, [1] + [0] * 9))
        assert len(dec.subdivided_graph.vertices) == 21
        assert dec.total == dec.expected_total == 140
        assert len(dec.buckets) == 1 << 11
        assert all(b.count == b.expected_count for b in dec.buckets)

    def test_agrees_with_strata_report(self, corpus_cases):
        for case in corpus_mod.small_cases()[:20]:
            rep = strata_report(case.graph, case.basepoint, case.q)
            dec = blowup_decomposition(case.graph, case.basepoint, case.q)
            by_stratum = {b.stratum: b.count for b in dec.buckets}
            for row in rep.rows:
                assert by_stratum[row.stratum] == len(row.multidegrees)
            assert dec.total == rep.subdivided_complexity


class TestPackedLayout:
    """The walk and the buckets keep rows packed; unpacked, each row is its
    stratum's box search."""

    def test_loop_strata_below_the_singleton_box(self):
        # an S-loop lowers its vertex below G's singleton box, so the strata
        # layout widens each low end by the loops there; a narrower layout
        # would carry into the neighbouring field without an error
        rng = random.Random(101)
        below = 0
        graphs = [
            Multigraph(["x"], [("x", "x")] * 3),
            Multigraph(["u", "v"], [("u", "v"), ("u", "u"), ("u", "u"), ("v", "v")]),
        ]
        for _ in range(12):
            n, m, loops = rng.randint(2, 5), rng.randint(4, 8), rng.randint(1, 3)
            g = _tree_count_graph(rng, n, m, loops=loops)
            graphs.append(g)
        for g in graphs:
            q = corpus_mod._random_polarization(rng, g)
            bp = rng.choice(g.vertices)
            layout, strata, rows, _, _, _ = strata_rows(g, bp, q)
            g_lo, _ = StratumContext(g, q, bp).singleton_box()
            for stratum, packed in zip(strata, rows):
                ctx = StratumContext(g, q, bp, stratum)
                lo, hi = ctx.singleton_box()
                n = g.num_vertices
                want = oracles.box_search(
                    n, ctx._kept, ctx._base, ctx.scale, ctx._v0, ctx.budget, lo, hi, "quasistable"
                )
                got = layout.unpack(packed)
                assert got == want, (g, stratum)
                below += any(x < a for d in got for x, a in zip(d, g_lo))
        assert below > 10, below

    def test_buckets_are_the_exceptional_pattern(self, corpus_cases):
        # each bucket holds -1 exactly on its stratum's exceptional vertices
        # and 0 on the others, and the buckets split the subdivision's set
        for case in corpus_mod.small_cases()[:25]:
            g, bp, q = case.graph, case.basepoint, case.q
            sub, layout, strata, rows, _, total, _ = blowup_rows(g, bp, q)
            n, ids = g.num_vertices, g.edge_ids()
            seen = []
            for stratum, packed in zip(strata, rows):
                want = tuple(-1 if eid in stratum else 0 for eid in ids)
                for d in layout.unpack(packed):
                    assert d[n:] == want, (case.index, stratum)
                seen += packed
            everything = StratumContext(sub, q.blown_up(ids), bp).enumerate("quasistable")
            assert layout.unpack(sorted(seen)) == [d.values for d in everything]
            assert len(seen) == total

    def test_value_outside_minus_one_and_zero_raises(self, monkeypatch):
        # the check reads each bucket's first row: a row whose exceptional
        # vertex carries 1 is refused, naming its edge, wherever it sorts
        g = _banana(3)
        q = Polarization(g, [1, 0])
        packed = StratumContext._packed
        for place, edge in ((0, "e0"), (-1, "e2")):

            def bad(ctx, kind, place=place, edge=edge):
                layout, rows = packed(ctx, kind)
                d = list(layout.unpack(rows[place : place + 1 or None])[0])
                d[2 + int(edge[1:])] = 1
                rows[place] = layout.pack(d)
                return layout, sorted(rows)

            monkeypatch.setattr(StratumContext, "_packed", bad)
            with pytest.raises(BlowupValueError, match=f"edge '{edge}' carries 1"):
                blowup_rows(g, "u", q)


class TestAgainstOracles:
    # the brute-force box search takes about 20 ms per stratum at six
    # vertices, so to keep the suite quick the exhaustive comparison stops
    # at five
    def test_rows_and_buckets_match_brute_force(self):
        cases = [c for c in corpus_mod.small_cases() if c.graph.num_vertices <= 5]
        assert len(cases) >= 110
        for case in cases:
            g, q, bp = case.graph, case.q, case.basepoint
            buckets = {b.stratum: b for b in blowup_decomposition(g, bp, q).buckets}
            for row in strata_report(g, bp, q).rows:
                want = oracles.brute_force_multidegrees(g, q, bp, row.stratum, "quasistable")
                assert [d.values for d in row.multidegrees] == want, (case.index, row.stratum)
                trees = oracles.spanning_tree_count(g.delete_edges(row.stratum))
                assert row.expected_count == trees, (case.index, row.stratum)
                assert row.connected == (trees > 0), (case.index, row.stratum)
                bucket = buckets[row.stratum]
                assert bucket.expected_count == bucket.count == trees, case.index

    def test_negative_max_codim_rejected(self, triangle):
        q = Polarization(triangle, [1, 0, 0])
        with pytest.raises(ValueError, match="max_codim"):
            strata_report(triangle, "a", q, max_codim=-1)


class TestLimit:
    """The counts the sweeps check against ``_kernel.LIMIT`` before their
    work are the counts they return."""

    @staticmethod
    def _counted(monkeypatch):
        seen, real = {}, strata.check_limit

        def counted(count, what):
            seen[what] = count
            real(count, what)

        monkeypatch.setattr(strata, "check_limit", counted)
        return seen

    def test_predicted_counts_on_corpus(self, corpus_cases, monkeypatch):
        seen = self._counted(monkeypatch)
        for case in corpus_cases:
            g, q, bp = case.graph, case.q, case.basepoint
            for max_codim in (0, 1, 2, None):
                seen.clear()
                _, listed, rows, complete, total, _ = strata_rows(g, bp, q, max_codim)
                depth = g.num_edges if complete else max_codim
                assert seen.pop(f"strata up to codimension {depth}") == len(listed), case.index
                points = seen.pop(f"points in the strata up to codimension {depth}", 0)
                assert points == total == sum(map(len, rows)), (case.index, max_codim)
            if g.num_edges > 7:  # a blow-up of more takes seconds on the pure kernel
                continue
            seen.clear()
            _, _, listed, rows, counts, total, expected = blowup_rows(g, bp, q)
            assert seen.pop("buckets, one per edge subset,") == len(listed), case.index
            assert seen.pop("points in the subdivision's quasistable set") == total == expected

    def test_spanning_forests(self, monkeypatch):
        # the lister refuses once the partial forests it holds pass the
        # limit: K6's 1,296 trees, at a limit of the most it held and one
        # less
        names = [f"k{i}" for i in range(6)]
        k6 = Multigraph(names, [(a, b) for i, a in enumerate(names) for b in names[:i]])
        held = []
        real = strata.check_limit
        monkeypatch.setattr(strata, "check_limit", lambda count, what: held.append(count))
        assert len(_spanning_trees(6, k6._pairs)) == 1296
        monkeypatch.setattr(strata, "check_limit", real)
        most = max(held)
        assert most >= 1296
        monkeypatch.setattr(_kernel, "LIMIT", most)
        assert len(_spanning_trees(6, k6._pairs)) == 1296
        monkeypatch.setattr(_kernel, "LIMIT", most - 1)
        with pytest.raises(GuardLimitError, match=(
            f"^{most} partial spanning forests exceed the limit of {most - 1}$"
        )):
            _spanning_trees(6, k6._pairs)


class TestWalkAgainstReference:
    """The flat walk against the generator walk it replaced
    (``oracles.strata_walk_reference`` and ``blowup_walk_reference``):
    the same strata in the same order, the same sorted rows, counts and
    totals."""

    @staticmethod
    def _check(g, bp, q, max_codim):
        layout, strata, rows, *rest = strata_rows(g, bp, q, max_codim)
        want_layout, want_rows, *want_rest = oracles.strata_walk_reference(g, bp, q, max_codim)
        assert layout == want_layout
        assert strata == [stratum for stratum, _, _ in want_rows]
        assert rows == [packed for _, packed, _ in want_rows]
        assert list(map(len, rows)) == [count for _, _, count in want_rows]
        assert rest == want_rest

    @staticmethod
    def _check_blowup(g, bp, q):
        sub, layout, strata, rows, counts, *rest = blowup_rows(g, bp, q)
        want_sub, want_layout, want_rows, *want_rest = oracles.blowup_walk_reference(g, bp, q)
        assert (sub, layout) == (want_sub, want_layout)
        assert strata == [stratum for stratum, _, _ in want_rows]
        assert rows == [packed for _, packed, _ in want_rows]
        assert counts == [count for _, _, count in want_rows]
        assert rest == want_rest

    def test_corpus(self, corpus_cases):
        for case in corpus_cases:
            g, bp, q = case.graph, case.basepoint, case.q
            for max_codim in (0, 1, 2, None):
                self._check(g, bp, q, max_codim)
            self._check_blowup(g, bp, q)

    def test_sweep_shaped_multigraphs(self):
        # 4 to 7 vertices and up to twice as many edges, loops and parallel
        # edges among them: most strata disconnect, so most rows are empty
        rng = random.Random(3636)
        empty = rows = 0
        for k in range(40):
            n = rng.randint(4, 7)
            g = _tree_count_graph(rng, n, rng.randint(n + 2, 2 * n), loops=rng.randint(1, 2))
            q = corpus_mod._random_polarization(rng, g)
            bp = rng.choice(g.vertices)
            max_codim = rng.choice([None, None, 2, 3])
            self._check(g, bp, q, max_codim)
            if n + g.num_edges <= 14:
                self._check_blowup(g, bp, q)
            counts = list(map(len, strata_rows(g, bp, q, max_codim)[2]))
            empty, rows = empty + counts.count(0), rows + len(counts)
        assert 2 * empty > rows, (empty, rows)


def _tree_count_graph(rng, n, m, *, connected=True, loops=0):
    """A multigraph on n vertices and m edges: a random spanning tree (no
    edge to the last vertex when not ``connected``), ``loops`` loops, and
    random further edges, parallel ones included, in shuffled order."""
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n - (not connected))]
    edges += [(v, v) for v in rng.choices(names, k=loops)]
    while len(edges) < m:
        u, v = rng.choice(names[: n - (not connected)]), rng.choice(names)
        if connected or names[-1] not in (u, v):
            edges.append((u, v))
    rng.shuffle(edges)
    return Multigraph(names, edges)


class TestTreeCounts:
    # the spanning-tree counts are cheap beside the multidegree oracle, so
    # they are checked on graphs up to nine vertices and the edge guard
    def _check(self, g, max_codim=None, blowup=False):
        q = Polarization(g, [1] + [0] * (g.num_vertices - 1))
        bp = g.vertices[0]
        rep = strata_report(g, bp, q, max_codim=max_codim)
        counts = {}
        for row in rep.rows:
            trees = oracles.spanning_tree_count(g.delete_edges(row.stratum))
            assert row.expected_count == trees, (g, row.stratum)
            assert row.connected == (trees > 0), (g, row.stratum)
            counts[row.stratum] = trees
        if blowup:
            buckets = blowup_decomposition(g, bp, q).buckets
            assert [b.stratum for b in buckets] == [r.stratum for r in rep.rows]
            for b in buckets:
                assert b.expected_count == b.count == counts[b.stratum], (g, b.stratum)
        return rep

    def test_random_multigraphs(self):
        rng = random.Random(1414)
        seen = set()
        for k in range(200):
            n = rng.randint(1, 9)
            connected = n == 1 or k % 8 != 0
            loops = rng.choice([0, 0, 1, 2])
            m = rng.randint(n - 1, n + 3)
            g = _tree_count_graph(rng, n, m, connected=connected, loops=loops)
            m = g.num_edges
            depth = None if m <= 7 else rng.choice([0, 1, 2, 3])
            rep = self._check(g, depth, blowup=depth is None and n + m <= 11)
            counts = [row.expected_count for row in rep.rows]
            seen.add(("n", n))
            seen.add(("loop", any(e.is_loop for e in g.edges)))
            seen.add(("parallel", len({frozenset((e.u, e.v)) for e in g.edges}) < m))
            seen.add(("disconnected", not any(counts)))
            seen.add(("bridge", 0 in counts[1 : m + 1] and counts[0] > 0))
            seen.add(("truncated", not rep.complete))
        assert {("n", n) for n in range(1, 10)} <= seen
        for flag in ("loop", "parallel", "disconnected", "bridge", "truncated"):
            assert (flag, True) in seen, flag

    def test_at_the_edge_guard(self):
        g = _tree_count_graph(random.Random(16), 6, 16, loops=1)
        rep = self._check(g, max_codim=2)
        assert len(rep.rows) == 1 + 16 + 120
        assert rep.rows[0].expected_count == complexity(g) > 0

    def test_one_elimination_per_call(self, monkeypatch):
        # the rows, the buckets and the subdivision's count all come from
        # the tree list: no call eliminates at all
        sizes = []
        real = lattice._bareiss
        monkeypatch.setattr(lattice, "_bareiss", lambda a: sizes.append(len(a)) or real(a))
        for case in corpus_mod.small_cases()[:20]:
            g = case.graph
            strata_report(g, case.basepoint, case.q)
            blowup_decomposition(g, case.basepoint, case.q)
            assert sizes == [], case.index

    def test_subdivided_count_closed_form(self):
        # tau(subdivision) = tau(g) * 2^(m - n + 1), against an elimination
        # on the subdivision itself
        rng = random.Random(2525)
        seen = set()
        for k in range(300):
            n = rng.randint(1, 8)
            connected = n == 1 or k % 5 != 0
            loops = rng.choice([0, 0, 1, 2])
            m = rng.randint(max(n - 1, loops), 12)
            g = _tree_count_graph(rng, n, m, connected=connected, loops=loops)
            m = g.num_edges
            want = complexity(g.subdivide_edges(g.edge_ids())[0])
            q = Polarization(g, [1] + [0] * (n - 1))
            bp = g.vertices[0]
            assert strata_rows(g, bp, q, max_codim=0)[5] == want, g
            if n + m <= 12:
                assert blowup_rows(g, bp, q)[6] == want, g
                seen.add(("blowup", True))
            seen.add(("n", n))
            seen.add(("loop", any(e.is_loop for e in g.edges)))
            seen.add(("parallel", len({frozenset((e.u, e.v)) for e in g.edges}) < m))
            seen.add(("disconnected", want == 0))
        assert {("n", n) for n in range(1, 9)} <= seen
        for flag in ("blowup", "loop", "parallel", "disconnected"):
            assert (flag, True) in seen, flag


class TestTreeSets:
    # the tree bitmasks themselves, which the rows filter edge by edge,
    # against every (n-1)-subset of the non-loop edges
    def _check(self, g):
        n, pairs = g.num_vertices, g._pairs
        trees = _spanning_trees(n, pairs)
        assert len(set(trees)) == len(trees), g
        assert sorted(trees) == sorted(oracles.spanning_trees(n, pairs)), g
        return trees

    def test_random_multigraphs(self):
        rng = random.Random(2424)
        seen = set()
        for k in range(300):
            n = rng.randint(1, 8)
            connected = n == 1 or k % 6 != 0
            loops = rng.choice([0, 0, 1, 2])
            m = rng.randint(max(n - 1, loops), 12)
            g = _tree_count_graph(rng, n, m, connected=connected, loops=loops)
            trees = self._check(g)
            seen.add(("n", n))
            seen.add(("loop", any(e.is_loop for e in g.edges)))
            seen.add(("parallel", len({frozenset((e.u, e.v)) for e in g.edges}) < g.num_edges))
            seen.add(("disconnected", not trees))
        assert {("n", n) for n in range(1, 9)} <= seen
        for flag in ("loop", "parallel", "disconnected"):
            assert (flag, True) in seen, flag

    def test_chorded_cycle_and_doubled_k5(self):
        g = corpus_mod.chorded_cycle(10)
        assert len(self._check(g)) == complexity(g) == 120
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert len(self._check(Multigraph(range(5), k5 + k5))) == 125 * 2**4


class TestTilePoints:
    # one quasistable point per spanning tree: the points of the trees of
    # G - T, and those of the trees of G that avoid T lowered at w_B over T,
    # both equal the box search of the stratum T
    def _check(self, g, q, bp, T):
        layout, rows = StratumContext(g, q, bp, T)._packed("quasistable")
        want = layout.unpack(rows)
        assert oracles.tile_points(g, q, bp, T) == want, (g, q, bp, T)
        ctx, pairs = StratumContext(g, q, bp), g._pairs
        cut = [k for k, eid in enumerate(g.edge_ids()) if eid in T]
        lowered = []
        for tree in _spanning_trees(g.num_vertices, pairs):
            d, w = _tile_point(ctx, pairs, tree)
            if not any(tree >> k & 1 for k in cut):
                d = list(d)
                for k in cut:
                    d[w[k]] -= 1
                lowered.append(tuple(d))
        assert sorted(lowered) == want, (g, q, bp, T)
        return want

    def test_corpus_every_basepoint(self, corpus_cases):
        contexts = 0
        for case in corpus_cases:
            g = case.graph
            for bp in g.vertices:
                for T in dict.fromkeys([frozenset(), case.stratum]):
                    assert self._check(g, case.q, bp, T), (case.index, bp, T)
                    contexts += 1
        assert contexts >= 1300

    def test_random_multigraphs(self):
        rng = random.Random(2626)
        seen = set()
        for k in range(400):
            n = rng.randint(1, 7)
            connected = n == 1 or k % 6 != 0
            loops = rng.choice([0, 0, 1, 2])
            m = rng.randint(max(n - 1, loops), 11)
            g = _tree_count_graph(rng, n, m, connected=connected, loops=loops)
            den = rng.randint(1, 12)
            values = [Fraction(rng.randint(-3 * den, 3 * den), den) for _ in range(n - 1)]
            values.append(rng.randint(-2, 4) - sum(values))
            q = Polarization(g, values)
            T = frozenset(e for e in g.edge_ids() if rng.random() < 0.25)
            found = self._check(g, q, rng.choice(g.vertices), T)
            seen.add(("n", n))
            seen.add(("den", den))
            seen.add(("loop", any(e.is_loop for e in g.edges)))
            seen.add(("parallel", len({frozenset((e.u, e.v)) for e in g.edges}) < g.num_edges))
            seen.add(("disconnected", not connected))
            seen.add(("empty", not found))
            if not connected:
                assert not found
        assert {("n", n) for n in range(1, 8)} | {("den", d) for d in range(1, 13)} <= seen
        for flag in ("loop", "parallel", "disconnected", "empty"):
            assert (flag, True) in seen, flag
