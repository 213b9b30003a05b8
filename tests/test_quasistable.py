import itertools
import random
from fractions import Fraction

import pytest

from jacgraph import (
    Cochain,
    DegreeBudgetError,
    DisconnectedGraphError,
    GraphMismatchError,
    GuardLimitError,
    Multigraph,
    Polarization,
    ReduceReport,
    ReductionGuardError,
    StratumContext,
    UnknownVertexError,
    complexity,
    laplacian_apply,
    same_class,
    semistable_equality_witness,
)
from jacgraph import _kernel, _kernel_py

import oracles
from corpus import _random_polarization, chorded_cycle

HALF = Fraction(1, 2)


def _ctx(case):
    return StratumContext(case.graph, case.q, case.basepoint, case.stratum)


class TestContextValidation:
    def test_polarization_graph_must_match(self, banana, path2):
        q = Polarization(path2, [1, 0])
        with pytest.raises(GraphMismatchError):
            StratumContext(banana, q, "u")

    def test_basepoint_checked(self, banana):
        q = Polarization(banana, [1, 0])
        with pytest.raises(UnknownVertexError):
            StratumContext(banana, q, "zz")

    def test_budget(self, banana):
        q = Polarization(banana, [1, 0])
        assert StratumContext(banana, q, "u").budget == 1
        assert StratumContext(banana, q, "u", ["e0"]).budget == 0

    def test_foreign_cochain_rejected(self, banana, path2):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        with pytest.raises(GraphMismatchError):
            ctx.is_semistable(Cochain(path2, [1, 0]))

    def test_budget_preconditions(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        with pytest.raises(DegreeBudgetError):
            ctx.deficit(Cochain(banana, [0, 0]), {"u"})
        with pytest.raises(DegreeBudgetError):
            ctx.reduce_to_quasistable(Cochain(banana, [0, 0]))
        # the predicate itself just answers no
        assert not ctx.is_semistable(Cochain(banana, [0, 0]))


    def test_deleted_graph(self, banana):
        q = Polarization(banana, [1, 0])
        assert StratumContext(banana, q, "u").deleted_graph is banana
        ctx = StratumContext(banana, q, "u", [banana.edges[0].id])
        gdel = ctx.deleted_graph
        assert gdel.vertices == banana.vertices
        assert gdel.edges == banana.edges[1:]

    def test_contexts_share_the_scaled_values(self, corpus_cases):
        # the polarization scales its values once; contexts on different
        # strata, and the integrality test, lower their own copies
        for case in corpus_cases[:40]:
            g, q, bp = case.graph, case.q, case.basepoint
            strata = [(), [e.id for e in g.edges[:1]], [e.id for e in g.edges[1:3]]]
            shared = [StratumContext(g, q, bp, S) for S in strata]
            q._integrality()
            fresh = [StratumContext(g, Polarization(g, q.values), bp, S) for S in strata]
            assert [c._base for c in shared] == [c._base for c in fresh], case.index
            assert q._scaled() == Polarization(g, q.values)._scaled(), case.index


class TestDefects:
    def test_banana_worked_example(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        d = Cochain(banana, [3, -2])
        assert ctx.deficit(d, {"u"}) == -3
        assert ctx.deficit(d, {"v"}) == 1
        assert ctx.deficit(d, set()) == 0
        assert ctx.deficit(d, {"u", "v"}) == 0
        assert ctx.excess(d, {"u"}) == 1  # mirror of the deficit at v
        rep = ctx.defects(d)
        assert rep.max_deficit == 1
        assert rep.max_excess == 1
        assert rep.deficit_core == frozenset({"v"})
        assert rep.excess_core == frozenset({"u"})
        assert rep.basepoint_deficit_core is None

    def test_semistable_core_is_full(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        rep = ctx.defects(Cochain(banana, [1, 0]))
        assert rep.max_deficit == 0
        assert rep.basepoint_deficit_core == frozenset({"u", "v"})

    def test_fractional_defects(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [HALF, HALF]), "u")
        d = Cochain(banana, [3, -2])
        assert ctx.deficit(d, {"v"}) == Fraction(3, 2)
        assert ctx.defects(d).max_deficit == Fraction(3, 2)

    def test_stratum_shifts_deficit(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u", ["e0"])
        d = Cochain(banana, [0, 0])
        # the stratum edge crosses out of {u}, so only the halved valence
        # drops; the subset gains nothing inside
        assert ctx.deficit(d, {"u"}) == 0
        assert ctx.deficit(d, {"v"}) == -1

    def test_deficit_matches_definition(self, corpus_cases):
        import random

        rng = random.Random(31)
        for case in corpus_cases[:20]:
            ctx = _ctx(case)
            g, q, S = case.graph, case.q, case.stratum
            n = g.num_vertices
            vals = [rng.randint(-3, 4) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            d = Cochain(g, vals)
            vs = list(g.vertices)
            for mask in range(2**n):
                W = {v for i, v in enumerate(vs) if mask >> i & 1}
                if not W:
                    expect = Fraction(0)
                else:
                    expect = (
                        q.sum_over(W)
                        - Fraction(oracles.crossing_count(g, W), 2)
                        - d.sum_over(W)
                        - oracles.stratum_inside_count(g, S, W)
                    )
                assert ctx.deficit(d, W) == expect
                rest = set(vs) - W
                excess = (
                    d.sum_over(W)
                    + oracles.stratum_inside_count(g, S, W)
                    - q.sum_over(W)
                    - Fraction(oracles.crossing_count(g, W), 2)
                    + oracles.valence_between(g, S, W, rest)
                )
                assert ctx.excess(d, W) == excess


class TestPredicates:
    def test_banana_goldens(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        ss = {(0, 1), (1, 0), (2, -1)}
        for vals in ss:
            assert ctx.is_semistable(Cochain(banana, vals))
        assert not ctx.is_semistable(Cochain(banana, (3, -2)))
        assert ctx.is_quasistable(Cochain(banana, (1, 0)))
        assert ctx.is_quasistable(Cochain(banana, (2, -1)))
        assert not ctx.is_quasistable(Cochain(banana, (0, 1)))
        assert ctx.is_stable(Cochain(banana, (1, 0)))
        assert not ctx.is_stable(Cochain(banana, (2, -1)))
        # off the budget of 1 nothing is quasistable or stable
        assert not ctx.is_quasistable(Cochain(banana, (2, 0)))
        assert not ctx.is_stable(Cochain(banana, (1, 1)))

    def test_single_vertex_always_stable(self):
        g = Multigraph(["a"], [("a", "a")])
        ctx = StratumContext(g, Polarization(g, [2]), "a")
        assert ctx.is_stable(Cochain(g, [2]))
        assert not ctx.is_semistable(Cochain(g, [1]))

    def test_predicates_agree_with_enumeration(self, corpus_cases):
        for case in corpus_cases[:15]:
            ctx = _ctx(case)
            listed = {
                kind: {d.values for d in ctx.enumerate(kind)}
                for kind in ("semistable", "quasistable", "stable")
            }
            for vals in listed["semistable"]:
                d = Cochain(case.graph, vals)
                assert ctx.is_semistable(d)
                assert ctx.is_quasistable(d) == (vals in listed["quasistable"])
                assert ctx.is_stable(d) == (vals in listed["stable"])


class TestEnumerate:
    def test_banana_goldens(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        assert [d.values for d in ctx.enumerate("semistable")] == [
            (0, 1),
            (1, 0),
            (2, -1),
        ]
        assert [d.values for d in ctx.enumerate("quasistable")] == [(1, 0), (2, -1)]
        assert [d.values for d in ctx.enumerate("stable")] == [(1, 0)]

    def test_banana_half_golden(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [HALF, HALF]), "u")
        assert [d.values for d in ctx.enumerate("quasistable")] == [(0, 1), (1, 0)]

    def test_unknown_kind(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        with pytest.raises(ValueError):
            ctx.enumerate("wobbly")

    def test_matches_brute_force(self, corpus_cases):
        for case in corpus_cases[:12]:
            ctx = _ctx(case)
            for kind in ("semistable", "quasistable", "stable"):
                got = sorted(d.values for d in ctx.enumerate(kind))
                want = oracles.brute_force_multidegrees(
                    case.graph, case.q, case.basepoint, case.stratum, kind
                )
                assert got == want, (case.index, kind)

    def test_rows_past_the_limit_refused(self, monkeypatch):
        # the kernel stops at limit + 1 rows and the call is refused, in
        # every kind: at a limit of its count the set of K4 with every edge
        # tripled (15 connected subsets, which the pure kernel's plan lists)
        # answers and one less refuses; K7, with 7**5 = 16,807 quasistable
        # multidegrees and 127 connected subsets, stops at its 5,001st row
        # under a limit of 5,000
        held = []
        for impl in _kernel.implementations():
            real = impl.box_enumerate
            monkeypatch.setattr(
                impl, "box_enumerate", lambda *a, real=real: held.append(real(*a)) or held[-1]
            )
        names = ["a", "b", "c", "d"]
        thick = Multigraph(names, [p for p in itertools.combinations(names, 2) for _ in range(3)])
        ctx = StratumContext(thick, Polarization(thick, [HALF] * 4), "a")
        for kind, count in (("semistable", 586), ("quasistable", 432), ("stable", 314)):
            monkeypatch.setattr(_kernel, "LIMIT", count)
            assert len(ctx.enumerate(kind)) == count
            monkeypatch.setattr(_kernel, "LIMIT", count - 1)
            held.clear()
            with pytest.raises(GuardLimitError, match=(
                f"^{count} {kind} rows found so far exceed the limit of {count - 1}$"
            )):
                ctx.enumerate(kind)
            assert list(map(len, held)) == [count]
        names = [f"k{i}" for i in range(7)]
        k7 = Multigraph(names, list(itertools.combinations(names, 2)))
        ctx = StratumContext(k7, Polarization(k7, [0] * 7), "k0")
        monkeypatch.setattr(_kernel, "LIMIT", 5000)
        held.clear()
        with pytest.raises(GuardLimitError, match="^5001 quasistable rows found so far"):
            ctx.enumerate("quasistable")
        assert list(map(len, held)) == [5001]

    def test_past_the_old_vertex_guard(self, monkeypatch):
        # chorded cycles of 24 and 26 vertices: the quasistable count is
        # the tree count, and 26 vertices, past the compiled kernel's
        # arrays, run on the pure kernel even when the compiled one is
        # loaded
        picked, select = [], _kernel.select
        monkeypatch.setattr(_kernel, "select", lambda bound: picked.append(select(bound)) or picked[-1])
        for n in (24, 26):
            g = chorded_cycle(n)
            values = [HALF] * n
            values[-1] += n % 2 * HALF
            rows = StratumContext(g, Polarization(g, values), "c0")._packed("quasistable")[1]
            assert len(rows) == oracles.kirchhoff_count(g), n
        assert picked[0] is _kernel.implementations()[0]
        assert picked[1] is _kernel_py

    def test_counts_ordered_by_strictness(self, corpus_cases):
        for case in corpus_cases[:40]:
            ctx = _ctx(case)
            ss = {d.values for d in ctx.enumerate("semistable")}
            qs = {d.values for d in ctx.enumerate("quasistable")}
            st = {d.values for d in ctx.enumerate("stable")}
            assert st <= qs <= ss

    def test_subset_scan_guard(self, monkeypatch):
        # no vertex guard: a 21-vertex path has one quasistable multidegree,
        # q itself; the pure kernel's plan lists the path's 231 connected
        # subsets, and a limit below that refuses them
        names = [f"w{i}" for i in range(21)]
        g = Multigraph(names, [(names[i], names[i + 1]) for i in range(20)])
        q = Polarization(g, [1] + [0] * 20)
        ctx = StratumContext(g, q, names[0])
        assert [d.values for d in ctx.enumerate("quasistable")] == [(1,) + (0,) * 20]
        tables = (21, ctx._kept, ctx._base, ctx.scale)
        monkeypatch.setattr(_kernel, "LIMIT", 231)
        assert sum(len(level) for level in _kernel_py.build_tables(*tables)[1]) > 0
        monkeypatch.setattr(_kernel, "LIMIT", 230)
        with pytest.raises(
            GuardLimitError, match="^231 connected subsets listed so far exceed the limit of 230$"
        ):
            _kernel_py.build_tables(*tables)
        # the predicates are a minimum cut, not a subset scan: on a path
        # with d == q every deficit is -val(W)/2, so only the empty set and
        # the whole path reach 0
        d = Cochain(g, [1] + [0] * 20)
        assert ctx.is_semistable(d)
        assert ctx.is_quasistable(d)
        assert ctx.is_stable(d)
        # moving two chips off w1 gives the tail beyond w0 the deficit
        # 2 - 1/2, more than any other subset
        d = Cochain(g, [3, -2] + [0] * 19)
        assert not ctx.is_semistable(d)
        rep = ctx.defects(d)
        assert rep.max_deficit == Fraction(3, 2)
        assert rep.deficit_core == frozenset(names[1:])
        assert ctx.deficit(d, names[1:]) == Fraction(3, 2)


def _subset(g, mask):
    """The vertices of g whose index bits are set in mask."""
    return frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)


def _oracle_scan(ctx, d):
    """The subset-scan oracle on the whole-graph floor table of ctx."""
    g = ctx.graph
    pos = {v: i for i, v in enumerate(g.vertices)}
    floor = oracles.floor_table(
        g.num_vertices,
        [(pos[e.u], pos[e.v]) for e in g.edges],
        [e.id in ctx.stratum for e in g.edges],
        [int(x * ctx.scale) for x in ctx.q.values],
        ctx.scale,
    )
    tables = (g.num_vertices, ctx.scale, floor)
    return oracles.defect_scan(tables, list(d.values), pos[ctx.basepoint])


class TestCutAgainstOracle:
    def test_corpus(self, corpus_cases):
        import random

        rng = random.Random(47)
        for case in corpus_cases:
            g = case.graph
            n = g.num_vertices
            full = (1 << n) - 1
            for v0 in sorted({case.basepoint, rng.choice(g.vertices)}):
                ctx = StratumContext(g, case.q, v0, case.stratum)
                ds = [d.values for d in ctx.enumerate("semistable")]
                for _ in range(3):
                    vals = [rng.randint(-4, 5) for _ in range(n - 1)]
                    ds.append(tuple(vals) + (ctx.budget - sum(vals),))
                for vals in ds:
                    d = Cochain(g, vals)
                    best, and_acc, or_acc, count, bp = _oracle_scan(ctx, d)
                    rep = ctx.defects(d)
                    where = (case.index, v0, vals)
                    assert rep.max_deficit == Fraction(best, ctx.scale), where
                    assert rep.deficit_core == _subset(ctx.graph, and_acc), where
                    assert rep.excess_core == _subset(ctx.graph, full ^ or_acc), where
                    assert rep.basepoint_deficit_core == (
                        None if bp is None else _subset(ctx.graph, bp)
                    ), where
                    assert ctx.is_semistable(d) == (best == 0), where
                    assert ctx.is_quasistable(d) == (best == 0 and bp == full), where
                    # zero deficit only on the empty set and everything
                    assert ctx.is_stable(d) == (best == 0 and count == 2), where


class TestReduce:
    def test_banana_golden(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u")
        rep = ctx.reduce_report(Cochain(banana, [0, 1]))
        assert rep.output.values == (2, -1)
        assert rep.steps == 1

    def test_fixed_points(self, corpus_cases):
        for case in corpus_cases[:25]:
            ctx = _ctx(case)
            for d in ctx.enumerate("quasistable"):
                rep = ctx.reduce_report(d)
                assert rep.steps == 0
                assert rep.output == d

    def test_reduction_properties(self, corpus_cases):
        import random

        rng = random.Random(37)
        for case in corpus_cases[:30]:
            ctx = _ctx(case)
            g = case.graph
            gdel = ctx.deleted_graph
            n = g.num_vertices
            for _ in range(3):
                vals = [rng.randint(-5, 6) for _ in range(n - 1)]
                vals.append(ctx.budget - sum(vals))
                d = Cochain(g, vals)
                semi = ctx.reduce_to_semistable(d)
                assert ctx.is_semistable(semi)
                out = ctx.reduce_to_quasistable(d)
                assert ctx.is_quasistable(out)
                assert same_class(gdel, d.rebind(gdel), out.rebind(gdel))

    def test_idempotent(self, corpus_cases):
        import random

        rng = random.Random(41)
        for case in corpus_cases[:20]:
            ctx = _ctx(case)
            n = case.graph.num_vertices
            vals = [rng.randint(-5, 6) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            out = ctx.reduce_to_quasistable(Cochain(case.graph, vals))
            assert ctx.reduce_to_quasistable(out) == out

    def test_walk_goldens(self):
        # outputs pinned from the subset-scan walk; steps count the unit
        # moves after the jump to the centre, so they pin its rounding
        g = chorded_cycle(12)
        q = Polarization(g, [Fraction(1, 3)] * 6 + [Fraction(2, 3)] * 6)
        ctx = StratumContext(g, q, "c0", ["e12"])
        for vals, steps, out in [
            (
                [30, -30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5],
                1,
                (0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1),
            ),
            (
                [-40, 13, 7, 25, -9, 0, 3, -17, 40, -22, 11, -6],
                1,
                (0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0),
            ),
        ]:
            rep = ctx.reduce_report(Cochain(g, vals))
            assert (rep.steps, rep.output.values) == (steps, out)

    def test_potential_certifies_the_class(self, corpus_cases):
        import random

        rng = random.Random(71)
        for case in corpus_cases:
            ctx = _ctx(case)
            gdel = ctx.deleted_graph
            vals = [rng.randint(-15, 15) for _ in range(case.graph.num_vertices - 1)]
            vals.append(ctx.budget - sum(vals))
            d = Cochain(case.graph, vals)
            rep = ctx.reduce_report(d)
            moved = laplacian_apply(gdel, rep.potential.rebind(gdel))
            assert moved == rep.output.rebind(gdel) - d.rebind(gdel), case.index
        assert ReduceReport(output=d, steps=0).potential is None

    def test_jump_bounds_every_deficit(self, corpus_cases):
        import random

        # after the jump every deficit is at most half a cut
        rng = random.Random(43)
        for case in corpus_cases:
            ctx = _ctx(case)
            if not ctx.deleted_graph.is_connected():
                continue
            n = case.graph.num_vertices
            for _ in range(3):
                vals = [rng.randint(-15, 15) for _ in range(n - 1)]
                vals.append(ctx.budget - sum(vals))
                ctx._apply_delta(vals, ctx._centre_jump(vals))
                d = Cochain(case.graph, vals)
                for mask in range(1, 1 << n):
                    W = _subset(ctx.graph, mask)
                    cut = oracles.crossing_count(ctx.deleted_graph, W)
                    assert ctx.deficit(d, W) <= Fraction(cut, 2), case.index

    def test_walk_is_monotone(self, corpus_cases):
        import random

        # what the step bound rests on, checked without the jump: the worst
        # deficit never rises, and while it stays level the least excess
        # maximizer strictly grows; in the basepoint stage the least
        # zero-deficit set through the basepoint strictly grows
        rng = random.Random(53)
        for case in corpus_cases:
            ctx = _ctx(case)
            if not ctx.deleted_graph.is_connected():
                continue
            n = case.graph.num_vertices
            full = (1 << n) - 1
            vals = [rng.randint(-15, 15) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            best, _, greatest, bp = ctx._defect_cut(vals)
            start, steps = best, 0
            while best > 0 or bp != full:
                grow = full ^ greatest if best > 0 else bp
                sign = 1 if best > 0 else -1
                ctx._apply_delta(vals, [sign * (grow >> v & 1) for v in range(n)])
                steps += 1
                nbest, _, greatest, bp = ctx._defect_cut(vals)
                now = full ^ greatest if nbest > 0 else bp
                assert nbest <= best, case.index
                if nbest == best:
                    assert now & grow == grow != now, case.index
                best = nbest
            assert steps <= (n - 1) * (start + 1), case.index
            assert Cochain(case.graph, vals) == ctx.reduce_to_quasistable(
                Cochain(case.graph, vals)
            )

    def test_guard_at_its_bound(self, monkeypatch):
        # a walk stubbed to make no progress stops after exactly
        # n * (best + 2) unit moves, best being the scaled worst deficit
        # after the jump (which the stub turns into a no-op as well)
        g = chorded_cycle(12)
        ctx = StratumContext(g, Polarization(g, [HALF] * 12), "c0")
        n = g.num_vertices
        qs = set(ctx.enumerate("quasistable"))
        stuck = next(d for d in ctx.enumerate("semistable") if d not in qs)
        far = Cochain(g, [20, -20, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3])
        best = ctx._defect_cut(far.values)[0]
        assert best > 0
        moves = []
        monkeypatch.setattr(
            StratumContext, "_apply_delta", lambda self, vals, z: moves.append(z)
        )
        # a semistable input takes no jump: 2n basepoint moves
        for d, jumps, bound in [(stuck, 0, 2 * n), (far, 1, n * (best + 2))]:
            moves.clear()
            with pytest.raises(ReductionGuardError):
                ctx.reduce_to_quasistable(d)
            assert len(moves) == jumps + bound

    def test_beyond_subset_scan_guard(self):
        import random

        draw = random.Random(7).randint
        seventh = [Fraction(draw(-3, 3), 7) for _ in range(99)]
        inputs = [
            # two chords in the stratum
            (40, [HALF] * 40, ["e40", "e43"], 10),
            (100, [HALF] * 100, [], 40),
            (100, seventh + [1 - sum(seventh)], [], 40),
        ]
        rng = random.Random(5)
        for n, values, stratum, spread in inputs:
            g = chorded_cycle(n)
            ctx = StratumContext(g, Polarization(g, values), "c0", stratum)
            vals = [rng.randint(-spread, spread) for _ in range(n - 1)]
            vals.append(ctx.budget - sum(vals))
            d = Cochain(g, vals)
            assert not ctx.is_semistable(d)
            rep = ctx.reduce_report(d)
            assert ctx.is_quasistable(rep.output)
            assert rep.output.total == d.total == ctx.budget
            gdel = ctx.deleted_graph
            assert same_class(gdel, d.rebind(gdel), rep.output.rebind(gdel))

    def test_disconnected_stratum_rejected(self, banana):
        ctx = StratumContext(banana, Polarization(banana, [1, 0]), "u", ["e0", "e1"])
        with pytest.raises(DisconnectedGraphError):
            ctx.reduce_to_quasistable(Cochain(banana, [-1, 0]))


class TestBasepointInvariance:
    def test_counts_agree(self, corpus_cases):
        for case in corpus_cases[:30]:
            counts = {
                v0: len(
                    StratumContext(
                        case.graph, case.q, v0, case.stratum
                    ).enumerate("quasistable")
                )
                for v0 in case.graph.vertices
            }
            assert len(set(counts.values())) == 1


class TestEqualityWitness:
    def test_triangle_witness(self, triangle):
        q = Polarization(triangle, [1, 0, 0])
        hit = semistable_equality_witness(triangle, q)
        assert hit is not None
        Z, d = hit
        ctx = StratumContext(triangle, q, "a")
        assert ctx.is_semistable(d)
        assert ctx.deficit(d, Z) == 0
        assert triangle.induced_subgraph(Z).is_connected()
        assert triangle.induced_subgraph(triangle.complement(Z)).is_connected()

    def test_bad_inputs_rejected(self, triangle, banana):
        with pytest.raises(GraphMismatchError):
            semistable_equality_witness(triangle, Polarization(banana, [1, 0]))
        g = Multigraph(["a", "b"])
        with pytest.raises(DisconnectedGraphError):
            semistable_equality_witness(g, Polarization(g, [1, 0]))

    def test_none_when_general(self, triangle):
        third = Fraction(1, 3)
        q = Polarization(triangle, [third, third, third])
        assert semistable_equality_witness(triangle, q) is None

    def test_corpus_witnesses(self, corpus_cases):
        for case in corpus_cases[:60]:
            g, q = case.graph, case.q
            hit = semistable_equality_witness(g, q)
            if q.is_general():
                assert hit is None
                continue
            assert hit is not None
            Z, d = hit
            ctx = StratumContext(g, q, case.basepoint)
            assert ctx.is_semistable(d)
            assert ctx.deficit(d, Z) == 0
            assert g.induced_subgraph(Z).is_connected()
            assert g.induced_subgraph(g.complement(Z)).is_connected()

    def test_random_witnesses(self):
        # bridged, looped and parallel graphs on up to 8 vertices, with
        # degenerate polarizations and with ones whose integral subsets are
        # all spines, checked from the definitions: the witness is on the
        # budget, no subset W has d_W below q_W - val(W)/2, and Z sits on it
        rng = random.Random(83)
        seen = dict.fromkeys(("degenerate", "spines only", "bridged"), 0)
        for _ in range(400):
            n = rng.randint(2, 8)
            names = [f"v{i}" for i in range(n)]
            edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
            for _ in range(rng.randint(0, n)):
                r = rng.random()
                if r < 0.25:
                    edges.append((rng.choice(names),) * 2)
                elif r < 0.6:
                    edges.append(rng.choice(edges))
                else:
                    edges.append(tuple(rng.sample(names, 2)))
            g = Multigraph(names, edges)
            q = _random_polarization(rng, g)
            hit = semistable_equality_witness(g, q)
            if q.is_general():
                assert hit is None
                continue
            Z, d = hit
            degenerate = not q.is_nondegenerate()
            seen["degenerate" if degenerate else "spines only"] += 1
            seen["bridged"] += bool(g.bridges())
            assert d.total == q.total
            for r in range(1, n):
                for W in itertools.combinations(names, r):
                    assert d.sum_over(W) >= oracles.adjusted_total(g, q, W), (Z, d, W)
            assert d.sum_over(Z) == oracles.adjusted_total(g, q, Z)
            assert len(oracles.components(g.induced_subgraph(Z))) == 1
            assert len(oracles.components(g.induced_subgraph(g.complement(Z)))) == 1
            assert not (degenerate and oracles.is_spine(g, Z))
        assert min(seen.values()) >= 50, seen
