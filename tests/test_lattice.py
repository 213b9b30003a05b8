import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from jacgraph import (
    Cochain,
    DegreeMismatchError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphConstructionError,
    GraphMismatchError,
    Multigraph,
    characteristic,
    complexity,
    det_bareiss,
    invariant_factors,
    laplacian_apply,
    laplacian_matrix,
    laplacian_pairing,
    lattice,
    picard_group,
    same_class,
)

from jacgraph.graph import _bfs_forest

import oracles
from corpus import chorded_cycle


class TestCochain:
    def test_from_mapping_and_sequence(self, banana):
        d1 = Cochain(banana, {"u": 2, "v": -1})
        d2 = Cochain(banana, [2, -1])
        assert d1 == d2
        assert d1["u"] == 2 and d1["v"] == -1
        assert d1.total == 1
        assert d1.as_dict() == {"u": 2, "v": -1}
        assert d1.sum_over({"v"}) == -1

    def test_bad_shapes(self, banana):
        with pytest.raises(GraphConstructionError):
            Cochain(banana, [1])
        with pytest.raises(GraphConstructionError):
            Cochain(banana, {"u": 1})
        with pytest.raises(GraphConstructionError):
            Cochain(banana, {"u": 1, "v": 0, "w": 2})

    def test_arithmetic(self, banana):
        d = Cochain(banana, [1, 0]) + Cochain(banana, [1, -1])
        assert d.values == (2, -1)
        assert (d - d).values == (0, 0)
        assert (-d).values == (-2, 1)

    def test_mixed_graph_arithmetic_rejected(self, banana, path2):
        with pytest.raises(GraphMismatchError):
            Cochain(banana, [1, 0]) + Cochain(path2, [1, 0])
        with pytest.raises(TypeError, match="expected a Cochain, got tuple"):
            Cochain(banana, [1, 0]) + (1, 0)

    def test_rebind(self, banana):
        other = banana.delete_edges(["e0"])
        d = Cochain(banana, [1, 0]).rebind(other)
        assert d.graph == other
        with pytest.raises(GraphMismatchError):
            Cochain(banana, [1, 0]).rebind(Multigraph(["a", "b"]))

    def test_non_integers_rejected(self, banana):
        for bad in (2.7, Fraction(3, 2), "4"):
            with pytest.raises(GraphConstructionError, match=re.escape(repr(bad))):
                Cochain(banana, [bad, 1])
            with pytest.raises(GraphConstructionError, match=re.escape(repr(bad))):
                Cochain(banana, {"u": bad, "v": 1})
        assert Cochain(banana, [4, True]).values == (4, 1)

    def test_characteristic(self, triangle):
        assert characteristic(triangle, {"b"}).values == (0, 1, 0)


class TestLaplacian:
    def test_matrix_banana(self, banana):
        assert laplacian_matrix(banana) == [[-2, 2], [2, -2]]

    def test_loops_invisible(self, dumbbell):
        assert laplacian_matrix(dumbbell) == [[-1, 1], [1, -1]]

    def test_apply_rejects_other_graph(self, banana, path2):
        with pytest.raises(GraphMismatchError):
            laplacian_apply(banana, Cochain(path2, [1, 0]))

    def test_apply_matches_matrix(self, corpus_cases):
        rng = random.Random(5)
        for case in corpus_cases[:25]:
            g = case.graph
            n = g.num_vertices
            d = Cochain(g, [rng.randint(-5, 5) for _ in range(n)])
            mat = laplacian_matrix(g)
            expect = [
                sum(mat[i][j] * d.values[j] for j in range(n)) for i in range(n)
            ]
            got = laplacian_apply(g, d)
            assert list(got.values) == expect
            assert got.total == 0

    def test_pairing_matches_expansion(self, corpus_cases):
        for case in corpus_cases[:15]:
            g = case.graph
            vs = list(g.vertices)
            n = len(vs)
            for vm in range(2**n):
                V = {v for i, v in enumerate(vs) if vm >> i & 1}
                lap_chi = laplacian_apply(g, characteristic(g, V))
                for wm in range(2**n):
                    W = {v for i, v in enumerate(vs) if wm >> i & 1}
                    assert laplacian_pairing(g, V, W) == lap_chi.sum_over(W)


class TestDeterminant:
    def test_small_cases(self):
        assert det_bareiss([]) == 1
        assert det_bareiss([[7]]) == 7
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[0, 1], [1, 0]]) == -1
        assert det_bareiss([[1, 0], [0, 0]]) == 0

    def test_shape_and_entries_checked(self):
        for bad in ([[1, 2]], [[2, 3, 4], [1, 1, 1]], [[1], [2]], [[1, 2], [3]], [[]]):
            with pytest.raises(ValueError):
                det_bareiss(bad)
        for bad in ([[2, 0], [0]], [[1], [2, 3]]):
            with pytest.raises(ValueError):
                invariant_factors(bad)
        for f in (det_bareiss, invariant_factors):
            with pytest.raises(TypeError):
                f([[1.5]])
            with pytest.raises(TypeError):
                f([[Fraction(3, 2)]])
        assert invariant_factors([[2, 3, 4], [1, 1, 1]]) == (1, 1)
        assert det_bareiss([[True, 0], [0, 3]]) == 3

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(m) == int(sympy.Matrix(m).det())


class TestSmithNormalForm:
    def _assert_valid(self, mat):
        diag = invariant_factors(mat)
        nr, nc = len(mat), len(mat[0]) if mat else 0
        assert len(diag) == min(nr, nc)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0  # hence zeros last
        return list(diag)

    def _random_matrix(self, rng, max_rows, max_cols):
        nr, nc = rng.randint(1, max_rows), rng.randint(1, max_cols)
        m = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3:
            m[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in m:
                row[j] = 0
        return m

    def test_random_matrices(self):
        rng = random.Random(13)
        for _ in range(60):
            self._assert_valid(self._random_matrix(rng, 4, 4))

    def test_against_determinantal_divisors(self):
        rng = random.Random(19)
        for _ in range(150):
            m = self._random_matrix(rng, 4, 5)
            assert invariant_factors(m) == oracles.invariant_factors(m)

    def test_zero_and_identity(self):
        assert self._assert_valid([[0, 0], [0, 0]]) == [0, 0]
        assert self._assert_valid([[1, 0], [0, 1]]) == [1, 1]
        assert invariant_factors([]) == ()

    def test_content_multiples(self):
        # no unit entry: the pivot scan stops at the gcd of all entries
        rng = random.Random(37)
        for _ in range(40):
            m = self._random_matrix(rng, 4, 4)
            for k in (2, 3, 6):
                km = [[k * x for x in row] for row in m]
                assert invariant_factors(km) == oracles.invariant_factors(km)
                assert self._assert_valid(km) == [k * x for x in invariant_factors(m)]
        for nr, nc in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            zero = [[0] * nc for _ in range(nr)]
            assert invariant_factors(zero) == oracles.invariant_factors(zero)

    def test_against_dense_oracle(self):
        # 1-8 x 1-8, sparse or dense, small or large entries, content 1, 2,
        # 3 and 6, with zero rows and columns
        rng = random.Random(53)
        for _ in range(250):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            density, top = rng.choice((0.3, 0.6, 1.0)), rng.choice((2, 9))
            m = [
                [rng.randint(-top, top) if rng.random() < density else 0 for _ in range(nc)]
                for _ in range(nr)
            ]
            if rng.random() < 0.3:
                m[rng.randrange(nr)] = [0] * nc
            if rng.random() < 0.3:
                j = rng.randrange(nc)
                for row in m:
                    row[j] = 0
            for k in (1, 2, 3, 6):
                km = [[k * x for x in row] for row in m]
                assert invariant_factors(km) == oracles.dense_invariant_factors(km), km

    def test_square_cores(self):
        # content 1, no unit entry, nonsingular: the first two have minors of
        # order k - 1 with a common factor, so they are not cyclic
        assert invariant_factors([[2, 0, 0], [0, 2, 0], [0, 0, 3]]) == (1, 2, 6)
        assert invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
        assert invariant_factors([[2, 3], [3, 2]]) == (1, 5)

    def test_divisibility_needs_mixing(self):
        # diagonal (2, 3) must become (1, 6)
        assert self._assert_valid([[2, 0], [0, 3]]) == [1, 6]

    def test_against_sympy(self):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(17)
        for _ in range(30):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
            diag = self._assert_valid(m)
            ref = sympy_snf(Matrix(m))
            ref_diag = sorted(
                abs(int(ref[i, i])) for i in range(min(nr, nc)) if ref[i, i] != 0
            )
            assert sorted(x for x in diag if x) == ref_diag


class TestComplexityAndPicard:
    def test_fixture_values(self, banana, triangle, square, dumbbell, path2):
        assert complexity(banana) == 2
        assert complexity(triangle) == 3
        assert complexity(square) == 4
        assert complexity(dumbbell) == 1
        assert complexity(path2) == 1

    def test_single_vertex(self):
        assert complexity(Multigraph(["a"], [("a", "a")])) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            complexity(Multigraph([]))
        with pytest.raises(EmptyGraphError):
            picard_group(Multigraph([]))

    def test_disconnected(self):
        g = Multigraph(["a", "b"], [])
        assert complexity(g) == 0
        with pytest.raises(DisconnectedGraphError):
            picard_group(g)

    def test_picard_fixtures(self, banana, triangle, square, dumbbell):
        assert picard_group(banana).invariant_factors == (2,)
        assert picard_group(triangle).invariant_factors == (3,)
        assert picard_group(square).invariant_factors == (4,)
        assert picard_group(dumbbell).invariant_factors == ()
        assert str(picard_group(banana)) == "Z/2"
        assert str(picard_group(dumbbell)) == "trivial"

    def test_order_equals_tree_count(self, corpus_cases):
        for case in corpus_cases[:60]:
            g = case.graph
            assert picard_group(g).order == complexity(g)
            assert complexity(g) == oracles.spanning_tree_count(g) == oracles.kirchhoff_count(g)


def _laplacian_group(g):
    """``picard_group`` of a connected graph by definition: the invariant
    factors of the whole Laplacian, by the independent dense elimination."""
    factors = oracles.dense_invariant_factors(laplacian_matrix(g))
    return tuple(x for x in factors if x > 1), math.prod(x for x in factors if x)


def _cycle_factors(g):
    """Invariant factors of the fundamental-cycle Gram matrix of g, whatever
    the side rule would pick."""
    pos = g._vpos
    pairs = [(pos[e.u], pos[e.v]) for e in g.edges if e.u != e.v]
    parent, up, depth, _ = _bfs_forest(g.num_vertices, pairs, (0,))
    rows = lattice._cycle_gram(parent, depth, [p for k, p in enumerate(pairs) if k not in up])
    gram = [[row.get(h, 0) for h in range(len(rows))] for row in rows]
    assert all(all(row.values()) for row in rows)  # no entry cancels
    return invariant_factors(gram), det_bareiss(gram)


def _random_connected(rng, n, extra):
    """A random spanning tree plus ``extra`` edges (loops, parallel copies
    and fresh pairs), every edge in a random direction, listed shuffled."""
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    for _ in range(extra):
        r = rng.random()
        if r < 0.2 or n == 1:
            edges.append((rng.choice(names),) * 2)
        elif r < 0.4:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(names, 2)))
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(edges)
    rng.shuffle(names)
    return Multigraph(names, edges)


def _banana_chain(k):
    names = [f"b{i}" for i in range(k)]
    return Multigraph(names, [(a, b) for a, b in zip(names, names[1:]) for _ in range(2)])


class TestPicardSides:
    def test_cycle_side_matches_laplacian(self):
        rng = random.Random(41)
        bridged = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            g = _random_connected(rng, n, rng.randint(0, 2 * n))
            factors, det = _cycle_factors(g)
            expect = _laplacian_group(g)
            assert (tuple(x for x in factors if x > 1), math.prod(factors)) == expect
            assert det == expect[1] == complexity(g)
            p = picard_group(g)
            assert (p.invariant_factors, p.order) == expect
            bridged += bool(g.bridges())
        assert bridged > 50

    def test_trees_and_loops(self):
        rng = random.Random(43)
        for n in (1, 2, 5, 9):
            tree = _random_connected(rng, n, 0)
            assert _cycle_factors(tree) == ((), 1)
            assert picard_group(tree).invariant_factors == ()
            assert picard_group(tree).order == 1
        lone = Multigraph(["a"], [("a", "a")] * 3)
        assert _cycle_factors(lone) == ((), 1)
        assert (picard_group(lone).invariant_factors, picard_group(lone).order) == ((), 1)

    def test_side_rule_at_its_boundary(self, monkeypatch):
        # cycle side exactly when 2 * b1 <= n - 1; loops do not count
        calls = []
        gram = lattice._cycle_gram
        monkeypatch.setattr(lattice, "_cycle_gram", lambda *t: calls.append(1) or gram(*t))
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randrange(3, 14, 2)
            for b1, cycle_side in [((n - 1) // 2, True), (n // 2 + 1, False)]:
                g = _random_connected(rng, n, 0)
                names = list(g.vertices)
                extra = [tuple(rng.sample(names, 2)) for _ in range(b1)]
                extra += [(v, v) for v in rng.sample(names, 2)]
                g = Multigraph(names, list(g.edges) + extra)
                calls.clear()
                p = picard_group(g)
                assert bool(calls) == cycle_side
                assert (p.invariant_factors, p.order) == _laplacian_group(g)
        # 2 * b1 == n: the Laplacian side
        for n in (4, 6, 8):
            g = _random_connected(rng, n, 0)
            names = list(g.vertices)
            g = Multigraph(names, list(g.edges) + [tuple(rng.sample(names, 2)) for _ in range(n // 2)])
            calls.clear()
            assert (picard_group(g).invariant_factors, picard_group(g).order) == _laplacian_group(g)
            assert not calls

    def test_pool_families(self):
        for g in [chorded_cycle(n) for n in range(12, 81, 4)] + [_banana_chain(k) for k in (2, 5, 17, 40)]:
            p = picard_group(g)
            assert (p.invariant_factors, p.order) == _laplacian_group(g)

    def test_complete_graphs(self):
        # K_n has the non-cyclic group (Z/n)^(n-2); K_3 is on the cycle side
        for n in range(3, 10):
            names = [f"k{i}" for i in range(n)]
            p = picard_group(Multigraph(names, list(itertools.combinations(names, 2))))
            assert (p.invariant_factors, p.order) == ((n,) * (n - 2), n ** (n - 2))

    def test_doubled_multigraphs(self):
        # every edge twice: the reduced Laplacian has content 2
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(2, 25)
            g = _random_connected(rng, n, rng.randint(0, n))
            doubled = Multigraph(g.vertices, [(e.u, e.v) for e in g.edges] * 2)
            p = picard_group(doubled)
            assert (p.invariant_factors, p.order) == _laplacian_group(doubled)
            assert p.order == complexity(doubled) == oracles.kirchhoff_count(doubled)

    def test_banana_chains_need_no_core(self, monkeypatch):
        # content 2 divided out leaves a path Laplacian, all units
        cores = []
        core_factors = lattice._core_factors
        monkeypatch.setattr(lattice, "_core_factors", lambda a: cores.append(a) or core_factors(a))
        for k in (2, 5, 40):
            p = picard_group(_banana_chain(k))
            assert (p.invariant_factors, p.order) == ((2,) * (k - 1), 2 ** (k - 1))
        assert cores == [[], [], []]

    def test_large_random_multigraphs(self):
        # 20-60 vertices, loops and parallel edges, on both sides of the rule
        rng = random.Random(61)
        sides = set()
        for _ in range(16):
            n = rng.randint(20, 60)
            if rng.random() < 0.5:
                extra = rng.randint(0, (n - 1) // 2)
            else:
                extra = rng.randint(n // 2 + 4, 2 * n)
            g = _random_connected(rng, n, extra)
            b1 = sum(1 for a, b in g._pairs if a != b) - n + 1
            sides.add(2 * b1 <= n - 1)
            p = picard_group(g)
            assert (p.invariant_factors, p.order) == _laplacian_group(g)
            assert p.order == complexity(g) == oracles.kirchhoff_count(g)
        assert sides == {True, False}

    def test_errors_unchanged(self):
        with pytest.raises(EmptyGraphError, match="^degree class group of the empty graph is undefined$"):
            picard_group(Multigraph([]))
        two_k4 = [(a, b) for part in ("abcd", "efgh") for a, b in itertools.combinations(part, 2)]
        for g in [
            Multigraph(["a", "b"], []),
            Multigraph(["a", "b", "c"], [("a", "b"), ("c", "c")]),
            Multigraph(list("abcdefgh"), two_k4 * 2),  # 2 * b1 > n - 1
        ]:
            with pytest.raises(
                DisconnectedGraphError, match="^degree class group is infinite: graph is disconnected$"
            ):
                picard_group(g)


class TestSameClass:
    def test_banana_classes(self, banana):
        d1 = Cochain(banana, [0, 1])
        d2 = Cochain(banana, [2, -1])
        d3 = Cochain(banana, [1, 0])
        assert same_class(banana, d1, d2)
        assert not same_class(banana, d1, d3)

    def test_errors(self, banana, path2):
        with pytest.raises(DegreeMismatchError):
            same_class(banana, Cochain(banana, [0, 0]), Cochain(banana, [1, 0]))
        with pytest.raises(GraphMismatchError):
            same_class(banana, Cochain(path2, [1, 0]), Cochain(path2, [1, 0]))
        g = Multigraph(["a", "b"], [])
        with pytest.raises(DisconnectedGraphError):
            same_class(g, Cochain(g, [1, 0]), Cochain(g, [0, 1]))

    def test_against_elimination_oracle(self, corpus_cases):
        rng = random.Random(23)
        for case in corpus_cases[:40]:
            g = case.graph
            n = g.num_vertices
            for _ in range(4):
                shift = [rng.randint(-3, 3) for _ in range(n - 1)]
                shift.append(-sum(shift))
                d1 = Cochain(g, [rng.randint(-4, 4) for _ in range(n)])
                d2 = Cochain(g, [a + b for a, b in zip(d1.values, shift)])
                expect = oracles.in_laplacian_image(g, shift)
                assert same_class(g, d1, d2) == expect

    def test_against_two_elimination_oracle(self):
        # seeded multigraphs with loops and parallel edges, from 0 to 6
        # vertices, connected or not; equal and unequal totals
        rng = random.Random(31)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except (DegreeMismatchError, DisconnectedGraphError) as exc:
                return type(exc)

        seen = set()
        for _ in range(400):
            n = rng.randint(0, 6)
            names = [f"v{i}" for i in range(n)]
            edges = [
                (rng.choice(names), rng.choice(names))
                for _ in range(rng.randint(0, 2 * n + 2) if n else 0)
            ]
            g = Multigraph(names, edges)
            d1 = Cochain(g, [rng.randint(-4, 4) for _ in range(n)])
            if n and rng.random() < 0.5:
                # a Laplacian image plus, sometimes, a unit move
                y = Cochain(g, [rng.randint(-2, 2) for _ in names])
                shift = list(laplacian_apply(g, y).values)
                if rng.random() < 0.5:
                    i, j = rng.randrange(n), rng.randrange(n)
                    shift[i] += 1
                    shift[j] -= 1
            else:
                shift = [rng.randint(-3, 3) for _ in range(n)]
            d2 = Cochain(g, [a + b for a, b in zip(d1.values, shift)])
            got = outcome(same_class, g, d1, d2)
            assert got == outcome(oracles.same_class, g, d1, d2), (names, edges, d1, d2)
            seen.add((n, got))
        # every outcome occurs, the 0- and 1-vertex graphs included
        assert {(0, True), (1, True)} <= seen
        assert {got for _, got in seen} == {
            True, False, DegreeMismatchError, DisconnectedGraphError
        }

    def test_laplacian_shifts_are_trivial(self, corpus_cases):
        rng = random.Random(29)
        for case in corpus_cases[:30]:
            g = case.graph
            d = Cochain(g, [rng.randint(-4, 4) for _ in range(g.num_vertices)])
            moved = d + laplacian_apply(g, d)
            assert same_class(g, d, moved)
