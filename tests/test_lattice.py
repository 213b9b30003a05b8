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
    picard_group,
    same_class,
)

import oracles


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
            assert complexity(g) == oracles.spanning_tree_count(g)


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
