import math
import random
import re
from fractions import Fraction

import pytest

from jacgraph import (
    Cochain,
    Edge,
    GraphConstructionError,
    InvalidSubsetError,
    Multigraph,
    Polarization,
    UnknownEdgeError,
    UnknownVertexError,
)
from jacgraph import GuardLimitError, _kernel
from jacgraph.graph import _adjacency_masks, _connected_subsets

import oracles


class TestConstruction:
    def test_edge_forms(self):
        g = Multigraph(
            ["a", "b"],
            [("a", "b"), ("x1", "a", "b"), Edge("x2", "b", "b")],
        )
        assert g.edge_ids() == ("e0", "x1", "x2")
        assert g.edge("x2").is_loop
        assert g.edge("e0").other("a") == "b"
        assert g.edge("e0").other("b") == "a"
        with pytest.raises(UnknownVertexError, match="not an endpoint"):
            g.edge("x2").other("a")

    def test_default_ids_positional(self):
        g = Multigraph(["a"], [("a", "a"), ("a", "a")])
        assert g.edge_ids() == ("e0", "e1")

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(GraphConstructionError):
            Multigraph(["a", "a"])

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphConstructionError):
            Multigraph(["a", "b"], [("x", "a", "b"), ("x", "a", "b")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertexError):
            Multigraph(["a"], [("a", "b")])

    def test_genus_defaults_and_validation(self):
        g = Multigraph(["a", "b"], [], {"b": 2})
        assert g.genus_of("a") == 0
        assert g.genus_map() == {"a": 0, "b": 2}
        assert Multigraph(["a", "b"], [], {"a": True, "b": 2.0}).genus_map() == {"a": 1, "b": 2}
        with pytest.raises(GraphConstructionError):
            Multigraph(["a"], [], {"a": -1})
        with pytest.raises(UnknownVertexError):
            Multigraph(["a"], [], {"zz": 1})

    @pytest.mark.parametrize(
        "edges, genus",
        [
            ([], {"a": None}),
            ([], {"a": "x"}),
            ([], {"a": math.nan}),
            ([], {"a": math.inf}),
            ([5], None),
            ([("a",)], None),
        ],
    )
    def test_malformed_input_rejected(self, edges, genus):
        with pytest.raises(GraphConstructionError):
            Multigraph(["a"], edges, genus)

    def test_unknown_lookups(self):
        g = Multigraph(["a"], [("a", "a")])
        with pytest.raises(UnknownEdgeError):
            g.edge("nope")
        with pytest.raises(UnknownVertexError):
            g.loops_at("nope")
        with pytest.raises(UnknownEdgeError):
            g.edge_subset(["nope"])
        with pytest.raises(UnknownVertexError):
            g.vertex_subset(["nope"])

    def test_structural_equality(self):
        g1 = Multigraph(["a", "b"], [("a", "b")], {"a": 1})
        g2 = Multigraph(["a", "b"], [("a", "b")], {"a": 1})
        g3 = Multigraph(["a", "b"], [("a", "b")], {"a": 2})
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3


class TestCounting:
    def test_valence_ignores_loops(self, dumbbell):
        assert dumbbell.valence({"x"}) == 1
        assert dumbbell.loops_at("x") == 1
        assert dumbbell.adjacency("x", "y") == 1

    def test_valence_banana(self, banana):
        assert banana.valence({"u"}) == 2
        assert banana.valence({"u"}, {"v"}) == 2
        assert banana.adjacency("u", "v") == 2

    def test_valence_pairwise_disjointness(self, triangle):
        assert triangle.valence({"a"}, {"b"}) == 1
        with pytest.raises(InvalidSubsetError):
            triangle.valence({"a", "b"}, {"b", "c"})

    def test_valence_restricted(self, triangle):
        assert triangle.valence_in(["e0"], {"a"}) == 1
        assert triangle.valence_in(["e1"], {"a"}) == 0

    def test_induced_edge_count_includes_loops(self, dumbbell):
        every = dumbbell.edge_ids()
        assert dumbbell.induced_edge_count(every, {"x"}) == 1
        assert dumbbell.induced_edge_count(every, {"x", "y"}) == 3
        assert dumbbell.induced_edge_count(["e1"], {"x"}) == 0

    def test_valence_matches_oracle_on_fixtures(self, triangle, dumbbell, square):
        for g in (triangle, dumbbell, square):
            vs = list(g.vertices)
            for mask in range(1, 2 ** len(vs) - 1):
                W = {v for i, v in enumerate(vs) if mask >> i & 1}
                assert g.valence(W) == oracles.crossing_count(g, W)


class TestConnectivity:
    def test_components_connected(self, triangle):
        assert triangle.components() == [frozenset({"a", "b", "c"})]
        assert triangle.is_connected()

    def test_components_disconnected(self):
        g = Multigraph(["a", "b", "c"], [("a", "b")])
        assert g.components() == [frozenset({"a", "b"}), frozenset({"c"})]
        assert not g.is_connected()

    def test_first_betti(self, banana, triangle, dumbbell, path2):
        assert banana.first_betti() == 1
        assert triangle.first_betti() == 1
        assert dumbbell.first_betti() == 2
        assert path2.first_betti() == 0

    def test_subcurve_genus(self, dumbbell):
        g = Multigraph(["x", "y"], [("x", "x"), ("x", "y"), ("y", "y")], {"x": 1})
        assert g.subcurve_genus({"x"}) == 2  # genus 1 plus one loop
        assert g.subcurve_genus({"x", "y"}) == 3
        assert dumbbell.subcurve_genus({"y"}) == 1
        with pytest.raises(InvalidSubsetError):
            dumbbell.subcurve_genus(set())


class TestBridges:
    def test_no_bridges_in_cycles(self, banana, triangle, square):
        assert banana.bridges() == frozenset()
        assert triangle.bridges() == frozenset()
        assert square.bridges() == frozenset()

    def test_bridge_found(self, path2, dumbbell):
        assert path2.bridges() == {"e0"}
        assert dumbbell.bridges() == {"e1"}

    def test_parallel_pair_is_not_a_bridge(self):
        g = Multigraph(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c")])
        assert g.bridges() == {"e2"}

    def test_bridges_match_deletion_oracle(self, corpus_cases):
        for case in corpus_cases:
            g = case.graph
            expect = {e.id for e in g.edges if not e.is_loop and oracles.is_bridge(g, e.id)}
            assert g.bridges() == expect, case.index

    def test_is_spine(self, banana, dumbbell):
        assert not banana.is_spine({"u"})
        assert dumbbell.is_spine({"x"})
        # no crossing edges at all: vacuously a spine
        assert banana.is_spine(set())
        assert banana.is_spine({"u", "v"})


class TestSurgery:
    def test_delete_edges(self, banana):
        g = banana.delete_edges(["e0"])
        assert g.edge_ids() == ("e1",)
        assert g.vertices == banana.vertices

    def test_remove_loops(self, dumbbell):
        g = dumbbell.remove_loops()
        assert g.edge_ids() == ("e1",)

    def test_induced_subgraph(self, dumbbell):
        sub = dumbbell.induced_subgraph({"x"})
        assert sub.vertices == ("x",)
        assert sub.edge_ids() == ("e0",)

    def test_subdivide_edge(self, path2):
        g, middle = path2.subdivide_edges(["e0"])
        assert middle == {"e0": "e0*"}
        assert g.vertices == ("u", "v", "e0*")
        assert g.genus_of("e0*") == 0
        assert g.adjacency("u", "e0*") == 1
        assert g.adjacency("e0*", "v") == 1
        assert g.adjacency("u", "v") == 0

    def test_subdivide_loop_gives_parallel_pair(self):
        g0 = Multigraph(["x"], [("x", "x")], {"x": 1})
        g, middle = g0.subdivide_edges(["e0"])
        m = middle["e0"]
        assert g.adjacency("x", m) == 2
        assert g.loops_at("x") == 0
        assert g.first_betti() == 1

    def test_subdivide_name_collision(self):
        g0 = Multigraph(["a", "e0*"], [("a", "e0*")])
        g, middle = g0.subdivide_edges(["e0"])
        assert middle["e0"] not in ("a", "e0*")
        assert g.num_vertices == 3
        # a half-edge id that is taken gets a prime
        g0 = Multigraph(["a", "b"], [("a", "b"), ("e0:a", "a", "b")])
        g, _ = g0.subdivide_edges(["e0"])
        assert g.edge_ids() == ("e0:a'", "e0:b", "e0:a")

    def test_contract_bridges_dumbbell(self, dumbbell):
        g, mapping = dumbbell.contract_bridges()
        assert g.vertices == ("x",)
        assert mapping == {"x": "x", "y": "x"}
        assert g.loops_at("x") == 2

    def test_contract_bridges_sums_genus(self):
        g0 = Multigraph(["u", "v"], [("u", "v")], {"u": 1, "v": 1})
        g, _ = g0.contract_bridges()
        assert g.vertices == ("u",)
        assert g.genus_of("u") == 2
        # a bridge listed later vertex first still merges into the earlier one
        g0 = Multigraph(["a", "b", "c"], [("b", "a"), ("b", "c"), ("c", "b")], {"a": 1, "b": 2})
        g, mapping = g0.contract_bridges()
        assert mapping == {"a": "a", "b": "a", "c": "c"}
        assert g.genus_of("a") == 3

    def test_contract_bridges_no_bridges(self, triangle):
        g, mapping = triangle.contract_bridges()
        assert g == triangle
        assert mapping == {v: v for v in triangle.vertices}

    def test_contract_preserves_betti(self, corpus_cases):
        for case in corpus_cases[:30]:
            g = case.graph
            contracted, _ = g.contract_bridges()
            assert contracted.first_betti() == g.first_betti()

    def test_contract_bridges_against_oracle(self):
        # vertex labels in shuffled order, so the earliest member of a class
        # is not its least label
        rng = random.Random(2626)
        seen = set()
        for k in range(300):
            names = [f"v{i}" for i in range(1 if k < 10 else rng.randint(2, 9))]
            rng.shuffle(names)
            n = len(names)
            edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n) if rng.random() < 0.8]
            edges += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 4))]
            rng.shuffle(edges)
            g = Multigraph(names, edges, {v: rng.randint(0, 2) for v in names})
            contracted, mapping = g.contract_bridges()
            want, want_mapping = _contract_oracle(g)
            assert contracted == want, g
            assert list(mapping.items()) == list(want_mapping.items()), g
            assert contracted.genus_map() == want.genus_map(), g
            seen.add(("n", n))
            seen.add(("merged", contracted.num_vertices < n))
            seen.add(("disconnected", not g.is_connected()))
        assert {("n", n) for n in range(1, 10)} <= seen
        assert ("merged", True) in seen and ("disconnected", True) in seen


def _contract_oracle(g):
    """``contract_bridges`` from the definitions: the classes are the
    components of g with only its bridges kept, each named after its
    earliest vertex, and every other edge survives between the classes."""
    bridges = {e.id for e in g.edges if not e.is_loop and oracles.is_bridge(g, e.id)}
    name = {}
    for comp in oracles.components(g.delete_edges(set(g.edge_ids()) - bridges)):
        first = next(v for v in g.vertices if v in comp)
        name.update(dict.fromkeys(comp, first))
    mapping = {v: name[v] for v in g.vertices}
    reps = [v for v in g.vertices if name[v] == v]
    genus = {r: sum(g.genus_of(v) for v in g.vertices if name[v] == r) for r in reps}
    edges = [Edge(e.id, name[e.u], name[e.v]) for e in g.edges if e.id not in bridges]
    return Multigraph(reps, edges, genus), mapping


def _check_queries(g, rng):
    """Every query that reads the endpoint index pairs, against the
    label-keyed oracles, on every vertex subset W with a random edge set S
    and a random W2 disjoint from W."""
    comps = oracles.components(g)
    assert g.components() == comps
    assert g.is_connected() == (len(comps) <= 1)
    assert g.bridges() == {e.id for e in g.edges if e.u != e.v and oracles.is_bridge(g, e.id)}
    vs = g.vertices
    for u in vs:
        assert g.loops_at(u) == oracles.loops_at(g, u)
        for v in vs:
            assert g.adjacency(u, v) == oracles.adjacency(g, u, v)
    for mask in range(1 << len(vs)):
        W = {v for i, v in enumerate(vs) if mask >> i & 1}
        rest = [v for v in vs if v not in W]
        W2 = set(rng.sample(rest, rng.randint(0, len(rest))))
        S = {eid for eid in g.edge_ids() if rng.random() < 0.5}
        assert g.valence(W) == oracles.crossing_count(g, W)
        assert g.valence(W, W2) == oracles.valence_between(g, g.edge_ids(), W, W2)
        assert g.valence_in(S, W) == oracles.valence_between(g, S, W, rest)
        assert g.valence_in(S, W, W2) == oracles.valence_between(g, S, W, W2)
        assert g.induced_edge_count(S, W) == oracles.stratum_inside_count(g, S, W)
        assert g.is_spine(W) == oracles.is_spine(g, W)


def _random_multigraph(rng):
    """Up to 7 vertices and 10 edges with uniform endpoints, so isolated
    vertices, several components, loops and parallel edges all occur."""
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))]
    return Multigraph(names, edges)


def _flood_connected(m, pairs):
    """Whether the nonempty vertex bitmask m is connected by the endpoint
    index pairs: grow from its least vertex until no pair adds a vertex."""
    reached, grown = m & -m, True
    while grown:
        grown = False
        for a, b in pairs:
            if m >> a & 1 and m >> b & 1 and (reached >> a & 1) != (reached >> b & 1):
                reached |= 1 << a | 1 << b
                grown = True
    return reached == m


class TestConnectedSubsets:
    def test_matches_flood(self):
        # every connected mask once, in the level of its top vertex, and
        # nothing else, against a flood over all masks
        rng = random.Random("connected-subsets")
        seen = set()
        for trial in range(300):
            n = 1 + trial % 10
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
            levels = list(_connected_subsets(n, _adjacency_masks(n, pairs)))
            assert len(levels) == n
            for k, level in enumerate(levels):
                assert all(m.bit_length() - 1 == k for m in level), (trial, k)
            got = sorted(m for level in levels for m in level)
            assert got == [m for m in range(1, 1 << n) if _flood_connected(m, pairs)], trial
            ends = {v for pair in pairs for v in pair}
            seen.update(
                kind
                for kind, hit in [
                    ("loop", any(a == b for a, b in pairs)),
                    ("parallel", len(set(pairs)) < len(pairs)),
                    ("isolated", len(ends) < n),
                    ("disconnected", not _flood_connected((1 << n) - 1, pairs)),
                ]
                if hit
            )
        assert seen == {"loop", "parallel", "isolated", "disconnected"}

    def test_shapes(self):
        # K_4: all 15 nonempty masks; four isolated vertices: the singletons
        adj = _adjacency_masks(4, [(a, b) for a in range(4) for b in range(a)])
        assert [len(level) for level in _connected_subsets(4, adj)] == [1, 2, 4, 8]
        assert list(_connected_subsets(4, [0] * 4)) == [[1], [2], [4], [8]]
        assert list(_connected_subsets(0, [])) == []

    def test_stops_past_the_limit(self, monkeypatch):
        # K_10 has 1,023 connected subsets: a limit of that lists them all,
        # one less stops the walk inside its last level, the 1,023rd subset
        # listed; K_20 stops inside its tenth level under a limit of 1,000,
        # before the 2**19 subsets of its last
        adj = _adjacency_masks(10, [(a, b) for a in range(10) for b in range(a)])
        monkeypatch.setattr(_kernel, "LIMIT", 1023)
        assert sum(map(len, _connected_subsets(10, adj))) == 1023
        monkeypatch.setattr(_kernel, "LIMIT", 1022)
        levels = []
        with pytest.raises(GuardLimitError, match=(
            "^1023 connected subsets listed so far exceed the limit of 1022$"
        )):
            levels.extend(_connected_subsets(10, adj))
        assert list(map(len, levels)) == [1 << k for k in range(9)]
        adj = _adjacency_masks(20, [(a, b) for a in range(20) for b in range(a)])
        monkeypatch.setattr(_kernel, "LIMIT", 1000)
        levels.clear()
        with pytest.raises(GuardLimitError, match="^1001 connected subsets"):
            levels.extend(_connected_subsets(20, adj))
        assert list(map(len, levels)) == [1 << k for k in range(9)]


class TestAgainstOracles:
    def test_corpus(self, corpus_cases):
        rng = random.Random(61)
        for case in corpus_cases:
            _check_queries(case.graph, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_multigraphs(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            _check_queries(_random_multigraph(rng), rng)

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ([], []),
            (["a"], []),
            (["a"], [("a", "a"), ("a", "a")]),
            (["a", "b", "c"], []),
            (["a", "b", "c", "d"], [("a", "b"), ("a", "b"), ("c", "c")]),
            (["a", "b", "c", "d"], [("d", "c"), ("c", "b"), ("b", "a"), ("a", "d")]),
        ],
    )
    def test_small_shapes(self, vertices, edges):
        _check_queries(Multigraph(vertices, edges), random.Random(0))


class TestVertexValues:
    """The shared contract of ``Cochain`` and ``Polarization``: one value
    per vertex, bound to a graph."""

    @pytest.mark.parametrize("cls, noun", [(Cochain, "cochain"), (Polarization, "polarization")])
    def test_shape_messages(self, banana, cls, noun):
        cases = [
            ({"u": 1}, f"{noun} misses values for ['v']"),
            ({"u": 1, "v": 0, "w": 2}, f"{noun} has values for non-vertices ['w']"),
            ([1], "expected 2 values, got 1"),
            ([1, 0, 0], "expected 2 values, got 3"),
        ]
        for values, message in cases:
            with pytest.raises(GraphConstructionError, match=f"^{re.escape(message)}$"):
                cls(banana, values)

    def test_wrong_length_before_total(self, banana):
        # a single half would also fail the integer-total check
        with pytest.raises(GraphConstructionError, match="^expected 2 values, got 1$"):
            Polarization(banana, [Fraction(1, 2)])

    def test_repr(self, banana):
        assert repr(Cochain(banana, [2, -1])) == "Cochain({'u': 2, 'v': -1})"
        q = Polarization(banana, [Fraction(1, 2), Fraction(3, 2)])
        assert repr(q) == "Polarization({'u': 1/2, 'v': 3/2})"

    def test_kinds_never_equal(self, banana):
        d, q = Cochain(banana, [1, 1]), Polarization(banana, [1, 1])
        assert d.values == q.values
        assert d != q and q != d
        assert hash(d) == hash(q)
        assert d == Cochain(banana, {"v": 1, "u": 1})
        assert q == Polarization(banana, {"v": 1, "u": 1})

    def test_empty_sums(self, banana):
        zero = Cochain(banana, [1, 0]).sum_over([])
        assert zero == 0 and type(zero) is int
        zero = Polarization(banana, [1, 0]).sum_over([])
        assert zero == 0 and type(zero) is Fraction
        assert type(Polarization(banana, [1, 0]).total) is int

    def test_no_instance_dict(self, banana):
        for x in (Cochain(banana, [1, 0]), Polarization(banana, [1, 0])):
            with pytest.raises(AttributeError):
                x.extra = 1

    def test_of_skips_checks(self, banana):
        d = Cochain._of(banana, (1.5,))
        assert d.values == (1.5,) and d.graph is banana
        q = Polarization._of(banana, (Fraction(1, 2), Fraction(0)))
        assert q.values == (Fraction(1, 2), 0) and type(q) is Polarization
