import random
from fractions import Fraction

import pytest

from jacgraph import (
    CanonicalPolarizationError,
    EmptyGraphError,
    GraphConstructionError,
    GuardLimitError,
    InvalidSubsetError,
    Multigraph,
    NonIntegralRestrictionError,
    Polarization,
    PolarizationTotalError,
    canonical_polarization,
)
from jacgraph import _kernel, polarization
from jacgraph.graph import _adjacency_masks, _connected_subsets
from jacgraph.polarization import _text_fraction

import oracles

HALF = Fraction(1, 2)


class TestConstruction:
    def test_mapping_and_sequence(self, banana):
        q1 = Polarization(banana, {"u": HALF, "v": HALF})
        q2 = Polarization(banana, [HALF, "1/2"])
        assert q1 == q2
        assert q1["u"] == HALF
        assert q1.total == 1
        assert q1.sum_over({"u"}) == HALF
        assert q1.as_dict() == {"u": HALF, "v": HALF}

    def test_total_must_be_integer(self, banana):
        with pytest.raises(PolarizationTotalError):
            Polarization(banana, [HALF, 1])

    def test_floats_rejected(self, banana):
        with pytest.raises(GraphConstructionError):
            Polarization(banana, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [None, [1], b"1", 1j], ids=["none", "list", "bytes", "complex"])
    def test_non_rationals_rejected(self, banana, bad):
        with pytest.raises(GraphConstructionError, match="is not a rational"):
            Polarization(banana, [bad, 1])

    def test_strings_follow_the_cli_grammar(self, banana):
        # ASCII digits, an optional sign and denominator, spaces around
        assert Polarization(banana, [" 1/2", "-1/2 "]).values == (HALF, -HALF)
        assert Polarization(banana, ["+3", "-03"]).values == (3, -3)
        for bad in ("1_0", "-\u0669", "0.5", "1e3", "abc", "", "1/0", "1/-2", "1 /2"):
            with pytest.raises(GraphConstructionError, match="cannot parse rational"):
                Polarization(banana, [bad, "0"])
        # the value is built from the matched digits, as Fraction reads them
        for text in ("+3", "-0/5", "007/010", " 1/2 "):
            assert _text_fraction(text) == Fraction(text.strip()), text
        for text in ("1/00", "0/0"):
            assert _text_fraction(text) is None, text

    def test_shape_checked(self, banana):
        with pytest.raises(GraphConstructionError):
            Polarization(banana, [1])
        with pytest.raises(GraphConstructionError):
            Polarization(banana, {"u": 1})


class TestDerived:
    def test_restrict(self, banana):
        q = Polarization(banana, [1, 0])
        r = q.restrict({"u"})
        assert r.graph.vertices == ("u",)
        assert r["u"] == 0

    def test_restrict_needs_integrality(self, banana):
        q = Polarization(banana, [HALF, HALF])
        with pytest.raises(NonIntegralRestrictionError):
            q.restrict({"u"})
        with pytest.raises(InvalidSubsetError):
            q.restrict(set())

    def test_normalized(self, dumbbell):
        q = Polarization(dumbbell, [1, 1])
        r = q.normalized(["e0", "e1"])  # the loop at x and the bridge
        assert r.graph.edge_ids() == ("e2",)
        assert r["x"] == Fraction(-1, 2)
        assert r["y"] == HALF
        assert r.total == q.total - 2

    def test_normalized_total_drop(self, corpus_cases):
        for case in corpus_cases[:25]:
            r = case.q.normalized(case.stratum)
            assert r.total == case.q.total - len(case.stratum)

    def test_blown_up(self, banana):
        q = Polarization(banana, [1, 0])
        b = q.blown_up(banana.edge_ids())
        assert b.graph.num_vertices == 4
        assert b["u"] == 1 and b["v"] == 0
        assert b["e0*"] == 0 and b["e1*"] == 0
        assert b.total == q.total

    def test_contracted(self, dumbbell):
        q = Polarization(dumbbell, [HALF, HALF])
        c = q.contracted()
        assert c.graph.vertices == ("x",)
        assert c["x"] == 1

    def test_contracted_without_bridges(self, triangle):
        q = Polarization(triangle, [1, 0, 0])
        assert q.contracted() == q


class TestIntegrality:
    def test_banana(self, banana):
        assert Polarization(banana, [1, 0]).is_integral_at({"u"})
        assert not Polarization(banana, [HALF, HALF]).is_integral_at({"u"})

    def test_proper_subset_required(self, banana):
        q = Polarization(banana, [1, 0])
        with pytest.raises(InvalidSubsetError):
            q.is_integral_at(set())
        with pytest.raises(InvalidSubsetError):
            q.is_integral_at({"u", "v"})

    def test_componentwise_check(self):
        # the subset total is integral but one connected piece is not
        g = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        q = Polarization(g, [Fraction(1, 4), 0, Fraction(3, 4)])
        W = {"a", "c"}
        assert q.sum_over(W) - Fraction(g.valence(W), 2) == 0
        assert not q.is_integral_at(W)


class TestClassification:
    def test_path_half_half(self, path2):
        q = Polarization(path2, [HALF, HALF])
        assert not q.is_general()
        assert q.is_nondegenerate()
        assert q.integral_witness() == (frozenset({"u"}), True)

    def test_triangle_degenerate(self, triangle):
        q = Polarization(triangle, [1, 0, 0])
        assert not q.is_general()
        assert not q.is_nondegenerate()
        assert q.integral_witness() == (frozenset({"a"}), False)

    def test_triangle_thirds_general(self, triangle):
        third = Fraction(1, 3)
        q = Polarization(triangle, [third, third, third])
        assert q.is_general()
        assert q.is_nondegenerate()
        assert q.integral_witness() is None

    def test_single_vertex_vacuous(self):
        g = Multigraph(["a"], [("a", "a")])
        q = Polarization(g, [3])
        assert q.is_general()
        assert q.is_nondegenerate()
        assert q.integral_witness() is None

    def test_general_implies_nondegenerate(self, corpus_cases):
        for case in corpus_cases[:80]:
            if case.q.is_general():
                assert case.q.is_nondegenerate()

    def test_subset_scan_guard(self, monkeypatch):
        # both counts of the walk, on general polarizations, which it walks
        # to the end: K8 has 255 connected subsets and residue tables of at
        # most 16 entries; a 12-vertex path has 78 connected subsets, and
        # its first residue table reaches 64 entries at level 5, when 21
        # subsets are listed
        rng = random.Random("scan")
        names = [f"k{i}" for i in range(8)]
        k8 = Multigraph(names, [(a, b) for i, a in enumerate(names) for b in names[:i]])
        names = [f"w{i}" for i in range(12)]
        path = Multigraph(names, list(zip(names, names[1:])))
        for g, answers, refused in (
            (k8, 255, "255 connected subsets listed so far exceed the limit of 254"),
            (path, 78, "78 connected subsets listed so far exceed the limit of 77"),
            (path, 78, "64 entries of a residue table exceed the limit of 63"),
        ):
            q = _large_polarization(rng, g, "general")
            monkeypatch.setattr(_kernel, "LIMIT", answers)
            assert q.is_general()
            monkeypatch.setattr(_kernel, "LIMIT", int(refused.split()[-1]))
            with pytest.raises(GuardLimitError, match=f"^{refused}$"):
                q.is_general()


def _connected_edges(rng, names, extra):
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]
    return edges + [tuple(rng.sample(names, 2)) for _ in range(extra)]


def _family_graph(rng, family):
    """Bridged: two random blocks joined by a bridge, plus a pendant vertex.
    Looped and parallel: a random connected graph with loops or with
    repeated edges added."""
    if family == "bridged":
        a = [f"a{i}" for i in range(rng.randint(2, 4))]
        b = [f"b{i}" for i in range(rng.randint(2, 3))]
        edges = _connected_edges(rng, a, 2) + _connected_edges(rng, b, 2)
        edges += [(rng.choice(a), rng.choice(b)), (rng.choice(b), "p")]
        return Multigraph(a + b + ["p"], edges)
    names = [f"v{i}" for i in range(rng.randint(2, 7))]
    edges = _connected_edges(rng, names, rng.randint(0, 3))
    if family == "looped":
        edges += [(v, v) for v in rng.sample(names, rng.randint(1, 2))]
    else:
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
    return Multigraph(names, edges)


def _family_polarization(rng, g, kind):
    """Integer, half-integral or generic (denominator 77) values with an
    integer total; "spine" makes a generic one integral on every block
    left after deleting the bridges, so that only spines can be integral."""
    den = {"integer": 1, "half": 2}.get(kind, 77)
    vals = {v: Fraction(rng.randint(-2 * den, 2 * den), den) for v in g.vertices}
    if kind == "spine":
        bridges = [e.id for e in g.edges if oracles.is_bridge(g, e.id)]
        for block in g.delete_edges(bridges).components():
            last = max(block, key=g.vertices.index)
            vals[last] -= oracles.adjusted_total(g, vals, block) % 1
    else:
        vals[g.vertices[-1]] -= sum(vals.values()) % 1
    return Polarization(g, vals)


class TestClassificationOracle:
    """The bitmask scan against the subset-by-subset scan of the oracles."""

    def test_corpus(self, corpus_cases):
        for case in corpus_cases:
            q = case.q
            got = (q.is_general(), q.is_nondegenerate(), q.integral_witness())
            assert got == oracles.classification(case.graph, q), case.index

    def test_integral_at_corpus(self, corpus_cases):
        for case in corpus_cases[:60]:
            names = case.graph.vertices
            for mask in range(1, (1 << len(names)) - 1):
                W = {v for i, v in enumerate(names) if mask >> i & 1}
                want = oracles.is_integral_at(case.graph, case.q, W)
                assert case.q.is_integral_at(W) == want, (case.index, W)

    @pytest.mark.parametrize("family", ["bridged", "looped", "parallel"])
    def test_seeded_families(self, family):
        rng = random.Random(f"classify-{family}")
        seen = set()
        for _ in range(10):
            g = _family_graph(rng, family)
            for kind in ("integer", "half", "generic", "spine"):
                q = _family_polarization(rng, g, kind)
                want = oracles.classification(g, q)
                got = (q.is_general(), q.is_nondegenerate(), q.integral_witness())
                assert got == want, (family, kind, q)
                seen.add(want[:2])
        # general, non-degenerate only and degenerate all occur
        assert seen == {(True, True), (False, True), (False, False)}


    def test_witness_is_connected(self, corpus_cases):
        # the first integral subset in bitmask order, and the first non-spine
        # one, is connected: a piece of an integral subset is integral, has
        # a smaller mask, and is not a spine when the subset is not
        rng = random.Random("witness")
        problems = [(case.graph, case.q) for case in corpus_cases]
        for family in ("bridged", "looped", "parallel", "disconnected"):
            for _ in range(15):
                if family == "disconnected":  # uniform endpoints, isolated vertices too
                    names = [f"v{i}" for i in range(rng.randint(2, 7))]
                    edges = [tuple(rng.choices(names, k=2)) for _ in range(rng.randint(0, 7))]
                    g = Multigraph(names, edges)
                else:
                    g = _family_graph(rng, family)
                for kind in ("integer", "half", "generic", "spine"):
                    problems.append((g, _family_polarization(rng, g, kind)))
        seen = set()
        for g, q in problems:
            hit = q.integral_witness()
            if hit is not None:
                assert g.induced_subgraph(hit[0]).is_connected(), (g, q)
                seen.add((hit[1], g.is_connected()))
        assert seen == {(spine, linked) for spine in (True, False) for linked in (True, False)}


def _chorded_edges(names):
    """A cycle through names with a chord from every third vertex of the
    first half across, as the benchmarks' chorded cycles."""
    n = len(names)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return edges + [(names[i], names[i + n // 2]) for i in range(0, n // 2, 3)]


def _large_graph(rng, family, n):
    """n vertices, in shuffled order.  Chorded: a chorded cycle.  Bridged:
    blocks of 3 to 6 vertices, each a chorded cycle or a random connected
    graph, in a chain of bridges, plus a pendant vertex.  Disconnected:
    such blocks with no bridges, loops at some vertices and an isolated
    vertex."""
    names = [f"v{i}" for i in range(n)]
    if family == "chorded":
        edges = _chorded_edges(names)
    else:
        rest, blocks = names[: n - 1], []
        while rest:
            size = min(len(rest), rng.randint(3, 6))
            if len(rest) - size < 3:
                size = len(rest)
            blocks.append(rest[:size])
            rest = rest[size:]
        edges = []
        for block in blocks:
            if rng.random() < 0.5:
                edges += _chorded_edges(block)
            else:
                edges += _connected_edges(rng, block, rng.randint(1, 3))
        if family == "bridged":
            edges += [(rng.choice(a), rng.choice(b)) for a, b in zip(blocks, blocks[1:])]
            edges.append((rng.choice(blocks[-1]), names[-1]))
        else:
            edges += [(v, v) for v in rng.sample(names, 3)]
    rng.shuffle(names)
    return Multigraph(names, edges)


def _balanced(rng, names, shift, modulus):
    """Weights 2**(shift + i) / modulus on all but one of names, in random
    order, and minus their sum on that one: for an odd modulus above every
    weight sum, a subset sum is an integer or an integer plus 1/2 only on
    no name or on all of them."""
    order = rng.sample(names, len(names))
    vals = {v: Fraction(1 << (shift + i), modulus) for i, v in enumerate(order[:-1])}
    vals[order[-1]] = -sum(vals.values())
    return vals


def _large_polarization(rng, g, kind):
    """General: balanced weights plus integers.  Spine: balanced weights on
    each block left after deleting the bridges, in disjoint powers, with
    each block's adjusted total made an integer, so that only unions of
    blocks are integral.  Integer: integer values.  Half: 1/2 plus
    integers.  Generic: denominator 7, which leaves the first integral
    subsets a few levels up."""
    names, den = g.vertices, {"integer": 1, "half": 2, "generic": 7}.get(kind)
    modulus = (1 << len(names)) + 1 + 2 * rng.randrange(50)
    if kind == "general":
        vals = _balanced(rng, names, 0, modulus)
    elif kind == "spine":
        vals, shift = {}, 0
        for block in g.delete_edges(g.bridges()).components():
            vals.update(_balanced(rng, list(block), shift, modulus))
            shift += len(block) - 1
            vals[min(block, key=names.index)] += Fraction(g.valence(block) % 2, 2)
    else:
        vals = {v: Fraction(rng.randint(-2 * den, 2 * den), den) for v in names}
        if kind == "half":
            vals = {v: x - x % 1 + HALF for v, x in vals.items()}
        vals[names[0]] -= sum(vals.values()) % 1
    return Polarization(g, {v: x + rng.randint(-1, 1) for v, x in vals.items()})


class TestClassificationBeyondCorpus:
    """The connected-subset walk against the bitmask scan it replaced
    (``oracles.classification_scan``) on 9 to 20 vertices."""

    KINDS = ("general", "spine", "integer", "half", "generic")

    def test_against_bitmask_scan(self):
        rng = random.Random("beyond-corpus")
        seen = set()
        for n in (*range(9, 17), 20):
            # the scan tests half the masks of a half-integral disconnected
            # graph, seconds at 20 vertices
            for family in ("chorded", "bridged", "disconnected")[: 2 if n == 20 else 3]:
                g = _large_graph(rng, family, n)
                for kind in self.KINDS:
                    q = _large_polarization(rng, g, kind)
                    got = (q.is_general(), q.is_nondegenerate(), q.integral_witness())
                    assert got == oracles.classification_scan(q), (n, family, kind)
                    seen.add((family, got[:2]))
        # general, non-degenerate only and degenerate all occur on each
        # family but the chorded cycles, which have no bridges
        want = {(True, True), (False, True), (False, False)}
        assert seen == {(f, c) for f in ("bridged", "disconnected") for c in want} | {
            ("chorded", (True, True)), ("chorded", (False, False))
        }

    def test_spine_only_shapes(self, monkeypatch):
        # two chorded cycles joined by a bridge, integral only on each side
        # of it: is_general stops at the first side, whose levels come
        # first, and integral_witness walks on to find no non-spine
        levels = []

        def counted(n, adj, real=polarization._connected_subsets):
            for level in real(n, adj):
                levels.append(level)
                yield level

        monkeypatch.setattr(polarization, "_connected_subsets", counted)
        rng = random.Random("spine-only")
        for n_a, n_b in ((3, 3), (4, 7), (5, 5), (5, 6), (8, 8)):
            a = [f"a{i}" for i in range(n_a)]
            b = [f"b{i}" for i in range(n_b)]
            bridge = (rng.choice(a), rng.choice(b))
            g = Multigraph(a + b, _chorded_edges(a) + _chorded_edges(b) + [bridge])
            q = _large_polarization(rng, g, "spine")
            general, nondegenerate, witness = oracles.classification_scan(q)
            assert (general, nondegenerate, witness) == (False, True, (frozenset(a), True))
            levels.clear()
            assert q.is_general() is general
            assert len(levels) == n_a
            levels.clear()
            assert q.integral_witness() == witness
            assert len(levels) == n_a + n_b

    def test_guard_boundary(self, monkeypatch):
        # no vertex guard: a general polarization of a chorded 21-cycle
        # answers on every entry point; at a limit of one less than its
        # connected subsets every entry point refuses
        rng = random.Random("guard")
        names = [f"v{i}" for i in range(21)]
        g = Multigraph(names, _chorded_edges(names))
        q = _large_polarization(rng, g, "general")
        calls = (q.is_general, q.is_nondegenerate, q.integral_witness)
        count = sum(map(len, _connected_subsets(21, _adjacency_masks(21, g._pairs))))
        assert count > 1 << 11  # past the residue tables
        monkeypatch.setattr(_kernel, "LIMIT", count)
        assert [call() for call in calls] == [True, True, None]
        monkeypatch.setattr(_kernel, "LIMIT", count - 1)
        for call in calls:
            with pytest.raises(GuardLimitError, match=f"^{count} connected subsets listed so far"):
                call()


class TestCanonical:
    def test_dumbbell(self, dumbbell):
        q = canonical_polarization(dumbbell, 2)
        assert q.as_dict() == {"x": 1, "y": 1}

    def test_genus_weights_matter(self):
        g = Multigraph(["u", "v"], [("u", "v")], {"u": 2, "v": 1})
        # total genus 3, so weights are degree * (2g_v - 2 + val) / 4
        q = canonical_polarization(g, 4)
        assert q.as_dict() == {"u": 3, "v": 1}

    def test_single_vertex(self):
        g = Multigraph(["a"])
        assert canonical_polarization(g, 5).as_dict() == {"a": 5}

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            canonical_polarization(Multigraph([]), 1)

    def test_disconnected_keeps_degree(self):
        # divided by the weights' sum, not by 2g - 2 for the components' total genus
        g = Multigraph(["a", "b"], genus={"a": 2, "b": 2})
        q = canonical_polarization(g, 3)
        assert q.as_dict() == {"a": Fraction(3, 2), "b": Fraction(3, 2)}
        g = Multigraph(["a", "b", "c"], [("a", "b"), ("a", "b"), ("c", "c")], {"c": 1})
        q = canonical_polarization(g, 4)
        assert q.as_dict() == {"a": 0, "b": 0, "c": 4} and q.total == 4

    def test_connected_against_genus(self, corpus_cases):
        for case in corpus_cases:
            g = case.graph
            denom = 2 * g.subcurve_genus(g.vertices) - 2
            if not g.is_connected() or denom == 0:
                continue
            q = canonical_polarization(g, 5)
            for v in g.vertices:
                w = 2 * g.genus_of(v) - 2 + g.valence({v}) + 2 * g.loops_at(v)
                assert q[v] == Fraction(5 * w, denom)

    def test_vanishing_denominator(self, triangle, banana):
        for g in (triangle, banana):  # total genus 1
            with pytest.raises(CanonicalPolarizationError):
                canonical_polarization(g, 1)
