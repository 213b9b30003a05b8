from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from jacgraph import Cochain, Multigraph, Polarization, StratumContext
from jacgraph import _kernel
from jacgraph._kernel import (
    FAST_BOUND,
    MODE_QUASISTABLE,
    MODE_SEMISTABLE,
    MODE_STABLE,
    implementations,
    select,
)
from jacgraph import _kernel_py

import oracles


def _kernel_args(g, q, stratum):
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges = [(pos[e.u], pos[e.v]) for e in g.edges]
    s_flags = [e.id in stratum for e in g.edges]
    scale = 2 * lcm(*(x.denominator for x in q.values))
    scaled_q = [int(x * scale) for x in q.values]
    return edges, s_flags, scaled_q, scale


def _tables_lists(tables):
    _, _, floor_rhs, ceil_rhs = tables
    return list(floor_rhs), list(ceil_rhs)


needs_speedups = pytest.mark.skipif(
    not _kernel.HAVE_SPEEDUPS, reason="compiled kernel not built: no C compiler on PATH"
)


class TestSelection:
    def test_small_bound_prefers_compiled(self):
        mod = select(1000)
        if _kernel.HAVE_SPEEDUPS:
            assert mod is not _kernel_py
        else:
            assert mod is _kernel_py

    def test_large_bound_forces_pure(self):
        assert select(FAST_BOUND) is _kernel_py
        assert select(1 << 70) is _kernel_py

    def test_routing_at_fast_bound(self, monkeypatch):
        stand_in = object()
        monkeypatch.setattr(_kernel, "_speedups", stand_in)
        assert select(FAST_BOUND - 1) is stand_in
        assert select(FAST_BOUND) is _kernel_py

    def test_implementations_listed(self):
        mods = implementations()
        assert mods[-1] is _kernel_py
        assert len(mods) == (2 if _kernel.HAVE_SPEEDUPS else 1)


@needs_speedups
class TestParity:
    def test_tables_agree(self, corpus_cases):
        compiled = implementations()[0]
        for case in corpus_cases:
            g = case.graph
            args = _kernel_args(g, case.q, case.stratum)
            t_pure = _kernel_py.build_tables(g.num_vertices, *args[:2], *args[2:])
            t_fast = compiled.build_tables(g.num_vertices, *args[:2], *args[2:])
            assert _tables_lists(t_pure) == _tables_lists(t_fast)

    def test_enumeration_agrees(self, corpus_cases):
        compiled = implementations()[0]
        for case in corpus_cases:
            g = case.graph
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            lo, hi = ctx.singleton_box()
            args = _kernel_args(g, case.q, case.stratum)
            t_pure = _kernel_py.build_tables(g.num_vertices, *args)
            t_fast = compiled.build_tables(g.num_vertices, *args)
            for v0, mode in product(
                range(g.num_vertices), (MODE_SEMISTABLE, MODE_QUASISTABLE, MODE_STABLE)
            ):
                got_pure = _kernel_py.box_enumerate(
                    t_pure, v0, ctx.budget, lo, hi, mode
                )
                got_fast = compiled.box_enumerate(
                    t_fast, v0, ctx.budget, lo, hi, mode
                )
                assert sorted(got_pure) == sorted(got_fast)


@needs_speedups
class TestCompiledChecks:
    """The extension's own checks on what it reads from Python; the
    overflow check backs up the FAST_BOUND routing."""

    def test_values_beyond_64_bits_raise(self):
        compiled = implementations()[0]
        for big in (1 << 63, -(1 << 63) - 1, 1 << 70):
            with pytest.raises(OverflowError):
                compiled.build_tables(2, [(0, 1)], [False], [big, 0], 2)
            with pytest.raises(OverflowError):
                compiled.build_tables(2, [(0, 1)], [False], [0, 0], big)

    def test_malformed_input_rejected(self):
        compiled = implementations()[0]
        tables = compiled.build_tables(2, [(0, 1)], [False], [1, 1], 2)
        for bad_edge in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError):
                compiled.build_tables(2, [bad_edge], [False], [1, 1], 2)
        with pytest.raises(ValueError):
            compiled.build_tables(2, [(0, 1)], [], [1, 1], 2)
        with pytest.raises(ValueError):
            compiled.box_enumerate(tables, 2, 1, [0, 0], [1, 1], MODE_QUASISTABLE)
        n, scale, floor_rhs, ceil_rhs = tables
        with pytest.raises(ValueError):
            compiled.box_enumerate(
                (n, scale, floor_rhs[:-1], ceil_rhs), 0, 1, [0, 0], [1, 1], MODE_SEMISTABLE
            )
        assert compiled.box_enumerate(tables, 0, 1, [0, 0], [1, 1], MODE_SEMISTABLE) == [
            (0, 1),
            (1, 0),
        ]


class TestBigValues:
    K = 10**18

    def _context(self, banana):
        q = Polarization(banana, [self.K + 1, -self.K])
        return StratumContext(banana, q, "u")

    def test_routed_to_pure(self, banana):
        ctx = self._context(banana)
        bound = ctx._ints.rhs_bound()
        assert select(bound) is _kernel_py

    def test_enumeration_correct(self, banana):
        ctx = self._context(banana)
        got = sorted(d.values for d in ctx.enumerate("semistable"))
        want = oracles.brute_force_multidegrees(
            banana, ctx.q, "u", frozenset(), "semistable"
        )
        assert got == want
        assert len(got) == 3

    def test_predicates_correct(self, banana):
        ctx = self._context(banana)
        assert ctx.is_semistable(Cochain(banana, [self.K, 1 - self.K]))
        assert ctx.is_quasistable(Cochain(banana, [self.K + 1, -self.K]))
        assert not ctx.is_semistable(Cochain(banana, [0, 1]))

    def test_reduction_correct(self, banana):
        ctx = self._context(banana)
        out = ctx.reduce_to_quasistable(Cochain(banana, [1 - self.K, self.K]))
        assert ctx.is_quasistable(out)


class TestScaleHandling:
    def test_denominator_scaling(self):
        g = Multigraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        q = Polarization(
            g, [Fraction(1, 3), Fraction(1, 4), Fraction(5, 12)]
        )
        ctx = StratumContext(g, q, "a")
        assert ctx.scale == 2 * 12
        got = sorted(d.values for d in ctx.enumerate("quasistable"))
        want = oracles.brute_force_multidegrees(g, q, "a", frozenset(), "quasistable")
        assert got == want
