import os
import random
import subprocess
import sys
from fractions import Fraction
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
    if hasattr(tables, "floor_bounds"):
        return tables.floor_bounds(), tables.ceil_bounds()
    return list(tables.floor_rhs), list(tables.ceil_rhs)


needs_speedups = pytest.mark.skipif(
    not _kernel.HAVE_SPEEDUPS, reason="compiled kernel not built"
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

    def test_pure_env_switch(self):
        env = dict(os.environ, JACGRAPH_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", "import jacgraph; print(jacgraph.implementation_name())"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "pure"


@needs_speedups
class TestParity:
    def _cases(self, corpus_cases):
        return corpus_cases[:30]

    def test_tables_agree(self, corpus_cases):
        compiled = implementations()[0]
        for case in self._cases(corpus_cases):
            g = case.graph
            args = _kernel_args(g, case.q, case.stratum)
            t_pure = _kernel_py.build_tables(g.num_vertices, *args[:2], *args[2:])
            t_fast = compiled.build_tables(g.num_vertices, *args[:2], *args[2:])
            assert _tables_lists(t_pure) == _tables_lists(t_fast)

    def test_enumeration_agrees(self, corpus_cases):
        compiled = implementations()[0]
        for case in self._cases(corpus_cases):
            g = case.graph
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            lo, hi = ctx.singleton_box()
            args = _kernel_args(g, case.q, case.stratum)
            t_pure = _kernel_py.build_tables(g.num_vertices, *args)
            t_fast = compiled.build_tables(g.num_vertices, *args)
            v0 = list(g.vertices).index(case.basepoint)
            for mode in (MODE_SEMISTABLE, MODE_QUASISTABLE, MODE_STABLE):
                got_pure = _kernel_py.box_enumerate(
                    t_pure, v0, ctx.budget, lo, hi, mode
                )
                got_fast = compiled.box_enumerate(
                    t_fast, v0, ctx.budget, lo, hi, mode
                )
                assert sorted(got_pure) == sorted(got_fast)

    def test_defect_scan_agrees(self, corpus_cases):
        compiled = implementations()[0]
        rng = random.Random(43)
        for case in self._cases(corpus_cases):
            g = case.graph
            n = g.num_vertices
            args = _kernel_args(g, case.q, case.stratum)
            t_pure = _kernel_py.build_tables(n, *args)
            t_fast = compiled.build_tables(n, *args)
            v0 = rng.randrange(n)
            for _ in range(4):
                d = [rng.randint(-6, 6) for _ in range(n)]
                assert oracles.defect_scan(t_pure, d, v0) == compiled.defect_scan(
                    t_fast, d, v0
                )


class TestBigValues:
    K = 10**18

    def _context(self, banana):
        q = Polarization(banana, [self.K + 1, -self.K])
        return StratumContext(banana, q, "u")

    def test_routed_to_pure(self, banana):
        ctx = self._context(banana)
        bound = ctx._rhs_bound()
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
