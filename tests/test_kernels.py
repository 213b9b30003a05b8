import importlib.util
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

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


def _kernel_args(ctx):
    """The kernel inputs of a context: its partial normalization's kept
    edges, scaled polarization and scale."""
    return ctx._ints.kept, ctx._ints.base, ctx.scale


def _whole_graph_args(g, q, stratum):
    """The oracle inputs: every edge, the stratum flags and scale * q."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges = [(pos[e.u], pos[e.v]) for e in g.edges]
    s_flags = [e.id in stratum for e in g.edges]
    scale = 2 * lcm(*(x.denominator for x in q.values))
    scaled_q = [int(x * scale) for x in q.values]
    return edges, s_flags, scaled_q, scale


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
        # both kernels' floor tables over G - S equal the whole-graph
        # formula with S flagged, and the upper bounds derived from them
        # equal its ceiling formula
        compiled = implementations()[0]
        for case in corpus_cases:
            g = case.graph
            n, full = g.num_vertices, (1 << g.num_vertices) - 1
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            whole = _whole_graph_args(g, case.q, case.stratum)
            want_floor = oracles.floor_table(n, *whole)
            want_ceil = oracles.ceil_table(n, *whole)
            for impl in (_kernel_py, compiled):
                _, scale, floor = impl.build_tables(n, *_kernel_args(ctx))
                assert scale == ctx.scale
                assert list(floor) == want_floor, (case.index, impl.__name__)
                ceil = [scale * ctx.budget - floor[full ^ m] for m in range(full + 1)]
                assert ceil == want_ceil, (case.index, impl.__name__)

    def test_enumeration_agrees(self, corpus_cases):
        compiled = implementations()[0]
        for case in corpus_cases:
            g = case.graph
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            lo, hi = ctx.singleton_box()
            args = _kernel_args(ctx)
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
                compiled.build_tables(2, [(0, 1)], [big, 0], 2)
            with pytest.raises(OverflowError):
                compiled.build_tables(2, [(0, 1)], [0, 0], big)

    def test_malformed_input_rejected(self):
        compiled = implementations()[0]
        tables = compiled.build_tables(2, [(0, 1)], [1, 1], 2)
        for bad_edge in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError):
                compiled.build_tables(2, [bad_edge], [1, 1], 2)
        with pytest.raises(ValueError):
            compiled.box_enumerate(tables, 2, 1, [0, 0], [1, 1], MODE_QUASISTABLE)
        n, scale, floor = tables
        with pytest.raises(ValueError):
            compiled.box_enumerate(
                (n, scale, floor[:-1]), 0, 1, [0, 0], [1, 1], MODE_SEMISTABLE
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


class TestBenchScript:
    def test_runs_on_every_kernel(self, capsys):
        # benchmarks/bench_kernel.py calls the kernels directly, so a
        # contract change that it misses fails here
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"
        spec = importlib.util.spec_from_file_location("bench_kernel", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert bench.main(["--sizes", "6,7", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        labels = ", ".join(bench.impl_label(m) for m in implementations())
        assert f"implementations: {labels}\n" in out
        assert "(15 quasistable multidegrees)" in out
        assert "(19 quasistable multidegrees)" in out
