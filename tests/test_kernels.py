import importlib.util
import inspect
import random
import re
import subprocess
import sys
import sysconfig
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import product
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from jacgraph import Cochain, Multigraph, Polarization, StratumContext
from jacgraph import _kernel
from jacgraph._kernel import (
    FAST_BOUND,
    LIMIT,
    MODE_QUASISTABLE,
    MODE_SEMISTABLE,
    MODE_STABLE,
    Layout,
    implementations,
    select,
)
from jacgraph import _kernel_py

import corpus
import oracles


def _kernel_args(ctx):
    """The kernel inputs of a context: its partial normalization's kept
    edges, scaled polarization and scale."""
    return ctx._kept, ctx._base, ctx.scale


def _layout(lo, hi, at):
    """The ``Layout`` of the box in output order: position ``at[k]`` holds
    ``lo[k]`` to ``hi[k]``, the box of search vertex k."""
    out_lo, out_hi = list(lo), list(hi)
    for k, p in enumerate(at):
        out_lo[p], out_hi[p] = lo[k], hi[k]
    return Layout.of(out_lo, out_hi)


def _search(impl, n, edges, base, scale, v0, lo, hi, mode, at):
    """The rows of ``impl.box_enumerate`` as value tuples, for search
    vertex k boxed in ``lo[k]`` to ``hi[k]``: the kernel reads the box from
    the layout of the box in output order and packs each row in it."""
    layout = _layout(lo, hi, at)
    return layout.unpack(impl.box_enumerate(n, edges, base, scale, v0, mode, at, layout, LIMIT))


def _whole_graph_args(g, q, stratum):
    """The oracle inputs: every edge, the stratum flags and scale * q."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    edges = [(pos[e.u], pos[e.v]) for e in g.edges]
    s_flags = [e.id in stratum for e in g.edges]
    scale = 2 * lcm(*(x.denominator for x in q.values))
    scaled_q = [int(x * scale) for x in q.values]
    return edges, s_flags, scaled_q, scale


def _random_problem(rng, n):
    """A multigraph on n vertices with parallel edges and loops, neither it
    nor G - S necessarily connected, a polarization with integer total, a
    basepoint and a stratum S of any of its edges."""
    names = [f"v{i}" for i in range(n)]
    pick = rng.choice
    edges = [(pick(names), pick(names)) for _ in range(rng.randint(0, 2 * n))]
    g = Multigraph(names, edges)
    stratum = [e for e in g.edge_ids() if rng.random() < 0.2]
    return g, corpus._random_polarization(rng, g), rng.choice(names), stratum


KINDS = (
    ("semistable", MODE_SEMISTABLE),
    ("quasistable", MODE_QUASISTABLE),
    ("stable", MODE_STABLE),
)


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


def _component(m, pairs):
    """The union of the components that the vertex bitmask m meets: grow m
    along the endpoint index pairs until no pair adds a vertex."""
    grown = True
    while grown:
        grown = False
        for a, b in pairs:
            if (m >> a & 1) != (m >> b & 1):
                m |= 1 << a | 1 << b
                grown = True
    return m


def _planned(n, pairs):
    """The masks without the last vertex whose two bounds the plan checks:
    each connected subset whose remainder in its component is connected or
    empty."""
    return {
        m
        for m in range(1, (1 << (n - 1)))
        if _flood_connected(m, pairs)
        and ((rest := _component(m, pairs) ^ m) == 0 or _flood_connected(rest, pairs))
    }


def _check_plan(n, pairs, plan):
    """The plan checks the masks ``_planned`` gives.  It keeps no mask
    that holds the last vertex, and besides the checked masks only their
    prefixes (a mask less its top vertex, repeated), each mask once under
    its top vertex, in increasing order."""
    assert len(plan) == n
    assert not plan[-1]
    for k, level in enumerate(plan):
        masks = [m for m, _ in level]
        assert masks == sorted(set(masks))
        assert all(m.bit_length() - 1 == k for m in masks)
    entries = dict(e for level in plan for e in level)
    assert sum(map(len, plan)) == len(entries)
    checked = {m for m, c in entries.items() if c}
    assert checked == _planned(n, pairs)
    closure = set()
    for m in checked:
        while m:
            closure.add(m)
            m ^= 1 << (m.bit_length() - 1)
    assert set(entries) == closure


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


def _kept_bounds(tables):
    """The bounds the pure kernel's tables keep, by mask, after checking
    that they cover exactly the plan's masks, which its search reads."""
    bounds, plan = tables
    assert set(bounds) == {m for level in plan for m, _ in level}
    return bounds


class TestPureKernel:
    """The pure kernel against independent formulas; these run with or
    without the compiled kernel."""

    def test_tables_match_formula(self, corpus_cases):
        # the lower and upper bounds kept over G - S equal the whole-graph
        # floor and ceiling formulas with S flagged.  Handed every edge of
        # G, loops and parallel edges included, the bounds kept equal the
        # formulas with nothing flagged
        sizes = set()
        for case in corpus_cases:
            g = case.graph
            n = g.num_vertices
            sizes.add(n)
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            edges, flags, scaled_q, scale = whole = _whole_graph_args(g, case.q, case.stratum)
            bounds = _kept_bounds(_kernel_py.build_tables(n, *_kernel_args(ctx)))
            floor, ceil = oracles.floor_table(n, *whole), oracles.ceil_table(n, *whole)
            assert bounds == {m: (floor[m], ceil[m]) for m in bounds}, case.index
            bounds = _kept_bounds(_kernel_py.build_tables(n, edges, scaled_q, scale))
            plain = (edges, [False] * len(flags), scaled_q, scale)
            floor, ceil = oracles.floor_table(n, *plain), oracles.ceil_table(n, *plain)
            assert bounds == {m: (floor[m], ceil[m]) for m in bounds}, case.index
        assert 1 in sizes

    def test_plan_matches_flood(self):
        rng = random.Random(31)
        disconnected = 0
        for trial in range(240):
            n = 1 + trial % 8
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            disconnected += not _flood_connected((1 << n) - 1, ctx._kept)
            _, plan = _kernel_py.build_tables(n, *_kernel_args(ctx))
            _check_plan(n, ctx._kept, plan)
        assert disconnected > 0  # G - S disconnected in some cases

    def test_enumeration_matches_brute_force(self):
        # in the kernels' own vertex order the outputs come in increasing
        # order, as the brute force's do; up to 7 vertices, as the brute
        # force takes seconds a graph from 8 on.  A box narrower than the
        # singleton bounds cuts the outputs to those inside it.
        rng = random.Random(37)
        for trial, n in enumerate([*range(1, 7)] * 20 + [7] * 3):
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            lo, hi = ctx.singleton_box()
            inner_lo, inner_hi = [a + 1 for a in lo], [b - 1 for b in hi]
            for kind, mode in KINDS:
                want = oracles.brute_force_multidegrees(g, q, basepoint, stratum, kind)
                for impl in implementations():
                    args = (n, *_kernel_args(ctx), ctx._v0)
                    got = _search(impl, *args, lo, hi, mode, range(n))
                    assert got == want, (trial, kind, impl.__name__)
                    got = _search(impl, *args, inner_lo, inner_hi, mode, range(n))
                    inside = [
                        d for d in want
                        if all(a <= x <= b for a, x, b in zip(inner_lo, d, inner_hi))
                    ]
                    assert got == inside, (trial, kind, impl.__name__)


def _tight_bounds(n, scale, floor, v0, total, lo, hi, kind, pairs):
    """How many bounds the plan keeps meet the box's reach exactly: a node
    that decides d_m has d_m at least ``max(lo_m, total - hi_c)`` and at most
    ``min(hi_m, total - lo_c)``, c the complement of m, and a bound equal to
    that reach can never cut."""
    full = (1 << n) - 1
    hits = 0
    for m in _planned(n, pairs):
        lo_m = sum(lo[i] for i in range(n) if m >> i & 1)
        hi_m = sum(hi[i] for i in range(n) if m >> i & 1)
        reach_lo = scale * max(lo_m, total - sum(hi) + hi_m)
        reach_hi = scale * min(hi_m, total - sum(lo) + lo_m)
        strict_low = kind == "stable" or kind == "quasistable" and m >> v0 & 1
        strict_high = kind == "stable" or kind == "quasistable" and not m >> v0 & 1
        hits += reach_lo == floor[m] + strict_low
        hits += reach_hi == scale * total - floor[full ^ m] - strict_high
    return hits


class TestBoxSearch:
    """Both kernels against the search that checks every subset."""

    def test_matches_unpruned_search(self, corpus_cases):
        # the singleton box with the context's base, which the brute force
        # also gives, then boxes drawn around a random point of it, with
        # base[0] moved by scale times the point's distance from the budget,
        # so that the point's total is the budget; their reach meets the
        # bounds exactly often enough to be counted
        rng = random.Random(43)
        tight = dict.fromkeys((kind for kind, _ in KINDS), 0)
        for case in rng.sample(corpus_cases, 80):
            g = case.graph
            n = g.num_vertices
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            kept, base, scale = _kernel_args(ctx)
            lo, hi = ctx.singleton_box()
            boxes = [(lo, hi, base)]
            for _ in range(6):
                point = [rng.randint(a, max(a, b)) for a, b in zip(lo, hi)]
                box_lo = [x - rng.randint(0, 1) for x in point]
                box_hi = [x + rng.randint(0, 2) for x in point]
                moved = [base[0] + scale * (sum(point) - ctx.budget), *base[1:]]
                boxes.append((box_lo, box_hi, moved))
            floors = [
                oracles.floor_table(n, kept, [False] * len(kept), box_base, scale)
                for _, _, box_base in boxes
            ]
            for kind, mode in KINDS:
                brute = oracles.brute_force_multidegrees(
                    g, case.q, case.basepoint, case.stratum, kind
                )
                for i, (box_lo, box_hi, box_base) in enumerate(boxes):
                    v0 = ctx._v0 if i == 0 else rng.randrange(n)
                    box = (v0, sum(box_base) // scale, box_lo, box_hi, kind)
                    want = oracles.box_search(n, kept, box_base, scale, *box)
                    if i == 0:
                        assert want == brute, case.index
                    tight[kind] += _tight_bounds(n, scale, floors[i], *box, kept)
                    for impl in implementations():
                        got = _search(
                            impl, n, kept, box_base, scale, v0, box_lo, box_hi, mode, range(n)
                        )
                        assert got == want, (case.index, i, kind, impl.__name__)
        assert min(tight.values()) >= 100, tight

    def test_budget_plan_beyond_brute_force(self):
        # the kernels share a plan that checks only some connected
        # subsets, so their parity is no check of it, and the
        # brute force stops at 7 vertices: random problems of 8 to 10
        # vertices at the degree budget, G - S disconnected in some, in
        # every kind, against the search that checks every subset
        rng = random.Random(89)
        disconnected = rows = 0
        for trial in range(24):
            n = 8 + trial % 3
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            kept, base, scale = _kernel_args(ctx)
            disconnected += not _flood_connected((1 << n) - 1, kept)
            lo, hi = ctx.singleton_box()
            for kind, mode in KINDS:
                want = oracles.box_search(n, kept, base, scale, ctx._v0, ctx.budget, lo, hi, kind)
                for impl in implementations():
                    got = _search(impl, n, kept, base, scale, ctx._v0, lo, hi, mode, range(n))
                    assert got == want, (trial, kind, impl.__name__)
                rows += len(want)
        assert 0 < disconnected < 24 and rows > 1000, (disconnected, rows)

    def test_base_off_the_budget_rejected(self):
        # the total is sum(base) / scale: a scale that is not positive, or
        # a base whose sum it does not divide, is refused before any search,
        # with a box that holds outputs and with an empty one, at one
        # vertex (no search) and at three; the same graph with its base on
        # the budget enumerates
        path = [(0, 1), (1, 2)]
        refused = (
            (1, [], [3], 2),
            (3, path, [1, 1, -1], 2),
            (3, path, [2, 2, 2], 4),
            (3, path, [1, -4, 0], 2),
            (3, path, [2, 2, 0], 0),
            (3, path, [2, 2, 0], -2),
        )
        for impl in implementations():
            for (n, edges, base, scale), ends in product(refused, ((-5, 5), (5, 5))):
                box = (MODE_SEMISTABLE, range(n), Layout.of([ends[0]] * n, [ends[1]] * n))
                with pytest.raises(ValueError, match="scale"):
                    impl.box_enumerate(n, edges, base, scale, 0, *box, LIMIT)
            wide = ([-5] * 3, [5] * 3)
            got = _search(impl, 3, path, [2, 2, 0], 2, 0, *wide, MODE_SEMISTABLE, range(3))
            assert got == oracles.box_search(3, path, [2, 2, 0], 2, 0, 2, *wide, "semistable")
            assert got, impl.__name__

    def test_rows_placed_by_at(self):
        # a random permutation at re-indexes the identity-order rows: the
        # value of search vertex k goes to position at[k], rows in the
        # search's order.  Every size has outputs, among them n = 1 (no
        # search), n = 2 (level 0 is the last checked level) and n = 3.
        rng = random.Random(67)
        outputs = dict.fromkeys(range(1, 9), 0)
        for trial in range(200):
            n = 1 + trial % 8
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            lo, hi = ctx.singleton_box()
            at = rng.sample(range(n), n)
            inv = sorted(range(n), key=at.__getitem__)
            for impl, (_, mode) in product(implementations(), KINDS):
                args = (n, *_kernel_args(ctx), ctx._v0, lo, hi, mode)
                plain = _search(impl, *args, range(n))
                got = _search(impl, *args, at)
                assert got == [tuple(d[k] for k in inv) for d in plain], (trial, mode)
                outputs[n] += len(got)
        assert min(outputs.values()) >= 20, outputs

    def test_level_order_changes_only_cost(self):
        # search level j takes problem vertex order[j]: the edges, the
        # scaled polarization, the box and v0 relabelled, and ``at``
        # composed with the order.  The rows, sorted, are those of the
        # search in vertex order, on every kernel; G - S is disconnected
        # in some problems, and n = 1 and n = 2 have outputs
        rng = random.Random(71)
        outputs = dict.fromkeys(range(1, 9), 0)
        disconnected = 0
        for trial in range(200):
            n = 1 + trial % 8
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            kept, base, scale = _kernel_args(ctx)
            disconnected += not _flood_connected((1 << n) - 1, kept)
            lo, hi = ctx.singleton_box()
            v0 = rng.randrange(n)
            at = rng.sample(range(n), n)
            order = rng.sample(range(n), n)
            inv = sorted(range(n), key=order.__getitem__)
            for impl, (_, mode) in product(implementations(), KINDS):
                plain = _search(impl, n, kept, base, scale, v0, lo, hi, mode, at)
                got = _search(
                    impl,
                    n,
                    [(inv[a], inv[b]) for a, b in kept],
                    [base[v] for v in order],
                    scale,
                    inv[v0],
                    [lo[v] for v in order],
                    [hi[v] for v in order],
                    mode,
                    [at[v] for v in order],
                )
                assert sorted(got) == sorted(plain), (trial, mode, impl.__name__)
                outputs[n] += len(got)
        assert disconnected > 0
        assert min(outputs.values()) >= 20, outputs

    def test_library_order_is_the_layered_search(self, monkeypatch):
        # the order ``_packed`` hands the kernel is that of the
        # layered bitmask search (``oracles.level_order``).  The rows come
        # out sorted whatever the order, but the order decides how early
        # the plan's bounds cut.  Random multigraphs on 1 to 12 vertices
        # with loops, parallel edges and strata, G - S disconnected in some
        seen = []
        monkeypatch.setattr(
            _kernel,
            "select",
            lambda bound: SimpleNamespace(box_enumerate=lambda *args: seen.append(args[-3]) or []),
        )
        rng = random.Random(79)
        sizes, disconnected = set(), 0
        for trial in range(600):
            n = 1 + trial % 12
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            adj = [0] * n
            for a, b in ctx._kept:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            seen.clear()
            ctx._packed("semistable")
            if seen:  # the box is not empty
                assert seen == [oracles.level_order(n, adj)], trial
                sizes.add(n)
                disconnected += not _flood_connected((1 << n) - 1, ctx._kept)
        assert sizes == set(range(1, 13))
        assert disconnected >= 20, disconnected

    def test_library_order_on_every_kernel(self, corpus_cases, monkeypatch):
        # the library's own order, with the kernel chosen by hand: at every
        # basepoint of the corpus, and on random problems whose G - S may
        # be disconnected, n = 1 and n = 2 among them, the rows equal the
        # search's in vertex order
        rng = random.Random(73)
        contexts = [
            StratumContext(case.graph, case.q, v, case.stratum)
            for case in corpus_cases
            for v in case.graph.vertices
        ]
        disconnected = 0
        for trial in range(80):
            n = 1 + trial % 8
            g, q, basepoint, stratum = _random_problem(rng, n)
            contexts.append(StratumContext(g, q, basepoint, stratum))
            disconnected += not _flood_connected((1 << n) - 1, contexts[-1]._kept)
        sizes = set()
        for ctx in contexts:
            n = ctx.graph.num_vertices
            lo, hi = ctx.singleton_box()
            for kind, _ in KINDS:
                want = oracles.box_search(
                    n, *_kernel_args(ctx), ctx._v0, ctx.budget, lo, hi, kind
                )
                for impl in implementations():
                    monkeypatch.setattr(_kernel, "select", lambda bound, impl=impl: impl)
                    layout, rows = ctx._packed(kind)
                    assert layout.unpack(rows) == want, (kind, impl.__name__)
                if want:
                    sizes.add(n)
        assert disconnected > 0
        assert {1, 2} <= sizes


def _kept_per_level(n, scale, tables, v0, total, lo, hi, mode):
    """Per level k < n - 1 of the plan of the pure kernel's tables: how many
    of its lower and of its upper bounds can cut, and how many of its masks
    the plan keeps as prefixes only.  A bound cuts when it is tighter than
    the box's reach, as in ``_tight_bounds``."""
    bounds, plan = tables
    out = []
    for k in range(n - 1):
        lower = upper = prefixes = 0
        for m, checked in plan[k]:
            if not checked:
                prefixes += 1
                continue
            lo_m = sum(lo[i] for i in range(n) if m >> i & 1)
            hi_m = sum(hi[i] for i in range(n) if m >> i & 1)
            reach_lo = scale * max(lo_m, total - sum(hi) + hi_m)
            reach_hi = scale * min(hi_m, total - sum(lo) + lo_m)
            strict_low = mode == MODE_STABLE or mode == MODE_QUASISTABLE and m >> v0 & 1
            strict_high = mode == MODE_STABLE or mode == MODE_QUASISTABLE and not m >> v0 & 1
            low, high = bounds[m]
            lower += low + strict_low > reach_lo
            upper += high - strict_high < reach_hi
        out.append((lower, upper, prefixes))
    return out


def _interval_edges(n, scale, tables, v0, total, lo, hi, mode, seen):
    """Walk the search of the pure kernel's tables in index order, each node
    testing every value of its range against every bound of its level on
    plain sums, and count into ``seen`` the nodes where no value of a
    nonempty range meets the lower bounds, where the upper bounds cut some
    but not all of the values that meet the lower ones, and where one value
    passes.  Asserts that the values meeting the lower bounds are a top part
    of the range and those meeting the upper bounds a bottom part."""
    bounds, plan = tables
    d = [0] * n

    def holds(k, upper):
        for m, checked in plan[k]:
            if checked:
                s = scale * sum(d[i] for i in range(k + 1) if m >> i & 1)
                low, high = bounds[m]
                if upper:
                    strict = mode == MODE_STABLE or mode == MODE_QUASISTABLE and not m >> v0 & 1
                    if s > high - strict:
                        return False
                else:
                    strict = mode == MODE_STABLE or mode == MODE_QUASISTABLE and m >> v0 & 1
                    if s < low + strict:
                        return False
        return True

    def place(k, rest):
        first = max(lo[k], rest - sum(hi[k + 1 :]))
        last = min(hi[k], rest - sum(lo[k + 1 :]))
        lower, upper = [], []
        for x in range(first, last + 1):
            d[k] = x
            lower.append(holds(k, False))
            upper.append(holds(k, True))
        assert lower == sorted(lower) and upper == sorted(upper, reverse=True)
        values = [x for x, a, b in zip(range(first, last + 1), lower, upper) if a and b]
        after_lower = sum(lower)
        seen["lower empties"] += bool(lower) and not after_lower
        seen["upper trims"] += 0 < len(values) < after_lower
        seen["one value"] += len(values) == 1
        if k < n - 2:
            for x in values:
                d[k] = x
                place(k + 1, rest - x)

    if n > 1:
        place(0, total)


class TestPackedSearch:
    """The pure kernel's box search keeps its partial sums in the fields of
    one integer.  These cases sit at the edges of that packing: operand
    sizes and field widths, signs, the smallest vertex counts and levels
    with nothing to check; each against the search that checks every
    subset.  They run with or without the compiled kernel."""

    def _agrees(self, n, edges, base, scale, v0, lo, hi):
        """The pure kernel's outputs, in order, for every kind equal the
        unplanned search's at the total ``sum(base) / scale``; returns how
        many there were."""
        count, total = 0, sum(base) // scale
        for kind, mode in KINDS:
            want = oracles.box_search(n, edges, base, scale, v0, total, lo, hi, kind)
            got = _search(_kernel_py, n, edges, base, scale, v0, lo, hi, mode, range(n))
            assert got == want, (n, edges, base, scale, v0, lo, hi, kind)
            count += len(got)
        return count

    def test_every_basepoint_and_kind_on_corpus(self, corpus_cases):
        # the sweep of TestParity::test_enumeration_agrees, here against the
        # unplanned search, so that the order is checked without a compiler
        swept = 0
        for case in corpus_cases:
            g = case.graph
            n = g.num_vertices
            if n > 7:
                continue
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            lo, hi = ctx.singleton_box()
            args = _kernel_args(ctx)
            for v0, (kind, mode) in product(range(n), KINDS):
                want = oracles.box_search(n, *args, v0, ctx.budget, lo, hi, kind)
                got = _search(_kernel_py, n, *args, v0, lo, hi, mode, range(n))
                assert got == want, (case.index, v0, kind)
                swept += 1
        assert swept > 2000

    def test_operands_past_fast_bound(self):
        # five and six vertices whose box ends and floors lie past 2**60
        # and past 2**64, the box entries of alternating sign
        rng = random.Random(53)
        outputs = 0
        for n, big in product((5, 6), (1 << 60, 3 << 61, 1 << 64, 5 << 70)):
            for _ in range(4):
                edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
                scale = rng.choice((2, 4, 6))
                center = [(-1) ** i * (big + rng.randrange(1000)) for i in range(n)]
                base = [scale * x + rng.randint(-scale, scale) for x in center]
                base[-1] -= sum(base) % scale
                lo = [x - rng.randint(1, 2) for x in center]
                hi = [x + rng.randint(1, 2) for x in center]
                assert max(map(abs, base)) >= FAST_BOUND
                outputs += self._agrees(n, edges, base, scale, rng.randrange(n), lo, hi)
        assert outputs > 500, outputs

    def test_sums_cancel_over_the_whole_set(self):
        # entries of opposite signs: the total and the sum of the box over
        # all vertices are about 0, the partial sums are not; base[-1]
        # moved by 0 or +-scale moves the total off the box's centre
        rng = random.Random(59)
        outputs = 0
        for trial in range(60):
            n = 3 + trial % 4
            edges = [(i, i + 1) for i in range(n - 1)]
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
            scale = 2 * rng.randint(1, 3)
            big = rng.choice((7, 10**3, 10**9))
            center = [(-1) ** i * rng.randint(big, 2 * big) for i in range(n)]
            center[-1] -= sum(center)
            base = [scale * x + rng.randint(-scale, scale) for x in center]
            base[-1] -= sum(base) % scale
            lo = [x - rng.randint(0, 2) for x in center]
            hi = [x + rng.randint(0, 2) for x in center]
            base[-1] += scale * rng.choice((0, 0, 1, -1))
            outputs += self._agrees(n, edges, base, scale, rng.randrange(n), lo, hi)
        assert outputs > 500, outputs

    def test_bounds_beyond_the_box_at_byte_edges(self):
        # vertex 0 boxed at about sign * K (or K / 8), its floor or its
        # ceiling at about -sign * K, beyond the box: its field then holds
        # about 2 * scale * K (or 9/8 of it) below or above the bias.
        # scale * K is 3/4 of 2**(w - 2), so 2B + 2 has w bits, for w on
        # both sides of each byte edge up to 9 bytes; vertices 1 to n - 1
        # alternate in sign
        outputs = 0
        for w, scale, n, sign, shrink in product(
            (7, 8, 9, 16, 17, 63, 64, 72, 73), (2, 4), (2, 3, 5), (1, -1), (1, 8)
        ):
            k = (3 << (w - 3)) // scale
            center = [sign * (-1) ** i * (k // shrink) for i in range(n)]
            lo, hi = [x - 1 for x in center], [x + 1 for x in center]
            total = sum(center)
            edges = [(i, i + 1) for i in range(n - 1)]
            for b0 in (-sign * scale * k, scale * center[0]):
                base = [b0] + [scale * x for x in center[1:]]
                base[-1] += scale * total - sum(base)
                outputs += self._agrees(n, edges, base, scale, 0, lo, hi)
        assert outputs > 100, outputs

    def test_one_and_two_vertices(self):
        outputs = 0
        for total, lo, hi in ((0, [0], [0]), (3, [-2], [5]), (-1, [0], [4]), (9, [0], [8])):
            for scale in (2, 6):
                outputs += self._agrees(1, [(0, 0)], [scale * total], scale, 0, lo, hi)
        for edges, scale, base in product(
            ([], [(0, 1)], [(0, 1)] * 3 + [(1, 1)]), (2, 4), ([2, 2], [3, 1], [-9, 13])
        ):
            for lo, hi in (([-4, -4], [6, 6]), ([1, -3], [1, 8]), ([0, 0], [-1, 9])):
                for v0 in (0, 1):
                    outputs += self._agrees(2, edges, base, scale, v0, lo, hi)
        assert outputs > 100, outputs

    def test_levels_without_checks(self):
        # random problems with boxes around a random point of the singleton
        # box: some level keeps no bound, as the box implies every bound
        # there, both when its masks all carry bounds in the plan and when
        # some are prefixes in the plan already; others keep only lower or
        # only upper bounds
        rng = random.Random(61)
        seen = dict.fromkeys(("all checked", "with prefixes", "lower only", "upper only"), 0)
        for trial in range(150):
            n = 3 + trial % 5
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            kept, base, scale = _kernel_args(ctx)
            tables = _kernel_py.build_tables(n, kept, base, scale)
            lo, hi = ctx.singleton_box()
            if any(a > b for a, b in zip(lo, hi)):
                continue
            point = [rng.randint(a, b) for a, b in zip(lo, hi)]
            lo = [max(a, x - rng.randint(0, 1)) for a, x in zip(lo, point)]
            hi = [min(b, x + rng.randint(0, 1)) for b, x in zip(hi, point)]
            total = ctx.budget
            for kind, mode in KINDS:
                levels = _kept_per_level(n, scale, tables, ctx._v0, total, lo, hi, mode)
                if not any(low or high for low, high, _ in levels):
                    continue  # nothing cuts anywhere
                for low, high, prefixes in levels:
                    if not low and not high:
                        seen["with prefixes" if prefixes else "all checked"] += 1
                    elif not high:
                        seen["lower only"] += 1
                    elif not low:
                        seen["upper only"] += 1
            self._agrees(n, kept, base, scale, ctx._v0, lo, hi)
        assert min(seen.values()) >= 20, seen

    def test_interval_scan_edges(self):
        # the passing values of a node are one interval, found by scanning
        # in from both ends: nodes where the lower scan empties the range,
        # where the upper scan trims it, and where one value is left; the
        # singleton box and boxes around a random point of it
        rng = random.Random(79)
        seen = dict.fromkeys(("lower empties", "upper trims", "one value"), 0)
        for trial in range(150):
            n = 2 + trial % 6
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            kept, base, scale = _kernel_args(ctx)
            tables = _kernel_py.build_tables(n, kept, base, scale)
            lo, hi = ctx.singleton_box()
            if any(a > b for a, b in zip(lo, hi)):
                continue
            point = [rng.randint(a, b) for a, b in zip(lo, hi)]
            narrow = (
                [max(a, x - rng.randint(0, 2)) for a, x in zip(lo, point)],
                [min(b, x + rng.randint(0, 2)) for b, x in zip(hi, point)],
            )
            v0 = rng.randrange(n)
            for box_lo, box_hi in ((lo, hi), narrow):
                for _, mode in KINDS:
                    _interval_edges(n, scale, tables, v0, ctx.budget, box_lo, box_hi, mode, seen)
                self._agrees(n, kept, base, scale, v0, box_lo, box_hi)
        assert min(seen.values()) >= 20, seen


class TestTileOracle:
    def test_box_search_matches_tile_points(self):
        # the tile points, one per spanning tree of G - S, are a second
        # quasistable oracle where the brute force is too slow: chorded
        # cycles of 8 to 12 vertices at q = 1/2 with their first chord as
        # the stratum, and random multigraphs of 8 to 12 vertices with loops,
        # parallel edges and a random stratum, some with G - S disconnected
        rng = random.Random(91)
        problems = []
        for n in range(8, 13):
            g = corpus.chorded_cycle(n)
            values = [Fraction(1, 2)] * n
            values[-1] += n % 2 * Fraction(1, 2)
            problems.append((g, Polarization(g, values), [f"e{n}"]))
        for _ in range(40):
            n = rng.randint(8, 12)
            names = [f"v{i}" for i in range(n)]
            edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
            edges += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(3, 8))]
            rng.shuffle(edges)
            g = Multigraph(names, edges)
            stratum = [e for e in g.edge_ids() if rng.random() < 0.1]
            problems.append((g, corpus._random_polarization(rng, g), stratum))
        empty = points = 0
        for g, q, stratum in problems:
            n = g.num_vertices
            basepoint = rng.choice(g.vertices)
            want = oracles.tile_points(g, q, basepoint, stratum)
            ctx = StratumContext(g, q, basepoint, stratum)
            lo, hi = ctx.singleton_box()
            args = (n, *_kernel_args(ctx), ctx._v0, lo, hi, MODE_QUASISTABLE, range(n))
            for impl in implementations():
                assert sorted(_search(impl, *args)) == want, (g, stratum, impl.__name__)
            empty += not want
            points += len(want)
        assert empty > 0 and points > 5000, (empty, points)


class TestLayout:
    """Each row is one int in the layout of the box in output order: the
    kernels against each other, and their rows unpacked against the search
    that checks every subset, where the layout changes shape."""

    def _rows(self, n, edges, base, scale, v0, lo, hi, at=None):
        """Every kernel's rows, the same ints on each, unpacked and checked
        against ``oracles.box_search`` in every kind; returns their count."""
        at = list(range(n)) if at is None else at
        inv = sorted(range(n), key=at.__getitem__)
        total, count = sum(base) // scale, 0
        for kind, mode in KINDS:
            want = oracles.box_search(n, edges, base, scale, v0, total, lo, hi, kind)
            want = sorted(tuple(d[k] for k in inv) for d in want)
            layout = _layout(lo, hi, at)
            raw = [impl.box_enumerate(n, edges, base, scale, v0, mode, at, layout, LIMIT)
                   for impl in implementations()]
            assert all(r == raw[0] for r in raw), kind
            assert sorted(_search(_kernel_py, n, edges, base, scale, v0, lo, hi, mode, at)) == want
            assert sorted(raw[0]) == raw[0] or at != list(range(n)), kind
            count += len(want)
        return count

    def test_one_and_two_byte_fields(self):
        # 256 codes fit one byte a field, 257 take two: 127 parallel edges
        # between u and v, alone at q = (1/2, -1/2) (256 codes), and with a
        # pendant vertex at q = 0 or 1/2 (257 codes), in their own order
        # and reversed
        for pendant, qu, size in ((0, Fraction(1, 2), 1), (1, Fraction(0), 2),
                                  (1, Fraction(1, 2), 2)):
            names = ["u", "v", "w"][: 2 + pendant]
            g = Multigraph(names, [("u", "v")] * 127 + [("u", "w")] * pendant)
            q = Polarization(g, [qu, -qu, Fraction(0)][: len(names)])
            ctx = StratumContext(g, q, "u")
            lo, hi = ctx.singleton_box()
            layout = Layout.of(lo, hi)
            assert sum(b - a + 1 for a, b in zip(lo, hi)) == 255 + size
            assert layout.size == size
            n = len(names)
            args = (n, *_kernel_args(ctx), ctx._v0, lo, hi)
            assert self._rows(*args) > 0
            assert self._rows(*args, at=list(range(n))[::-1]) > 0
            got, rows = ctx._packed("quasistable")
            assert got == layout and len(rows) == 127
            assert [c.values for c in ctx.enumerate("quasistable")] == layout.unpack(rows)

    def test_one_vertex(self):
        # no search: the whole total, packed as total - lo, when it lies in
        # the box, on every kernel
        for total, lo, hi in ((0, 0, 0), (3, -2, 5), (-1, 0, 4), (9, 0, 8), (300, 0, 400)):
            for impl in implementations():
                layout = Layout.of([lo], [hi])
                rows = impl.box_enumerate(1, [(0, 0)], [2 * total], 2, 0, MODE_QUASISTABLE, [0],
                                          layout, LIMIT)
                assert rows == ([total - lo] if lo <= total <= hi else []), impl.__name__
                assert layout.unpack(rows) == [(total,)][: len(rows)]

    def test_empty_box(self):
        # a vertex whose box is empty owns no code, so the layout of the
        # others stays as it was, and no kernel returns a row
        path = [(0, 1), (1, 2)]
        for lo, hi in (([0, 3, 0], [2, 1, 2]), ([0, 0, 5], [2, 2, 4]), ([5, 0, 0], [-5, 2, 2])):
            layout = Layout.of(lo, hi)
            assert layout.size == 1
            for impl, (_, mode) in product(implementations(), KINDS):
                assert impl.box_enumerate(3, path, [2, 2, 0], 2, 0, mode, [0, 1, 2], layout,
                                          LIMIT) == []
        assert self._rows(3, path, [2, 2, 0], 2, 0, [0, 3, 0], [2, 1, 2]) == 0

    def test_random_boxes_and_orders(self):
        # boxes around a random point, from a few codes to a few hundred,
        # placed by a random ``at``
        rng = random.Random(97)
        sizes, outputs = set(), 0
        for trial in range(60):
            n = 2 + trial % 4
            g, q, basepoint, stratum = _random_problem(rng, n)
            ctx = StratumContext(g, q, basepoint, stratum)
            lo, hi = ctx.singleton_box()
            if any(a > b for a, b in zip(lo, hi)):
                continue
            wide = rng.choice((0, 2, 60, 150))
            lo = [a - rng.randint(0, wide) for a in lo]
            hi = [b + rng.randint(0, wide) for b in hi]
            sizes.add(Layout.of(lo, hi).size)
            at = rng.sample(range(n), n)
            outputs += self._rows(n, *_kernel_args(ctx), ctx._v0, lo, hi, at)
        assert sizes == {1, 2} and outputs > 200, (sizes, outputs)

    def test_too_many_codes_refused(self):
        # past 2**32 codes no field size of 1, 2 or 4 bytes holds them; the
        # kernels pack in the layout they are given, so only it refuses
        assert Layout.of([0], [(1 << 32) - 1]).size == 4
        with pytest.raises(OverflowError):
            Layout.of([0, 0], [1 << 31, 1 << 31])


def test_limit_keeps_the_first_rows(corpus_cases):
    # under a limit each kernel stops once it holds limit + 1 rows: the
    # first ones of its full output, in its search order, the same on both
    # kernels; every corpus case in every mode, at limits 0, 1 and 5
    stopped = 0
    for case in corpus_cases:
        g = case.graph
        n = g.num_vertices
        ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
        lo, hi = ctx.singleton_box()
        for _, mode in KINDS:
            args = (n, *_kernel_args(ctx), ctx._v0, mode, range(n), Layout.of(lo, hi))
            full = _kernel_py.box_enumerate(*args, LIMIT)
            for limit in (0, 1, 5):
                got = [impl.box_enumerate(*args, limit) for impl in implementations()]
                assert got[0] == got[-1] == full[: limit + 1], (case.index, mode, limit)
                stopped += len(full) > limit + 1
    assert stopped > 300, stopped


@needs_speedups
class TestParity:
    def test_one_signature(self):
        # the compiled kernel's docstring opens with its parameter list,
        # which names the pure kernel's parameters in the same order, so the
        # two entry points cannot drift apart
        compiled = implementations()[0]
        first = compiled.box_enumerate.__doc__.splitlines()[0]
        head = re.fullmatch(r"box_enumerate\((.*)\) -> list of ints", first)
        assert head, first
        names = [name.strip() for name in head.group(1).split(",")]
        assert names == list(inspect.signature(_kernel_py.box_enumerate).parameters)
        assert names == ["n", "edges", "base", "scale", "v0", "mode", "at", "layout", "limit"]

    def test_enumeration_agrees(self, corpus_cases):
        # every corpus case at every basepoint in every mode, in vertex
        # order and with a random ``at``
        compiled = implementations()[0]
        rng = random.Random(37)
        for case in corpus_cases:
            g = case.graph
            n = g.num_vertices
            ctx = StratumContext(g, case.q, case.basepoint, case.stratum)
            lo, hi = ctx.singleton_box()
            args = (n, *_kernel_args(ctx))
            for at in (range(n), rng.sample(range(n), n)):
                layout = _layout(lo, hi, at)
                for v0, (_, mode) in product(range(n), KINDS):
                    rest = (v0, mode, at, layout, LIMIT)
                    got_pure = _kernel_py.box_enumerate(*args, *rest)
                    assert compiled.box_enumerate(*args, *rest) == got_pure

    def test_enumeration_agrees_beyond_corpus(self):
        # the sizes the corpus (up to 6 vertices) and the random-problem
        # tests (up to 8) do not reach: chorded cycles of 10, 12 and 14
        # vertices at q = 1/2 with one chord as the stratum, and random
        # problems of 9 to 12 vertices, each at two random basepoints, in
        # every mode, with a random ``at``
        compiled = implementations()[0]
        rng = random.Random(83)
        problems = []
        for n in (10, 12, 14):
            g = corpus.chorded_cycle(n)  # edge e(n) is its first chord
            problems.append((g, Polarization(g, [Fraction(1, 2)] * n), [f"e{n}"]))
        for n in (9, 10, 11, 12):
            for _ in range(3):
                g, q, _, stratum = _random_problem(rng, n)
                problems.append((g, q, stratum))
        rows = 0
        for g, q, stratum in problems:
            n = g.num_vertices
            for basepoint in rng.sample(g.vertices, 2):
                ctx = StratumContext(g, q, basepoint, stratum)
                lo, hi = ctx.singleton_box()
                at = rng.sample(range(n), n)
                for _, mode in KINDS:
                    args = (n, *_kernel_args(ctx), ctx._v0, mode, at, _layout(lo, hi, at), LIMIT)
                    want = _kernel_py.box_enumerate(*args)
                    assert compiled.box_enumerate(*args) == want, (n, basepoint, mode)
                    rows += len(want)
        assert rows > 10_000, rows

    def test_beyond_the_scan_guard(self):
        # no vertex guard: the compiled kernel takes up to 24 vertices (the
        # library sends more to the pure kernel); quasistable on chorded
        # cycles of 21 and 22 vertices it matches the pure kernel, and up
        # to 24 its row count is the tree count
        compiled = implementations()[0]
        for n in (21, 22, 24):
            g = corpus.chorded_cycle(n)
            values = [Fraction(1, 2)] * n
            values[-1] += n % 2 * Fraction(1, 2)
            ctx = StratumContext(g, Polarization(g, values), g.vertices[0])
            lo, hi = ctx.singleton_box()
            args = (n, *_kernel_args(ctx), ctx._v0, MODE_QUASISTABLE, range(n), Layout.of(lo, hi),
                    LIMIT)
            rows = compiled.box_enumerate(*args)
            if n < 24:
                assert rows == _kernel_py.box_enumerate(*args), n
            assert len(rows) == oracles.kirchhoff_count(g), n


@needs_speedups
class TestCompiledChecks:
    """The extension's own checks on what it reads from Python: the
    overflow check backs up the FAST_BOUND routing, the others keep its
    reads in bounds."""

    def test_values_beyond_64_bits_raise(self):
        compiled = implementations()[0]
        box = (0, MODE_SEMISTABLE, [0, 1], Layout.of([0, 0], [1, 1]), LIMIT)
        for big in (1 << 63, -(1 << 63) - 1, 1 << 70):
            with pytest.raises(OverflowError):
                compiled.box_enumerate(2, [(0, 1)], [big, 0], 2, *box)
            with pytest.raises(OverflowError):
                compiled.box_enumerate(2, [(0, 1)], [0, 0], big, *box)
            with pytest.raises(OverflowError):
                compiled.box_enumerate(
                    2, [(0, 1)], [0, 0], 2, *box[:3], Layout.of([big, 0], [big, 1]), LIMIT
                )

    def test_malformed_input_rejected(self):
        # an edge endpoint outside 0..n - 1, n outside 1..24 (24 itself
        # taken), v0 outside 0..n - 1 and a base of the wrong length
        compiled = implementations()[0]
        box = (MODE_SEMISTABLE, [0, 1], Layout.of([0, 0], [1, 1]), LIMIT)
        two = (2, [(0, 1)], [1, 1], 2, 0, [0, 0], [1, 1], MODE_SEMISTABLE, [0, 1])
        assert _search(compiled, *two) == [(0, 1), (1, 0)]
        zeros = [0] * 24
        assert _search(
            compiled, 24, [], zeros, 2, 0, zeros, zeros, MODE_SEMISTABLE, range(24)
        ) == [tuple(zeros)]
        for bad_edge in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError):
                compiled.box_enumerate(2, [bad_edge], [1, 1], 2, 0, *box)
        for bad_n in (0, 25):
            with pytest.raises(ValueError):
                compiled.box_enumerate(
                    bad_n, [], [0] * bad_n, 2, 0,
                    MODE_SEMISTABLE, range(bad_n), Layout.of([0] * bad_n, [0] * bad_n), LIMIT,
                )
        for bad_v0 in (2, -1):
            with pytest.raises(ValueError):
                compiled.box_enumerate(2, [(0, 1)], [1, 1], 2, bad_v0, *box)
        for bad_base in ([1], [1, 1, 0]):
            with pytest.raises(ValueError):
                compiled.box_enumerate(2, [(0, 1)], bad_base, 2, 0, *box)

    def test_at_not_a_permutation_raises(self):
        # a repeated position, one past the end, a negative one, and too
        # few or too many; one vertex, whose search never reads ``at``
        # beyond its check, included
        compiled = implementations()[0]
        graph = (3, [(0, 1), (1, 2)], [1, 1, 0], 2, 0, MODE_SEMISTABLE)
        for bad_at in ([0, 1, 1], [0, 1, 3], [-1, 0, 1], [0, 1], [0, 1, 2, 3]):
            with pytest.raises(ValueError):
                compiled.box_enumerate(*graph, bad_at, Layout.of([0] * 3, [1] * 3), LIMIT)
        one = (1, [], [4], 2, 0, MODE_SEMISTABLE)
        for bad_at in ([1], [-1], []):
            with pytest.raises(ValueError):
                compiled.box_enumerate(*one, bad_at, Layout.of([0], [5]), LIMIT)
        assert _search(compiled, 1, [], [4], 2, 0, [0], [5], MODE_SEMISTABLE, [0]) == [(2,)]

    def test_layout_not_a_layout_raises(self):
        # the layout is read as the tuple of its six fields, its field size
        # 1, 2 or 4 bytes and its lo, hi and shift n values each
        compiled = implementations()[0]
        graph = (3, [(0, 1), (1, 2)], [1, 1, 0], 2, 0, MODE_SEMISTABLE, [2, 0, 1])
        layout = Layout.of([0, -1, 0], [1, 1, 2])
        assert compiled.box_enumerate(*graph, layout, LIMIT) == _kernel_py.box_enumerate(
            *graph, layout, LIMIT
        )
        for bad in (list(layout), layout[:5], (*layout, 0)):
            with pytest.raises(TypeError):
                compiled.box_enumerate(*graph, bad, LIMIT)
        for bad in (
            layout._replace(size=3),
            layout._replace(size=0),
            layout._replace(shift=layout.shift[:-1]),
            layout._replace(lo=layout.lo[:-1]),
            layout._replace(hi=(*layout.hi, 1)),
        ):
            with pytest.raises(ValueError):
                compiled.box_enumerate(*graph, bad, LIMIT)


def test_c_source_compiles_without_warnings(c_compiler):
    # the session build keeps the compiler's output only when no module is
    # built, so a warning in the hand-written C surfaces here
    source = Path(__file__).resolve().parent.parent / "src" / "jacgraph" / "_speedups.c"
    paths = sysconfig.get_paths()
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror"]
    headers = [f"-I{paths['include']}", f"-I{paths['platinclude']}"]
    done = subprocess.run([*c_compiler, *flags, *headers, str(source)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
        # the library's enum rows, labelled with the kernel it picks
        kernel = _kernel.implementation_name()
        assert f"  ({kernel}, 15 rows)\n" in out
        assert f"  ({kernel}, 19 rows)\n" in out
        assert out.count(" enum ss ") == 2
        # one enumerate row per size, and the pure kernel's table step
        # alone, its time in the pure column
        assert out.count(" enumerate ") == 2
        assert out.count(" pure tables ") == 2
        # the strata walk's tree lister, as many trees as multidegrees
        assert len(re.findall(r"^  6 trees +[0-9.]+ms  \(15 spanning trees\)$", out, re.M)) == 1
        assert len(re.findall(r"^  7 trees +[0-9.]+ms  \(19 spanning trees\)$", out, re.M)) == 1
        # their tile points, which the script checks against the quasistable set
        assert len(re.findall(r"^  6 tiles +[0-9.]+ms  \(15 tile points\)$", out, re.M)) == 1
        assert len(re.findall(r"^  7 tiles +[0-9.]+ms  \(19 tile points\)$", out, re.M)) == 1
        # the spanning-tree count next to the degree class group at each size
        assert re.findall(r"^ +([67]) complexity +[0-9.]+ms$", out, re.M) == ["6", "7"]
        # the classification walk on a general polarization, and the number
        # of connected subsets it walks beside the plan's count
        assert re.findall(r"^ +([67]) classify +[0-9.]+ms$", out, re.M) == ["6", "7"]
        assert "(plan checks 15 of 64 subsets, keeps 0 more as prefixes; 40 are connected)" in out
        assert "(plan checks 21 of 128 subsets, keeps 0 more as prefixes; 61 are connected)" in out
        header = next(line for line in out.splitlines() if " operation " in line)
        for line in out.splitlines():
            if " pure tables " in line:
                assert len(line) == header.index("pure") + 4 and line.endswith("ms"), line


class TestSnapshotScript:
    def test_ext_that_does_not_load_exits_2(self, tmp_path):
        # benchmarks/cli_snapshot.py --ext must not fall back to the pure
        # kernel, or a compiled-vs-pure comparison passes vacuously; it
        # stops before building any request
        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "jacgraph"
        if any((package / f"_speedups{suffix}").exists() for suffix in EXTENSION_SUFFIXES):
            pytest.skip("src/ holds a built extension, which loads without --ext")
        out = tmp_path / "snapshot.txt"
        done = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "cli_snapshot.py"), str(root), str(out),
             "--ext", str(tmp_path / "nonexistent")],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2, done.stderr
        assert "the compiled kernel did not load" in done.stderr
        assert not out.exists()
