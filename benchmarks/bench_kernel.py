"""Timing comparison of the compiled and pure subset-scan kernels.

Runs the kernel entry point (``box_enumerate``: table construction and box
search, in the kernel's own vertex order, packing in the singleton box's
``Layout``, which is built outside the timing) on chorded cycle graphs of
growing size and reports per-call times for every available
implementation, and the pure kernel's table step (``build_tables``) alone
in a ``pure tables`` row.  The ``enum`` rows time what the library and
the command line run for the quasistable and semistable sets
(``StratumContext._packed``: its level order, the kernel it picks,
labelled, and the one sort of the packed rows, which stay packed); the
``enumerate`` rows return packed rows too, unsorted.  Five more library
calls run with one implementation and no kernel involved: the minimum-cut
defect scan, the spanning-tree lister of the strata walk
(``strata._spanning_trees``, its ``trees`` row giving the count, which
equals the quasistable count), the tile points of those trees
(``strata._tile_point``, its ``tiles`` row; the script checks that they,
packed in the same layout, are the quasistable rows), the degree class
group (``picard_group``) of the graph, which it takes on the cycle side, and of
the graph with every edge doubled, which it takes on the Laplacian side,
and the spanning-tree count of the graph (``complexity``, the group's
order), in the ``complexity`` row.  The ``classify`` row times
``integral_witness`` on a general polarization of the graph, which walks
every connected vertex subset.  For each size it also prints how many of
the 2^n vertex subsets the box search's plan checks and how many more it
keeps only as prefixes, counted on the pure kernel's plan (the compiled
kernel keeps the same plan, one byte per mask), and how many are
connected.  Every row is printed at every size; above the compiled
kernel's ``MAX_VERTICES``, where the library takes the pure kernel, the
compiled column of the ``enumerate`` row reads ``-``, and an ``enum``
row the library refuses, past ``_kernel.LIMIT`` rows, prints the refusal.

    python benchmarks/bench_kernel.py
    python benchmarks/bench_kernel.py --sizes 12,14,16 --repeat 5
    python benchmarks/bench_kernel.py --sizes 20,22,24,26 --repeat 1
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from jacgraph import Multigraph, Polarization, StratumContext, complexity, picard_group
from jacgraph import GuardLimitError, _kernel_py
from jacgraph._kernel import (
    LIMIT,
    MAX_VERTICES,
    MODE_QUASISTABLE,
    Layout,
    implementation_name,
    implementations,
)
from jacgraph.graph import _adjacency_masks, _connected_subsets


def chorded_cycle(n: int) -> Multigraph:
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    for i in range(0, n // 2, 3):
        edges.append((names[i], names[i + n // 2]))
    return Multigraph(names, edges)


def kernel_inputs(g: Multigraph, q: Polarization, basepoint):
    """The context and the kernel arguments it passes: kept edges, scaled
    polarization, scale, basepoint index and the layout of the singleton
    box."""
    ctx = StratumContext(g, q, basepoint)
    return ctx, ctx._kept, ctx._base, ctx.scale, ctx._v0, Layout.of(*ctx.singleton_box())


def best_of(repeat, fn, *args):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def impl_label(mod) -> str:
    return "compiled" if "speedups" in mod.__name__ else "pure"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,12,14", help="comma-separated vertex counts")
    parser.add_argument("--repeat", type=int, default=3, help="take the best of this many runs")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    # imported here, not at the top: perfbench imports this file for
    # chorded_cycle and leaves the first load of strata to a timed request
    from jacgraph import strata

    mods = implementations()
    print(f"implementations: {', '.join(impl_label(m) for m in mods)}")
    header = f"{'n':>3} {'operation':<12}" + "".join(
        f"{impl_label(m):>12}" for m in mods
    )
    if len(mods) > 1:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for n in sizes:
        g = chorded_cycle(n)
        doubled = Multigraph(g.vertices, [(e.u, e.v) for e in g.edges] * 2)
        for label, fn, graph in (
            ("picard", picard_group, g),
            ("complexity", complexity, g),
            ("picard x2", picard_group, doubled),
        ):
            t_call, _ = best_of(args.repeat, fn, graph)
            print(f"{n:>3} {label:<12}{t_call * 1e3:>10.2f}ms")
        half = Fraction(1, 2)
        values = [half] * n
        if n % 2:
            values[-1] = Fraction(1)  # keep the total an integer
        q = Polarization(g, values)
        ctx, edges, base, scale, v0, layout = kernel_inputs(g, q, g.vertices[0])
        d = list(range(n))
        d[-1] = ctx.budget - sum(d[:-1])

        times = []
        counts = None
        for mod in mods:
            if mod is not _kernel_py and n > MAX_VERTICES:
                times.append(None)  # past the compiled kernel's arrays
                continue
            t_enum, found = best_of(
                args.repeat,
                mod.box_enumerate,
                n,
                edges,
                base,
                scale,
                v0,
                MODE_QUASISTABLE,
                range(n),  # rows in the search's own vertex order
                layout,
                LIMIT,
            )
            times.append(t_enum)
            if counts is None:
                counts = len(found)
            elif counts != len(found):
                raise SystemExit("implementations disagree on the enumeration")
        line = f"{n:>3} {'enumerate':<12}" + "".join(
            f"{'-':>12}" if t is None else f"{t * 1e3:>10.2f}ms" for t in times
        )
        if len(times) > 1 and times[0] is not None:
            line += f"{times[-1] / times[0]:>9.1f}x"
        print(line)
        # the pure kernel's table step alone, in the pure column
        t_build, (_, plan) = best_of(args.repeat, _kernel_py.build_tables, n, edges, base, scale)
        pad = " " * 12 * (len(mods) - 1)
        print(f"{n:>3} {'pure tables':<12}{pad}{t_build * 1e3:>10.2f}ms")
        for kind in ("quasistable", "semistable"):
            label = f"enum {kind[:1]}s"
            try:
                t_enum, (_, got) = best_of(args.repeat, ctx._packed, kind)
            except GuardLimitError as exc:
                print(f"{n:>3} {label:<12}  (refused: {exc})")
                continue
            print(
                f"{n:>3} {label:<12}{t_enum * 1e3:>10.2f}ms"
                f"  ({implementation_name() if n <= MAX_VERTICES else 'pure'}, {len(got)} rows)"
            )
        t_cut, _ = best_of(args.repeat, ctx._defect_cut, d)
        print(f"{n:>3} {'min cut':<12}{t_cut * 1e3:>10.2f}ms")
        t_trees, trees = best_of(args.repeat, strata._spanning_trees, n, g._pairs)
        if len(trees) != counts:
            raise SystemExit("the spanning trees and the quasistable multidegrees disagree")
        print(f"{n:>3} {'trees':<12}{t_trees * 1e3:>10.2f}ms  ({len(trees)} spanning trees)")
        t_tiles, tiles = best_of(
            args.repeat, lambda: [strata._tile_point(ctx, g._pairs, t) for t in trees]
        )
        layout, rows = ctx._packed("quasistable")
        if sorted(layout.pack(d) for d, _ in tiles) != rows:
            raise SystemExit("the tile points and the quasistable multidegrees disagree")
        print(f"{n:>3} {'tiles':<12}{t_tiles * 1e3:>10.2f}ms  ({len(tiles)} tile points)")
        # 2**i / modulus on all but the last vertex, which balances them: for
        # an odd modulus above their sum no proper subset is integral
        modulus = (1 << n) + 1
        weights = [Fraction(1 << i, modulus) for i in range(n - 1)]
        general = Polarization(g, weights + [-sum(weights)])
        t_classify, hit = best_of(args.repeat, general.integral_witness)
        if hit is not None:
            raise SystemExit("the general polarization has an integral subset")
        print(f"{n:>3} {'classify':<12}{t_classify * 1e3:>10.2f}ms")
        checks = [c for level in plan for _, c in level]
        checked = sum(1 for c in checks if c)
        connected = sum(map(len, _connected_subsets(n, _adjacency_masks(n, g._pairs))))
        print(f"    ({counts} quasistable multidegrees)")
        print(
            f"    (plan checks {checked} of {1 << n} subsets, "
            f"keeps {len(checks) - checked} more as prefixes; {connected} are connected)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
